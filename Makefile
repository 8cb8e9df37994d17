PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-check bench-quick figures examples net-loopback net-residency net-soak fault-matrix serve-smoke tht-store perfbench-selftest ci

# Tier-1 verification: the full unit + integration suite.
test:
	$(PYTHON) -m pytest tests -x -q

# Perf trajectory: run the microbenchmark + end-to-end suite and write
# BENCH_<n>.json at the repo root (see PERFORMANCE.md for the schema).
bench:
	$(PYTHON) scripts/bench.py

# One-command gate for PRs: tier-1 tests + keygen-equivalence suite + perf
# thresholds; non-zero exit on any regression.
bench-check:
	$(PYTHON) scripts/bench.py --check

bench-quick:
	$(PYTHON) scripts/bench.py --quick

# Figure/table regeneration harness (pytest-benchmark based).
figures:
	$(PYTHON) -m pytest benchmarks -q

# API-facing docs can't rot: run the doctests of the public API modules and
# execute all four examples serially at smoke scales.
examples:
	$(PYTHON) -m pytest --doctest-modules src/repro/session -q
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/heat_diffusion.py
	$(PYTHON) examples/option_pricing.py tiny
	$(PYTHON) examples/adaptive_approximation.py tiny

# Remote-worker backend: parity + fault-injection matrix over the loopback
# transport, the wire properties, the subprocess endpoints' shared-memory
# plane and the gateway (which decodes through the worker codec), cache-less
# and fail-fast (mirrors the CI step), and the soak tier
# (500-task churn with mid-drain worker loss, excluded from tier-1).
net-loopback:
	$(PYTHON) -m pytest tests/runtime/test_executor_parity.py \
		tests/runtime/test_net_faults.py \
		tests/runtime/test_net_wire_property.py \
		tests/runtime/test_process_backend.py \
		tests/serving/test_gateway.py -p no:cacheprovider -x -q

# Residency protocol tier: the hypothesis interleaving property + unit
# rules for the per-endpoint stale-bytes caches, the parity matrix (which
# runs the network backend residency-on and -off) and the failover
# scenarios that exercise residency invalidation.
net-residency:
	$(PYTHON) -m pytest tests/runtime/test_residency_property.py \
		tests/runtime/test_executor_parity.py \
		tests/runtime/test_net_faults.py -p no:cacheprovider -x -q

net-soak:
	$(PYTHON) -m pytest -m net_soak -q

# Supervision tier: the cross-backend fault-injection matrix (raising,
# flaky, wedged and worker-killing tasks against timeouts/retries/
# quarantine on every executor; excluded from tier-1 by the marker
# expression in pytest.ini because it sleeps and kills workers on purpose).
fault-matrix:
	$(PYTHON) -m pytest -m fault -q

# Serving tier: the gateway smoke (concurrent tenants bit-identical to a
# serial Session, ATM namespace isolation, shared-THT reuse) plus the
# multi-client soak tests excluded from tier-1 by the `serving` marker.
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py
	$(PYTHON) -m pytest -m serving -q

# Persistent THT tier: the store/shard unit + integration suite (file
# format, corruption handling, shard protocol, Session warm starts, the
# gateway's store-backed shared tier) plus the cold-vs-warm benchmark in
# quick mode — proves warm restores stay bit-identical end to end.
tht-store:
	$(PYTHON) -m pytest tests/atm/test_tht_store.py \
		tests/serving/test_gateway.py -x -q
	$(PYTHON) scripts/bench.py --quick --out /tmp/tht_store_bench.json

# Benchmark runner self-test: every workload at scale tiny, traced and
# untraced, with its output checks, leak checks and metric contract.
perfbench-selftest:
	$(PYTHON) perfbench/selftest.py

# Mirror of .github/workflows/ci.yml: tier-1 suite, examples smoke,
# network-loopback matrix + soak, serving smoke, perf gates.
ci:
	$(PYTHON) -m pytest -x -q
	$(MAKE) examples
	$(MAKE) net-loopback
	$(MAKE) net-residency
	$(MAKE) net-soak
	$(MAKE) serve-smoke
	$(MAKE) fault-matrix
	$(MAKE) tht-store
	$(MAKE) perfbench-selftest
	$(PYTHON) scripts/bench.py --check
