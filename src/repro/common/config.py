"""Configuration objects for the runtime, the ATM engine and the simulator.

All knobs of the paper's Section III / IV live here so experiments can be
described declaratively:

* THT geometry (``2^N`` buckets of ``M`` entries, per-bucket locks);
* IKT sizing (one entry per thread);
* input-sampling percentage ``p`` and its training schedule
  (``p0 = 2^-15``, doubling, at most 15 steps, ``L_training`` successes);
* the per-task error threshold ``tau_max``;
* the simulated machine (cores, memoization copy bandwidth, hash bandwidth,
  task-creation throughput, memory-contention model).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.common.exceptions import ConfigurationError
from repro.common.registry import EXECUTORS, POLICIES, SCHEDULERS

__all__ = [
    "ATMConfig",
    "RuntimeConfig",
    "ServingConfig",
    "SimulationConfig",
    "MIN_P",
    "P_LADDER",
]

#: Smallest sampling fraction explored by Dynamic ATM: 2^-15 (paper III-D).
MIN_P: float = 2.0 ** -15

#: The 16-step ladder of sampling fractions 2^-15, 2^-14, ..., 2^-1, 1.0.
P_LADDER: tuple[float, ...] = tuple(2.0 ** exp for exp in range(-15, 1))


@dataclass
class ATMConfig:
    """Configuration of the ATM engine (Sections III-A to III-D).

    Attributes
    ----------
    mode:
        Operating policy name resolved through the policy registry
        (:data:`repro.common.registry.POLICIES`): ``"none"`` (no engine is
        installed), ``"static"``, ``"dynamic"``, ``"fixed_p"`` or any name a
        plugin registered.  The Session API builds the policy and the engine
        from this field; the engine itself never reads it.
    tht_bucket_bits:
        ``N``: the THT has ``2^N`` buckets.  The paper uses ``N = 8``.
    tht_bucket_capacity:
        ``M``: entries per bucket, FIFO-evicted.  The paper uses ``M = 16``
        for most benchmarks and ``M = 128`` for Kmeans (and for all reported
        experiments).
    use_ikt:
        Whether the In-flight Key Table is enabled.
    p:
        Input-byte sampling fraction used by Static ATM / fixed-p policies.
    tau_max:
        Per-task Chebyshev error threshold for Dynamic ATM training.
    l_training:
        Number of correctly approximated tasks required before Dynamic ATM
        freezes ``p`` and enters the steady-state phase.
    p_initial:
        First sampling fraction explored during training (paper: ``2^-15``).
    type_aware:
        Enable MSB-first type-aware input selection (Section III-C).
    hash_function:
        Which whole-buffer hash to use: ``"numpy"`` (vectorised, default),
        ``"lookup3"`` (exact Jenkins lookup3) or ``"one_at_a_time"``.
    hash_seed:
        Seed mixed into every hash key.
    track_unstable_outputs:
        Maintain the set of output pointers whose training error exceeded
        ``tau_max`` and refuse to memoize tasks writing to them (Section
        III-D, needed by Jacobi).
    shuffle_seed:
        Seed of the per-task-type index shuffle (stored once per task type).
    key_pipeline:
        How composite hash keys are built from the sampled input bytes:

        * ``"exact"`` (default) — hash the shuffled, interleaved sample
          stream, bit-identical to the original (seed) key generator;
        * ``"digest"`` — hash each input's sampled bytes independently and
          combine the per-input digests with splitmix64 mixing.  Keys stay
          order- and content-sensitive (and equal the exact keys for
          single-input tasks) but multi-input composites differ from the
          seed values; in exchange per-input digests of unchanged regions
          are reused from an 8-byte cache.
    key_cache:
        Enable the region-version keyed caches (whole-key, per-region sample
        bytes and per-region digests).  Requires every write to go through a
        declared ``out``/``inout`` access or :meth:`DataRegion.copy_from`,
        which is already the dependence-system contract.
    key_cache_budget_bytes:
        LRU budget shared by all key-cache entries.
    shuffle_cache_entries:
        LRU bound on the number of stored shuffle records (one per
        ``(task type, total input bytes)``), fixing the unbounded growth the
        seed implementation exhibited for apps with many distinct sizes.
    tht_store:
        Persistent THT tier (DESIGN.md §9), ``None`` (default) for the
        classic session-lifetime table.  ``"file://<path>"`` warm-starts the
        THT from a snapshot file on Session open and flushes the run's delta
        back on ``finish()``; ``"tcp://<host>:<port>"`` attaches to a
        running ``scripts/tht_shard.py`` cache-shard daemon so concurrent
        sessions and gateways share one warm tier.  A corrupt or unreachable
        store degrades to a cold start — it never fails the run.
    tht_store_compact_frames:
        Append-then-compact bound of the ``file://`` store: when a flush
        leaves more than this many delta frames in the file, it is rewritten
        (atomically) as one consolidated snapshot.
    """

    mode: str = "none"
    tht_bucket_bits: int = 8
    tht_bucket_capacity: int = 128
    use_ikt: bool = True
    p: float = 1.0
    tau_max: float = 0.01
    l_training: int = 15
    p_initial: float = MIN_P
    type_aware: bool = True
    hash_function: str = "numpy"
    hash_seed: int = 0x5EED
    track_unstable_outputs: bool = True
    shuffle_seed: int = 0xC0FFEE
    key_pipeline: str = "exact"
    key_cache: bool = True
    key_cache_budget_bytes: int = 32 << 20
    shuffle_cache_entries: int = 256
    tht_store: Optional[str] = None
    tht_store_compact_frames: int = 8

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        POLICIES.validate_name(self.mode, field="mode")
        if self.tht_bucket_bits < 0 or self.tht_bucket_bits > 24:
            raise ConfigurationError(
                f"tht_bucket_bits must be in [0, 24], got {self.tht_bucket_bits}"
            )
        if self.tht_bucket_capacity < 1:
            raise ConfigurationError(
                f"tht_bucket_capacity must be >= 1, got {self.tht_bucket_capacity}"
            )
        if not (0.0 < self.p <= 1.0):
            raise ConfigurationError(f"p must be in (0, 1], got {self.p}")
        if not (0.0 < self.p_initial <= 1.0):
            raise ConfigurationError(
                f"p_initial must be in (0, 1], got {self.p_initial}"
            )
        if self.tau_max < 0.0:
            raise ConfigurationError(f"tau_max must be >= 0, got {self.tau_max}")
        if self.l_training < 1:
            raise ConfigurationError(
                f"l_training must be >= 1, got {self.l_training}"
            )
        if self.hash_function not in ("numpy", "lookup3", "one_at_a_time"):
            raise ConfigurationError(
                f"unknown hash_function {self.hash_function!r}"
            )
        if self.key_pipeline not in ("exact", "digest"):
            raise ConfigurationError(
                f"key_pipeline must be 'exact' or 'digest', got {self.key_pipeline!r}"
            )
        if self.key_cache_budget_bytes < 0:
            raise ConfigurationError("key_cache_budget_bytes must be >= 0")
        if self.shuffle_cache_entries < 1:
            raise ConfigurationError("shuffle_cache_entries must be >= 1")
        if self.tht_store is not None:
            store = self.tht_store.strip()
            if store.startswith("file://"):
                if not store[len("file://"):]:
                    raise ConfigurationError(
                        "tht_store file:// URL names no path"
                    )
            elif store.startswith("tcp://"):
                address = store[len("tcp://"):]
                host, _, port = address.rpartition(":")
                if not host or not port.isdigit() or not (0 < int(port) <= 65535):
                    raise ConfigurationError(
                        f"tht_store tcp:// URL must be tcp://host:port, "
                        f"got {self.tht_store!r}"
                    )
            else:
                raise ConfigurationError(
                    f"tht_store must be a file:// or tcp:// URL, "
                    f"got {self.tht_store!r}"
                )
        if self.tht_store_compact_frames < 1:
            raise ConfigurationError(
                f"tht_store_compact_frames must be >= 1, "
                f"got {self.tht_store_compact_frames}"
            )

    @property
    def n_buckets(self) -> int:
        return 1 << self.tht_bucket_bits

    def with_overrides(self, **kwargs) -> "ATMConfig":
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **kwargs)


@dataclass
class RuntimeConfig:
    """Configuration of the task runtime itself.

    Attributes
    ----------
    num_threads:
        Worker threads / worker processes / simulated cores.
    executor:
        Execution backend selected by :func:`repro.runtime.executor.build_executor`:
        ``"serial"``, ``"threaded"``, ``"process"``, ``"network"`` or
        ``"simulated"`` (DESIGN.md §4).  ``"process"`` and ``"network"`` are
        the one remote-worker executor over forked subprocesses (shared
        memory) or over ``net_endpoints`` (bytes on the wire).
    scheduler:
        Ready-queue policy name (``"fifo"``, ``"lifo"`` or
        ``"work_stealing"``).
    enable_tracing:
        Record per-core state intervals and ready-queue depth samples.
    seed:
        Seed for any stochastic scheduling decisions (work stealing).
    mp_workers:
        Worker count of the remote-worker backends: subprocesses of
        ``"process"``, loopback workers of ``"network"`` (``None`` falls
        back to ``num_threads``).
    mp_chunk_size:
        Maximum ready tasks batched into one dispatch message of the
        remote-worker backends (amortises framing and pickling overhead on
        wide graphs; narrow/wavefront graphs still dispatch singles, see
        DESIGN.md §4.3).
    mp_start_method:
        ``multiprocessing`` start method of the ``"process"`` workers
        (``None`` picks ``"fork"`` where available, else ``"spawn"``).
    net_endpoints:
        Worker endpoints for the ``"network"`` backend (DESIGN.md §4.3).
        Either ``"loopback"`` / ``"loopback:<n>"`` — spawn ``n`` in-process
        loopback workers (default: ``mp_workers`` falling back to
        ``num_threads``) speaking the real wire protocol over socketpairs —
        or a comma-separated list of ``host:port`` addresses of
        ``scripts/net_worker.py`` daemons.
    net_timeout_s:
        Heartbeat/ack timeout of loopback and TCP endpoints: an endpoint with
        outstanding work that stays silent this long is declared dead and
        its chunks are resubmitted elsewhere.  Must exceed the worst-case
        wall-clock of one dispatched chunk.  Subprocess endpoints are not
        timed out for silence; their death closes the socket.
    net_max_retries:
        How many times one task may be resubmitted after its worker was
        lost — a subprocess that died or wedged, or a failed loopback or
        TCP endpoint — before it is declared failed
        (:class:`~repro.common.exceptions.WorkerLostError`, or
        :class:`~repro.common.exceptions.TaskTimeoutError` for a wedge).
    net_residency:
        Enable per-endpoint data residency on the byte plane (DESIGN.md
        §4.3): workers keep generation-tagged caches of shipped buffer spans
        keyed on :mod:`repro.runtime.data` write-versions, the parent tracks
        them in a :class:`repro.runtime.residency.ResidencyTable`, and
        dispatch ships bytes only for *stale* spans — plus routes ready
        chunks to the endpoint already holding their input bytes.  Off
        restores the ship-everything round-robin backend.
    net_residency_budget_bytes:
        Per-endpoint byte budget of the residency table; least-recently
        used entries beyond it are evicted (and invalidated on the worker).
    task_timeout_s:
        Per-task wall-clock budget enforced by the supervision layer
        (DESIGN.md §7).  ``None`` (default) disables per-task timeouts.  The
        remote-worker backends enforce it preemptively (the worker is
        killed/excluded and the task resubmitted or failed); the in-process
        backends (serial/threaded) cannot preempt a running Python frame and
        detect the overrun when the task returns.
    task_max_retries:
        How many times a task whose body raised (or, on the in-process
        backends, overran ``task_timeout_s``) is re-run before it is
        declared failed.  ``0`` (default) fails on the first error,
        preserving pre-supervision behaviour.  A lost worker is budgeted by
        ``net_max_retries`` instead.
    retry_backoff_s:
        Base of the exponential back-off between task retries: attempt *k*
        sleeps ``retry_backoff_s * 2**(k-1)`` seconds before re-running.
    drain_timeout_s:
        Safety deadline for a single drain (seconds).  Replaces the
        per-executor hardcoded ``DRAIN_TIMEOUT`` class constants; on expiry
        the drain dumps all thread stacks (``faulthandler``) and raises
        :class:`~repro.common.exceptions.DrainAbortedError` instead of
        hanging.
    on_task_failure:
        What a drain does when a task exhausts its retry budget:
        ``"abort"`` (default) raises
        :class:`~repro.common.exceptions.DrainAbortedError` carrying every
        recorded failure; ``"quarantine"`` marks the task ``FAILED``, cancels
        its dependent subgraph (``CANCELLED``) and keeps draining the
        independent tasks — the failures are reported in
        ``RunResult.failures``.
    """

    num_threads: int = 8
    executor: str = "serial"
    scheduler: str = "fifo"
    enable_tracing: bool = False
    seed: int = 2017
    mp_workers: Optional[int] = None
    mp_chunk_size: int = 8
    mp_start_method: Optional[str] = None
    net_endpoints: str = "loopback"
    net_timeout_s: float = 30.0
    net_max_retries: int = 2
    net_residency: bool = True
    net_residency_budget_bytes: int = 256 << 20
    task_timeout_s: Optional[float] = None
    task_max_retries: int = 0
    retry_backoff_s: float = 0.05
    drain_timeout_s: float = 300.0
    on_task_failure: str = "abort"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.num_threads < 1:
            raise ConfigurationError(
                f"num_threads must be >= 1, got {self.num_threads}"
            )
        EXECUTORS.validate_name(self.executor, field="executor")
        SCHEDULERS.validate_name(self.scheduler, field="scheduler")
        if self.mp_workers is not None and self.mp_workers < 1:
            raise ConfigurationError("mp_workers must be >= 1 or None")
        if self.mp_chunk_size < 1:
            raise ConfigurationError("mp_chunk_size must be >= 1")
        if self.mp_start_method not in (None, "fork", "spawn", "forkserver"):
            raise ConfigurationError(
                f"unknown mp_start_method {self.mp_start_method!r}"
            )
        if not self.net_endpoints or not self.net_endpoints.strip():
            raise ConfigurationError(
                "net_endpoints must name at least one endpoint "
                "('loopback', 'loopback:<n>' or 'host:port,...')"
            )
        if self.net_timeout_s <= 0:
            raise ConfigurationError(
                f"net_timeout_s must be > 0, got {self.net_timeout_s}"
            )
        if self.net_max_retries < 0:
            raise ConfigurationError(
                f"net_max_retries must be >= 0, got {self.net_max_retries}"
            )
        if self.net_residency_budget_bytes < 1:
            raise ConfigurationError(
                f"net_residency_budget_bytes must be >= 1, "
                f"got {self.net_residency_budget_bytes}"
            )
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ConfigurationError(
                f"task_timeout_s must be > 0 or None, got {self.task_timeout_s}"
            )
        if self.task_max_retries < 0:
            raise ConfigurationError(
                f"task_max_retries must be >= 0, got {self.task_max_retries}"
            )
        if self.retry_backoff_s < 0:
            raise ConfigurationError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.drain_timeout_s <= 0:
            raise ConfigurationError(
                f"drain_timeout_s must be > 0, got {self.drain_timeout_s}"
            )
        if self.on_task_failure not in ("abort", "quarantine"):
            raise ConfigurationError(
                f"on_task_failure must be 'abort' or 'quarantine', "
                f"got {self.on_task_failure!r}"
            )

    def with_overrides(self, **kwargs) -> "RuntimeConfig":
        return replace(self, **kwargs)


@dataclass
class ServingConfig:
    """Configuration of the multi-tenant serving gateway (DESIGN.md §8).

    Attributes
    ----------
    host / port:
        TCP listen address of the gateway daemon.  ``port = 0`` binds an
        ephemeral port (the daemon prints the bound address), which is what
        the tests and ``make serve-smoke`` use.
    max_pending:
        Bounded global pending pool: at most this many admitted tasks may be
        in flight (submitted to the shared executor but not yet terminal)
        across all tenants — the Puppetmaster-style cap that keeps the
        shared scheduler's working set constant no matter how many clients
        connect.  Over-budget work waits in per-tenant queues.
    max_tenant_queue:
        Per-tenant backlog cap.  A single batch larger than this can never
        be admitted and is rejected with
        :class:`~repro.common.exceptions.AdmissionError`; otherwise a full
        queue exerts backpressure by blocking the tenant's connection.
    quantum:
        Deficit-round-robin quantum: credits (task admissions) granted per
        scheduling round to a weight-1.0 tenant.  A tenant's per-round
        credit is ``quantum * weight``; unused credit carries over while the
        tenant has queued work, so bursty tenants are not penalised.
    default_weight:
        Fair-share weight assigned to tenants whose ``hello`` does not
        request one.
    shared_tht:
        Default for the opt-in shared THT tier: when on, a tenant-engine
        miss probes the gateway-wide shared table before executing, and the
        merge pump publishes tenant deltas into it.  Tenants can override
        per-connection in ``hello``.
    merge_interval_s:
        Period of the incremental ATM merge pump: at least this often every
        tenant engine's journaled delta (``snapshot(reset=True)``) is merged
        into the shared tier — no drain barrier required.
    merge_min_commits:
        Size trigger of the merge pump: a tenant engine whose journal
        accumulates this many commits is merged immediately instead of
        waiting for the timer.
    result_history:
        Per-tenant reservoir of completed-task latencies kept for ``stats``
        replies (p50/p99); bounded so long-lived tenants use constant
        memory.
    shutdown_grace_s:
        On SIGTERM/SIGINT the gateway stops admitting, waits up to this many
        seconds for in-flight tasks to finish, flushes ATM deltas and
        answers outstanding barriers before closing sockets.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_pending: int = 256
    max_tenant_queue: int = 4096
    quantum: int = 32
    default_weight: float = 1.0
    shared_tht: bool = False
    merge_interval_s: float = 0.05
    merge_min_commits: int = 64
    result_history: int = 1024
    shutdown_grace_s: float = 5.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.host or not self.host.strip():
            raise ConfigurationError("host must be a non-empty address")
        if not (0 <= self.port <= 65535):
            raise ConfigurationError(
                f"port must be in [0, 65535], got {self.port}"
            )
        if self.max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.max_tenant_queue < 1:
            raise ConfigurationError(
                f"max_tenant_queue must be >= 1, got {self.max_tenant_queue}"
            )
        if self.quantum < 1:
            raise ConfigurationError(f"quantum must be >= 1, got {self.quantum}")
        if self.default_weight <= 0:
            raise ConfigurationError(
                f"default_weight must be > 0, got {self.default_weight}"
            )
        if self.merge_interval_s <= 0:
            raise ConfigurationError(
                f"merge_interval_s must be > 0, got {self.merge_interval_s}"
            )
        if self.merge_min_commits < 1:
            raise ConfigurationError(
                f"merge_min_commits must be >= 1, got {self.merge_min_commits}"
            )
        if self.result_history < 1:
            raise ConfigurationError(
                f"result_history must be >= 1, got {self.result_history}"
            )
        if self.shutdown_grace_s < 0:
            raise ConfigurationError(
                f"shutdown_grace_s must be >= 0, got {self.shutdown_grace_s}"
            )

    def with_overrides(self, **kwargs) -> "ServingConfig":
        return replace(self, **kwargs)


@dataclass
class SimulationConfig:
    """Cost model of the discrete-event simulated multicore.

    The simulator replaces the paper's real Sandy Bridge testbed (see
    DESIGN.md Section 4).  Costs are expressed in microseconds of simulated
    time; throughput figures are bytes per microsecond.

    Attributes
    ----------
    copy_bandwidth:
        Bytes/us for THT output copies.  The paper measures the SIMD copies to
        be ~10.3-10.8x faster than executing the task, which emerges from this
        bandwidth combined with the per-application task cost models.
    hash_bandwidth:
        Bytes/us processed by the hash-key generator.
    task_overhead:
        Fixed per-task runtime bookkeeping cost (scheduling, dependence
        release).
    tht_lookup_overhead:
        Fixed cost of one THT probe (lock + compare).
    ikt_lookup_overhead:
        Fixed cost of one IKT probe.
    creation_throughput:
        Tasks/us that the master thread can create; models the creation
        bottleneck seen in Blackscholes/Kmeans (Section V-C, Figure 8).
    memory_contention_factor:
        Extra latency factor applied to memory-bound ATM activities when
        several cores perform them concurrently: effective cost is multiplied
        by ``1 + factor * (concurrent_memory_ops - 1)``.  Models the 60 %
        slowdown of hash/copy states observed between 2 and 8 cores (Figure
        7).
    """

    copy_bandwidth: float = 2000.0
    hash_bandwidth: float = 400.0
    task_overhead: float = 0.2
    tht_lookup_overhead: float = 0.1
    ikt_lookup_overhead: float = 0.02
    creation_throughput: float = 8.0
    memory_contention_factor: float = 0.09

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in (
            "copy_bandwidth",
            "hash_bandwidth",
            "creation_throughput",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be > 0")
        for name in (
            "task_overhead",
            "tht_lookup_overhead",
            "ikt_lookup_overhead",
            "memory_contention_factor",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")

    def with_overrides(self, **kwargs) -> "SimulationConfig":
        return replace(self, **kwargs)
