"""The benchmark's three workloads, driven through the public API only.

* ``memo-serial``: the six apps at scale ``small`` under ATM ``static`` and
  ``dynamic``, one fresh serial :class:`~repro.session.Session` per program,
  closed loop from one process.  The submission and ATM layers do most of
  the work; there is no dispatch.
* ``nomemo-process``: the same apps with ATM off on ``executor="process"``
  with two workers, one Session (and so one pool spawn) per program.
  Dispatch does the work; ATM is bypassed, so this is the no-change control
  for ATM-layer changes.
* ``gateway-tenants``: a ``scripts/gateway.py`` daemon (threaded pool of 2,
  shared THT tier) and two tenants, each one connection in its own process,
  running ``blackscholes`` ``tiny`` requests under static ATM.  Phase A is
  open loop (Poisson arrivals at a fixed rate, about half of capacity);
  phase B is closed loop and gives the gated latency and throughput.

Every workload takes its inputs from ``--seed``; the program receives only
the generated inputs.  Outputs are checked against an ATM-off serial
reference computed outside the timed phase and outside set-up.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.apps import BENCHMARK_NAMES, make_benchmark
from repro.serving import GatewayClient
from repro.session import Session

from layers import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
GATEWAY_SCRIPT = ROOT / "scripts" / "gateway.py"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: Untraced rounds run before the traced ones in a traced run: they give the
#: measured ATM speedups, the rusage figures and the tracing overhead.
CALIBRATION_ROUNDS = 2

#: Output checks: static ATM on the serial backend and ATM-off outputs are
#: bit-identical to the reference; gateway outputs may differ by this many
#: units in the last place of the reference's dtype (float32 effects).
ULP_TOLERANCE = 4
#: Approximate (dynamic) ATM may trade accuracy, but a relative error of 1 is
#: no better than an all-zero output.
APPROX_ERROR_LIMIT = 1.0

GATEWAY_POOL_THREADS = 2
GATEWAY_TENANTS = 2
GATEWAY_APP = "blackscholes"
#: Portfolio seeds a request may use; small, so tenants repeat each other.
GATEWAY_SEED_POOL = 4
#: Phase-A offered load: about half of the 7-9 req/s a 2-CPU host completes
#: in phase B.  Nearer saturation, p90 swings with the host's speed.
GATEWAY_RATE_RPS = 3.3
#: Phase A gets this share of ``--seconds`` (76 requests at 38 s); phase B,
#: whose ~120 requests give the gated latencies, gets the rest.
GATEWAY_PHASE_A_SHARE = 0.6
#: Requests timed before and after tracing is installed, for the overhead.
GATEWAY_CALIBRATION_REQUESTS = 6
#: Latency limit on ``request_s_p90``: about 8x the unloaded request
#: latency (0.115 s on a 2-CPU host).
REQUEST_LIMIT_S = 1.0
#: Latency charged to a request that failed: it misses any limit.
FAILED_LATENCY_S = 1e9
DAEMON_START_TIMEOUT_S = 30.0
DAEMON_STOP_TIMEOUT_S = 15.0
#: Longest a tenant process may take to answer one command (a whole phase).
TENANT_REPLY_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload; ``BENCHMARK.json`` says why each one is there."""

    name: str
    kind: str  # "session" or "gateway"
    executor: str
    workers: int
    modes: tuple[str, ...] = ()


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("memo-serial", "session", "serial", 1, ("static", "dynamic")),
        WorkloadSpec("nomemo-process", "session", "process", 2, ("none",)),
        WorkloadSpec("gateway-tenants", "gateway", "threaded", GATEWAY_POOL_THREADS),
    )
}


# -- results -----------------------------------------------------------------------
@dataclass
class Unit:
    """One timed program (Session workloads) or request (gateway)."""

    label: str
    latency: float
    tasks: int = 0
    ok: bool = True
    error: float = 0.0
    checksum: str = ""
    late: float = 0.0
    #: Why a gateway request failed its checks (empty when it passed).
    problem: str = ""


@dataclass
class Outcome:
    """Everything one workload run measured."""

    units: list[Unit] = field(default_factory=list)
    #: The latency samples: every timed program, or the closed-loop requests.
    timed: list[Unit] = field(default_factory=list)
    #: The gateway's open-loop (phase A) requests.
    open_loop: list[Unit] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    closed_tasks: int = 0
    closed_wall: float = 0.0
    closed_units: int = 0
    problems: list[str] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    checksums: dict[str, str] = field(default_factory=dict)
    children_rss_mb: float = 0.0
    per_layer: dict[str, float] = field(default_factory=dict)
    recorder: Optional[SpanRecorder] = None


def checksum(output: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(output).tobytes()).hexdigest()[:16]


def check_output(check: str, app, reference: np.ndarray) -> tuple[float, str]:
    """Compare ``app``'s output with the ATM-off serial reference.

    ``check`` is ``exact`` (bit-identical), ``ulp`` (element-wise within
    :data:`ULP_TOLERANCE` units in the last place of the largest reference
    value) or ``approx`` (finite, relative error below
    :data:`APPROX_ERROR_LIMIT`).  Returns ``(relative error, problem)``: the
    error is ``BenchmarkApp.relative_error`` (the paper's Eq. 3; the LU
    residual for ``lu``), and ``problem`` is empty when the output passes.
    """
    output = np.asarray(app.output())
    if output.shape != reference.shape:
        return math.inf, f"output shape {output.shape} != reference {reference.shape}"
    error = float(app.relative_error(reference))
    if check == "exact":
        if not np.array_equal(output, reference):
            return error, "output is not bit-identical to the serial reference"
        return error, ""
    if not np.all(np.isfinite(output)) or not math.isfinite(error):
        return math.inf, "output is not finite"
    if check == "ulp":
        tolerance = ULP_TOLERANCE * np.finfo(reference.dtype).eps * float(np.abs(reference).max())
        worst = float(np.abs(output.astype(np.float64) - reference).max())
        if worst > tolerance:
            return error, (f"output differs from the serial reference by {worst:.3g} "
                           f"(> {ULP_TOLERANCE} ulp = {tolerance:.3g})")
        return error, ""
    if error >= APPROX_ERROR_LIMIT:
        return error, f"output error {error:.3g} is no better than an all-zero output"
    return error, ""


def _rusage() -> tuple[resource.struct_rusage, resource.struct_rusage]:
    return (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN),
    )


def _cpu_s(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def _switches(usage: resource.struct_rusage) -> int:
    return usage.ru_nvcsw + usage.ru_nivcsw


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (statistics.quantiles, inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_program_percentile(units: list[Unit], q: int) -> float:
    """``q``-th percentile over programs of each program's median latency.

    The programs of a Session workload differ in size by 20x, so a
    percentile of the pooled sample would sit at the edge of one program's
    cluster and jump with single samples.  Each program's median over the
    rounds is steady, and a percentile of those medians moves only when
    programs do.
    """
    by_label: dict[str, list[float]] = {}
    for unit in units:
        by_label.setdefault(unit.label, []).append(unit.latency)
    return percentile([statistics.median(v) for v in by_label.values()], q)


# -- Session workloads --------------------------------------------------------------
class SessionWorkload:
    """``memo-serial`` and ``nomemo-process``: closed loop over programs."""

    def __init__(self, spec: WorkloadSpec, seed: int, seconds: float, scale: str) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.programs = [(app, mode) for app in BENCHMARK_NAMES for mode in spec.modes]
        self.reference: dict[str, np.ndarray] = {}
        self.reference_wall: dict[str, float] = {}
        self.memoized_type: dict[str, str] = {}

    # -- one program -------------------------------------------------------------
    def _session_kwargs(self, mode: str) -> dict[str, Any]:
        kwargs: dict[str, Any] = {"executor": self.spec.executor}
        if self.spec.workers > 1:
            kwargs["cores"] = self.spec.workers
        if mode != "none":
            kwargs["policy"] = mode
        return kwargs

    def _check_kind(self, mode: str) -> str:
        return "approx" if mode == "dynamic" else "exact"

    def run_program(self, app_name: str, mode: str, outcome: Outcome,
                    recorder: Optional[SpanRecorder] = None) -> tuple[Unit, Optional[Session]]:
        label = f"{app_name}.{mode}"
        app = make_benchmark(app_name, scale=self.scale, seed=self.seed)
        session = None
        if recorder is not None:
            recorder.begin(label)
        t0 = time.perf_counter()
        try:
            with Session(**self._session_kwargs(mode)) as session:
                app.build(session)
            latency = time.perf_counter() - t0
        except Exception as exc:  # a failed program is counted, not fatal
            outcome.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            return Unit(label, FAILED_LATENCY_S, ok=False), None
        finally:
            if recorder is not None:
                recorder.end()
        result = session.result
        unit = Unit(label, latency, tasks=result.tasks_completed)
        if result.tasks_failed or result.tasks_cancelled:
            unit.ok = False
            outcome.problems.append(
                f"{label}: {result.tasks_failed} failed and "
                f"{result.tasks_cancelled} cancelled tasks"
            )
        unit.error, problem = check_output(
            self._check_kind(mode), app, self.reference[app_name]
        )
        unit.checksum = checksum(app.output())
        if problem:
            unit.ok = False
            outcome.problems.append(f"{label}: {problem}")
        previous = outcome.checksums.setdefault(label, unit.checksum)
        if previous != unit.checksum:
            unit.ok = False
            outcome.problems.append(
                f"{label}: output checksum {unit.checksum} differs from an "
                f"earlier round's {previous} on the same inputs"
            )
        tau_max = app.info.tau_max
        if mode != "none" and unit.error > tau_max:
            flag = f"{label}: error {unit.error:.4g} above tau_max {tau_max:g}"
            if flag not in outcome.flags:
                outcome.flags.append(flag)
        return unit, session

    def compute_reference(self) -> None:
        """ATM-off serial output and wall time of every app."""
        for app_name in BENCHMARK_NAMES:
            app = make_benchmark(app_name, scale=self.scale, seed=self.seed)
            t0 = time.perf_counter()
            with Session(executor="serial") as session:
                app.build(session)
            wall = time.perf_counter() - t0
            self.reference[app_name] = np.asarray(app.output()).copy()
            self.memoized_type[app_name] = app.info.memoized_task_type
            self.reference_wall[app_name] = min(
                wall, self.reference_wall.get(app_name, math.inf)
            )

    def setup_once(self, outcome: Outcome) -> float:
        """Input generation for one round plus one warm-up program."""
        t0 = time.perf_counter()
        for app_name, _mode in self.programs:
            make_benchmark(app_name, scale=self.scale, seed=self.seed)
        app_name, mode = self.programs[0]
        unit, _session = self.run_program(app_name, mode, outcome)
        if not unit.ok:
            raise RuntimeError(f"warm-up program {unit.label} failed")
        return time.perf_counter() - t0

    @staticmethod
    def rounds_until(deadline: float):
        """Yield round numbers while another whole round fits the deadline.

        The first round always runs; later ones only if the mean round so far
        would end by ``deadline``, so the timed phase never overruns it and
        every program runs the same number of times.
        """
        start = time.perf_counter()
        count = 0
        while True:
            yield count
            count += 1
            now = time.perf_counter()
            if now + (now - start) / count > deadline:
                return

    def round(self, outcome: Outcome, recorder: Optional[SpanRecorder] = None) -> list[tuple[Unit, Optional[Session]]]:
        return [self.run_program(app, mode, outcome, recorder) for app, mode in self.programs]

    # -- untraced run ------------------------------------------------------------
    def run(self) -> Outcome:
        outcome = Outcome()
        self.compute_reference()
        for _ in range(SETUP_REPEATS):
            outcome.setup.append(self.setup_once(outcome))
        for _round in self.rounds_until(time.perf_counter() + self.seconds):
            for unit, _session in self.round(outcome):
                outcome.units.append(unit)
        outcome.timed = outcome.units
        timed = [u for u in outcome.units if u.ok]
        outcome.closed_units = len(outcome.units)
        outcome.closed_tasks = sum(u.tasks for u in timed)
        outcome.closed_wall = sum(u.latency for u in timed)
        outcome.children_rss_mb = (
            self.spec.workers * _children_maxrss_mb() if self.spec.executor == "process" else 0.0
        )
        return outcome

    # -- traced run ----------------------------------------------------------------
    def run_traced(self) -> Outcome:
        outcome = Outcome()
        self.compute_reference()
        outcome.setup.append(self.setup_once(outcome))
        deadline = time.perf_counter() + self.seconds

        # Untraced calibration: ATM-off reruns, ATM-on walls and rusage.
        calib_walls: dict[str, float] = {}
        calib_round_walls: list[float] = []
        before = _rusage()
        for _ in range(CALIBRATION_ROUNDS):
            self.compute_reference()
            round_wall = 0.0
            for unit, _session in self.round(outcome):
                outcome.units.append(unit)
                calib_walls[unit.label] = min(unit.latency, calib_walls.get(unit.label, math.inf))
                round_wall += unit.latency
            calib_round_walls.append(round_wall)
        after = _rusage()

        recorder = SpanRecorder()
        outcome.recorder = recorder
        traced_round_walls: list[float] = []
        stats: list[tuple[str, dict]] = []
        memory_bytes: list[int] = []
        with recorder:
            for _round in self.rounds_until(deadline):
                round_wall = 0.0
                for unit, session in self.round(outcome, recorder):
                    outcome.units.append(unit)
                    round_wall += unit.latency
                    if session is not None and session.engine is not None:
                        stats.append((unit.label, session.stats))
                        memory_bytes.append(session.engine.memory_bytes()["total"])
                traced_round_walls.append(round_wall)
        rounds = len(traced_round_walls)
        labels = [f"{app}.{mode}" for app, mode in self.programs]
        layer = session_layer_metrics(recorder, labels, rounds, sum(traced_round_walls))
        layer.update(atm_stats_metrics([s for _, s in stats], memory_bytes, rounds))
        if self.spec.executor == "process":
            calibration = outcome.units[:CALIBRATION_ROUNDS * len(self.programs)]
            layer.update(process_metrics(before, after, calibration, self.reference_wall))
        if "static" in self.spec.modes:
            layer.update(self.ledger(recorder, calib_walls, memoized_by_label(stats), rounds))
        layer["trace.overhead_ratio"] = (
            statistics.median(traced_round_walls) / statistics.median(calib_round_walls)
        )
        outcome.per_layer = layer
        return outcome

    def ledger(self, recorder: SpanRecorder, calib_walls: dict[str, float],
               memoized: dict[str, float], rounds: int) -> dict[str, float]:
        """ATM payoff ledger: measured and simulated speedup, net saving."""
        metrics: dict[str, float] = {}
        simulated = {mode: self.simulate(mode) for mode in ("none", "static", "dynamic")}
        for app_name in BENCHMARK_NAMES:
            type_name = self.memoized_type[app_name]
            labels = [f"{app_name}.{mode}" for mode in ("static", "dynamic")]
            body_s, body_calls = recorder.body(type_name, labels)
            mean_body = body_s / body_calls if body_calls else 0.0
            for mode in ("static", "dynamic"):
                label = f"{app_name}.{mode}"
                metrics[f"atm.speedup.{label}"] = (
                    self.reference_wall[app_name] / calib_walls[label]
                )
                metrics[f"sim.speedup.{label}"] = (
                    simulated["none"][app_name] / simulated[mode][app_name]
                )
                atm_cost = sum(
                    recorder.self_s(name, [label]) for name in ATM_SPANS
                ) / rounds
                metrics[f"atm.net_saving_s.{label}"] = (
                    memoized.get(label, 0.0) * mean_body - atm_cost
                )
        return metrics

    def simulate(self, mode: str) -> dict[str, float]:
        """Simulated single-core elapsed time of every app (runtime.simulator)."""
        elapsed = {}
        for app_name in BENCHMARK_NAMES:
            app = make_benchmark(app_name, scale=self.scale, seed=self.seed)
            kwargs: dict[str, Any] = {"executor": "simulated", "cores": 1}
            if mode != "none":
                kwargs["policy"] = mode
            with Session(**kwargs) as session:
                app.build(session)
            elapsed[app_name] = session.result.elapsed
        return elapsed


ATM_SPANS = ("atm.key", "atm.tht.lookup", "atm.tht.insert", "atm.ikt", "atm.copy", "atm.engine")


def memoized_by_label(stats: list[tuple[str, dict]]) -> dict[str, float]:
    """Mean skipped-body tasks (memoized or deferred) per program label."""
    per_label: dict[str, list[int]] = {}
    for label, snapshot in stats:
        per_label.setdefault(label, []).append(snapshot["memoized_tasks"])
    return {label: statistics.mean(values) for label, values in per_label.items()}


def session_layer_metrics(recorder: SpanRecorder, labels: list[str], rounds: int,
                          traced_wall: float) -> dict[str, float]:
    """Per-round layer figures of the Session workloads."""

    def per_round(value: float) -> float:
        return value / rounds

    lookups = recorder.calls("atm.tht.lookup", labels)
    attributed = recorder.all_self_s(labels)
    return {
        "session.submit_calls": per_round(recorder.calls("session.submit", labels)),
        "session.submit_self_s": per_round(recorder.self_s("session.submit", labels)),
        "dependences.busy_s": per_round(recorder.self_s("dependences", labels)),
        "graph.insert_s": per_round(recorder.self_s("graph.insert", labels)),
        "graph.commit_s": per_round(recorder.self_s("graph.commit", labels)),
        "atm.key_s": per_round(recorder.self_s("atm.key", labels)),
        "atm.key_calls": per_round(recorder.calls("atm.key", labels)),
        "atm.tht_s": per_round(
            recorder.self_s("atm.tht.lookup", labels) + recorder.self_s("atm.tht.insert", labels)
        ),
        "atm.tht_hit_ratio": recorder.counter("atm.tht_hits", labels) / lookups if lookups else 0.0,
        "atm.ikt_s": per_round(recorder.self_s("atm.ikt", labels)),
        "atm.copy_s": per_round(recorder.self_s("atm.copy", labels)),
        "atm.copy_mb": per_round(recorder.counter("atm.copy_bytes", labels)) / 2**20,
        "atm.engine_self_s": per_round(recorder.self_s("atm.engine", labels)),
        "apps.body_s": per_round(recorder.self_s("apps.body", labels)),
        "apps.body_calls": per_round(recorder.calls("apps.body", labels)),
        "executor.self_s": per_round(recorder.self_s("executor.drain", labels)),
        "unattributed_ratio": 1.0 - attributed / traced_wall,
        "shm.copy_in_s": per_round(recorder.self_s("shm.copy_in", labels)),
        "shm.copy_in_buffers": per_round(recorder.counter("shm.copy_in_buffers", labels)),
        "shm.copy_out_s": per_round(recorder.self_s("shm.copy_out", labels)),
        "shm.copy_out_buffers": per_round(recorder.counter("shm.copy_out_buffers", labels)),
        "mp.wait_s": per_round(recorder.self_s("mp.wait", labels)),
    }


def atm_stats_metrics(stats: list[dict], memory_bytes: list[int], rounds: int) -> dict[str, float]:
    """ATM figures read from the engines' own statistics."""
    if not stats:
        return {}
    total = {key: sum(s[key] for s in stats) for key in (
        "hashed_bytes", "key_cache_hits", "key_cache_misses",
        "memoized_tasks", "eligible_tasks",
    )}
    key_lookups = total["key_cache_hits"] + total["key_cache_misses"]
    return {
        "atm.hashed_mb": total["hashed_bytes"] / rounds / 2**20,
        "atm.key_cache_hit_ratio": total["key_cache_hits"] / key_lookups if key_lookups else 0.0,
        "atm.reuse_ratio": (
            total["memoized_tasks"] / total["eligible_tasks"] if total["eligible_tasks"] else 0.0
        ),
        "atm.memory_mb": max(memory_bytes) / 2**20,
    }


def process_metrics(before, after, units: list[Unit],
                    reference_wall: dict[str, float]) -> dict[str, float]:
    """Process-backend costs from getrusage over the untraced calibration.

    ``mp.overhead_ms_per_task`` is the program wall time above the ATM-off
    serial wall time of the same app, per task.
    """
    (self_before, children_before), (self_after, children_after) = before, after
    tasks = sum(u.tasks for u in units)
    overhead = sum(
        u.latency - reference_wall[u.label.split(".")[0]] for u in units
    )
    return {
        "mp.parent_cpu_ms_per_task": 1e3 * (_cpu_s(self_after) - _cpu_s(self_before)) / tasks,
        "mp.worker_cpu_ms_per_task": 1e3 * (_cpu_s(children_after) - _cpu_s(children_before)) / tasks,
        "mp.ctx_switches_per_task": (
            _switches(self_after) - _switches(self_before)
            + _switches(children_after) - _switches(children_before)
        ) / tasks,
        "mp.overhead_ms_per_task": 1e3 * overhead / tasks,
    }


def _children_maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- gateway workload -----------------------------------------------------------------
class _BarrierRecorder:
    """Forwards an app's submissions to a client and keeps the last summary."""

    def __init__(self, client: GatewayClient) -> None:
        self.client = client
        self.summary: dict = {}

    def submit(self, *args, **kwargs):
        return self.client.submit(*args, **kwargs)

    def submit_batch(self, *args, **kwargs):
        return self.client.submit_batch(*args, **kwargs)

    def wait_all(self):
        self.summary = self.client.wait_all()
        return self.summary


class Daemon:
    """A ``scripts/gateway.py`` subprocess."""

    def __init__(self) -> None:
        command = [
            sys.executable, str(GATEWAY_SCRIPT),
            "--executor", "threaded", "--cores", str(GATEWAY_POOL_THREADS),
            "--atm", "static", "--shared-tht",
            "--host", "127.0.0.1", "--port", "0", "--announce",
        ]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], DAEMON_START_TIMEOUT_S)
            line = self.process.stdout.readline() if ready else ""
            if not line.startswith("listening "):
                raise RuntimeError(f"gateway daemon did not announce its port: {line!r}")
            self.port = int(line.split()[1].rsplit(":", 1)[1])
        except BaseException:
            self.kill()
            raise

    def _proc(self, name: str) -> Optional[str]:
        try:
            with open(f"/proc/{self.process.pid}/{name}") as handle:
                return handle.read()
        except OSError:
            return None

    def cpu_s(self) -> Optional[float]:
        """The daemon's CPU time so far, from /proc; None if unavailable."""
        stat = self._proc("stat")
        if stat is None:
            return None
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The daemon's peak RSS (VmHWM), from /proc; 0 if unavailable."""
        for line in (self._proc("status") or "").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> int:
        """SIGTERM (graceful shutdown), then SIGKILL after a timeout."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=DAEMON_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
        self.process.stdout.close()
        return self.process.returncode

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()


class _TenantClient:
    """Tenant side: one connection, run inside its own process.

    Two tenant threads in one process stall each other on the interpreter
    lock at every one of a request's ~290 frame round trips: on a 2-CPU host
    their closed-loop throughput swung between 4.9 and 8.1 req/s from one
    6-second window to the next, against 7.2-7.7 req/s for two processes.
    """

    def __init__(self, index: int, port: int, scale: str,
                 references: dict[int, np.ndarray]) -> None:
        self.label = f"tenant-{index}"
        self.scale = scale
        self.references = references
        self.client = GatewayClient("127.0.0.1", port, tenant=self.label,
                                    atm_mode="static", shared_tht=True)
        self.summary: dict = {}
        self.recorder: Optional[SpanRecorder] = None

    def request(self, seed: int, due: float, app=None) -> Unit:
        """One request: build the program through the client; check it."""
        if app is None:
            app = make_benchmark(GATEWAY_APP, scale=self.scale, seed=seed)
        runtime = _BarrierRecorder(self.client)
        label = f"{GATEWAY_APP}.seed{seed}"
        if self.recorder is not None:
            self.recorder.begin(self.label)
        sent = time.perf_counter()
        try:
            app.build(runtime)
            done = time.perf_counter()
        except Exception as exc:  # a failed request is counted, not fatal
            return Unit(label, FAILED_LATENCY_S, ok=False, late=sent - due,
                        problem=f"{type(exc).__name__}: {exc}")
        finally:
            if self.recorder is not None:
                self.recorder.end()
        previous, self.summary = self.summary, runtime.summary
        unit = Unit(
            label, done - due, late=sent - due,
            tasks=self.summary["tasks_completed"] - previous.get("tasks_completed", 0),
        )
        bad = sum(self.summary[k] - previous.get(k, 0) for k in ("tasks_failed", "tasks_cancelled"))
        unit.error, problem = check_output("ulp", app, self.references[seed])
        unit.checksum = checksum(app.output())
        if bad:
            problem = f"{bad} tasks failed or were cancelled; {problem}"
        unit.ok = not problem
        unit.problem = problem
        return unit

    def open_loop(self, arrivals: list[tuple[float, int]]) -> list[Unit]:
        """Send each (due time, seed) arrival when it is due."""
        units = []
        for due, seed in arrivals:
            app = make_benchmark(GATEWAY_APP, scale=self.scale, seed=seed)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            units.append(self.request(seed, due, app))
        return units

    def closed_loop(self, deadline: float, seeds: list[int]) -> tuple[list[Unit], float]:
        """Send back to back until ``deadline``; returns the units and end time."""
        units = []
        while time.perf_counter() < deadline:
            seed = seeds[len(units) % len(seeds)]
            app = make_benchmark(GATEWAY_APP, scale=self.scale, seed=seed)
            units.append(self.request(seed, time.perf_counter(), app))
        return units, time.perf_counter()

    def trace(self, on: bool):
        if on:
            self.recorder = SpanRecorder()
            self.recorder.install()
            return None
        self.recorder.remove()
        exported = self.recorder.export()
        self.recorder = None
        return exported

    def stats(self) -> dict:
        return self.client.stats()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tenant_main(conn, index: int, port: int, scale: str, references) -> None:
    """Entry point of a tenant process: serve commands from the parent."""
    try:
        tenant = _TenantClient(index, port, scale, references)
    except Exception as exc:
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        return
    conn.send(("ok", None))
    try:
        while True:
            method, args = conn.recv()
            if method == "close":
                break
            try:
                conn.send(("ok", getattr(tenant, method)(*args)))
            except Exception as exc:  # reported to the parent, which fails the run
                conn.send(("error", f"{method}: {type(exc).__name__}: {exc}"))
    finally:
        tenant.client.close()


class _Tenant:
    """Parent side of a tenant process."""

    def __init__(self, index: int, port: int, scale: str, references) -> None:
        ctx = multiprocessing.get_context("spawn")
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=tenant_main, args=(child, index, port, scale, references),
            name=f"tenant-{index}", daemon=True,
        )
        self.process.start()
        child.close()
        try:
            self.result()
        except BaseException:
            self.close()
            raise

    def send(self, method: str, *args) -> None:
        self.conn.send((method, args))

    def result(self):
        if not self.conn.poll(TENANT_REPLY_TIMEOUT_S):
            raise RuntimeError(f"{self.process.name} did not answer")
        status, value = self.conn.recv()
        if status != "ok":
            raise RuntimeError(f"{self.process.name}: {value}")
        return value

    def call(self, method: str, *args):
        self.send(method, *args)
        return self.result()

    def close(self) -> None:
        if self.process.is_alive():
            try:
                self.conn.send(("close", ()))
            except OSError:
                pass
            self.process.join(TENANT_REPLY_TIMEOUT_S)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()


class GatewayWorkload:
    """``gateway-tenants``: open loop at a fixed rate, then closed loop."""

    def __init__(self, spec: WorkloadSpec, seed: int, seconds: float, scale: str) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.pool = random.Random(seed).sample(range(1, 1 << 20), GATEWAY_SEED_POOL)
        self.reference: dict[int, np.ndarray] = {}
        self.daemon: Optional[Daemon] = None
        self.tenants: list[_Tenant] = []

    # -- lifecycle -------------------------------------------------------------------
    def _connect(self) -> None:
        self.daemon = Daemon()
        for index in range(GATEWAY_TENANTS):
            self.tenants.append(_Tenant(index, self.daemon.port, self.scale, self.reference))

    def teardown(self, outcome: Outcome) -> None:
        """Stop the tenants and the daemon; safe on every error path."""
        for tenant in self.tenants:
            tenant.close()
        self.tenants = []
        if self.daemon is not None:
            daemon, self.daemon = self.daemon, None
            code = daemon.stop()
            if code != 0:
                outcome.problems.append(f"gateway daemon exited with code {code}")

    def compute_reference(self) -> None:
        for seed in self.pool:
            app = make_benchmark(GATEWAY_APP, scale=self.scale, seed=seed)
            with Session(executor="serial") as session:
                app.build(session)
            self.reference[seed] = np.asarray(app.output()).copy()

    def schedule(self, count: int) -> list[tuple[float, int]]:
        """Phase-A arrivals: (due offset in seconds, portfolio seed).

        ``count`` arrivals of a Poisson process conditioned on landing in
        ``count / rate`` seconds (uniform order statistics), so the offered
        rate is exact and the phase length fixed.  The same seed always gives
        the same arrivals.
        """
        rng = random.Random(self.seed + 1)
        span = count / GATEWAY_RATE_RPS
        offsets = sorted(rng.uniform(0.0, span) for _ in range(count))
        return [(offset, rng.choice(self.pool)) for offset in offsets]

    def setup_once(self, outcome: Outcome, arrivals_count: int) -> float:
        """Arrival schedule, daemon start, tenant connects, one warm-up request."""
        t0 = time.perf_counter()
        self.schedule(arrivals_count)
        self._connect()
        unit = self.tenants[0].call("request", self.pool[0], time.perf_counter())
        self._collect([unit], outcome)
        if not unit.ok:
            raise RuntimeError(f"warm-up request failed: {unit.problem}")
        return time.perf_counter() - t0

    def _collect(self, units: list[Unit], outcome: Outcome) -> None:
        """Record failures and check checksums across tenants and rounds."""
        for unit in units:
            if unit.problem:
                outcome.problems.append(f"{unit.label}: {unit.problem}")
            first = outcome.checksums.setdefault(unit.label, unit.checksum)
            if unit.ok and first != unit.checksum:
                unit.ok = False
                outcome.problems.append(
                    f"{unit.label}: checksum {unit.checksum} differs from earlier {first}"
                )

    # -- phases ------------------------------------------------------------------------
    def _phases(self, outcome: Outcome, seconds: float) -> None:
        """Phase A (open loop) for ``GATEWAY_PHASE_A_SHARE`` of ``seconds``,
        then phase B (closed loop) for the rest."""
        count = max(2, math.ceil(GATEWAY_RATE_RPS * GATEWAY_PHASE_A_SHARE * seconds))
        start = time.perf_counter() + 0.1
        arrivals = [(start + offset, seed) for offset, seed in self.schedule(count)]
        for index, tenant in enumerate(self.tenants):
            tenant.send("open_loop", arrivals[index::GATEWAY_TENANTS])
        open_units = [unit for tenant in self.tenants for unit in tenant.result()]
        remaining = max(seconds - (time.perf_counter() - start),
                        (1 - GATEWAY_PHASE_A_SHARE) * seconds)
        closed_start = time.perf_counter()
        deadline = closed_start + remaining
        for index, tenant in enumerate(self.tenants):
            tenant.send("closed_loop", deadline, self.pool[index:] + self.pool[:index])
        closed_units, ends = [], []
        for tenant in self.tenants:
            units, end = tenant.result()
            closed_units.extend(units)
            ends.append(end)
        self._collect(open_units + closed_units, outcome)
        outcome.units.extend(open_units + closed_units)
        outcome.open_loop = open_units
        outcome.timed = closed_units
        outcome.closed_units = len(closed_units)
        outcome.closed_tasks = sum(u.tasks for u in closed_units if u.ok)
        outcome.closed_wall = max(ends) - closed_start

    def _program_rss_mb(self) -> float:
        """Peak RSS of the daemon and the tenant processes."""
        return self.daemon.peak_rss_mb() + sum(t.call("peak_rss_mb") for t in self.tenants)

    # -- runs -------------------------------------------------------------------------
    def run(self) -> Outcome:
        outcome = Outcome()
        try:
            self.compute_reference()
            count = math.ceil(GATEWAY_RATE_RPS * GATEWAY_PHASE_A_SHARE * self.seconds)
            for rep in range(SETUP_REPEATS):
                if rep:
                    self.teardown(outcome)
                outcome.setup.append(self.setup_once(outcome, count))
            self._phases(outcome, self.seconds)
            outcome.children_rss_mb = self._program_rss_mb()
        finally:
            self.teardown(outcome)
        return outcome

    def run_traced(self) -> Outcome:
        outcome = Outcome()
        try:
            self.compute_reference()
            count = math.ceil(GATEWAY_RATE_RPS * GATEWAY_PHASE_A_SHARE * self.seconds)
            outcome.setup.append(self.setup_once(outcome, count))
            start = time.perf_counter()
            first = self.tenants[0]

            def sequential() -> list[Unit]:
                return [
                    first.call("request", self.pool[i % len(self.pool)], time.perf_counter())
                    for i in range(GATEWAY_CALIBRATION_REQUESTS)
                ]

            untraced = sequential()
            for tenant in self.tenants:
                tenant.call("trace", True)
            cpu_before = self.daemon.cpu_s()
            traced = sequential()
            self._phases(outcome, max(self.seconds - (time.perf_counter() - start), 1.0))
            cpu_after = self.daemon.cpu_s()
            traced += outcome.units
            recorder = SpanRecorder()
            for tenant in self.tenants:
                recorder.absorb(tenant.call("trace", False))
            outcome.recorder = recorder
            stats = first.call("stats")
            calibration = traced[:GATEWAY_CALIBRATION_REQUESTS]
            self._collect(untraced + calibration, outcome)
            outcome.units.extend(untraced + calibration)
            layer = gateway_layer_metrics(recorder, len(traced), stats)
            if cpu_before is not None and cpu_after is not None:
                layer["gateway.cpu_ms_per_request"] = 1e3 * (cpu_after - cpu_before) / len(traced)
            # Client-side wall of the traced requests: from send to reply.
            traced_wall = sum(u.latency - u.late for u in traced if u.ok)
            layer["unattributed_ratio"] = 1.0 - recorder.all_self_s() / traced_wall
            layer["trace.overhead_ratio"] = (
                statistics.median(u.latency for u in calibration)
                / statistics.median(u.latency for u in untraced)
            )
            outcome.per_layer = layer
        finally:
            self.teardown(outcome)
        return outcome


#: Units of the gateway's per-layer figures, which BENCHMARK.json omits.
GATEWAY_LAYER_UNITS = {
    "client.submit_ms": "ms", "client.submit_calls": "count",
    "client.barrier_ms": "ms", "client.frames": "count",
    "client.sent_mb": "MiB", "client.recv_mb": "MiB",
    "gateway.task_latency_p99_s": "s", "gateway.shared_hit_ratio": "ratio",
    "gateway.memoized_ratio": "ratio", "gateway.cpu_ms_per_request": "ms",
}


def gateway_layer_metrics(recorder: SpanRecorder, requests: int, stats: dict) -> dict[str, float]:
    """Client-side spans plus the daemon's ``stats`` reply, per request.

    ``client.submit_ms`` and ``client.barrier_ms`` are mean round trips per
    call (span duration, frames included).
    """
    submits = recorder.calls("client.submit")
    barriers = recorder.calls("client.barrier")
    tenants = stats.get("tenants", {})
    completed = sum(t.get("completed", 0) for t in tenants.values())
    pool = stats.get("pool", {})
    return {
        "client.submit_ms": 1e3 * recorder.duration_s("client.submit") / submits if submits else 0.0,
        "client.submit_calls": submits / requests,
        "client.barrier_ms": 1e3 * recorder.duration_s("client.barrier") / barriers if barriers else 0.0,
        "client.frames": recorder.calls("client.frame") / requests,
        "client.sent_mb": recorder.counter("client.sent_bytes") / requests / 2**20,
        "client.recv_mb": recorder.counter("client.recv_bytes") / requests / 2**20,
        "gateway.task_latency_p99_s": max(
            (t.get("latency_p99_s", 0.0) for t in tenants.values()), default=0.0
        ),
        "gateway.shared_hit_ratio": (
            sum(t.get("shared_hits", 0) for t in tenants.values()) / completed if completed else 0.0
        ),
        "gateway.memoized_ratio": (
            pool.get("tasks_memoized", 0) / pool["tasks_completed"]
            if pool.get("tasks_completed") else 0.0
        ),
    }


def make_workload(name: str, seed: int, seconds: float, scale: str):
    spec = WORKLOADS[name]
    cls = GatewayWorkload if spec.kind == "gateway" else SessionWorkload
    return cls(spec, seed, seconds, scale)
