"""Fault-recovery micro suite: kill one of N workers, measure the recovery.

Runs the same independent-task workload twice on the process backend in
quarantine mode — once healthy, once with a worker-killing poison task
injected — and reports the wall-clock delta: what one SIGKILL-style worker
death costs a drain end to end (crash detection, respawn, in-flight
resubmission, quarantine bookkeeping).

Wall-clock recovery times are recorded for trend analysis and not gated
(they depend on process spawn latency, which varies wildly across CI
hosts); the gated supervision metric is the happy-path one — submission
throughput and e2e checksums must not move against the previous BENCH
report (see ``repro.perf.report.compare_to_baseline``).
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["bench_fault_recovery"]


def _run_once(workers: int, tasks: int, inject_kill: bool) -> dict:
    from repro.testing.faults import (
        fault_session,
        kill_worker_body,
        square_body,
        submit_one,
    )

    session = fault_session(
        "process",
        workers=workers,
        chunk_size=1,
        on_task_failure="quarantine",
        drain_timeout_s=60.0,
        allow_worker_kill=inject_kill,
    )
    with session:
        if inject_kill:
            submit_one(session, kill_worker_body, label="bench_kill")
        sinks = [
            submit_one(session, square_body, label="bench_work")
            for _ in range(tasks)
        ]
        t0 = time.perf_counter()
        result = session.wait_all()
        wall = time.perf_counter() - t0
    for src, dst in sinks:
        assert np.array_equal(dst, src ** 2), "fault-recovery bench corrupted data"
    stats = result.extra.get("network_backend", {})
    return {
        "wall_s": wall,
        "respawns": stats.get("respawns", 0),
        "failures": len(result.failures),
        "completed": result.tasks_completed,
    }


def bench_fault_recovery(workers: int = 2, tasks: int = 12, rounds: int = 3) -> dict:
    """Kill-1-of-N-workers recovery cost on the process backend.

    ``recovery_overhead_s`` is the min-over-rounds faulty wall minus the
    min-over-rounds healthy wall for an otherwise identical workload (min,
    like the other gated micros: noise is strictly additive).
    """
    healthy = [_run_once(workers, tasks, inject_kill=False) for _ in range(rounds)]
    faulty = [_run_once(workers, tasks, inject_kill=True) for _ in range(rounds)]
    for run in healthy:
        assert run["failures"] == 0 and run["respawns"] == 0
    for run in faulty:
        assert run["failures"] == 1, "poison task must quarantine, not abort"
        assert run["respawns"] >= 1, "worker death must trigger a respawn"
        assert run["completed"] == tasks, "healthy tasks must survive the crash"
    healthy_wall = min(run["wall_s"] for run in healthy)
    faulty_wall = min(run["wall_s"] for run in faulty)
    return {
        "workers": workers,
        "tasks": tasks,
        "rounds": rounds,
        "healthy_wall_s": round(healthy_wall, 6),
        "faulty_wall_s": round(faulty_wall, 6),
        "recovery_overhead_s": round(faulty_wall - healthy_wall, 6),
        "respawns": max(run["respawns"] for run in faulty),
    }
