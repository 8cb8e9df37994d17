#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload memo-serial --seed 1 --seconds 38 --trace 0

Workloads: ``memo-serial``, ``nomemo-process`` and ``gateway-tenants``
(see ``workloads.py`` and ``README.md``).  With ``--trace 0`` the run is
untraced and reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it installs the layer wrappers of ``layers.py`` and reports
the per-layer metrics instead, writing the spans to ``perfbench/out/``.

Every metric the workload defines is printed as a ``metric`` line with its
unit and sample count, followed by output checksums, checks and flags.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The run fails (exit code 2, no result) when the repository's ``src/`` tree
or ``scripts/gateway.py`` is missing.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process (inherited by workers and the gateway
# daemon), so the load never asks for more threads than there are cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default=None,
                        help="override the app scale (the self-test uses tiny)")
    return parser.parse_args(argv)


# -- hygiene ---------------------------------------------------------------------------
def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def live_children() -> list[str]:
    """Child processes still alive (or unreaped), except the resource tracker.

    Python's ``multiprocessing`` resource tracker serves this process until
    it exits (``stop_resource_tracker`` ends it then); everything else the
    program started must already be gone.
    """
    import multiprocessing

    multiprocessing.active_children()  # reaps finished multiprocessing children
    pids: list[str] = []
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children") as handle:
                pids.extend(handle.read().split())
    except OSError:
        return [f"{p.pid} {p.name}" for p in multiprocessing.active_children()]
    leaked = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if "resource_tracker" in command:
            continue
        leaked.append(f"{pid} {command.strip()[:100] or '<zombie>'}")
    return leaked


def stop_resource_tracker() -> None:
    """Stop the ``multiprocessing`` resource tracker and wait until it has ended.

    Creating a shared-memory segment starts the tracker as a separate
    process that is left to outlive its parent; closing its pipe and
    reaping it here means no process of the run survives the run.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    try:
        tracker._stop()
    except ChildProcessError:
        pass


# -- metrics ---------------------------------------------------------------------------
def metric_line(name: str, value, unit: str, detail: str) -> str:
    if value is None:
        return f"metric {name} = n/a ({detail})"
    return f"metric {name} = {value:.6g} {unit} ({detail})"


def end_to_end(workloads, spec, outcome, self_rss_mb: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics, plus the printed lines of the full set."""
    gateway = spec.kind == "gateway"
    timed = outcome.timed
    latencies = [u.latency for u in timed]
    if gateway:
        p50 = workloads.percentile(latencies, 50)
        p90 = workloads.percentile(latencies, 90)
        spread = f"closed loop, {sum(1 for x in latencies if x > p90)} beyond p90"
    else:
        p50 = workloads.per_program_percentile(timed, 50)
        p90 = workloads.per_program_percentile(timed, 90)
        programs = len({u.label for u in timed})
        spread = (f"over {programs} programs of each one's median "
                  f"of {len(latencies) // programs} rounds")
    attempted = len(outcome.units)
    failed = sum(1 for u in outcome.units if not u.ok)
    errors = [u.error for u in outcome.units if math.isfinite(u.error)]
    values = {
        "setup_s": statistics.median(outcome.setup),
        "tasks_per_s": outcome.closed_tasks / outcome.closed_wall if outcome.closed_wall else 0.0,
        "request_s_p50": p50,
        "request_s_p90": p90,
        "peak_rss_mb": self_rss_mb + outcome.children_rss_mb,
    }
    unit_name = "requests" if gateway else "programs"
    lines = [
        metric_line("setup_s", values["setup_s"], "s",
                    f"n={len(outcome.setup)}, median of set-ups"),
        metric_line("tasks_per_s", values["tasks_per_s"], "tasks/s",
                    f"n={outcome.closed_units} closed-loop {unit_name}, "
                    f"{outcome.closed_tasks} tasks"),
        metric_line("request_s_p50", p50, "s", f"n={len(latencies)} {unit_name}, {spread}"),
        metric_line("request_s_p90", p90, "s", f"n={len(latencies)} {unit_name}, {spread}"),
    ]
    if gateway:
        opened = [u.latency for u in outcome.open_loop]
        open_p90 = workloads.percentile(opened, 90)
        lates = [u.late for u in outcome.open_loop]
        over = sum(1 for x in opened if x > workloads.REQUEST_LIMIT_S)
        lines += [
            metric_line("open_request_s_p50", workloads.percentile(opened, 50), "s",
                        f"n={len(opened)} open-loop requests at "
                        f"{workloads.GATEWAY_RATE_RPS:g} req/s, from when due"),
            metric_line("open_request_s_p90", open_p90, "s",
                        f"n={len(opened)} open-loop requests, "
                        f"{sum(1 for x in opened if x > open_p90)} beyond p90"),
            f"check open_request_s_p90 <= limit {workloads.REQUEST_LIMIT_S:g} s: "
            f"{'yes' if open_p90 <= workloads.REQUEST_LIMIT_S else 'NO'} "
            f"({over} of {len(opened)} requests over the limit)",
            metric_line("late_s_p90", workloads.percentile(lates, 90), "s",
                        f"n={len(lates)} open-loop requests"),
            metric_line("saturation_rps", outcome.closed_units / max(outcome.closed_wall, 1e-9),
                        "req/s", f"n={outcome.closed_units} closed-loop requests"),
        ]
    else:
        lines += [
            metric_line("late_s_p90", None, "s", "closed loop: nothing is scheduled"),
            metric_line("saturation_rps", None, "req/s",
                        "closed loop throughout: see tasks_per_s"),
        ]
    lines += [
        metric_line("output_error_max", max(errors) if errors else math.inf, "ratio",
                    f"n={attempted} {unit_name}"),
        metric_line("failed_ratio", failed / attempted, "ratio", f"{failed}/{attempted}"),
        metric_line("peak_rss_mb", values["peak_rss_mb"], "MiB",
                    f"this process {self_rss_mb:.1f} + program processes "
                    f"{outcome.children_rss_mb:.1f}"),
    ]
    return values, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir() or not (ROOT / "scripts" / "gateway.py").is_file():
        print(f"perfbench: repository sources not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    scale = args.scale or ("tiny" if spec.kind == "gateway" else "small")
    cores = len(os.sched_getaffinity(0))
    print(f"perfbench workload={spec.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={scale}")
    print(f"host nproc={os.cpu_count()} affinity={cores} python={platform.python_version()} "
          f"numpy={numpy.__version__} workers={spec.workers} "
          f"hardware_limited={'true' if cores < spec.workers + 1 else 'false'}")

    shm_before = shm_entries()
    workload = workloads.make_workload(spec.name, args.seed, args.seconds, scale)
    outcome = workload.run_traced() if args.trace else workload.run()

    leaks = [f"shared-memory segment /dev/shm/{name}" for name in sorted(shm_entries() - shm_before)]
    leaks += [f"child process {child}" for child in live_children()]
    for leak in leaks:
        outcome.problems.append(f"leaked {leak}")

    if args.trace:
        metrics = {item["name"]: float(outcome.per_layer.get(item["name"], 0.0)) for item in wanted}
        for item in wanted:
            print(metric_line(item["name"], metrics[item["name"]], item["unit"], "traced run"))
        # Figures of layers no listed workload exercises (the gateway's).
        for name, value in outcome.per_layer.items():
            if name not in metrics:
                print(metric_line(name, value, workloads.GATEWAY_LAYER_UNITS.get(name, ""),
                                  "traced run, not in BENCHMARK.json"))
        for name in ("unattributed_ratio", "trace.overhead_ratio"):
            limit = 0.10 if name == "unattributed_ratio" else 1.10
            if metrics[name] > limit:
                print(f"flag {name} = {metrics[name]:.3f} is more than 10% off")
        recorder = outcome.recorder
        if recorder is not None:
            for target in recorder.missing:
                print(f"note layer target {target} not found; its metrics read 0")
            path = OUT / f"{spec.name}-seed{args.seed}-spans.json"
            recorder.write_chrome_trace(path)
            print(f"spans {len(recorder.spans)} kept, {recorder.dropped} dropped, "
                  f"written to {path.relative_to(ROOT)}")
    else:
        self_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values, lines = end_to_end(workloads, spec, outcome, self_rss_mb)
        for line in lines:
            print(line)
        metrics = {item["name"]: values[item["name"]] for item in wanted}

    for label, digest in sorted(outcome.checksums.items()):
        print(f"checksum {label} {digest}")
    for flag in outcome.flags:
        print(f"flag {flag}")
    for problem in outcome.problems:
        print(f"FAIL {problem}")

    failed = sum(1 for u in outcome.units if not u.ok) + (1 if leaks else 0)
    units = {item["name"]: item["unit"] for item in wanted}
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": max(len(outcome.units), 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so the gateway daemon and process
    # pools are stopped by the workloads' own cleanup.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    try:
        code = main()
    finally:
        stop_resource_tracker()
    print(f"perfbench: done in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    sys.exit(code)
