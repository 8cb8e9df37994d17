#!/usr/bin/env python3
"""Fast self-test of the benchmark runner at reduced sizes.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

1. the output check rejects a corrupted output and accepts a correct one,
   for each kind of check (bit-identical, last-ulp, approximate);
2. every workload of the runner (including ``gateway-tenants``, which
   ``BENCHMARK.json`` does not list), untraced and traced, runs at scale
   ``tiny`` for a second or two, passes its output checks, leaks nothing,
   leaves no process of its session running once it has exited, and prints
   as its last line a JSON result carrying exactly the metrics
   ``BENCHMARK.json`` declares for that mode;
3. a directory holding only ``BENCHMARK.json`` and ``perfbench/`` makes the
   runner exit non-zero without printing a result.

Takes about a minute on a 2-CPU host; exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
TIMEOUT_S = 180


def check_output_kinds() -> list[str]:
    from repro.apps import make_benchmark
    from repro.session import Session

    import workloads

    problems = []
    app = make_benchmark("blackscholes", scale="tiny", seed=3)
    with Session(executor="serial") as session:
        app.build(session)
    reference = app.output().copy()
    for kind in ("exact", "ulp", "approx"):
        _error, problem = workloads.check_output(kind, app, reference)
        if problem:
            problems.append(f"check {kind} rejected a correct output: {problem}")
    app.prices.reshape(-1)[0] += 0.01  # one option price off by a cent
    for kind in ("exact", "ulp"):
        _error, problem = workloads.check_output(kind, app, reference)
        if not problem:
            problems.append(f"check {kind} accepted a corrupted output")
    app.prices[...] = 0.0  # all prices lost
    _error, problem = workloads.check_output("approx", app, reference)
    if not problem:
        problems.append("check approx accepted an all-zero output")
    return problems


def session_processes(session: int) -> list[str]:
    """Processes, zombies included, still in the given session."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        comm = stat[stat.find("(") + 1:stat.rfind(")")]
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == session:
            found.append(f"{entry.name} {comm} state {fields[0]}")
    return found


def run_workload(name: str, trace: int, declared: dict) -> list[str]:
    command = [sys.executable, str(RUN), "--workload", name, "--seed", "5",
               "--seconds", "1.5", "--trace", str(trace), "--scale", "tiny"]
    # A session of its own, so that every process the runner starts can be
    # found after it has exited.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    where = f"{name} trace={trace}"
    problems = [f"{where}: process left running: {left}"
                for left in session_processes(proc.pid)]
    if proc.returncode != 0:
        return problems + [f"{where}: exit code {proc.returncode}: {stderr[-1500:]}"]
    result = json.loads(stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        failures = [line for line in stdout.splitlines() if line.startswith("FAIL")]
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']} {failures}")
    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    for metric_name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{where}: {metric_name} is not a number")
        elif not trace and metric["value"] <= 0:
            problems.append(f"{where}: end-to-end metric {metric_name} is {metric['value']}")
    return problems


def run_without_sources() -> list[str]:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "memo-serial",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("runner exited 0 without the repository sources")
    if proc.stdout.strip().startswith("{") or '"correct"' in proc.stdout:
        problems.append("runner printed a result without the repository sources")
    return problems


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = [("output checks", check_output_kinds)]
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            checks.append((
                f"{name} trace={trace}",
                lambda w=name, t=trace: run_workload(w, t, declared),
            ))
    checks.append(("without sources", run_without_sources))
    failed = 0
    for label, check in checks:
        problems = check()
        print(f"{'ok  ' if not problems else 'FAIL'} {label}")
        for problem in problems:
            print(f"     {problem}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
