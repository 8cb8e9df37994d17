"""Span recorder for the traced benchmark run.

The traced run (``--trace 1``) installs wrappers on public class attributes
of the layers below and records one span per call: layer name, start, end,
parent layer and the program (or request) it belongs to.  Nothing under
``src/`` changes; the wrappers are removed again when the traced phase ends.

A layer's *self time* is its span duration minus the time its child spans
cover.  Spans nest per thread (every wrapped call is synchronous), so the
child time is simply the sum of the direct children's durations.

Totals are kept per program label, and each label is recorded by one
thread at a time (the gateway's tenants use one label each), so the hot path
takes no lock.  Up to ``span_cap`` raw
spans are also kept in memory and written out as Chrome trace-event JSON
(openable in Perfetto or ``chrome://tracing``) when the run ends.

A target that no longer exists (a later refactor renamed or deleted the
module, class or attribute) is skipped and listed in ``missing``; the
metrics it would feed then read 0.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

_now_ns = time.perf_counter_ns

ENGINE_SPAN = "atm.engine"

#: (module, owner, attribute, span name).  ``owner`` is a class name, or
#: ``None`` for a module-level function.  The span names are the layer
#: vocabulary the per-layer metrics are derived from (see README.md).
TARGETS: tuple[tuple[str, Optional[str], str, str], ...] = (
    ("repro.session", "Session", "submit", "session.submit"),
    ("repro.session", "Session", "submit_batch", "session.submit"),
    ("repro.runtime.dependences", "DependenceTracker", "dependences_for", "dependences"),
    ("repro.runtime.graph", "TaskDependenceGraph", "add_task", "graph.insert"),
    ("repro.runtime.graph", "TaskDependenceGraph", "add_tasks", "graph.insert"),
    ("repro.runtime.graph", "TaskDependenceGraph", "complete_task", "graph.commit"),
    ("repro.atm.keygen", "HashKeyGenerator", "compute", "atm.key"),
    ("repro.atm.tht", "TaskHistoryTable", "lookup", "atm.tht.lookup"),
    ("repro.atm.tht", "TaskHistoryTable", "insert", "atm.tht.insert"),
    ("repro.atm.ikt", "InFlightKeyTable", "lookup", "atm.ikt"),
    ("repro.atm.ikt", "InFlightKeyTable", "register", "atm.ikt"),
    ("repro.atm.ikt", "InFlightKeyTable", "retire", "atm.ikt"),
    ("repro.runtime.data", "DataRegion", "copy_from", "atm.copy"),
    ("repro.runtime.data", "DataRegion", "snapshot", "atm.copy"),
    ("repro.atm.engine", "ATMEngine", "task_ready", ENGINE_SPAN),
    ("repro.atm.engine", "ATMEngine", "task_finished", ENGINE_SPAN),
    ("repro.runtime.task", "Task", "run", "apps.body"),
    ("repro.runtime.executor", "SerialExecutor", "drain", "executor.drain"),
    ("repro.runtime.executor", "ThreadedExecutor", "drain", "executor.drain"),
    ("repro.runtime.mp_executor", "ProcessExecutor", "drain", "executor.drain"),
    ("repro.runtime.net_executor", "NetworkExecutor", "drain", "executor.drain"),
    ("repro.runtime.shm", "SharedBufferRegistry", "copy_in", "shm.copy_in"),
    ("repro.runtime.shm", "SharedBufferRegistry", "copy_out", "shm.copy_out"),
    ("repro.runtime.mp_executor", "ProcessExecutor", "_next_result", "mp.wait"),
    ("repro.serving.client", "GatewayClient", "submit", "client.submit"),
    ("repro.serving.client", "GatewayClient", "submit_batch", "client.submit"),
    ("repro.serving.client", "GatewayClient", "wait_all", "client.barrier"),
    ("repro.serving.client", "GatewayClient", "finish", "client.barrier"),
    ("repro.serving.client", None, "write_frame", "client.frame"),
    ("repro.serving.client", None, "read_frame", "client.frame"),
    ("socket", "socket", "sendall", "client.send"),
    ("socket", "socket", "recv", "client.recv"),
)

#: Spans that only count when they run inside an ATM engine call; the same
#: methods are used outside ATM (e.g. by the process backend) and are then
#: passed straight through.
ENGINE_ONLY = frozenset({"atm.copy"})


def _nbytes(obj: Any) -> int:
    try:
        return int(obj.nbytes)
    except AttributeError:
        return len(obj)


def _copy_bytes(args: tuple, result: Any) -> int:
    """Bytes moved by ``DataRegion.copy_from(values)`` / ``snapshot()``."""
    return _nbytes(args[1]) if len(args) > 1 else _nbytes(result)


#: span name -> (counter name, function(args, result) -> amount).
COUNTERS: dict[str, tuple[str, Callable[[tuple, Any], float]]] = {
    "atm.tht.lookup": ("atm.tht_hits", lambda args, result: result is not None),
    "atm.copy": ("atm.copy_bytes", _copy_bytes),
    "shm.copy_in": ("shm.copy_in_buffers", lambda args, result: result or 0),
    "shm.copy_out": ("shm.copy_out_buffers", lambda args, result: result or 0),
    "client.send": ("client.sent_bytes", lambda args, result: _nbytes(args[1])),
    "client.recv": ("client.recv_bytes", lambda args, result: len(result)),
}


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[list] = []
        self.program = ""
        self.totals: Optional[dict[str, list[int]]] = None
        self.body: Optional[dict[str, list[int]]] = None
        self.counters: Optional[dict[str, float]] = None


class SpanRecorder:
    """Collects per-layer self time, call counts and counters."""

    def __init__(self, span_cap: int = 100_000) -> None:
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.missing: list[str] = []
        # label -> {"totals": name -> [self_ns, calls, duration_ns],
        #           "body": task type -> [ns, calls], "counters": name -> x}
        self._programs: dict[str, dict[str, dict]] = {}
        self._programs_lock = threading.Lock()
        self._state = _ThreadState()
        self._installed: list[tuple[Any, str, bool, Any]] = []

    # -- program scoping ---------------------------------------------------------
    def begin(self, label: str) -> None:
        """Attribute the calling thread's following spans to ``label``."""
        with self._programs_lock:
            program = self._programs.setdefault(
                label, {"totals": {}, "body": {}, "counters": {}}
            )
        state = self._state
        state.program = label
        state.totals = program["totals"]
        state.body = program["body"]
        state.counters = program["counters"]

    def end(self) -> None:
        state = self._state
        state.program = ""
        state.totals = state.body = state.counters = None

    # -- install / remove --------------------------------------------------------
    def install(self) -> None:
        for module_name, owner_name, attr, span in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{owner_name or ''}.{attr}")
                continue
            own = attr in vars(owner)
            previous = vars(owner)[attr] if own else None
            if isinstance(previous, (staticmethod, classmethod)):
                self.missing.append(f"{module_name}.{owner_name}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, span))
            self._installed.append((owner, attr, own, previous))

    def remove(self) -> None:
        while self._installed:
            owner, attr, own, previous = self._installed.pop()
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    # -- the wrapper ---------------------------------------------------------------
    def _wrap(self, original: Callable, span: str) -> Callable:
        state = self._state
        spans = self.spans
        cap = self.span_cap
        counter = COUNTERS.get(span)
        engine_only = span in ENGINE_ONLY
        body = span == "apps.body"
        recorder = self

        def wrapper(*args, **kwargs):
            totals = state.totals
            stack = state.stack
            if totals is None or (
                engine_only and (not stack or stack[-1][0] != ENGINE_SPAN)
            ):
                return original(*args, **kwargs)
            frame = [span, 0]
            stack.append(frame)
            start = _now_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = _now_ns()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                entry = totals.get(span)
                if entry is None:
                    entry = totals[span] = [0, 0, 0]
                entry[0] += own
                entry[1] += 1
                entry[2] += duration
                if len(spans) < cap:
                    spans.append((
                        span, start, end,
                        stack[-1][0] if stack else "", state.program,
                        threading.get_ident(),
                    ))
                else:
                    recorder.dropped += 1
            if counter is not None:
                name, amount = counter
                counters = state.counters
                counters[name] = counters.get(name, 0) + amount(args, result)
            if body:
                type_name = args[0].task_type.name
                per_type = state.body.get(type_name)
                if per_type is None:
                    per_type = state.body[type_name] = [0, 0]
                per_type[0] += duration
                per_type[1] += 1
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    # -- aggregation ---------------------------------------------------------------
    def self_s(self, name: str, labels: Optional[list[str]] = None) -> float:
        """Summed self time of span ``name`` (seconds) over ``labels``."""
        return self._sum("totals", name, 0, labels) / 1e9

    def duration_s(self, name: str, labels: Optional[list[str]] = None) -> float:
        """Summed span duration (self plus children) of ``name``, seconds."""
        return self._sum("totals", name, 2, labels) / 1e9

    def calls(self, name: str, labels: Optional[list[str]] = None) -> int:
        return int(self._sum("totals", name, 1, labels))

    def counter(self, name: str, labels: Optional[list[str]] = None) -> float:
        total = 0.0
        for label, program in self._programs.items():
            if labels is None or label in labels:
                total += program["counters"].get(name, 0)
        return total

    def body(self, type_name: str, labels: Optional[list[str]] = None) -> tuple[float, int]:
        """(seconds, calls) of task bodies of one task type."""
        seconds, calls = 0.0, 0
        for label, program in self._programs.items():
            if labels is None or label in labels:
                ns, n = program["body"].get(type_name, (0, 0))
                seconds += ns / 1e9
                calls += n
        return seconds, calls

    def all_self_s(self, labels: Optional[list[str]] = None) -> float:
        """Self time of every recorded span, i.e. everything attributed."""
        total = 0
        for label, program in self._programs.items():
            if labels is None or label in labels:
                total += sum(entry[0] for entry in program["totals"].values())
        return total / 1e9

    def _sum(self, kind: str, name: str, index: int, labels) -> float:
        total = 0
        for label, program in self._programs.items():
            if labels is None or label in labels:
                entry = program[kind].get(name)
                if entry is not None:
                    total += entry[index]
        return total

    # -- transfer between processes -------------------------------------------------
    def export(self) -> dict:
        """Everything recorded, as plain data another process can absorb."""
        return {"programs": self._programs, "spans": self.spans,
                "dropped": self.dropped, "missing": self.missing}

    def absorb(self, exported: dict) -> None:
        """Merge another recorder's :meth:`export` into this one."""
        for label, program in exported["programs"].items():
            mine = self._programs.setdefault(label, {"totals": {}, "body": {}, "counters": {}})
            for kind in ("totals", "body"):
                for name, values in program[kind].items():
                    entry = mine[kind].setdefault(name, [0] * len(values))
                    for i, value in enumerate(values):
                        entry[i] += value
            for name, value in program["counters"].items():
                mine["counters"][name] = mine["counters"].get(name, 0) + value
        room = max(self.span_cap - len(self.spans), 0)
        self.spans.extend(exported["spans"][:room])
        self.dropped += exported["dropped"] + max(len(exported["spans"]) - room, 0)
        self.missing.extend(m for m in exported["missing"] if m not in self.missing)

    # -- export --------------------------------------------------------------------
    def write_chrome_trace(self, path: Path) -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        origin = self.spans[0][1] if self.spans else 0
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": tid,
                "args": {"program": program, "parent": parent},
            }
            for name, start, end, parent, program, tid in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "traceEvents": events,
                    "otherData": {
                        "dropped_spans": self.dropped,
                        "missing_targets": self.missing,
                    },
                },
                handle,
            )
