"""Regression tests: executor resources are released on *every* exit path.

The seed's runtime handle only called ``finish()`` on ``__exit__`` when no
exception was in flight, so a raising ``with`` block leaked the process
backend's worker pool and its ``multiprocessing.shared_memory`` segments.
The Session lifecycle closes the executor on the error path too (without
draining), and ``finish()`` releases resources even when the drain raises.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.common.config import RuntimeConfig
from repro.common.exceptions import DrainAbortedError, RuntimeStateError
from repro.runtime.executor import build_executor
from repro.runtime.task import TaskType
from repro.session import Out, Session

SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR),
    reason="needs a POSIX shared-memory filesystem to observe segments",
)


def live_segments() -> set[str]:
    """Names of the currently mapped POSIX shared-memory segments."""
    return set(os.listdir(SHM_DIR))


def square_into(src: np.ndarray, dst: np.ndarray) -> None:
    """Module-level task body (the process backend pickles functions)."""
    dst[:] = src ** 2


def submit_square(session: Session, n: int = 3) -> list[np.ndarray]:
    outs = []
    tt = TaskType("leak_probe")
    for _ in range(n):
        src = np.arange(1024.0)
        dst = np.zeros(1024)
        session.submit(tt, square_into, accesses=[Out(dst)], args=(src, dst))
        outs.append(dst)
    return outs


class TestProcessBackendCleanup:
    def test_raising_with_block_leaves_no_segments(self):
        before = live_segments()
        with pytest.raises(RuntimeError, match="boom"):
            with Session(executor="process", cores=2) as session:
                submit_square(session)
                session.wait_all()  # drain so shared segments exist
                assert live_segments() - before, (
                    "expected the process backend to have mapped segments"
                )
                raise RuntimeError("boom")
        assert live_segments() - before == set(), (
            "raising with-block leaked shared-memory segments"
        )

    def test_raising_before_any_drain_leaves_no_segments(self):
        before = live_segments()
        with pytest.raises(RuntimeError):
            with Session(executor="process", cores=2) as session:
                submit_square(session)
                raise RuntimeError("early")
        assert live_segments() - before == set()

    def test_explicit_executor_instance_cleans_up_on_error_too(self):
        before = live_segments()
        config = RuntimeConfig(num_threads=2, executor="process")
        with pytest.raises(RuntimeError):
            with Session(executor=build_executor(config)) as session:
                submit_square(session)
                session.wait_all()
                raise RuntimeError("boom")
        assert live_segments() - before == set()

    def test_finish_releases_pool_and_result_survives(self):
        with Session(executor="process", cores=2) as session:
            outs = submit_square(session)
        assert session.result.tasks_completed == 3
        assert all(o[2] == 4.0 for o in outs)
        # the finalizer ran: the executor refuses further drains
        with pytest.raises(RuntimeStateError):
            session.executor.drain(session.graph)


class TestProcessBackendFailureCleanup:
    """Supervision failure paths must release resources like the happy path."""

    def test_aborted_drain_leaves_no_segments_or_children(self):
        import multiprocessing

        from repro.testing.faults import fault_session, raising_body, submit_one

        before = live_segments()
        with pytest.raises(DrainAbortedError):
            with fault_session("process") as session:
                submit_square(session)
                submit_one(session, raising_body, label="abort-leak")
                session.wait_all()
        assert live_segments() - before == set(), (
            "aborted process drain leaked shared-memory segments"
        )
        for child in multiprocessing.active_children():
            child.join(timeout=5.0)
        assert not any(
            c.name.startswith("repro-worker") and c.is_alive()
            for c in multiprocessing.active_children()
        ), "aborted process drain leaked live worker processes"

    def test_crashed_worker_quarantine_drain_leaves_no_segments_or_children(self):
        import multiprocessing

        from repro.testing.faults import (
            fault_session,
            kill_worker_body,
            submit_one,
        )

        before = live_segments()
        with fault_session(
            "process", on_task_failure="quarantine", allow_worker_kill=True,
            chunk_size=1,
        ) as session:
            submit_one(session, kill_worker_body, label="crash-leak")
            outs = submit_square(session)
            result = session.wait_all()
        assert result.tasks_failed == 1
        assert result.failures[0].error == "WorkerLostError"
        assert all(o[2] == 4.0 for o in outs)
        assert live_segments() - before == set(), (
            "crash-recovery drain leaked shared-memory segments"
        )
        for child in multiprocessing.active_children():
            child.join(timeout=5.0)
        assert not any(
            c.name.startswith("repro-worker") and c.is_alive()
            for c in multiprocessing.active_children()
        ), "crash-recovery drain leaked live worker processes"


class TestSerialErrorPath:
    def test_failing_task_still_closes_session(self):
        closed = []

        class Probe(Session):
            def close(self):
                closed.append(True)
                super().close()

        def explode():
            raise ValueError("task failure")

        # Supervision wraps the abort in DrainAbortedError; the original
        # ValueError stays visible in the message and as __cause__.
        with pytest.raises(DrainAbortedError, match="ValueError: task failure") as excinfo:
            with Probe() as session:
                session.submit(TaskType("boom"), explode,
                               accesses=[Out(np.zeros(1))])
        assert isinstance(excinfo.value.__cause__, ValueError)
        # finish() raised during drain but still marked the session closed
        assert not closed  # finish() path, not close(): exception came from drain
        with pytest.raises(RuntimeStateError):
            session.wait_all()
