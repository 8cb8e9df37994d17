"""Unit tests for ``executor="process"``: the remote-worker executor over
forked subprocess endpoints with the shared-memory data plane."""

from __future__ import annotations

import numpy as np
import pytest

from repro.atm.engine import ATMEngine
from repro.atm.policy import StaticATMPolicy
from repro.common.config import ATMConfig, RuntimeConfig
from repro.common.exceptions import RuntimeStateError
from repro.runtime.data import In, InOut, Out, SharedDataRegion
from repro.runtime.executor import build_executor
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.net_executor import NetworkExecutor
from repro.runtime.net_transport import SubprocessEndpoint
from repro.runtime.net_wire import ChunkArena
from repro.runtime.shm import SharedBufferRegistry, SharedVersionTable, WorkerSegments
from repro.runtime.task import TaskType
from repro.session import Session
from repro.testing.faults import (
    fault_session,
    kill_worker_body,
    square_body,
    submit_one,
    wedge_body,
)


def process_session(workers=2, **runtime) -> Session:
    return Session(
        {"runtime": {"executor": "process", "num_threads": workers, **runtime}}
    )


def square(src, dst):
    dst[:] = src ** 2


def bump(buf):
    buf += 1.0


def explode(buf):
    raise ValueError("worker task failure")


def reduce_parts(dst, sources):
    dst[:] = sum(sources)


SQUARE = TaskType("mp_square", memoizable=True)


class TestSharedMemoryProtocol:
    def test_roundtrip_preserves_view_identity_and_bytes(self):
        table = SharedVersionTable(capacity=16)
        try:
            registry = SharedBufferRegistry(table)
            base = np.arange(24, dtype=np.float64).reshape(4, 6)
            view = base[1:3, 2:5]                    # non-trivial strides
            ref = registry.array_ref(view)
            segments = WorkerSegments(table)
            arena = ChunkArena((), segments=segments)
            rebuilt = arena.view(ref)
            assert rebuilt.shape == view.shape
            assert rebuilt.strides == view.strides
            assert np.array_equal(rebuilt, view)
            # Two views of the same segment share one ndarray base (region
            # identity for the worker-side keygen caches), also across chunks.
            other = ChunkArena((), segments=segments).view(registry.array_ref(base[0]))
            assert rebuilt.base is other.base
            del rebuilt, other, arena
            segments.close()
            registry.close()
        finally:
            table.close()

    def test_shared_regions_version_through_the_table(self):
        table = SharedVersionTable(capacity=16)
        try:
            registry = SharedBufferRegistry(table)
            ref = registry.array_ref(np.zeros(8))
            segments = WorkerSegments(table)
            region = ChunkArena((), segments=segments).region(ref, "buf")
            assert isinstance(region, SharedDataRegion)
            before = region.version
            region.bump_version()
            assert table.read(ref.slot) == before + 1
            del region
            segments.close()
            registry.close()
        finally:
            table.close()

    def test_copy_in_skips_unchanged_and_bumps_changed(self):
        table = SharedVersionTable(capacity=16)
        try:
            registry = SharedBufferRegistry(table)
            data = np.zeros(8)
            entry = registry.register(data)
            assert registry.copy_in() == 0          # registration seeded bytes
            version_before = table.read(entry.slot)
            data[:] = 7.0                            # parent-side mutation
            assert registry.copy_in() == 1
            assert table.read(entry.slot) == version_before + 1
            assert np.array_equal(entry.mirror, data)
            registry.close()
        finally:
            table.close()

    def test_version_table_bumps_are_monotonic(self):
        table = SharedVersionTable(capacity=4)
        try:
            assert table.read(2) == 0
            assert table.bump(2) == 1
            assert table.bump(2) == 2
            assert table.read(2) == 2
        finally:
            table.close()


class TestProcessBackendLifecycle:
    def test_process_is_the_remote_worker_executor_over_subprocesses(self):
        with process_session(workers=3) as session:
            executor = session.executor
            assert isinstance(executor, NetworkExecutor)
            assert len(executor._endpoints) == 3
            assert all(isinstance(ep, SubprocessEndpoint) for ep in executor._endpoints)

    def test_empty_graph_drain_returns_zero_result(self):
        executor = build_executor(RuntimeConfig(num_threads=2, executor="process"))
        try:
            result = executor.drain(TaskDependenceGraph(on_ready=executor.notify_ready))
            assert result.tasks_completed == 0
            assert result.reuse_fraction == 0.0
        finally:
            executor.close()

    def test_close_is_idempotent_and_drain_after_close_raises(self):
        runtime = process_session(workers=2)
        src = np.arange(8.0)
        out = np.zeros(8)
        runtime.submit(SQUARE, square, accesses=[In(src), Out(out)], args=(src, out))
        runtime.finish()                             # finish() closes the pool
        executor = runtime.executor
        executor.close()                             # second close: no-op
        with pytest.raises(RuntimeStateError):
            executor.drain(TaskDependenceGraph(on_ready=executor.notify_ready))

    def test_worker_exception_propagates_with_traceback(self):
        runtime = process_session(workers=2)
        boom = TaskType("mp_boom")
        buf = np.zeros(1)
        runtime.submit(boom, explode, accesses=[Out(buf)], args=(buf,))
        try:
            with pytest.raises(RuntimeStateError, match="worker task failure"):
                runtime.wait_all()
        finally:
            runtime.executor.close()

    def test_unpicklable_task_function_raises_instead_of_hanging(self):
        runtime = process_session(workers=1)
        local_fn_type = TaskType("mp_lambda")
        buf = np.zeros(1)
        runtime.submit(
            local_fn_type, lambda b: None, accesses=[Out(buf)], args=(buf,)
        )
        try:
            with pytest.raises(RuntimeStateError, match="picklable"):
                runtime.wait_all()
        finally:
            runtime.executor.close()

    def test_requires_atm_engine_compatible_engine(self):
        class FakeEngine:
            pass

        with pytest.raises(RuntimeStateError, match="ATMEngine-compatible"):
            build_executor(
                RuntimeConfig(num_threads=1, executor="process"), engine=FakeEngine()
            )


class TestProcessBackendSemantics:
    def test_dependence_chain_across_barriers(self):
        """Barriers reuse the live pool; state flows drain -> parent -> drain."""
        runtime = process_session(workers=2)
        increment = TaskType("mp_increment")
        data = np.zeros(4)
        for _ in range(3):
            runtime.submit(increment, bump, accesses=[InOut(data)], args=(data,))
        runtime.wait_all()
        assert np.allclose(data, 3.0)
        for _ in range(2):
            runtime.submit(increment, bump, accesses=[InOut(data)], args=(data,))
        result = runtime.finish()
        assert np.allclose(data, 5.0)
        assert result.tasks_completed == 5
        backend = result.extra["network_backend"]
        assert backend["endpoints"] == 2
        assert backend["dispatched"] == 5
        assert backend["respawns"] == 0

    def test_chunked_dispatch_covers_wide_graphs(self):
        runtime = process_session(workers=2, mp_chunk_size=4)
        src = np.arange(16.0)
        outs = [np.zeros(16) for _ in range(21)]
        for out in outs:
            runtime.submit(SQUARE, square, accesses=[In(src), Out(out)], args=(src, out))
        result = runtime.finish()
        assert result.tasks_completed == 21
        assert result.extra["network_backend"]["chunks"] >= 6  # ceil(21 / 4)
        assert all(np.allclose(out, src ** 2) for out in outs)

    def test_engine_deltas_merge_without_double_counting(self):
        config = ATMConfig(use_ikt=False)
        engine = ATMEngine(config=config, policy=StaticATMPolicy(config), num_threads=2)
        runtime = Session(executor="process", cores=2, engine=engine)
        src = np.arange(32.0)
        for _ in range(6):
            out = np.zeros(32)
            runtime.submit(SQUARE, square, accesses=[In(src), Out(out)], args=(src, out))
        runtime.wait_all()                           # barrier 1: merge delta 1
        for _ in range(6):
            out = np.zeros(32)
            runtime.submit(SQUARE, square, accesses=[In(src), Out(out)], args=(src, out))
        result = runtime.finish()                    # barrier 2: merge delta 2
        stats = engine.stats
        assert stats.tasks_seen == 12                # not 12 + 6 re-counted
        assert stats.tht_hits + stats.misses == 12
        assert engine.tht.hits + engine.tht.misses == 12
        assert result.tasks_memoized == stats.tht_hits
        # Second-drain lookups hit the warm per-worker THTs: at most one
        # cold miss per worker in total.
        assert stats.misses <= 2

    def test_nested_argument_payloads_are_rebuilt(self):
        """Lists of arrays inside args (kmeans-style reductions) round-trip."""
        runtime = process_session(workers=2)
        gather = TaskType("mp_gather")
        parts = [np.full(4, float(i)) for i in range(3)]
        total = np.zeros(4)
        runtime.submit(
            gather,
            reduce_parts,
            accesses=[Out(total)] + [In(p) for p in parts],
            args=(total, parts),
        )
        runtime.finish()
        assert np.allclose(total, 0.0 + 1.0 + 2.0)

    def test_spawned_workers_share_the_segments(self):
        runtime = process_session(workers=1, mp_start_method="spawn")
        src = np.arange(16.0)
        out = np.zeros(16)
        runtime.submit(SQUARE, square, accesses=[In(src), Out(out)], args=(src, out))
        runtime.finish()
        assert np.array_equal(out, src ** 2)

    def test_run_ships_no_region_bytes(self):
        """The shared-memory plane: descriptors travel, region bytes do not."""
        runtime = process_session(workers=2)
        src = np.arange(1 << 17, dtype=np.float64)   # 1 MiB
        outs = [np.zeros_like(src) for _ in range(8)]
        for out in outs:
            runtime.submit(SQUARE, square, accesses=[In(src), Out(out)], args=(src, out))
        result = runtime.finish()
        assert all(np.array_equal(out, src ** 2) for out in outs)
        backend = result.extra["network_backend"]
        touched = src.nbytes * (1 + len(outs))
        assert backend["payload_bytes"] < 64 * 1024 < touched
        assert "residency" not in backend


def test_killed_worker_is_respawned_for_the_next_drain():
    session = fault_session(
        "process",
        on_task_failure="quarantine",
        allow_worker_kill=True,
        chunk_size=1,
        drain_timeout_s=20.0,
    )
    with session:
        submit_one(session, kill_worker_body, label="kill")
        first = session.wait_all()
        backend = first.extra["network_backend"]
        assert first.tasks_failed == 1
        assert backend["respawns"] >= 1
        before = dict(backend["chunks_by_endpoint"])
        sinks = [submit_one(session, square_body, label="after") for _ in range(8)]
        second = session.wait_all()
    assert second.tasks_completed == 8
    for src, dst in sinks:
        assert np.array_equal(dst, src ** 2)
    after = second.extra["network_backend"]["chunks_by_endpoint"]
    used = [name for name in after if after[name] > before.get(name, 0)]
    assert sorted(used) == ["process/0", "process/1"]


def test_task_timeout_does_not_charge_time_spent_queued():
    """Chunks queued behind a busy worker are not wedged: the task budget
    starts at the worker's ack, not at dispatch."""
    with fault_session("process", workers=1, chunk_size=1, task_timeout_s=0.4) as session:
        sinks = [submit_one(session, wedge_body, 0.2, label="slow") for _ in range(6)]
        result = session.wait_all()
    assert result.tasks_completed == 6
    assert result.failures == []
    assert result.extra["network_backend"]["respawns"] == 0
    for src, dst in sinks:
        assert np.array_equal(dst, src ** 2)
