"""Fast in-process gateway tests (tier-1): serial pool, loopback TCP.

The heavier concurrent/threaded soak lives in ``test_serving_soak.py``
behind the ``serving`` marker; everything here runs the serial pool so the
whole file stays in the tier-1 time budget.
"""

from __future__ import annotations

import socket
from contextlib import contextmanager

import numpy as np
import pytest

from repro.apps import make_benchmark
from repro.common.exceptions import (
    ConfigurationError,
    GatewayProtocolError,
    GatewayShutdownError,
    TaskDefinitionError,
    TenantRejectedError,
)
from repro.runtime.data import In, InOut, Out
from repro.runtime.net_wire import (
    NetArrayRef,
    NetBuffer,
    NetTaskDescriptor,
    TaskTypeSpec,
    read_frame,
    write_frame,
)
from repro.runtime.task import TaskType
from repro.serving import Gateway, GatewayClient, SERVING_PROTOCOL_VERSION
from repro.session import ReproConfig, Session
from repro.testing.traffic import accumulate_block, fill_block

FILL = TaskType("serve_fill", memoizable=False)
ACC = TaskType("serve_acc", memoizable=False)


def boom_body(arr: np.ndarray) -> None:
    raise ValueError("deliberate serving-test failure")


@pytest.fixture(scope="module")
def gateway():
    cfg = ReproConfig().with_overrides(runtime={"executor": "serial"})
    gw = Gateway(cfg)
    gw.start()
    yield gw
    gw.stop()


def connect(gateway: Gateway, tenant: str, **kwargs) -> GatewayClient:
    return GatewayClient(
        "127.0.0.1", gateway.port, tenant=tenant, **kwargs
    )


# Raw-frame helpers: fixed buffer ids instead of the SDK's id(base) keys,
# so tests control exactly which ids each connection ships.
BLOCK_ID, ACC_ID = 0xB10C, 0xACC


@contextmanager
def raw_session(gateway: Gateway, tenant: str):
    with socket.create_connection(("127.0.0.1", gateway.port)) as sock:
        write_frame(sock, ("hello", {
            "protocol": SERVING_PROTOCOL_VERSION, "tenant": tenant,
        }))
        assert read_frame(sock)[0] == "hello_ack"
        yield sock


def request(sock: socket.socket, *message):
    write_frame(sock, message)
    return read_frame(sock)


def whole(buffer_id: int, array: np.ndarray) -> NetBuffer:
    return NetBuffer(buffer_id, 0, array.tobytes())


def accumulate_desc(n: int = 4) -> NetTaskDescriptor:
    """``acc += block`` over buffers BLOCK_ID and ACC_ID of n float64s."""
    block, acc = (
        NetArrayRef(buffer_id, 0, (n,), (8,), "<f8")
        for buffer_id in (BLOCK_ID, ACC_ID)
    )
    return NetTaskDescriptor(
        task_id=0,
        creation_index=0,
        type_spec=TaskTypeSpec.of(ACC),
        function=accumulate_block,
        accesses=((block, "in", "block"), (acc, "inout", "acc")),
        args=(block, acc),
        kwargs={},
    )


class TestEndToEnd:
    def test_submit_barrier_writeback(self, gateway):
        blocks = [np.zeros(8) for _ in range(3)]
        acc = np.zeros(8)
        with connect(gateway, "e2e-basic") as client:
            for i, block in enumerate(blocks):
                client.submit(FILL, fill_block, accesses=[Out(block)],
                              args=(block, float(i + 1)))
            for block in blocks:
                client.submit(ACC, accumulate_block,
                              accesses=[In(block), InOut(acc)],
                              args=(block, acc))
            summary = client.wait_all()
            assert summary["tasks_completed"] == 6
            assert summary["tasks_failed"] == 0
        for i, block in enumerate(blocks):
            assert np.all(block == i + 1), "write-back missed a filled block"
        assert np.all(acc == 1 + 2 + 3)

    def test_multiple_waves_reuse_shipped_buffers(self, gateway):
        data = np.zeros(4)
        acc = np.zeros(4)
        with connect(gateway, "e2e-waves") as client:
            client.submit(FILL, fill_block, accesses=[Out(data)],
                          args=(data, 2.0))
            client.wait_all()
            assert np.all(data == 2.0)
            # Second wave: only refs travel; the gateway's arena copy is
            # authoritative and already holds the first wave's writes.
            client.submit(ACC, accumulate_block,
                          accesses=[In(data), InOut(acc)], args=(data, acc))
            result = client.finish()
        assert np.all(acc == 2.0)
        assert result.tasks_completed == 2
        assert result.extra["tenant"] == "e2e-waves"

    def test_benchmark_matches_local_session(self, gateway):
        remote = make_benchmark("jacobi", scale="tiny")
        with connect(gateway, "e2e-jacobi") as client:
            remote.build(client)
            result = client.finish()
        local = make_benchmark("jacobi", scale="tiny")
        with Session(ReproConfig()) as session:
            local.run(session)
        assert np.array_equal(remote.output(), local.output())
        assert result.tasks_completed == session.result.tasks_completed

    def test_result_and_stats_surfaces(self, gateway):
        data = np.zeros(4)
        with connect(gateway, "e2e-stats") as client:
            client.submit(FILL, fill_block, accesses=[Out(data)],
                          args=(data, 1.0))
            client.wait_all()
            result = client.result()
            stats = client.stats()
        assert result.tasks_completed == 1
        assert result.extra["tasks_submitted"] == 1
        assert stats["pool"]["executor"] == "serial"
        entry = stats["tenants"]["e2e-stats"]
        assert entry["completed"] == 1
        assert entry["latency_p50_s"] >= 0.0
        assert entry["latency_p99_s"] >= entry["latency_p50_s"]
        assert "pending" in stats["admission"]

    def test_reconnect_resumes_tenant_namespace(self, gateway):
        data = np.zeros(4)
        acc = np.zeros(4)
        with connect(gateway, "e2e-reconnect") as client:
            client.submit(FILL, fill_block, accesses=[Out(data)],
                          args=(data, 3.0))
            client.wait_all()
        with connect(gateway, "e2e-reconnect") as client:
            before = client.result()
            assert before.extra["tasks_submitted"] == 1  # counters survived
            client.submit(ACC, accumulate_block,
                          accesses=[In(data), InOut(acc)], args=(data, acc))
            after = client.finish()
        assert after.extra["tasks_submitted"] == 2
        assert np.all(acc == 3.0)


    def test_reconnect_never_reads_an_earlier_connections_buffers(self, gateway):
        # Buffer ids name client arrays only within one connection: the SDK
        # keys them by id(base), which CPython reuses once an array dies.
        # Connection 2 ships other bytes under connection 1's ids and must
        # compute on its own bytes, not on the first ship.
        with raw_session(gateway, "e2e-stale") as sock:
            ship = (whole(BLOCK_ID, np.ones(4)), whole(ACC_ID, np.zeros(4)))
            assert request(sock, "submit", accumulate_desc(), ship)[0] == "ack"
            assert request(sock, "barrier")[0] == "barrier_result"
        with raw_session(gateway, "e2e-stale") as sock:
            ship = (whole(BLOCK_ID, np.full(4, 7.0)), whole(ACC_ID, np.zeros(4)))
            assert request(sock, "submit", accumulate_desc(), ship)[0] == "ack"
            _, summary, dirty = request(sock, "barrier")
        assert summary["tasks_completed"] == 2  # the tenant's counters resumed
        assert [buffer_id for buffer_id, _ in dirty] == [ACC_ID]
        np.testing.assert_array_equal(np.frombuffer(dirty[0][1]), np.full(4, 7.0))


class TestFailureSurfacing:
    def test_failure_and_cancellation_reach_the_client(self, gateway):
        data = np.zeros(4)
        dep = np.zeros(4)
        with connect(gateway, "fail-report") as client:
            client.submit(TaskType("serve_boom", memoizable=False), boom_body,
                          accesses=[InOut(data)], args=(data,))
            client.submit(ACC, accumulate_block,
                          accesses=[In(data), InOut(dep)], args=(data, dep))
            result = client.finish()
        assert result.tasks_failed == 1
        assert result.tasks_cancelled == 1  # quarantined dependent
        assert result.tasks_completed == 0
        assert len(result.failures) >= 1
        failure = result.failures[0]
        assert "deliberate serving-test failure" in failure.reason
        assert failure.error == "TaskFailedError"

    def test_failures_are_per_tenant(self, gateway):
        ok = np.zeros(4)
        with connect(gateway, "fail-peer") as client:
            client.submit(FILL, fill_block, accesses=[Out(ok)],
                          args=(ok, 1.0))
            result = client.finish()
        assert result.tasks_failed == 0
        assert result.failures == []  # the other tenant's failure is not ours


class TestProtocolErrors:
    def test_submit_before_hello(self, gateway):
        with socket.create_connection(("127.0.0.1", gateway.port)) as sock:
            write_frame(sock, ("result",))
            reply = read_frame(sock)
            assert reply[0] == "error"
            assert reply[1] == "GatewayProtocolError"
            assert "before hello" in reply[2]

    def test_unknown_message_type_keeps_connection_usable(self, gateway):
        with socket.create_connection(("127.0.0.1", gateway.port)) as sock:
            write_frame(sock, ("hello", {
                "protocol": SERVING_PROTOCOL_VERSION, "tenant": "proto-live",
            }))
            assert read_frame(sock)[0] == "hello_ack"
            write_frame(sock, ("frobnicate",))
            reply = read_frame(sock)
            assert reply[:2] == ("error", "GatewayProtocolError")
            write_frame(sock, ("result",))  # the error did not kill the loop
            assert read_frame(sock)[0] == "result_reply"

    def test_duplicate_hello_rejected(self, gateway):
        hello = ("hello", {
            "protocol": SERVING_PROTOCOL_VERSION, "tenant": "proto-dup",
        })
        with socket.create_connection(("127.0.0.1", gateway.port)) as sock:
            write_frame(sock, hello)
            assert read_frame(sock)[0] == "hello_ack"
            write_frame(sock, hello)
            assert read_frame(sock)[:2] == ("error", "GatewayProtocolError")

    def test_protocol_version_mismatch(self, gateway):
        with socket.create_connection(("127.0.0.1", gateway.port)) as sock:
            write_frame(sock, ("hello", {"protocol": 999, "tenant": "x"}))
            reply = read_frame(sock)
            assert reply[:2] == ("error", "TenantRejectedError")
            assert "protocol mismatch" in reply[2]

    @pytest.mark.parametrize(
        "kind, block",
        [
            ("unshipped", None),  # never shipped on this connection
            ("partial-span", NetBuffer(BLOCK_ID, 8, np.ones(3).tobytes())),
            ("cached", NetBuffer(BLOCK_ID, 0, None)),  # worker residency form
        ],
    )
    def test_arena_errors_are_error_replies(self, gateway, kind, block):
        ship = (whole(ACC_ID, np.zeros(4)),) + ((block,) if block else ())
        with raw_session(gateway, f"proto-arena-{kind}") as sock:
            reply = request(sock, "submit", accumulate_desc(), ship)
            assert reply[:2] == ("error", "GatewayProtocolError")
            result = request(sock, "result")  # the connection is still live
            assert result[0] == "result_reply"
            assert result[1]["tasks_submitted"] == 0

    def test_client_raises_typed_errors(self, gateway):
        with pytest.raises(TenantRejectedError, match="weight"):
            connect(gateway, "proto-weight", weight=-1.0)

    def test_invalid_task_definition_is_an_error_reply(self, gateway):
        data = np.zeros(4)
        with connect(gateway, "proto-baddef") as client:
            with pytest.raises(TaskDefinitionError, match="conflicting"):
                client.submit(ACC, accumulate_block,
                              accesses=[In(data), InOut(data)],
                              args=(data, data))
            # The rejection answered the request; the connection (and the
            # tenant's accounting) are still live.
            client.submit(FILL, fill_block, accesses=[Out(data)],
                          args=(data, 1.0))
            result = client.finish()
        assert result.tasks_completed == 1
        assert result.extra["tasks_submitted"] == 1  # the bad one rolled back

    def test_second_live_connection_for_same_tenant_rejected(self, gateway):
        with connect(gateway, "proto-single"):
            with pytest.raises(TenantRejectedError, match="live connection"):
                connect(gateway, "proto-single")

    def test_atm_request_rejected_on_engineless_pool(self):
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "process", "num_threads": 1}
        )
        with Gateway(cfg) as gw:
            with pytest.raises(TenantRejectedError, match="engine-less"):
                GatewayClient("127.0.0.1", gw.port, tenant="atm-proc",
                              atm_mode="static")

    def test_draining_gateway_refuses_new_tenants(self, gateway):
        gateway._draining = True
        try:
            with pytest.raises(GatewayShutdownError):
                connect(gateway, "late-arrival")
        finally:
            gateway._draining = False


class TestAtmNamespaces:
    """Per-tenant ATM isolation and the opt-in shared THT tier."""

    def run_app(self, gw, tenant, shared=None):
        app = make_benchmark("blackscholes", scale="tiny")
        kwargs = {} if shared is None else {"shared_tht": shared}
        with GatewayClient("127.0.0.1", gw.port, tenant=tenant,
                           atm_mode="static", **kwargs) as client:
            app.build(client)
            result = client.finish()
        return result, app.output().copy()

    def test_isolated_namespaces_show_no_cross_tenant_reuse(self):
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "serial"}, atm={"mode": "static"}
        )
        with Gateway(cfg) as gw:
            first, out_first = self.run_app(gw, "iso-a")
            second, out_second = self.run_app(gw, "iso-b")
        # Without the shared tier the second tenant starts cold: identical
        # accounting to the first run and zero shared hits.
        assert first.extra["shared_hits"] == 0
        assert second.extra["shared_hits"] == 0
        assert second.tasks_memoized == first.tasks_memoized
        assert second.tasks_executed == first.tasks_executed
        assert np.array_equal(out_first, out_second)

    def test_shared_tier_lets_second_tenant_reuse(self):
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "serial"},
            atm={"mode": "static"},
            serving={"shared_tht": True},
        )
        with Gateway(cfg) as gw:
            first, out_first = self.run_app(gw, "share-a", shared=True)
            second, out_second = self.run_app(gw, "share-b", shared=True)
        assert first.extra["shared_hits"] == 0  # nothing to reuse yet
        assert second.extra["shared_hits"] > 0
        assert second.tasks_memoized >= first.tasks_memoized
        assert second.tasks_executed < first.tasks_executed
        assert np.array_equal(out_first, out_second)

    def test_shared_tier_opt_out_per_tenant(self):
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "serial"},
            atm={"mode": "static"},
            serving={"shared_tht": True},
        )
        with Gateway(cfg) as gw:
            self.run_app(gw, "optout-a", shared=True)
            second, _ = self.run_app(gw, "optout-b", shared=False)
        assert second.extra["shared_hits"] == 0


class TestPersistentSharedTier:
    """The shared tier backed by ``atm.tht_store`` (DESIGN.md §9)."""

    def run_app(self, gw, tenant):
        app = make_benchmark("blackscholes", scale="tiny")
        with GatewayClient("127.0.0.1", gw.port, tenant=tenant,
                           atm_mode="static", shared_tht=True) as client:
            app.build(client)
            result = client.finish()
        return result, app.output().copy()

    def store_config(self, url):
        return ReproConfig().with_overrides(
            runtime={"executor": "serial"},
            atm={"mode": "static", "tht_store": url},
            serving={"shared_tht": True},
        )

    def test_shared_tier_survives_gateway_restart(self, tmp_path):
        url = f"file://{tmp_path / 'shared.tht'}"
        cfg = self.store_config(url)
        with Gateway(cfg) as gw:
            first, out_first = self.run_app(gw, "persist-a")
        assert first.extra["shared_hits"] == 0
        # A brand-new gateway on the same store starts with a warm shared
        # tier: the very first tenant reuses the previous campaign's work.
        with Gateway(cfg) as gw:
            second, out_second = self.run_app(gw, "persist-b")
        assert second.extra["shared_hits"] > 0
        assert np.array_equal(out_first, out_second)

    def test_gateway_publishes_to_shard_sessions_can_reuse(self, tmp_path):
        from tests.atm.test_tht_store import load_shard_module

        server, addr = load_shard_module().serve_in_thread()
        url = f"tcp://{addr}"
        try:
            with Gateway(self.store_config(url)) as gw:
                self.run_app(gw, "shard-pub")
            # The merge pump shipped the shared tier to the shard; a plain
            # Session pointed at the same shard now warm-starts from it.
            app = make_benchmark("blackscholes", scale="tiny")
            with Session(
                {"atm": {"mode": "static", "tht_store": url}}, executor="serial"
            ) as session:
                app.run(session)
                assert session.warm_started
                assert session.stats["tht_hits"] > 0
        finally:
            server.shutdown_gracefully()

    def test_unavailable_store_degrades_to_in_memory_tier(self):
        cfg = self.store_config("tcp://127.0.0.1:1")
        with pytest.warns(RuntimeWarning, match="unavailable"):
            gw = Gateway(cfg)
        with gw:
            self.run_app(gw, "degraded-a")
            second, _ = self.run_app(gw, "degraded-b")
        assert second.extra["shared_hits"] > 0  # in-memory sharing still works


    def test_corrupt_store_warns_cold_starts_and_heals(self, tmp_path):
        store_path = tmp_path / "corrupt.tht"
        store_path.write_bytes(b"definitely not a store")
        cfg = self.store_config(f"file://{store_path}")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            gw = Gateway(cfg)
        with gw:
            first, _ = self.run_app(gw, "corrupt-a")
        assert first.extra["shared_hits"] == 0  # cold shared tier
        # The store stayed attached and the shutdown publish replaced the
        # damaged file: the next gateway warm-starts from it.
        with Gateway(cfg) as gw:
            second, _ = self.run_app(gw, "corrupt-b")
        assert second.extra["shared_hits"] > 0


class TestGatewayConfig:
    def test_rejects_simulated_pool(self):
        cfg = ReproConfig().with_overrides(runtime={"executor": "simulated"})
        with pytest.raises(ConfigurationError, match="simulated"):
            Gateway(cfg)

    def test_port_zero_binds_ephemeral(self):
        with Gateway(ReproConfig()) as gw:
            assert gw.port > 0
