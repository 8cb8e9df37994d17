"""Multi-tenant serving gateway: the front door of the runtime (DESIGN.md §8).

A :class:`Gateway` turns the single-program Session model into a long-lived
service: many clients connect over TCP (the :mod:`repro.runtime.net_wire`
frame format), each claiming a **tenant** identity, and their task-graph
submissions are multiplexed onto ONE shared long-lived executor pool (any
registered backend).  Three properties make the sharing safe:

* **Isolation** — every tenant owns a private
  :class:`~repro.runtime.net_wire.ChunkArena`, emptied at each connection
  (its buffers, and therefore its dependence regions, are disjoint from
  every other tenant's) and a private ATM engine replica, so memoization
  state never leaks across tenants.  Tasks are decoded by
  :func:`~repro.runtime.net_wire.build_task`, the network workers' decoder.
* **Fairness** — submissions pass through the
  :class:`~repro.serving.admission.AdmissionController`: per-tenant FIFO
  queues drained by weighted deficit round-robin into a bounded global
  pending pool, so a heavy tenant cannot starve a light one.
* **Opt-in sharing** — with ``ServingConfig.shared_tht`` the gateway keeps
  one extra :class:`~repro.atm.tht.THT` tier.  Tenant engines journal their
  commits and a background pump incrementally merges the deltas into the
  shared tier (period ``merge_interval_s``, or earlier after
  ``merge_min_commits`` journal entries); a tenant-private THT miss then
  probes the shared tier, so tenants that opted in reuse each other's work
  without ever writing into each other's namespaces.  With ``atm.tht_store``
  the shared tier additionally warm-starts from a persistent store
  (``file://`` snapshot or ``tcp://`` cache shard, DESIGN.md §9) and the
  merge pump publishes its incremental deltas back, so the warm tier
  survives gateway restarts.

Threading model: one asyncio event loop (connection handling), one dispatch
thread (admission pump + ``executor.drain``), one merge-pump thread (shared
tier only).  Mid-drain admission rides the graph's ``on_complete`` hook —
every task completion frees a pending-pool slot and immediately pumps more
queued work into the live graph, which keeps the pool busy and is what lets
a second wave submitted *while draining* land in the same graph (the
submit-while-draining parity tests drive exactly this seam).

The graph's dense bookkeeping grows with the total number of tasks ever
served; a gateway is expected to be restarted between unrelated campaigns
rather than run unbounded forever.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
import warnings
from collections import deque
from typing import Any, Mapping, Optional

from repro.common.exceptions import (
    AdmissionError,
    ConfigurationError,
    GatewayError,
    GatewayProtocolError,
    GatewayShutdownError,
    ReproError,
    TenantRejectedError,
    THTStoreError,
    WireProtocolError,
)
from repro.runtime.atm_protocol import (
    ATMAction,
    ATMDecision,
    EXECUTE_DECISION,
)
from repro.runtime.executor import build_executor
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.net_wire import (
    ChunkArena,
    build_task,
    encode_frame,
    read_frame_async,
)
from repro.runtime.task import Task, TaskState, TaskType
from repro.serving.admission import AdmissionController
from repro.session.config import ReproConfig

__all__ = [
    "Gateway",
    "TenantEngineRouter",
    "SERVING_PROTOCOL_VERSION",
]

#: Bumped on any incompatible change to the gateway message vocabulary.
SERVING_PROTOCOL_VERSION = 1

#: ATM modes a tenant may request at hello time.
_TENANT_ATM_MODES = ("none", "static", "dynamic", "fixed_p")


class _TenantState:
    """Everything the gateway tracks per tenant."""

    def __init__(
        self,
        name: str,
        weight: float,
        engine,
        share_tht: bool,
        history: int,
    ) -> None:
        self.name = name
        self.weight = weight
        self.engine = engine
        self.share_tht = share_tht
        # Buffer ids are the client's ledger keys, meaningful only within
        # one connection: the arena and the ids written since the last
        # barrier start empty at every hello (see _register_tenant).
        self.arena = ChunkArena()
        self.dirty: set[int] = set()
        self.task_types: dict[str, TaskType] = {}
        self.lock = threading.Lock()
        self.connected = False
        self.submitted = 0
        self.outstanding = 0
        self.executed = 0
        self.memoized = 0
        self.failed = 0
        self.cancelled = 0
        self.shared_hits = 0
        self.failed_ids: set[int] = set()
        self.latencies: deque = deque(maxlen=max(history, 1))
        self.barriers: list[asyncio.Future] = []
        self.last_flush = time.monotonic()


class _Route:
    """Per-task metadata the completion hook needs (Task is ``__slots__``-ed)."""

    __slots__ = ("tenant", "t_submit")

    def __init__(self, tenant: _TenantState, t_submit: float) -> None:
        self.tenant = tenant
        self.t_submit = t_submit


class TenantEngineRouter:
    """Per-task demultiplexer implementing the executor's engine protocol.

    The shared pool sees ONE engine; this router forwards each call to the
    owning tenant's private engine (or answers ``EXECUTE`` for engine-less
    tenants).  On a tenant-private THT miss it optionally probes the shared
    tier: a hit there abandons the tenant-side lookup (retiring its IKT
    registration), copies the stored outputs, and reports a ``SKIP`` with
    ``atm_handled=False`` — the executor then completes the task as memoized
    without any tenant-engine commit, so the shared tier accelerates tenants
    without polluting their private statistics or tables.
    """

    def __init__(self, shared_tht=None) -> None:
        self._routes: dict[int, _Route] = {}
        self._shared = shared_tht
        self._engines: list = []
        self._deferred_cb = None
        self._lock = threading.Lock()

    # -- route maintenance (gateway side) ---------------------------------------
    def bind(self, task: Task, route: _Route) -> None:
        self._routes[id(task)] = route

    def route(self, task: Task) -> Optional[_Route]:
        return self._routes.get(id(task))

    def unbind(self, task: Task) -> Optional[_Route]:
        return self._routes.pop(id(task), None)

    def add_engine(self, engine) -> None:
        """Track a tenant engine; fan out the deferred-completion callback."""
        if engine is None:
            return
        with self._lock:
            self._engines.append(engine)
            if self._deferred_cb is not None:
                engine.set_deferred_completion_callback(self._deferred_cb)

    # -- MemoizationEngineProtocol ----------------------------------------------
    def task_ready(self, task: Task, worker_id: int = 0) -> ATMDecision:
        route = self._routes.get(id(task))
        tenant = route.tenant if route is not None else None
        engine = tenant.engine if tenant is not None else None
        if engine is None:
            return EXECUTE_DECISION
        decision = engine.task_ready(task, worker_id)
        if (
            self._shared is not None
            and tenant.share_tht
            and decision.action is ATMAction.EXECUTE
            and decision.payload.get("key") is not None
        ):
            entry = self._shared.lookup(
                decision.payload["key"], task.task_type.name
            )
            if entry is not None:
                # Local imports keep the router usable with fake engines in
                # tests that never touch the ATM package.
                from repro.atm.engine import ATMEngine

                engine.task_abandoned(task, decision)
                try:
                    copied = ATMEngine._copy_outputs_from_entry(task, entry)
                except Exception:
                    # Output layout mismatch (same key, different task
                    # surface): execute normally.  The tenant-side lookup
                    # was already abandoned, so the engine must not see a
                    # task_finished for this decision.
                    return ATMDecision(
                        action=ATMAction.EXECUTE,
                        hashed_bytes=decision.hashed_bytes,
                        p=decision.p,
                        atm_handled=False,
                    )
                with tenant.lock:
                    tenant.shared_hits += 1
                return ATMDecision(
                    action=ATMAction.SKIP,
                    hashed_bytes=decision.hashed_bytes,
                    copied_bytes=copied,
                    p=decision.p,
                    atm_handled=False,
                )
        return decision

    def task_finished(
        self, task: Task, decision: ATMDecision, executed: bool, worker_id: int = 0
    ):
        route = self._routes.get(id(task))
        engine = route.tenant.engine if route is not None else None
        if engine is None:
            return None
        return engine.task_finished(task, decision, executed, worker_id)

    def task_abandoned(self, task: Task, decision: ATMDecision) -> list[Task]:
        route = self._routes.get(id(task))
        engine = route.tenant.engine if route is not None else None
        if engine is None:
            return []
        return engine.task_abandoned(task, decision)

    def set_deferred_completion_callback(self, callback) -> None:
        with self._lock:
            self._deferred_cb = callback
            for engine in self._engines:
                engine.set_deferred_completion_callback(callback)


class Gateway:
    """The serving front door (see module docstring)."""

    def __init__(self, config: "ReproConfig | dict | str | None" = None) -> None:
        cfg = ReproConfig.coerce(config)
        if cfg.runtime.executor == "simulated":
            raise ConfigurationError(
                "the gateway needs a real executor pool; the simulated "
                "backend models one closed program, not an open-loop service"
            )
        # Tenant failures must quarantine (cancel the tenant's dependent
        # subgraph, report through RunResult.failures) — an aborting pool
        # would let one tenant's bug take down every other tenant's drain.
        cfg = cfg.with_overrides(runtime={"on_task_failure": "quarantine"})
        self.config = cfg
        self.serving = cfg.serving
        # Worker-replicated backends rebuild their engine from a picklable
        # spec; a per-task router cannot be replicated, so those pools run
        # engine-less and tenants must not request ATM.
        self._atm_capable = cfg.runtime.executor in ("serial", "threaded")
        self._shared_tht = None
        if self.serving.shared_tht:
            if not self._atm_capable:
                raise ConfigurationError(
                    f"serving.shared_tht requires an in-process pool "
                    f"(serial/threaded), not {cfg.runtime.executor!r}"
                )
            from repro.atm.tht import TaskHistoryTable

            self._shared_tht = TaskHistoryTable(cfg.atm)
        # Persistent memoization tier (DESIGN.md §9): the shared tier
        # warm-starts from ``atm.tht_store`` and the merge pump publishes its
        # incremental deltas back, so the warm tier survives gateway restarts
        # and is visible to other gateways/sessions on the same store.
        self._tht_store = None
        if self._shared_tht is not None and cfg.atm.tht_store:
            from repro.atm.store import warm_start

            self._tht_store, _warmed = warm_start(
                cfg.atm.tht_store, cfg.atm, self._shared_tht, "shared tier cold-starts"
            )
        self._router = TenantEngineRouter(shared_tht=self._shared_tht)
        self._admission = AdmissionController(
            max_pending=self.serving.max_pending,
            max_tenant_queue=self.serving.max_tenant_queue,
            quantum=self.serving.quantum,
        )
        self._tenants: dict[str, _TenantState] = {}
        self._tenants_lock = threading.Lock()
        self._admit_lock = threading.Lock()
        self._work_cond = threading.Condition()
        self._stop_event = threading.Event()
        self._draining = False
        self._failure_archive: list = []
        self._drain_errors = 0
        self._build_pool()

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._port: Optional[int] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._dispatch_thread: Optional[threading.Thread] = None
        self._merge_thread: Optional[threading.Thread] = None

    # -- persistent shared tier (DESIGN.md §9) -----------------------------------
    def _publish_shared_delta(self) -> None:
        """Ship the shared tier's journal increment to the store.

        A store that fails mid-service is detached after one warning — the
        gateway keeps serving from its in-memory tier.
        """
        store = self._tht_store
        if store is None or self._shared_tht is None:
            return
        if not getattr(self._shared_tht, "_journal", None):
            return
        try:
            store.publish(self._shared_tht.snapshot(reset=True))
        except THTStoreError as exc:
            self._tht_store = None
            store.close()
            warnings.warn(
                f"THT store {store.url} publish failed; detaching the store "
                f"(shared tier stays in-memory): {exc}",
                RuntimeWarning,
                stacklevel=2,
            )

    # -- pool assembly -----------------------------------------------------------
    def _build_pool(self) -> None:
        engine = self._router if self._atm_capable else None
        self._executor = build_executor(
            self.config.runtime,
            engine=engine,
            sim_config=self.config.simulation,
        )
        self._graph = TaskDependenceGraph(
            on_ready=self._executor.notify_ready,
            on_ready_batch=self._executor.notify_ready_batch,
            on_complete=self._on_task_complete,
        )

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> int:
        """Bind, spawn the service threads, and return the listening port."""
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="gateway-loop", daemon=True
        )
        self._loop_thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        self._dispatch_thread = threading.Thread(
            target=self._dispatch_loop, name="gateway-dispatch", daemon=True
        )
        self._dispatch_thread.start()
        if self._shared_tht is not None:
            self._merge_thread = threading.Thread(
                target=self._merge_loop, name="gateway-merge", daemon=True
            )
            self._merge_thread.start()
        assert self._port is not None
        return self._port

    @property
    def port(self) -> int:
        if self._port is None:
            raise GatewayError("gateway not started")
        return self._port

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(
                    self._handle_client, self.serving.host, self.serving.port
                )
            )
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._server = server
        self._port = server.sockets[0].getsockname()[1]
        self._started.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            # Cancel stragglers (idle connection handlers) before closing.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def stop(self, grace_s: Optional[float] = None) -> None:
        """Graceful shutdown: drain in-flight work, flush deltas, close.

        New submissions are refused (``GatewayShutdownError``) the moment
        shutdown begins; work already admitted or queued gets up to
        ``grace_s`` (default ``serving.shutdown_grace_s``) to finish, then
        the pool is torn down regardless.
        """
        if self._stop_event.is_set():
            return
        grace = self.serving.shutdown_grace_s if grace_s is None else grace_s
        self._draining = True
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            if not self._admission.has_queued() and self._graph.all_finished:
                break
            time.sleep(0.01)
        self._stop_event.set()
        with self._work_cond:
            self._work_cond.notify_all()
        if self._shared_tht is not None:
            self._flush_all_deltas()
            self._publish_shared_delta()
        store, self._tht_store = self._tht_store, None
        if store is not None:
            store.close()
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        for thread in (self._loop_thread, self._dispatch_thread, self._merge_thread):
            if thread is not None:
                thread.join(timeout=5.0)
        self._executor.close()

    def __enter__(self) -> "Gateway":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- dispatch ----------------------------------------------------------------
    def _signal_work(self) -> None:
        with self._work_cond:
            self._work_cond.notify_all()

    def _pump_admission(self) -> None:
        """Move queued work into the live graph (DRR order).

        ``take()`` + ``add_tasks`` must be one atomic step — two concurrent
        pumps could otherwise interleave their graph insertion and invert a
        tenant's FIFO, breaking its dependence order.  Contended or
        re-entrant pumps (a born-cancelled task's completion hook fires
        *inside* ``add_tasks``) skip instead of blocking; the slot they
        would have filled is picked up by the next completion or the
        dispatch loop's idle tick.
        """
        if not self._admit_lock.acquire(blocking=False):
            return
        try:
            admitted = self._admission.take()
            if admitted:
                self._graph.add_tasks([task for _, task in admitted])
        finally:
            self._admit_lock.release()

    def _dispatch_loop(self) -> None:
        while not self._stop_event.is_set():
            self._pump_admission()
            if not self._graph.all_finished:
                try:
                    self._executor.drain(self._graph)
                except BaseException as exc:
                    self._recover_from_drain_failure(exc)
                continue
            with self._work_cond:
                if self._stop_event.is_set():
                    return
                if self._admission.has_queued() or not self._graph.all_finished:
                    continue
                self._work_cond.wait(timeout=0.1)

    def _recover_from_drain_failure(self, exc: BaseException) -> None:
        """A drain died wholesale (not a quarantined task): rebuild the pool.

        Every non-terminal routed task is failed against its tenant so
        barriers resolve and slots free; the old pool's failure report is
        archived (summaries join against it) and a fresh executor + graph
        replace the broken ones.
        """
        self._drain_errors += 1
        old_failures = list(self._executor.result().failures)
        self._failure_archive.extend(old_failures)
        stranded = [
            (task_id, route)
            for task_id, route in list(self._router._routes.items())
        ]
        with self._admit_lock:
            for key, route in stranded:
                self._router._routes.pop(key, None)
                tenant = route.tenant
                with tenant.lock:
                    tenant.failed += 1
                    tenant.outstanding -= 1
                    resolved = self._collect_barriers(tenant)
                self._admission.release(1)
                self._resolve_barriers(resolved)
            try:
                self._executor.close()
            except Exception:
                pass
            self._build_pool()

    # -- completion hook ---------------------------------------------------------
    def _on_task_complete(self, task: Task) -> None:
        """Graph ``on_complete``: tenant accounting + mid-drain admission."""
        route = self._router.unbind(task)
        if route is None:
            return
        tenant = route.tenant
        state = task.state
        with tenant.lock:
            if state is TaskState.FINISHED:
                tenant.executed += 1
            elif state is TaskState.MEMOIZED:
                tenant.memoized += 1
            elif state is TaskState.FAILED:
                tenant.failed += 1
                tenant.failed_ids.add(task.task_id)
            elif state is TaskState.CANCELLED:
                tenant.cancelled += 1
                tenant.failed_ids.add(task.task_id)
            tenant.outstanding -= 1
            tenant.latencies.append(time.monotonic() - route.t_submit)
            resolved = self._collect_barriers(tenant)
        self._admission.release(1)
        self._pump_admission()
        self._resolve_barriers(resolved)
        if resolved:
            self._signal_work()

    def _collect_barriers(self, tenant: _TenantState) -> list[asyncio.Future]:
        """Under ``tenant.lock``: pop barrier futures once outstanding hits 0."""
        if tenant.outstanding == 0 and tenant.barriers:
            resolved = tenant.barriers[:]
            tenant.barriers.clear()
            return resolved
        return []

    def _resolve_barriers(self, futures: list[asyncio.Future]) -> None:
        loop = self._loop
        if loop is None:
            return
        for fut in futures:
            loop.call_soon_threadsafe(
                lambda f=fut: f.done() or f.set_result(None)
            )

    # -- shared-tier merge pump --------------------------------------------------
    def _flush_tenant_delta(self, tenant: _TenantState) -> None:
        engine = tenant.engine
        if (
            self._shared_tht is None
            or engine is None
            or not tenant.share_tht
        ):
            return
        journal = getattr(engine.tht, "_journal", None)
        if not journal:
            tenant.last_flush = time.monotonic()
            return
        self._shared_tht.merge(engine.tht.snapshot(reset=True))
        tenant.last_flush = time.monotonic()

    def _flush_all_deltas(self) -> None:
        with self._tenants_lock:
            tenants = list(self._tenants.values())
        for tenant in tenants:
            self._flush_tenant_delta(tenant)

    def _merge_loop(self) -> None:
        interval = self.serving.merge_interval_s
        min_commits = self.serving.merge_min_commits
        tick = max(interval / 4.0, 0.005)
        while not self._stop_event.wait(tick):
            now = time.monotonic()
            with self._tenants_lock:
                tenants = list(self._tenants.values())
            for tenant in tenants:
                engine = tenant.engine
                if engine is None or not tenant.share_tht:
                    continue
                journal = getattr(engine.tht, "_journal", None)
                if not journal:
                    continue
                if len(journal) >= min_commits or now - tenant.last_flush >= interval:
                    self._flush_tenant_delta(tenant)
            # Tenant deltas merged above land in the shared tier's journal
            # (when a store is attached); ship that increment downstream.
            self._publish_shared_delta()

    # -- tenant management -------------------------------------------------------
    def _register_tenant(self, info: Mapping) -> _TenantState:
        protocol = info.get("protocol")
        if protocol != SERVING_PROTOCOL_VERSION:
            raise TenantRejectedError(
                f"serving protocol mismatch: client speaks {protocol!r}, "
                f"gateway speaks {SERVING_PROTOCOL_VERSION}"
            )
        name = info.get("tenant")
        if not name or not isinstance(name, str):
            raise TenantRejectedError("hello carries no tenant name")
        weight = float(info.get("weight", self.serving.default_weight))
        if weight <= 0:
            raise TenantRejectedError(f"tenant weight must be > 0, got {weight}")
        atm_mode = info.get("atm_mode")
        if atm_mode is None:
            atm_mode = self.config.atm.mode
        if atm_mode not in _TENANT_ATM_MODES:
            raise TenantRejectedError(f"unknown atm_mode {atm_mode!r}")
        if atm_mode != "none" and not self._atm_capable:
            raise TenantRejectedError(
                f"this gateway's {self.config.runtime.executor!r} pool runs "
                f"engine-less; per-tenant ATM needs a serial/threaded pool"
            )
        share = bool(info.get("shared_tht", self._shared_tht is not None))
        if share and self._shared_tht is None:
            share = False  # no shared tier exists; opt-in is a no-op
        with self._tenants_lock:
            tenant = self._tenants.get(name)
            if tenant is not None:
                if tenant.connected:
                    raise TenantRejectedError(
                        f"tenant {name!r} already has a live connection"
                    )
                # Reconnection resumes the tenant (engine, counters, shared
                # tier opt-in) — the point of a persistent per-tenant ATM
                # tier — but not its buffers: the new connection's ids may
                # reuse an old one's for other arrays.  The old handler no
                # longer touches them (it cleared `connected` on exit).
                tenant.arena = ChunkArena()
                tenant.dirty = set()
                tenant.connected = True
                return tenant
            engine = self._build_tenant_engine(atm_mode, info.get("atm_p"), share)
            tenant = _TenantState(
                name=name,
                weight=weight,
                engine=engine,
                share_tht=share,
                history=self.serving.result_history,
            )
            tenant.connected = True
            self._tenants[name] = tenant
        self._router.add_engine(engine)
        self._admission.register(name, weight)
        return tenant

    def _build_tenant_engine(
        self, mode: str, p: Optional[float], share: bool
    ):
        if mode == "none":
            return None
        from repro.atm.engine import ATMEngine
        from repro.atm.policy import make_policy

        atm_cfg = dataclasses.replace(self.config.atm, mode=mode)
        if p is not None:
            atm_cfg = dataclasses.replace(atm_cfg, p=float(p))
        policy = make_policy(
            mode, atm_cfg, p=atm_cfg.p if mode == "fixed_p" else None
        )
        num_threads = max(self.config.runtime.num_threads, 1)
        engine = ATMEngine(config=atm_cfg, policy=policy, num_threads=num_threads)
        if share:
            engine.enable_delta_snapshots()
        return engine

    # -- request handling --------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        tenant: Optional[_TenantState] = None
        loop = asyncio.get_running_loop()

        async def reply(message: Any) -> None:
            writer.write(encode_frame(message))
            await writer.drain()

        try:
            while True:
                message = await read_frame_async(reader)
                if message is None:
                    break
                try:
                    done = await self._handle_message(
                        message, tenant, reply, loop
                    )
                except ReproError as exc:
                    # Any taxonomy error — gateway-specific or from task
                    # validation/decoding — is the client's answer, not a
                    # reason to drop the connection.
                    await reply(("error", type(exc).__name__, str(exc)))
                    continue
                if isinstance(done, _TenantState):
                    tenant = done
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if tenant is not None:
                tenant.connected = False
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _handle_message(self, message, tenant, reply, loop):
        if not isinstance(message, tuple) or not message:
            raise GatewayProtocolError("messages are non-empty tuples")
        kind = message[0]
        if kind == "hello":
            if tenant is not None:
                raise GatewayProtocolError("duplicate hello on one connection")
            if self._draining:
                raise GatewayShutdownError("gateway is shutting down")
            info = message[1] if len(message) > 1 else {}
            state = self._register_tenant(info)
            await reply(
                (
                    "hello_ack",
                    {
                        "protocol": SERVING_PROTOCOL_VERSION,
                        "tenant": state.name,
                        "shared_tht": state.share_tht,
                        "atm": state.engine is not None,
                        "executor": self.config.runtime.executor,
                    },
                )
            )
            return state
        if tenant is None:
            raise GatewayProtocolError(f"{kind!r} before hello")
        if kind in ("submit", "submit_batch"):
            if self._draining:
                raise GatewayShutdownError("gateway is shutting down")
            descs, buffers = message[1], message[2]
            if kind == "submit":
                descs = [descs]
            n = await loop.run_in_executor(
                None, self._ingest_submission, tenant, descs, buffers
            )
            await reply(("ack", n))
            return None
        if kind == "barrier" or kind == "finish":
            fut: Optional[asyncio.Future] = None
            with tenant.lock:
                if tenant.outstanding > 0:
                    fut = loop.create_future()
                    tenant.barriers.append(fut)
            if fut is not None:
                await fut
            summary, dirty = await loop.run_in_executor(
                None, self._barrier_payload, tenant
            )
            if kind == "finish":
                # The connection stays open after finish: clients may still
                # ask for result/stats or submit a fresh wave.  EOF on the
                # socket (client close) is what ends the session loop.
                await reply(("finish_ack", summary, dirty))
                return None
            await reply(("barrier_result", summary, dirty))
            return None
        if kind == "result":
            await reply(("result_reply", self._tenant_summary(tenant)))
            return None
        if kind == "stats":
            await reply(("stats_reply", self._gateway_stats(tenant)))
            return None
        raise GatewayProtocolError(f"unknown message type {kind!r}")

    # -- submission path (worker threads) ----------------------------------------
    def _ingest_submission(
        self, tenant: _TenantState, descs: list, buffers
    ) -> int:
        for buf in buffers:
            if buf.data is None or buf.start != 0:
                raise GatewayProtocolError(
                    f"tenant buffer {buf.buffer_id:#x} shipped a cached or "
                    f"partial span; the serving protocol ships whole base buffers"
                )
        t_submit = time.monotonic()
        # Ships land before the build: the client's ledger counts them as
        # shipped even when a task below is rejected.  Every task is built
        # (and validated) before any route binds, so a rejected descriptor
        # mid-batch leaves no dangling router entries.  The shared graph
        # assigns dense ids (task_id=-1).
        try:
            tenant.arena.add(buffers)
            tasks = [
                build_task(desc, tenant.arena, tenant.task_types, task_id=-1)
                for desc in descs
            ]
        except WireProtocolError as exc:
            raise GatewayProtocolError(str(exc)) from exc
        for task, desc in zip(tasks, descs):
            for access, (ref, _mode, _name) in zip(task.accesses, desc.accesses):
                if access.writes:
                    tenant.dirty.add(ref.buffer_id)
        for task in tasks:
            self._router.bind(task, _Route(tenant, t_submit))
        with tenant.lock:
            tenant.submitted += len(tasks)
            tenant.outstanding += len(tasks)
        try:
            self._admission.enqueue(tenant.name, tasks)
        except AdmissionError:
            with tenant.lock:
                tenant.submitted -= len(tasks)
                tenant.outstanding -= len(tasks)
            for task in tasks:
                self._router.unbind(task)
            raise
        # Deliberately no direct pump here: only the dispatch loop (no drain
        # running) and the completion hook (a live drain worker) may extend
        # the graph.  An ingest-thread pump could extend it in the window
        # where a drain's workers have already observed all_finished and
        # exited — tasks nobody would ever run.
        self._signal_work()
        return len(tasks)

    # -- replies -----------------------------------------------------------------
    def _barrier_payload(self, tenant: _TenantState) -> tuple[dict, list]:
        # Outstanding == 0: no in-flight writes touch this tenant's arena,
        # so the dirty backings are stable to read.  Flushing the delta here
        # makes a finished tenant's commits visible to shared-tier peers
        # immediately instead of a merge-interval later.
        self._flush_tenant_delta(tenant)
        summary = self._tenant_summary(tenant)
        with tenant.lock:
            dirty_ids = sorted(tenant.dirty)
            tenant.dirty.clear()
        dirty = [
            (buffer_id, tenant.arena.backing_bytes(buffer_id))
            for buffer_id in dirty_ids
        ]
        return summary, dirty

    def _tenant_summary(self, tenant: _TenantState) -> dict:
        with tenant.lock:
            failed_ids = set(tenant.failed_ids)
            summary = {
                "tenant": tenant.name,
                "tasks_submitted": tenant.submitted,
                "tasks_completed": tenant.executed + tenant.memoized,
                "tasks_executed": tenant.executed,
                "tasks_memoized": tenant.memoized,
                "tasks_failed": tenant.failed,
                "tasks_cancelled": tenant.cancelled,
                "shared_hits": tenant.shared_hits,
                "outstanding": tenant.outstanding,
            }
        summary["lost_deltas"] = self._executor.result().lost_deltas
        # The supervisor records the TaskFailure *after* the graph turns the
        # task terminal (quarantine fails the subgraph first), so a summary
        # racing the recording may need one beat for the report to land.
        failures: list = []
        if failed_ids:
            for _ in range(50):
                failures = [
                    f for f in self._all_failures() if f.task_id in failed_ids
                ]
                if failures:
                    break
                time.sleep(0.002)
        summary["failures"] = failures
        return summary

    def _all_failures(self) -> list:
        return self._failure_archive + list(self._executor.result().failures)

    def _gateway_stats(self, tenant: Optional[_TenantState] = None) -> dict:
        result = self._executor.result()
        stats: dict[str, Any] = {
            "admission": self._admission.snapshot(),
            "drain_errors": self._drain_errors,
            "pool": {
                "executor": self.config.runtime.executor,
                "tasks_completed": result.tasks_completed,
                "tasks_executed": result.tasks_executed,
                "tasks_memoized": result.tasks_memoized,
                "tasks_failed": result.tasks_failed,
                "tasks_cancelled": result.tasks_cancelled,
                "lost_deltas": result.lost_deltas,
            },
            "tenants": {},
        }
        with self._tenants_lock:
            tenants = list(self._tenants.values())
        for state in tenants:
            with state.lock:
                latencies = sorted(state.latencies)
                entry = {
                    "submitted": state.submitted,
                    "completed": state.executed + state.memoized,
                    "executed": state.executed,
                    "memoized": state.memoized,
                    "failed": state.failed,
                    "cancelled": state.cancelled,
                    "shared_hits": state.shared_hits,
                    "outstanding": state.outstanding,
                    "weight": state.weight,
                }
            entry["latency_p50_s"] = _percentile(latencies, 0.50)
            entry["latency_p99_s"] = _percentile(latencies, 0.99)
            stats["tenants"][state.name] = entry
        return stats


def _percentile(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return float(sorted_values[index])
