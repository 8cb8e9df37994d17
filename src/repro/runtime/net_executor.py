"""The remote-worker execution backend (DESIGN.md §4.3).

:class:`NetworkExecutor` drives workers over the length-prefixed frame
protocol of :mod:`repro.runtime.net_wire`: the parent keeps the task
dependence graph, the scheduler and the reference ATM engine; workers
rebuild task chunks, run the full ATM protocol against per-worker engine
replicas, and report per-task outcomes.  Workers sit behind one of three
endpoint kinds (:mod:`repro.runtime.net_transport`), and the kind picks the
data plane:

* **Shared memory** — ``executor="process"``: forked
  :class:`~repro.runtime.net_transport.SubprocessEndpoint` children on this
  host.  The parent's :class:`~repro.runtime.shm.SharedBufferRegistry`
  mirrors every touched base buffer into a shared segment (``copy_in`` at
  drain start), chunks carry segment references, workers write the
  segments in place and bump the cross-process
  :class:`~repro.runtime.shm.SharedVersionTable`, and the parent copies the
  written buffers back once, at drain end (``copy_out``).  No region bytes
  travel on the socket.  A child that dies or wedges is respawned in place.
* **Bytes** — ``executor="network"``: in-process loopback workers or
  ``scripts/net_worker.py`` TCP daemons.  Every dispatch serializes the byte
  spans a chunk touches; every completion carries the written bytes home,
  applied to the parent arrays *before* successors are released.  With
  per-endpoint data residency (``RuntimeConfig.net_residency``, default on)
  dispatch cost is proportional to *stale* data rather than touched data:
  the parent's :class:`~repro.runtime.residency.ResidencyTable` tracks which
  buffer spans each endpoint already holds at which write-version, chunks
  ship ``data=None`` cached references for current spans, and the placement
  layer routes ready chunks to the endpoint holding the most of their input
  bytes (same-key twins are additionally pinned to one endpoint by an
  ATM-key affinity route, which makes cross-chunk reuse deterministic).
  Cold buffers fall back to a round-robin cursor over the *fixed* endpoint
  pool — the cursor skips failed endpoints instead of re-indexing a
  shrunken live list, so placement stays deterministic across failover.
  See PERFORMANCE.md ("Network backend dispatch overhead" and
  "Stale-bytes dispatch").  A failed loopback or TCP endpoint stays
  excluded.

Common to both planes:

* **Failure is expected.**  Per-chunk acks prove receipt, heartbeat
  timeouts (``RuntimeConfig.net_timeout_s``) detect dead or wedged loopback
  and TCP endpoints (a subprocess's death is seen directly as a closed
  socket), ``task_timeout_s`` bounds a chunk's age (on the shared-memory
  plane it also caps chunks at one task, so a wedge kill never re-runs a
  finished sibling's in-place writes), and the unfinished chunks of a
  failed endpoint are resubmitted.  A task can be resubmitted
  at most ``net_max_retries`` times; exhausting that budget, losing every
  endpoint, or exceeding the drain deadline raises
  :class:`~repro.common.exceptions.NetworkDrainError` instead of hanging.
  Resubmission is safe by construction: a dispatched task's input bytes
  cannot change until its own completion (dependence exclusivity), and
  writes are only applied from the first accepted result — messages from
  failed endpoints are dropped.
* **ATM deltas are best-effort.**  Live endpoints merge their engine deltas
  at the drain barrier; a dead endpoint's unmerged delta is lost (reuse
  statistics, never correctness — its unacknowledged tasks were re-run
  elsewhere).  Every loss is surfaced on ``RunResult.lost_deltas`` and
  warned about, never silent.
"""

from __future__ import annotations

import queue as queue_module
import time
import warnings
import weakref
from collections import OrderedDict
from typing import Optional, Sequence

import numpy as np

from repro.common.config import RuntimeConfig
from repro.common.exceptions import (
    NetworkDrainError,
    NetworkTransportError,
    RuntimeStateError,
    TaskFailedError,
    TaskTimeoutError,
    WorkerLostError,
)
from repro.runtime.atm_protocol import ATMAction, ATMDecision
from repro.runtime.executor import BaseExecutor, RunResult
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.supervision import POLL_INTERVAL, dump_stacks
from repro.runtime.net_transport import (
    SocketEndpoint,
    SubprocessEndpoint,
    TRANSPORT_ERROR,
    parse_endpoints,
    start_context,
)
from repro.runtime.net_wire import (
    ChunkEncoder,
    NetBuffer,
    NetChunk,
    NetTaskDescriptor,
    PROTOCOL_VERSION,
    describe_task,
    encode_frame,
    make_engine_spec,
    span_bytes,
)
from repro.runtime.data import _base_buffer, region_versions
from repro.runtime.residency import ResidencyTable
from repro.runtime.shm import SharedBufferRegistry, SharedVersionTable
from repro.runtime.task import Task, TaskState

__all__ = ["NetworkExecutor", "TIMEOUT_GRACE"]

#: Dispatch/queue latency allowance added to the per-chunk task budget
#: before an endpoint is declared wedged (``task_timeout_s`` supervision).
TIMEOUT_GRACE = 0.25


class _ChunkState:
    """Parent-side record of one dispatched, not-yet-completed chunk."""

    __slots__ = (
        "chunk_id", "tasks", "endpoint", "sent_at", "started_at", "dispatch_gens",
    )

    def __init__(
        self,
        chunk_id: int,
        tasks: list[Task],
        endpoint: SocketEndpoint,
        dispatch_gens: Optional[dict[int, int]] = None,
    ) -> None:
        self.chunk_id = chunk_id
        self.tasks = tasks
        self.endpoint = endpoint
        self.sent_at = time.perf_counter()
        #: When the worker acked the chunk, i.e. started running it; the
        #: chunk's ``task_timeout_s`` budget is measured from here.
        self.started_at: Optional[float] = None
        #: ``buffer_id -> residency generation`` at dispatch time; the
        #: write-commit path upgrades the writer's residency entry only if
        #: its generation is still the one this chunk was encoded against
        #: (a re-shipped backing does not contain the in-flight writes).
        self.dispatch_gens = dispatch_gens or {}


class _EndpointState:
    """Liveness bookkeeping the executor keeps per endpoint."""

    __slots__ = ("outstanding", "last_heard", "last_ping", "work_since_sync")

    def __init__(self) -> None:
        self.outstanding: dict[int, _ChunkState] = {}
        self.last_heard = time.perf_counter()
        self.last_ping = 0.0
        #: True once a chunk was dispatched after the last merged delta:
        #: losing this endpoint then means losing ATM state (reuse
        #: statistics), which drain() reports as ``lost_deltas``.
        self.work_since_sync = False


def _release(endpoints: list, shared: Optional[SharedBufferRegistry]) -> None:
    """Idempotent teardown shared by close() and the GC finalizer.

    Every endpoint is told to shut down before any is waited for, so the
    workers exit in parallel; the shared segments go last.
    """
    for endpoint in endpoints:
        try:
            endpoint.send(("shutdown",))
        except Exception:
            pass
    for endpoint in endpoints:
        try:
            endpoint.close()
        except Exception:  # pragma: no cover - defensive
            pass
    if shared is not None:
        shared.close()
        shared.version_table.close()


class NetworkExecutor(BaseExecutor):
    """Executor backed by workers behind a message transport."""

    #: Bound on the ATM-key -> endpoint affinity routes kept for twin
    #: placement (LRU); a placement hint only, never correctness.
    MAX_KEY_ROUTES = 4096
    #: Slots in the shared write-version table (one per owning base buffer).
    VERSION_TABLE_CAPACITY = 8192

    def __init__(
        self,
        config: Optional[RuntimeConfig] = None,
        engine=None,
        endpoints: Optional[Sequence[SocketEndpoint]] = None,
    ) -> None:
        super().__init__(config=config, engine=engine)
        if self.config.enable_tracing:
            raise RuntimeStateError(
                "NetworkExecutor does not support tracing: task bodies run on "
                "remote workers where CoreState spans cannot be recorded; "
                "use the threaded or simulated backend for Figure 7/8 traces"
            )
        # Fails early on an engine that cannot be replicated into workers.
        make_engine_spec(engine)
        self.chunk_size = self.config.mp_chunk_size
        self.timeout = self.config.net_timeout_s
        self.max_retries = self.config.net_max_retries
        #: Per-drain wall-clock bound, from ``RuntimeConfig.drain_timeout_s``;
        #: instances may override it (the fault tests bound every scenario).
        self.drain_timeout = self.config.drain_timeout_s
        self._current_graph: Optional[TaskDependenceGraph] = None
        #: The shared-memory plane of a subprocess pool (``None`` = bytes).
        self._shared: Optional[SharedBufferRegistry] = None
        #: Slots of the shared buffers this drain's tasks write.
        self._written_slots: set[int] = set()
        if endpoints is None:
            workers = self.config.mp_workers or self.config.num_threads
            if self.config.executor == "process":
                context = start_context(self.config.mp_start_method)
                table = SharedVersionTable(
                    capacity=self.VERSION_TABLE_CAPACITY, context=context
                )
                self._shared = SharedBufferRegistry(table)
                endpoints = [
                    SubprocessEndpoint(f"process/{i}", context, table)
                    for i in range(workers)
                ]
                if self.config.task_timeout_s is not None:
                    # Workers write the segments in place and answer a chunk
                    # only at its end, so a wedge kill cannot tell finished
                    # siblings from the overrunning task: re-running them
                    # would apply their writes twice.  One task per chunk.
                    self.chunk_size = 1
            else:
                endpoints = parse_endpoints(self.config.net_endpoints, workers)
        self._endpoints: list[SocketEndpoint] = list(endpoints)
        self._inbox: queue_module.Queue = queue_module.Queue()
        self._ep_state: dict[SocketEndpoint, _EndpointState] = {}
        self._chunk_counter = 0
        #: Round-robin cursor over live endpoints; persists across dispatch
        #: calls so wavefront apps (one ready chunk at a time) still spread
        #: over the whole pool instead of hammering endpoint 0.
        self._rr_cursor = 0
        self._retries: dict[int, int] = {}
        self._inflight: dict[int, Task] = {}
        self._failures: list[str] = []
        self._started = False
        self._closed = False
        #: Per-endpoint residency table (None = residency off: every chunk
        #: ships its full union spans and placement is pure round-robin).
        self._residency: Optional[ResidencyTable] = (
            ResidencyTable(self.config.net_residency_budget_bytes)
            if self.config.net_residency and self._shared is None
            else None
        )
        #: ATM-key -> endpoint affinity (LRU-bounded): same-key twins that
        #: land in different chunks are routed to one endpoint so the
        #: second finds the first's THT commit without waiting for the
        #: drain-barrier delta merge.
        self._key_routes: "OrderedDict[tuple, SocketEndpoint]" = OrderedDict()
        self._chunks_by_endpoint: dict[str, int] = {}
        self._stats = {
            "endpoints": len(self._endpoints),
            "dispatched": 0,
            "chunks": 0,
            "resubmitted_tasks": 0,
            "payload_bytes": 0,
            "failed_endpoints": self._failures,
            "lost_deltas": 0,
            "respawns": 0,
            "chunks_by_endpoint": self._chunks_by_endpoint,
        }
        if self._residency is not None:
            # Aliases the table's live counters, like failed_endpoints.
            self._stats["residency"] = self._residency.stats
        self._hello: Optional[tuple] = None
        self._finalizer: Optional[weakref.finalize] = weakref.finalize(
            self, _release, self._endpoints, self._shared
        )

    # -- pool management ---------------------------------------------------------
    def _live_endpoints(self) -> list[SocketEndpoint]:
        return [ep for ep in self._endpoints if not ep.failed]

    def _ensure_started(self) -> None:
        if self._closed:
            raise RuntimeStateError("NetworkExecutor already closed")
        if self._started:
            return
        self._started = True
        # The engine spec is computed at connection time, not construction:
        # Session assigns its assembled engine to a pre-built engine-less
        # executor *after* __init__, and a spec snapshotted there would
        # silently run the workers without ATM.
        self._hello = (
            "hello",
            {
                "protocol": PROTOCOL_VERSION,
                "engine": make_engine_spec(self.engine),
                "residency": self._residency is not None,
            },
        )
        for endpoint in self._endpoints:
            self._connect(endpoint)
        if not self._live_endpoints():
            raise NetworkDrainError(
                "no network endpoint could be reached: "
                + "; ".join(self._failures)
            )

    def _connect(self, endpoint: SocketEndpoint) -> None:
        try:
            endpoint.start(self._inbox)
            endpoint.send(self._hello)
        except NetworkTransportError as exc:
            self._record_failure(endpoint, str(exc))
            return
        self._ep_state[endpoint] = _EndpointState()

    def _respawn(self, endpoint: SubprocessEndpoint) -> None:
        """Replace a failed subprocess endpoint in place with a fresh child."""
        fresh = endpoint.respawn()
        self._endpoints[self._endpoints.index(endpoint)] = fresh
        self._stats["respawns"] += 1
        self._connect(fresh)

    def _record_failure(self, endpoint: SocketEndpoint, reason: str) -> None:
        endpoint.failed = True
        # A worker that hits a decode error (typically a task function that
        # does not resolve on its import path) reports it best-effort before
        # dying; the parent usually observes the broken pipe first, so fold
        # the report into the reason — it names the actual cause.
        report = endpoint.last_worker_error
        if report is None:
            # Give the receiver thread one beat to read it; a receiver that
            # already hit end-of-stream has read everything and returns at once.
            endpoint.settle(0.05)
            report = endpoint.last_worker_error
        if report is not None:
            reason = f"{reason} (worker reported: {report})"
        self._failures.append(f"{endpoint.name}: {reason}")
        # Never join threads here: this runs on the drain thread and a
        # wedged worker would stall failover for the whole join timeout.
        endpoint.close(wait=False)

    def close(self) -> None:
        """Shut every endpoint down (idempotent; also runs via GC finalizer)."""
        if self._closed:
            return
        self._closed = True
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None

    def __enter__(self) -> "NetworkExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- task encoding -----------------------------------------------------------
    @staticmethod
    def _describe_task(task: Task, ref) -> NetTaskDescriptor:
        """Descriptor of ``task`` with every array replaced by ``ref(array)``."""
        return describe_task(
            task.task_id, task.creation_index, task.task_type, task.function,
            task.accesses, task.args, task.kwargs, ref,
        )

    def _shared_ref(self, array: np.ndarray, region=None):
        return self._shared.array_ref(array)

    def _encode_chunk(
        self, tasks: list[Task], endpoint: SocketEndpoint
    ) -> tuple[NetChunk, bytes, dict[int, int], list[tuple[int, int]]]:
        """Build and frame one chunk for ``endpoint``.

        Returns ``(chunk, framed_bytes, dispatch_gens, evicted)`` where
        ``dispatch_gens`` maps buffer ids to the residency generation the
        chunk was encoded against and ``evicted`` lists budget-evicted
        ``(buffer_id, generation)`` pairs to forward as an ``invalidate``.

        Framing happens synchronously (not in the receiver/sender machinery)
        so that an unpicklable task function raises with the offending tasks
        named instead of wedging the drain.  On the shared-memory plane no
        buffers ship at all.
        """
        self._chunk_counter += 1
        dispatch_gens: dict[int, int] = {}
        evicted: list[tuple[int, int]] = []
        if self._shared is not None:
            descriptors = tuple(
                self._describe_task(task, self._shared_ref) for task in tasks
            )
            for task, desc in zip(tasks, descriptors):
                for access, (ref, _mode, _name) in zip(task.accesses, desc.accesses):
                    if access.writes:
                        self._written_slots.add(ref.slot)
            buffers: tuple[NetBuffer, ...] = ()
        else:
            encoder = ChunkEncoder()
            descriptors = tuple(
                self._describe_task(task, encoder.ref) for task in tasks
            )
            residency = self._residency
            if residency is None:
                buffers = encoder.buffers()
            else:
                # Stale-bytes dispatch: each touched buffer ships either its
                # full union span (stale or unknown on this endpoint) or a
                # ``data=None`` cached reference (current).
                protect_tick = residency.next_tick()
                encoded: list[NetBuffer] = []
                for buffer_id, (base, start, end) in encoder.spans().items():
                    version = region_versions.version_of(base)
                    entry = residency.lookup(endpoint, buffer_id, start, end, version)
                    if entry is not None:
                        encoded.append(
                            NetBuffer(buffer_id, entry.start, None, entry.generation)
                        )
                        dispatch_gens[buffer_id] = entry.generation
                    else:
                        generation = residency.record(
                            endpoint, buffer_id, start, end, version
                        )
                        encoded.append(
                            NetBuffer(
                                buffer_id, start, span_bytes(base, start, end), generation
                            )
                        )
                        dispatch_gens[buffer_id] = generation
                evicted = residency.evict_over_budget(endpoint, protect_tick)
                buffers = tuple(encoded)
        chunk = NetChunk(
            chunk_id=self._chunk_counter,
            buffers=buffers,
            tasks=descriptors,
        )
        try:
            raw = encode_frame(("chunk", chunk))
        except Exception as exc:
            if self._residency is not None:
                # The recorded entries describe bytes that never shipped.
                self._residency.drop_endpoint(endpoint)
            labels = ", ".join(f"{t.task_type.name}#{t.task_id}" for t in tasks)
            raise RuntimeStateError(
                f"cannot serialize task(s) [{labels}] for the "
                f"{self.config.executor} backend: {exc}; task functions and "
                "plain arguments must be picklable (module-level functions, "
                "no lambdas/closures)"
            ) from exc
        return chunk, raw, dispatch_gens, evicted

    # -- dispatch ----------------------------------------------------------------
    def _send_chunk(self, tasks: list[Task], endpoint: SocketEndpoint) -> bool:
        """Dispatch one chunk; returns False when the endpoint failed."""
        chunk, raw, dispatch_gens, evicted = self._encode_chunk(tasks, endpoint)
        try:
            endpoint.send_bytes(raw)
            if evicted:
                # After the chunk: socket FIFO order guarantees the worker
                # processes every dispatch referencing the evicted
                # generations before it drops them.
                endpoint.send(("invalidate", tuple(evicted)))
        except NetworkTransportError as exc:
            self._fail_endpoint(endpoint, str(exc))
            return False
        state = self._ep_state[endpoint]
        chunk_state = _ChunkState(chunk.chunk_id, tasks, endpoint, dispatch_gens)
        state.outstanding[chunk.chunk_id] = chunk_state
        # Dispatch restarts the endpoint's silence clock: an endpoint that
        # was legitimately idle (nothing outstanding) must get a full
        # timeout window to answer freshly (re)submitted work.
        state.last_heard = max(state.last_heard, chunk_state.sent_at)
        state.work_since_sync = True
        self._stats["chunks"] += 1
        self._stats["payload_bytes"] += len(raw)
        self._chunks_by_endpoint[endpoint.name] = (
            self._chunks_by_endpoint.get(endpoint.name, 0) + 1
        )
        return True

    def _distribute(self, tasks: list[Task]) -> None:
        """Chunk ``tasks`` over the live endpoints (locality-aware)."""
        pending = list(tasks)
        while pending:
            live = self._live_endpoints()
            if not live:
                raise NetworkDrainError(
                    "all network endpoints failed: " + "; ".join(self._failures)
                )
            chunk_tasks = pending[: self.chunk_size]
            endpoint = self._place(chunk_tasks, live)
            if self._send_chunk(chunk_tasks, endpoint):
                pending = pending[self.chunk_size:]
            # On failure the loop retries the same tasks on the next live
            # endpoint (the failed one is excluded by _live_endpoints).

    # -- placement ---------------------------------------------------------------
    def _place(
        self, tasks: list[Task], live: list[SocketEndpoint]
    ) -> SocketEndpoint:
        """Pick the endpoint for one ready chunk.

        Scoring order (first hit wins), pure locality by design so twin
        routing stays deterministic under completion/dispatch races:

        1. **Key affinity** — most-voted live endpoint among the recorded
           routes of the chunk's ATM keys (ties break in pool order);
        2. **Residency bytes** — the endpoint whose current residency
           entries cover the most of the chunk's touched bytes;
        3. **Cold round-robin** — a cursor over the *fixed* endpoint pool
           that skips failed endpoints, so failover never re-biases
           placement of unrelated work.
        """
        keys: tuple = ()
        endpoint: Optional[SocketEndpoint] = None
        if len(live) == 1:
            endpoint = live[0]
        else:
            keys = self._route_keys(tasks)
            if keys:
                votes: dict[SocketEndpoint, int] = {}
                for key in keys:
                    routed = self._key_routes.get(key)
                    if routed is not None and not routed.failed:
                        votes[routed] = votes.get(routed, 0) + 1
                if votes:
                    endpoint = max(live, key=lambda ep: votes.get(ep, 0))
                    if votes.get(endpoint, 0) == 0:  # pragma: no cover
                        endpoint = None
            if endpoint is None and self._residency is not None:
                wanted = self._wanted_spans(tasks)
                best_score = 0
                for candidate in live:
                    score = self._residency.score(candidate, wanted)
                    if score > best_score:
                        endpoint, best_score = candidate, score
            if endpoint is None:
                endpoint = self._next_cold_endpoint(live)
        for key in keys:
            self._key_routes[key] = endpoint
            self._key_routes.move_to_end(key)
        while len(self._key_routes) > self.MAX_KEY_ROUTES:
            self._key_routes.popitem(last=False)
        return endpoint

    def _route_keys(self, tasks: list[Task]) -> tuple:
        """ATM keys of the chunk's memoizable tasks (affinity routing).

        Computed with the parent engine's own key generator and sampling
        policy — identical inputs at identical policy state yield identical
        keys, which is exactly the twin-coalescing property placement
        needs.  The keygen's version-token caches make repeats cheap.
        Routing is a hint: any failure to compute a key just skips it.
        """
        engine = self.engine
        if engine is None or self._residency is None:
            return ()
        keygen = getattr(engine, "keygen", None)
        policy = getattr(engine, "policy", None)
        if keygen is None:
            return ()
        keys = []
        for task in tasks:
            if not task.task_type.atm_eligible:
                continue
            try:
                p = policy.sampling_fraction(task) if policy is not None else 1.0
                key = keygen.compute(task, p)
            except Exception:  # pragma: no cover - defensive
                continue
            keys.append((task.task_type.name, key.value, key.p))
        return tuple(keys)

    def _wanted_spans(self, tasks: list[Task]) -> list[tuple[int, int, int, int]]:
        """Merged ``(buffer_id, start, end, version)`` spans a chunk touches."""
        spans: dict[int, list[int]] = {}
        for task in tasks:
            for access in task.accesses:
                region = access.region
                start, end = region.byte_interval
                merged = spans.get(region.base_id)
                if merged is None:
                    base = _base_buffer(region.array)
                    spans[region.base_id] = [
                        start, end, region_versions.version_of(base)
                    ]
                else:
                    merged[0] = min(merged[0], start)
                    merged[1] = max(merged[1], end)
        return [
            (buffer_id, start, end, version)
            for buffer_id, (start, end, version) in spans.items()
        ]

    def _next_cold_endpoint(self, live: list[SocketEndpoint]) -> SocketEndpoint:
        """Advance the round-robin cursor over the *fixed* endpoint pool.

        Indexing the full pool and skipping failed endpoints keeps the
        assignment sequence of the survivors stable when an endpoint dies
        mid-drain; the old ``live[cursor % len(live)]`` re-biased toward
        low-index endpoints every time ``live`` shrank.
        """
        pool = self._endpoints
        for _ in range(len(pool)):
            endpoint = pool[self._rr_cursor % len(pool)]
            self._rr_cursor += 1
            if not endpoint.failed:
                return endpoint
        return live[0]  # pragma: no cover - live is non-empty by contract

    def _dispatch_ready(self) -> None:
        ready: list[Task] = []
        while True:
            task = self.scheduler.next_task(0)
            if task is None:
                break
            ready.append(task)
            self._inflight[task.task_id] = task
        if ready:
            self._stats["dispatched"] += len(ready)
            self._distribute(ready)

    # -- failure handling --------------------------------------------------------
    def _task_terminal(self, task: Task, error, reason: str, worker: str) -> None:
        """Terminal supervision for one task (network flavour).

        Quarantine mode fails the task in the graph, cancels its dependent
        subgraph and keeps draining; abort mode raises
        :class:`NetworkDrainError` (the taxonomy's transport specialisation)
        carrying the structured failure report.
        """
        supervisor = self._supervisor
        graph = self._current_graph
        self._inflight.pop(task.task_id, None)
        if supervisor.quarantine and graph is not None:
            cancelled = supervisor.quarantine_task(
                graph, task, error, reason, worker=worker
            )
            self._result.tasks_failed += 1
            self._result.tasks_cancelled += len(cancelled)
            return
        failure = supervisor.record_failure(task, error, reason, worker=worker)
        raise NetworkDrainError(
            f"drain aborted: task {failure.label} failed after "
            f"{failure.attempts} attempt(s): {failure.reason}",
            supervisor.failures,
        )

    def _fail_endpoint(
        self,
        endpoint: SocketEndpoint,
        reason: str,
        timeout_chunk: Optional[int] = None,
    ) -> None:
        """Mark an endpoint dead and resubmit its unfinished work elsewhere.

        ``timeout_chunk`` names the chunk whose task budget expired when the
        failure is a wedge detection — its tasks are reported as
        ``TaskTimeoutError`` (rather than ``WorkerLostError``) once their
        resubmission budget runs out.
        """
        if endpoint.failed:
            return
        self._record_failure(endpoint, reason)
        # Residency died with the endpoint's process/connection: forget its
        # entries (resubmission to survivors must re-ship full bytes) and
        # the affinity routes pointing at it.
        if self._residency is not None:
            self._residency.drop_endpoint(endpoint)
        if self._key_routes:
            for key in [k for k, ep in self._key_routes.items() if ep is endpoint]:
                del self._key_routes[key]
        state = self._ep_state.pop(endpoint, None)
        if isinstance(endpoint, SubprocessEndpoint):
            self._respawn(endpoint)
        if state is None:
            return
        if self.engine is not None and state.work_since_sync:
            # Its engine replica held un-merged ATM state (reuse statistics,
            # never result bytes — unacknowledged tasks re-run elsewhere).
            self._stats["lost_deltas"] += 1
            self._result.lost_deltas += 1
            warnings.warn(
                f"endpoint {endpoint.name} died holding an un-merged ATM "
                f"engine delta; reuse statistics undercount "
                f"(RunResult.lost_deltas={self._result.lost_deltas})",
                RuntimeWarning,
                stacklevel=2,
            )
        # A worker runs one chunk at a time, so only one can have caused the
        # loss: the timed-out chunk, else the outstanding one it acked (acks
        # precede execution, finished chunks leave ``outstanding``), else
        # the oldest outstanding one.  Only its tasks are charged against
        # the resubmission budget; the others were queued.
        charged = timeout_chunk
        if charged is None:
            started = [
                c for c in state.outstanding.values() if c.started_at is not None
            ]
            if started:
                charged = max(started, key=lambda c: c.started_at).chunk_id
            else:
                charged = min(state.outstanding, default=None)
        survivors: list[Task] = []
        for chunk_id, chunk_state in state.outstanding.items():
            for task in chunk_state.tasks:
                if task.task_id not in self._inflight:
                    continue
                if chunk_id != charged:
                    survivors.append(task)
                    continue
                count = self._retries.get(task.task_id, 0) + 1
                self._retries[task.task_id] = count
                if count <= self.max_retries:
                    survivors.append(task)
                    continue
                self._task_terminal(
                    task,
                    TaskTimeoutError if chunk_id == timeout_chunk else WorkerLostError,
                    f"exceeded net_max_retries={self.max_retries} after endpoint "
                    "failures: " + "; ".join(self._failures),
                    endpoint.name,
                )
        if survivors:
            self._stats["resubmitted_tasks"] += len(survivors)
            self._distribute(survivors)

    # -- drain -------------------------------------------------------------------
    def drain(self, graph: TaskDependenceGraph) -> RunResult:
        if self._closed:
            raise RuntimeStateError("NetworkExecutor already closed")
        if graph.all_finished:
            self._finalize_result()
            return self._result
        self._ensure_started()
        self._fresh_supervisor()
        self._current_graph = graph
        if self._shared is not None:
            self._written_slots.clear()
            self._shared.copy_in()
        t0 = time.perf_counter()
        deadline = t0 + self.drain_timeout
        try:
            while not graph.all_finished:
                self._dispatch_ready()
                if not self._inflight:
                    if graph.all_finished:
                        break
                    raise RuntimeStateError(
                        "network executor starved: no ready tasks, none in "
                        "flight, but the graph is not finished (undeclared "
                        "dependence?)"
                    )
                self._pump(graph, deadline)
        finally:
            self._current_graph = None
        elapsed = time.perf_counter() - t0
        if self._shared is not None:
            self._shared.copy_out(self._written_slots)
        if self.engine is not None:
            self._sync_engines(deadline)
        self._result.elapsed += elapsed
        # _stats["failed_endpoints"] aliases self._failures, so the extra
        # dict stays live across drains without re-assignment.
        self._result.extra.setdefault("network_backend", self._stats)
        self._finalize_result()
        return self._result

    def _pump(self, graph: TaskDependenceGraph, deadline: float) -> None:
        """Handle one inbox message, or run the liveness checks on idle."""
        try:
            endpoint, message = self._inbox.get(timeout=POLL_INTERVAL)
        except queue_module.Empty:
            self._check_liveness(deadline)
            return
        if endpoint.failed:
            return  # stale traffic from an endpoint already declared dead
        kind = message[0]
        if kind == TRANSPORT_ERROR:
            self._fail_endpoint(endpoint, endpoint.loss_reason(message[1]))
            return
        state = self._ep_state.get(endpoint)
        if state is None:  # pragma: no cover - defensive
            return
        state.last_heard = time.perf_counter()
        if kind == "ack":
            # Acks feed the silence clock (already refreshed above): the
            # worker acks each chunk *before* executing it, so receipt
            # liveness is proven independently of task runtime, and the
            # chunk's task budget starts now rather than while it queued.
            chunk_state = state.outstanding.get(message[1])
            if chunk_state is not None:
                chunk_state.started_at = state.last_heard
        elif kind == "result":
            _, chunk_id, results = message
            chunk_state = state.outstanding.pop(chunk_id, None)
            for task_id, action_value, executed, writes in results:
                self._complete_task(
                    graph, task_id, action_value, executed, writes,
                    endpoint, chunk_state,
                )
            if chunk_state is not None and len(results) < len(chunk_state.tasks):
                # Partial result: the worker hit a task error and reports the
                # completed prefix first (so its writes are not lost), then
                # the error frame.  Keep the unfinished remainder outstanding
                # for the error handler to resubmit.
                done_ids = {r[0] for r in results}
                chunk_state.tasks = [
                    t for t in chunk_state.tasks if t.task_id not in done_ids
                ]
                state.outstanding[chunk_id] = chunk_state
        elif kind == "error":
            _, chunk_id, task_id, trace = message
            self._task_error(endpoint, state, chunk_id, task_id, trace)
        elif kind in ("hello_ack", "pong", "sync_result"):
            pass  # liveness already recorded; stray sync_result is stale
        else:
            self._fail_endpoint(endpoint, f"unexpected message kind {kind!r}")

    def _task_error(self, endpoint, state, chunk_id, task_id, trace) -> None:
        """A worker reported a task-body exception (worker itself is fine).

        Supervision decides: bounded retry with backoff, then quarantine or
        abort.  The rest of the chunk — dropped by the worker after the
        failure — is redistributed either way.
        """
        chunk_state = state.outstanding.pop(chunk_id, None) if chunk_id else None
        # The failed task body may have partially written into cached
        # backings before raising; the worker is alive but its residency can
        # no longer be trusted.  Forget it all — the next dispatch re-ships
        # full bytes, which replaces the worker-side backings.
        if self._residency is not None:
            self._residency.drop_endpoint(endpoint)
        task = self._inflight.get(task_id) if task_id is not None else None
        if task is None:
            # A chunk-less error report (decode failure) or a stale/duplicate
            # one: treat it as an endpoint failure like before.
            self._fail_endpoint(
                endpoint, f"worker error without a live task: {trace}"
            )
            return
        remaining = (
            [
                t for t in chunk_state.tasks
                if t.task_id != task_id and t.task_id in self._inflight
            ]
            if chunk_state is not None
            else []
        )
        reason = (
            f"network worker {endpoint.name} failed on task {task_id}:\n{trace}"
        )
        backoff = self._supervisor.count_attempt(task)
        if backoff is not None:
            time.sleep(backoff)
            self._stats["resubmitted_tasks"] += 1
            remaining.append(task)
        else:
            self._task_terminal(task, TaskFailedError, reason, endpoint.name)
        if remaining:
            self._distribute(remaining)

    def _complete_task(
        self,
        graph,
        task_id: int,
        action_value: str,
        executed: bool,
        writes,
        endpoint: Optional[SocketEndpoint] = None,
        chunk_state: Optional[_ChunkState] = None,
    ) -> None:
        task = self._inflight.pop(task_id, None)
        if task is None:
            return  # duplicate completion of a resubmitted task
        # Written bytes land in the parent arrays *before* complete_task
        # releases successors: anything scheduled next reads the new values
        # (and re-serializes them at its own dispatch).
        for index, raw in writes:
            region = task.accesses[index].region
            received = np.frombuffer(raw, dtype=region.array.dtype)
            np.copyto(
                region.array, received.reshape(region.array.shape), casting="no"
            )
        residency = self._residency
        # Snapshot the pre-commit versions: complete_task bumps every write
        # region, and the table's upgrade rule needs both sides of the bump.
        prev_versions = (
            [task.accesses[index].region.version for index, _ in writes]
            if residency is not None and writes
            else []
        )
        decision = ATMDecision(action=ATMAction(action_value))
        self._account(decision)
        final_state = TaskState.FINISHED if executed else TaskState.MEMOIZED
        graph.complete_task(task, final_state)
        if residency is not None and writes:
            self._commit_residency(task, writes, prev_versions, endpoint, chunk_state)

    def _commit_residency(
        self, task, writes, prev_versions, endpoint, chunk_state
    ) -> None:
        """Apply one task's committed writes to the residency table.

        The writer's own entry upgrades to the new version (its backing
        holds exactly the bytes it shipped home) when its generation still
        matches the dispatch-time one; overlapping entries elsewhere drop
        and get a worker-side ``invalidate`` so cache accounting follows.
        """
        invalidations: dict[SocketEndpoint, list[tuple[int, int]]] = {}
        dispatch_gens = chunk_state.dispatch_gens if chunk_state is not None else {}
        for (index, _), prev_version in zip(writes, prev_versions):
            region = task.accesses[index].region
            dropped = self._residency.note_write(
                endpoint,
                dispatch_gens.get(region.base_id),
                region.base_id,
                region.byte_interval,
                prev_version,
                region.version,
            )
            for drop_endpoint, buffer_id, generation in dropped:
                invalidations.setdefault(drop_endpoint, []).append(
                    (buffer_id, generation)
                )
        for drop_endpoint, pairs in invalidations.items():
            if drop_endpoint.failed:
                continue
            try:
                drop_endpoint.send(("invalidate", tuple(pairs)))
            except NetworkTransportError as exc:
                self._fail_endpoint(drop_endpoint, f"invalidate failed: {exc}")

    def _check_liveness(self, deadline: float) -> None:
        now = time.perf_counter()
        if now > deadline:
            reason = (
                f"network drain timed out after {self.drain_timeout}s with "
                f"{len(self._inflight)} task(s) outstanding"
            )
            dump_stacks(reason)
            raise NetworkDrainError(reason, self._supervisor.failures)
        task_budget = self._supervisor.task_timeout_s
        for endpoint in list(self._ep_state):
            state = self._ep_state.get(endpoint)
            if state is None or not state.outstanding:
                continue
            if task_budget is not None:
                # Wedge supervision: a chunk running longer than its tasks'
                # combined budget means a task is stuck inside the worker.  Fail the endpoint with
                # the chunk tagged so exhausted tasks surface as timeouts.
                for chunk_state in list(state.outstanding.values()):
                    if chunk_state.started_at is None:
                        continue
                    age = now - chunk_state.started_at
                    budget = (
                        task_budget * max(1, len(chunk_state.tasks))
                        + TIMEOUT_GRACE
                    )
                    if age > budget:
                        self._fail_endpoint(
                            endpoint,
                            f"chunk {chunk_state.chunk_id} exceeded its task "
                            f"budget ({age:.2f}s > {budget:.2f}s with "
                            f"task_timeout_s={task_budget}s)",
                            timeout_chunk=chunk_state.chunk_id,
                        )
                        break
                if endpoint.failed:
                    continue
            if not endpoint.heartbeat:
                continue
            silent_for = now - state.last_heard
            if silent_for > self.timeout:
                self._fail_endpoint(
                    endpoint,
                    f"heartbeat timeout ({silent_for:.2f}s > "
                    f"net_timeout_s={self.timeout}s with work outstanding)",
                )
            elif silent_for > self.timeout / 2 and now - state.last_ping > self.timeout / 2:
                state.last_ping = now
                try:
                    endpoint.send(("ping",))
                except NetworkTransportError as exc:
                    self._fail_endpoint(endpoint, f"ping failed: {exc}")

    # -- ATM barrier -------------------------------------------------------------
    def _sync_engines(self, deadline: float) -> None:
        """Collect one engine delta per live endpoint and merge them.

        Best-effort by design: an endpoint that dies here loses its delta
        (reuse statistics), never result bytes — every task already
        completed through an accepted result message.
        """
        pending: set[SocketEndpoint] = set()
        for endpoint in self._live_endpoints():
            try:
                endpoint.send(("sync",))
                pending.add(endpoint)
            except NetworkTransportError as exc:
                self._fail_endpoint(endpoint, f"sync send failed: {exc}")
        sync_deadline = min(deadline, time.perf_counter() + self.timeout)
        while pending:
            if time.perf_counter() > sync_deadline:
                for endpoint in pending:
                    self._fail_endpoint(endpoint, "sync timed out")
                return
            try:
                endpoint, message = self._inbox.get(timeout=POLL_INTERVAL)
            except queue_module.Empty:
                continue
            kind = message[0]
            if kind == TRANSPORT_ERROR:
                if endpoint in pending:
                    pending.discard(endpoint)
                    self._fail_endpoint(endpoint, f"died during sync: {message[1]}")
                continue
            if kind == "sync_result" and endpoint in pending:
                pending.discard(endpoint)
                if message[1] is not None:
                    self.engine.merge(message[1])
                state = self._ep_state.get(endpoint)
                if state is not None:
                    state.work_since_sync = False
            # acks/pongs and stale results are ignored here: the graph is
            # finished, every task already completed.
