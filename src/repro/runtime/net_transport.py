"""Endpoints and the worker service loop of the remote-worker backend.

Transport model (DESIGN.md §4.3): the :class:`NetworkExecutor` parent holds
one point-to-point connection per worker *endpoint*.  Each endpoint owns a
socket plus a receiver thread that decodes frames
(:mod:`repro.runtime.net_wire`) and posts ``(endpoint, message)`` pairs onto
the executor's single inbox queue; sends happen inline under a per-endpoint
lock.  Three concrete endpoints exist:

* :class:`SubprocessEndpoint` — a ``socket.socketpair`` whose far end is a
  child process running :func:`serve_connection`.  Its chunks travel on the
  shared-memory data plane (:mod:`repro.runtime.shm`): array references
  instead of bytes, and a dead or wedged child is respawned in place.  This
  is ``executor="process"``.
* :class:`LoopbackEndpoint` — a socketpair served by an in-process worker
  thread running the *same* :func:`serve_connection` loop the TCP daemon
  runs.  The full byte-plane stack — framing, acks, heartbeats,
  resubmission — is exercised on one machine with zero extra
  infrastructure; this is the default of ``executor="network"``
  (``RuntimeConfig.net_endpoints = "loopback"``) and what the parity and
  fault suites drive.
* :class:`TcpEndpoint` — connects to a ``scripts/net_worker.py`` daemon at
  ``host:port``.

Endpoint failure is a *state*, not an exception: when the socket breaks, a
frame fails to decode, or the executor's heartbeat deadline expires, the
endpoint is marked ``failed``, excluded from further dispatch, and its
unfinished chunks are resubmitted elsewhere.  The fault-injection tests
subclass :class:`LoopbackEndpoint` and override :meth:`SocketEndpoint.deliver`
/ :meth:`LoopbackEndpoint.worker_target` to drop acks, delay past the
heartbeat, kill the worker mid-chunk or corrupt the stream.

The worker side — :class:`NetWorkerState` + :func:`serve_connection` — is
deliberately transport-agnostic: it reads frames from any socket, so the
subprocess, the loopback thread and the standalone TCP daemon share every
line of protocol logic.
"""

from __future__ import annotations

import multiprocessing
import queue
import socket
import threading
import traceback
from typing import Any, Optional

import numpy as np

from repro.common.exceptions import (
    NetworkTransportError,
    WireProtocolError,
)
from repro.runtime.atm_protocol import EXECUTE_DECISION
from repro.runtime.net_wire import (
    ChunkArena,
    NetChunk,
    PROTOCOL_VERSION,
    build_task,
    build_worker_engine,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.runtime.residency import WorkerBufferCache
from repro.runtime.shm import SharedVersionTable, WorkerSegments
from repro.runtime.task import TaskState, TaskType

__all__ = [
    "TRANSPORT_ERROR",
    "SocketEndpoint",
    "SubprocessEndpoint",
    "LoopbackEndpoint",
    "TcpEndpoint",
    "NetWorkerState",
    "serve_connection",
    "parse_endpoints",
]

#: Message kind posted to the inbox when an endpoint's receive path dies.
TRANSPORT_ERROR = "__transport_error__"


# -- parent-side endpoints ------------------------------------------------------------
class SocketEndpoint:
    """One connection from the executor to a worker, with a receiver thread."""

    #: Whether the executor declares this endpoint dead after
    #: ``net_timeout_s`` of silence with work outstanding.
    heartbeat = True

    def __init__(self, name: str) -> None:
        self.name = name
        #: Set (only) by the executor when it declares this endpoint dead.
        self.failed = False
        #: Last worker-side error report seen by the receiver thread; the
        #: executor folds it into the failure reason when the connection
        #: breaks before the report can travel the normal message path.
        self.last_worker_error: Optional[str] = None
        self._sock: Optional[socket.socket] = None
        self._inbox: Optional[queue.Queue] = None
        self._send_lock = threading.Lock()
        self._receiver: Optional[threading.Thread] = None
        self._closed = False

    # -- connection --------------------------------------------------------------
    def connect(self) -> socket.socket:  # pragma: no cover - abstract
        raise NotImplementedError

    def start(self, inbox: queue.Queue) -> None:
        """Connect and spawn the receiver thread posting into ``inbox``."""
        if self._sock is not None:
            return
        self._inbox = inbox
        try:
            self._sock = self.connect()
        except OSError as exc:
            raise NetworkTransportError(
                f"endpoint {self.name}: cannot connect: {exc}"
            ) from exc
        self._receiver = threading.Thread(
            target=self._receive_loop, daemon=True, name=f"net-recv-{self.name}"
        )
        self._receiver.start()

    def _receive_loop(self) -> None:
        sock = self._sock
        try:
            while True:
                message = read_frame(sock)
                if message[0] == "error":
                    self.last_worker_error = message[3]
                self.deliver(message)
        except (WireProtocolError, OSError, ValueError) as exc:
            # ValueError: recv on a socket closed by our own close().
            if not self._closed:
                self._post((TRANSPORT_ERROR, f"{type(exc).__name__}: {exc}"))

    def _post(self, message: Any) -> None:
        inbox = self._inbox
        if inbox is not None:
            inbox.put((self, message))

    def deliver(self, message: Any) -> None:
        """Inbound hook: receiver thread -> executor inbox.

        Fault-injection wrappers override this to drop, delay or reorder
        worker->parent messages.
        """
        self._post(message)

    def loss_reason(self, error: str) -> str:
        """Failure reason for a broken connection (``error`` from the receiver)."""
        return error

    def settle(self, timeout: float) -> None:
        """Wait up to ``timeout`` for the receiver to finish reading the stream."""
        receiver = self._receiver
        if receiver is not None and receiver is not threading.current_thread():
            receiver.join(timeout)

    # -- outbound ---------------------------------------------------------------
    def send(self, message: Any) -> None:
        """Frame and send one message; raises on a broken connection."""
        self.send_bytes(encode_frame(message))

    def send_bytes(self, raw: bytes) -> None:
        """Send an already-framed message.

        Split from :meth:`send` so the executor can frame chunks
        synchronously (naming unpicklable tasks in the error) and so the
        transport-level failure surface is exactly
        :class:`NetworkTransportError`.
        """
        sock = self._sock
        if sock is None or self._closed:
            raise NetworkTransportError(f"endpoint {self.name} is not connected")
        try:
            with self._send_lock:
                sock.sendall(raw)
        except OSError as exc:
            raise NetworkTransportError(
                f"endpoint {self.name}: send failed: {exc}"
            ) from exc

    # -- teardown ---------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Tear the connection down.

        ``wait=False`` (the executor's *failure* path) skips the thread
        joins: the receiver and any loopback worker are daemon threads that
        die with the closed socket, and joining a wedged worker would stall
        failover on the drain thread for the whole join timeout.
        """
        if self._closed:
            return
        self._closed = True
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - defensive
                pass
        if (
            wait
            and self._receiver is not None
            and self._receiver is not threading.current_thread()
        ):
            self._receiver.join(timeout=2.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "failed" if self.failed else ("closed" if self._closed else "live")
        return f"{type(self).__name__}({self.name!r}, {state})"


def start_context(method: Optional[str]):
    """``multiprocessing`` context for worker processes.

    ``None`` picks ``"fork"`` where available (fast start, inherits imported
    plugin modules), else ``"spawn"``.
    """
    if method is None:
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(method)


def _subprocess_main(sock: socket.socket, version_name: str, capacity: int, lock) -> None:
    """Entry point of a :class:`SubprocessEndpoint` worker process."""
    segments = WorkerSegments(SharedVersionTable.attach(version_name, capacity, lock))
    try:
        serve_connection(sock, segments=segments)
    finally:
        segments.close()
        segments.version_table.close()


class SubprocessEndpoint(SocketEndpoint):
    """A worker process serving the far end of a socketpair.

    The child runs :func:`serve_connection` over shared memory:
    ``version_table`` holds the cross-process write-versions of the
    executor's :class:`~repro.runtime.shm.SharedBufferRegistry`, chunks
    carry segment references instead of bytes, and results carry no write
    bytes.  A child that dies or wedges is replaced through
    :meth:`respawn`.
    """

    #: A dead child closes its socket, which the receiver sees at once; a
    #: silent child is busy in a task body, not lost.
    heartbeat = False
    #: Seconds a child may take to exit after shutdown before it is killed.
    JOIN_TIMEOUT = 5.0

    def __init__(self, name: str, context, version_table: SharedVersionTable) -> None:
        super().__init__(name)
        self.context = context
        self.version_table = version_table
        self.process = None

    def connect(self) -> socket.socket:
        table = self.version_table
        parent_sock, worker_sock = socket.socketpair()
        try:
            self.process = self.context.Process(
                target=_subprocess_main,
                args=(worker_sock, table.name, table.capacity, table.lock),
                daemon=True,
                name=f"repro-worker-{self.name}",
            )
            self.process.start()
        except Exception:
            parent_sock.close()
            raise
        finally:
            worker_sock.close()
        return parent_sock

    def respawn(self) -> "SubprocessEndpoint":
        """A fresh, unconnected endpoint with this one's name and plane."""
        return SubprocessEndpoint(self.name, self.context, self.version_table)

    def loss_reason(self, error: str) -> str:
        process = self.process
        if process is not None:
            process.join(timeout=1.0)  # EOF: the child is exiting
            if process.exitcode is not None:
                return f"worker process died (exitcode {process.exitcode}): {error}"
        return error

    def close(self, wait: bool = True) -> None:
        """Close the socket and reap the child.

        ``wait=False`` is the failure path: the child is dead or wedged, so
        it is killed at once instead of given time to exit.
        """
        super().close(wait=wait)
        process = self.process
        if process is None:
            return
        if wait:
            process.join(timeout=self.JOIN_TIMEOUT)
        if process.is_alive():
            process.kill()
        process.join(timeout=self.JOIN_TIMEOUT)
        self.process = None


class LoopbackEndpoint(SocketEndpoint):
    """In-process worker: a socketpair served by a thread running the real
    protocol loop.  Zero infrastructure, real framing bytes on a real socket.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._worker_thread: Optional[threading.Thread] = None

    def connect(self) -> socket.socket:
        parent_sock, worker_sock = socket.socketpair()
        self._worker_thread = threading.Thread(
            target=self.worker_target,
            args=(worker_sock,),
            daemon=True,
            name=f"net-worker-{self.name}",
        )
        self._worker_thread.start()
        return parent_sock

    def worker_target(self, sock: socket.socket) -> None:
        """The served side of the pair; fault tests override this."""
        serve_connection(sock)

    def close(self, wait: bool = True) -> None:
        if self._closed:
            return
        super().close(wait=wait)
        if (
            wait
            and self._worker_thread is not None
            and self._worker_thread is not threading.current_thread()
        ):
            self._worker_thread.join(timeout=2.0)


class TcpEndpoint(SocketEndpoint):
    """Connection to a standalone ``scripts/net_worker.py`` daemon."""

    CONNECT_TIMEOUT = 10.0

    def __init__(self, host: str, port: int) -> None:
        super().__init__(f"{host}:{port}")
        self.host = host
        self.port = port

    def connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.CONNECT_TIMEOUT
        )
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock


def parse_endpoints(spec: str, default_workers: int) -> list[SocketEndpoint]:
    """Build endpoints from ``RuntimeConfig.net_endpoints``.

    ``"loopback"`` / ``"loopback:<n>"`` spawn in-process workers;
    anything else is a comma-separated ``host:port`` list.
    """
    text = spec.strip()
    if text == "loopback" or text.startswith("loopback:"):
        count = default_workers
        if ":" in text:
            try:
                count = int(text.split(":", 1)[1])
            except ValueError as exc:
                raise NetworkTransportError(
                    f"net_endpoints {spec!r}: bad loopback worker count: {exc}"
                ) from exc
        if count < 1:
            raise NetworkTransportError(
                f"net_endpoints {spec!r}: loopback worker count must be >= 1"
            )
        return [LoopbackEndpoint(f"loopback/{i}") for i in range(count)]
    endpoints: list[SocketEndpoint] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        host, sep, port = part.rpartition(":")
        if not sep or not host:
            raise NetworkTransportError(
                f"net_endpoints entry {part!r} is not host:port"
            )
        try:
            endpoints.append(TcpEndpoint(host, int(port)))
        except ValueError as exc:
            raise NetworkTransportError(
                f"net_endpoints entry {part!r}: bad port: {exc}"
            ) from exc
    if not endpoints:
        raise NetworkTransportError(f"net_endpoints {spec!r} names no endpoints")
    return endpoints


# -- worker side ----------------------------------------------------------------------
class NetWorkerState:
    """Per-connection worker state: the ATM engine replica + type cache."""

    def __init__(
        self, worker_id: int = 0, segments: Optional[WorkerSegments] = None
    ) -> None:
        self.worker_id = worker_id
        self.engine = None
        self.task_types: dict[str, TaskType] = {}
        #: Residency store for shipped backings; created at hello time when
        #: the client runs the residency protocol (``None`` = ship-always).
        self.buffer_cache: Optional[WorkerBufferCache] = None
        #: Attached shared segments of a subprocess worker (``None`` = the
        #: byte plane: written regions travel home as bytes).
        self.segments = segments

    # -- handshake ---------------------------------------------------------------
    def hello(self, info: dict) -> dict:
        protocol = info.get("protocol")
        if protocol != PROTOCOL_VERSION:
            raise WireProtocolError(
                f"protocol version mismatch: client speaks {protocol}, "
                f"worker speaks {PROTOCOL_VERSION}"
            )
        self.engine = build_worker_engine(info.get("engine"))
        self.buffer_cache = WorkerBufferCache() if info.get("residency") else None
        return {"protocol": PROTOCOL_VERSION, "worker_id": self.worker_id}

    # -- execution ---------------------------------------------------------------
    def run_chunk(self, chunk: NetChunk) -> tuple[list[tuple], Optional[tuple]]:
        """Run one chunk; returns ``(results, error)``.

        ``error`` is ``(task_id, traceback_str)`` when a task body raised —
        the rest of the chunk is dropped, mirroring the process backend.
        """
        arena = ChunkArena(
            chunk.buffers, cache=self.buffer_cache, segments=self.segments
        )
        results: list[tuple] = []
        for desc in chunk.tasks:
            try:
                results.append(self._run_task(desc, arena))
            except BaseException:
                return results, (desc.task_id, traceback.format_exc())
        return results, None

    def _run_task(self, desc, arena: ChunkArena) -> tuple:
        task = build_task(desc, arena, self.task_types)
        engine = self.engine
        # Same eligibility gate as BaseExecutor._lookup, so per-worker stats
        # merge into the exact totals a single-process engine would see.
        if engine is not None and task.task_type.atm_eligible:
            decision = engine.task_ready(task, self.worker_id)
        else:
            decision = EXECUTE_DECISION
        executed = False
        if not decision.skips_execution:
            task.state = TaskState.RUNNING
            task.run()
            executed = True
            for access in task.accesses:
                if access.writes:
                    access.region.bump_version()
        if decision.atm_handled and engine is not None:
            engine.task_finished(task, decision, executed, self.worker_id)
        if self.segments is not None:
            # The writes (and the SKIP path's copy_from) landed in shared
            # segments; the parent copies them back at the end of the drain.
            return (desc.task_id, decision.action.value, executed, ())
        # Ship back the raw bytes of every written region: the parent has no
        # shared memory to read them from (the SKIP path's copy_from wrote
        # the worker-local arrays, so it is covered identically).
        writes = [
            (index, np.ascontiguousarray(access.region.array).tobytes())
            for index, access in enumerate(task.accesses)
            if access.writes
        ]
        return (desc.task_id, decision.action.value, executed, writes)

    # -- barrier -----------------------------------------------------------------
    def sync(self):
        """ATM engine delta since the previous barrier (``None`` engineless)."""
        if self.engine is None:
            return None
        return self.engine.snapshot(reset=True)


def serve_connection(
    sock: socket.socket,
    worker_id: int = 0,
    segments: Optional[WorkerSegments] = None,
) -> None:
    """Serve one executor connection until shutdown or a dead transport.

    The single worker loop shared by subprocesses (which pass their
    attached shared ``segments``), loopback threads and the TCP daemon.
    Task exceptions are reported as ``("error", ...)`` frames — the worker
    survives and the parent decides (it raises; a *transport* fault, by
    contrast, kills the connection and triggers resubmission).
    """
    state = NetWorkerState(worker_id=worker_id, segments=segments)
    try:
        while True:
            message = read_frame(sock)
            kind = message[0]
            if kind == "hello":
                write_frame(sock, ("hello_ack", state.hello(message[1])))
            elif kind == "chunk":
                chunk: NetChunk = message[1]
                # Per-chunk ack *before* execution: proves liveness at
                # receipt so the parent's ack deadline is independent of
                # task runtime.
                write_frame(sock, ("ack", chunk.chunk_id))
                results, error = state.run_chunk(chunk)
                if error is not None:
                    # Completed-prefix results ship *before* the error frame
                    # so their writes are never lost to a task that fails
                    # later in the same chunk; the parent then resubmits
                    # only the unfinished remainder.
                    if results:
                        write_frame(sock, ("result", chunk.chunk_id, results))
                    write_frame(sock, ("error", chunk.chunk_id, *error))
                else:
                    write_frame(sock, ("result", chunk.chunk_id, results))
            elif kind == "invalidate":
                # Residency eviction/invalidations: no reply — the socket's
                # FIFO order guarantees every chunk referencing the dropped
                # generations was already processed above.
                if state.buffer_cache is not None:
                    state.buffer_cache.invalidate(message[1])
            elif kind == "sync":
                write_frame(sock, ("sync_result", state.sync()))
            elif kind == "ping":
                write_frame(sock, ("pong",))
            elif kind == "shutdown":
                break
            else:
                raise WireProtocolError(f"unknown message kind {kind!r}")
    except WireProtocolError as exc:
        # A frame we could not decode — most commonly a task function that
        # does not resolve on this worker's import path (pickled by
        # reference from the client's ``__main__``).  Best-effort report
        # before dying: it turns the client's opaque connection-reset into
        # the actual cause.
        try:
            write_frame(sock, ("error", None, None, f"worker {worker_id}: {exc}"))
        except OSError:
            pass
    except (OSError, ValueError, EOFError):
        # Transport died: nothing to report to — the client's receiver
        # observes the same breakage independently.
        pass
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover - defensive
            pass
