"""Wire format of the remote-worker execution backend (DESIGN.md §4.3).

:class:`~repro.runtime.net_executor.NetworkExecutor` ships task chunks to
workers that rebuild and run them against per-worker ATM engine replicas.
This module defines the three parts of that story:

* **Framing** — every message is one length-prefixed frame::

      | magic "ATMW" (4) | payload length (4, big-endian) | crc32 (4) | payload |

  The payload is a pickled message tuple (protocol ``HIGHEST_PROTOCOL``).
  Magic, length bound and CRC mean a corrupted or truncated stream is
  detected deterministically and raised as
  :class:`~repro.common.exceptions.WireProtocolError` — the receiving side
  treats the peer as failed instead of interpreting garbage.

* **Array/task encoding** — array payloads travel in one of two reference
  forms, chosen by the kind of endpoint a chunk is bound for:

  - *bytes* (loopback and TCP endpoints): a :class:`ChunkEncoder` walks the
    arrays referenced by a chunk, computes per owning base buffer the union
    byte span the chunk touches, and ships one :class:`NetBuffer` of raw
    bytes per base plus :class:`NetArrayRef` handles (offset/shape/strides/
    dtype) for every view;
  - *shared memory* (subprocess endpoints on the same host): every view is
    an :class:`~repro.runtime.data.ArrayRef` into a
    :mod:`repro.runtime.shm` segment mirroring its owning base buffer, and
    no bytes are shipped at all.

  A :class:`ChunkArena` (receiver side) resolves both forms into byte-exact
  NumPy views, preserving aliasing between views of the same base.

* **Task and engine recipes** — :class:`TaskTypeSpec`,
  :class:`NetTaskDescriptor` and :func:`make_engine_spec` /
  :func:`build_worker_engine`, the picklable descriptions a worker rebuilds
  tasks and its ATM engine replica from.  :func:`describe_task` and
  :func:`build_task` are the one task encoder and decoder, shared by the
  executor, its workers and the serving gateway and client (DESIGN.md §8).

Message vocabulary (client = the :class:`NetworkExecutor` parent, worker =
a loopback thread, a forked subprocess or a ``scripts/net_worker.py``
daemon)::

    client -> worker : ("hello", info)           handshake; carries the engine spec
                                                 and the residency flag
                       ("chunk", NetChunk)       one batch of task descriptors
                       ("invalidate", pairs)     drop cached buffers named by
                                                 (buffer_id, generation) pairs
                       ("sync",)                 request an ATM engine delta
                       ("ping",)                 heartbeat probe
                       ("shutdown",)             orderly connection teardown
    worker -> client : ("hello_ack", info)
                       ("ack", chunk_id)         chunk received (pre-execution)
                       ("result", chunk_id, results)
                       ("sync_result", delta)
                       ("pong",)
                       ("error", chunk_id, task_id, traceback_str)

Each entry of ``results`` is ``(task_id, action_value, executed, writes)``
where ``writes`` is a list of ``(access_index, bytes)`` pairs holding the
raw bytes of every written region of a byte-form chunk.  Shared-memory
chunks report no writes: the worker wrote the segments in place and the
parent copies written buffers back once, at the end of the drain.

Since protocol version 2 a :class:`NetBuffer` has a second, *cached* form
(``data is None``): the span is not on the wire, the worker must already
hold a backing for the buffer id under the named ``generation`` in its
:class:`~repro.runtime.residency.WorkerBufferCache` (populated by earlier
full ships).  A generation the worker does not hold is a protocol
violation — the worker raises :class:`WireProtocolError` and the parent
fails the endpoint and re-runs its work, so a residency bug degrades to a
resubmission instead of silently wrong bytes.
"""

from __future__ import annotations

import pickle
import socket
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.common.exceptions import RuntimeStateError, WireProtocolError
from repro.runtime.data import (
    AccessMode,
    ArrayRef,
    DataAccess,
    DataRegion,
    SharedDataRegion,
    _base_buffer,
)
from repro.runtime.task import Task, TaskType

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "NetArrayRef",
    "NetBuffer",
    "TaskTypeSpec",
    "EngineSpec",
    "make_engine_spec",
    "build_worker_engine",
    "NetTaskDescriptor",
    "NetChunk",
    "ChunkEncoder",
    "ChunkArena",
    "describe_task",
    "build_task",
    "map_arrays",
    "span_bytes",
    "encode_frame",
    "decode_frame",
    "iter_frames",
    "read_frame",
    "read_frame_async",
    "write_frame",
]

#: Bumped on any incompatible message/frame change; checked at hello time.
#: Version 2: cached (``data=None``) :class:`NetBuffer` form, generation
#: tags and the ``invalidate`` message of the residency protocol.
#: Version 3: task-type and engine recipes are pickled from this module.
PROTOCOL_VERSION = 3

MAGIC = b"ATMW"
_HEADER = struct.Struct("!4sII")

#: Upper bound on one frame's payload: a garbage length prefix must never
#: turn into a multi-gigabyte allocation or an endless blocking read.
MAX_FRAME_BYTES = 1 << 30


# -- framing --------------------------------------------------------------------------
def encode_frame(message: Any) -> bytes:
    """Serialize one message into a framed byte string."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:  # pragma: no cover - defensive
        raise WireProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame bound"
        )
    return _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload

def _check_header(header: bytes) -> tuple[int, int]:
    magic, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}): peer is not "
            f"speaking the ATM wire protocol or the stream is corrupted"
        )
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    return length, crc


def _check_payload(payload: bytes, crc: int) -> Any:
    if zlib.crc32(payload) != crc:
        raise WireProtocolError(
            "frame checksum mismatch: payload corrupted in transit"
        )
    try:
        return pickle.loads(payload)
    except Exception as exc:  # CRC passed but the pickle is malformed
        raise WireProtocolError(f"cannot unpickle frame payload: {exc}") from exc


def decode_frame(data: bytes) -> tuple[Any, int]:
    """Decode one frame from ``data``; returns ``(message, bytes_consumed)``.

    Raises :class:`WireProtocolError` on bad magic, an oversized length, a
    truncated buffer or a checksum mismatch.
    """
    if len(data) < _HEADER.size:
        raise WireProtocolError(
            f"truncated frame: {len(data)} bytes < {_HEADER.size}-byte header"
        )
    length, crc = _check_header(data[: _HEADER.size])
    end = _HEADER.size + length
    if len(data) < end:
        raise WireProtocolError(
            f"truncated frame: header promises {length} payload bytes, "
            f"{len(data) - _HEADER.size} present"
        )
    return _check_payload(data[_HEADER.size : end], crc), end


def iter_frames(data: bytes):
    """Yield every message of a back-to-back frame sequence.

    The persistent THT store's file format is exactly this: concatenated
    frames (header + delta appends).  Raises :class:`WireProtocolError` on
    the first bad or truncated frame — including a partial trailing frame
    left by an interrupted append — so callers decide between failing and
    salvaging the frames already yielded.
    """
    offset = 0
    view = memoryview(data)
    while offset < len(data):
        message, consumed = decode_frame(view[offset:])
        yield message
        offset += consumed


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`WireProtocolError` on EOF."""
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise WireProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Any:
    """Blocking read of one complete frame from a socket."""
    length, crc = _check_header(_recv_exact(sock, _HEADER.size))
    return _check_payload(_recv_exact(sock, length), crc)


async def read_frame_async(reader) -> Any:
    """Read one frame from an ``asyncio.StreamReader``; ``None`` once the
    peer has gone (EOF or reset, even mid-frame)."""
    try:
        length, crc = _check_header(await reader.readexactly(_HEADER.size))
        payload = await reader.readexactly(length)
    except (EOFError, ConnectionError):  # IncompleteReadError is an EOFError
        return None
    return _check_payload(payload, crc)


def write_frame(sock: socket.socket, message: Any) -> None:
    sock.sendall(encode_frame(message))


# -- array / task encoding ------------------------------------------------------------
@dataclass(frozen=True)
class NetArrayRef:
    """Serializable handle to an array view inside a shipped buffer span.

    ``offset``/``strides`` are byte-exact relative to the *owning base
    buffer* (exactly like :class:`~repro.runtime.data.ArrayRef`); the
    receiving :class:`ChunkArena` rebases them onto the transmitted span.
    """

    buffer_id: int
    offset: int
    shape: tuple[int, ...]
    strides: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class NetBuffer:
    """Raw bytes of the span one chunk touches within one base buffer.

    Two forms since protocol version 2:

    * ``data`` is bytes — a *full ship*; the receiver materialises a fresh
      backing and (when residency is on) stores it under ``generation``;
    * ``data`` is ``None`` — a *cached* dispatch; the receiver must already
      hold generation ``generation`` of this buffer id and serves the chunk
      from that backing without any span bytes on the wire.
    """

    buffer_id: int
    start: int
    data: Optional[bytes]
    generation: int = 0


@dataclass(frozen=True)
class TaskTypeSpec:
    """Reduced, picklable description of a :class:`TaskType`.

    Cost models are deliberately dropped: they are only used by the
    simulator, and applications routinely define them as (unpicklable)
    lambdas.
    """

    name: str
    memoizable: bool
    tau_max: Optional[float]
    l_training: Optional[int]
    deterministic: bool

    @classmethod
    def of(cls, task_type: TaskType) -> "TaskTypeSpec":
        return cls(
            name=task_type.name,
            memoizable=task_type.memoizable,
            tau_max=task_type.tau_max,
            l_training=task_type.l_training,
            deterministic=task_type.deterministic,
        )

    def build(self) -> TaskType:
        return TaskType(
            name=self.name,
            memoizable=self.memoizable,
            tau_max=self.tau_max,
            l_training=self.l_training,
            deterministic=self.deterministic,
        )


@dataclass(frozen=True)
class EngineSpec:
    """Recipe for a worker's ATM engine replica (policy state stays per worker)."""

    mode: str
    config: Any  # ATMConfig
    p: Optional[float]


def make_engine_spec(engine) -> Optional[EngineSpec]:
    """Serializable recipe replicating ``engine`` into a remote worker.

    Workers run engine replicas that merge back into ``engine`` through the
    snapshot/merge delta protocol at every drain barrier.
    """
    if engine is None:
        return None
    policy = getattr(engine, "policy", None)
    config = getattr(engine, "config", None)
    if policy is None or config is None:
        raise RuntimeStateError(
            "worker-replicated backends require an ATMEngine-compatible "
            "engine (with .policy and .config) or engine=None; custom "
            "in-process engines cannot be replicated into workers"
        )
    # Policies built through the registry carry their registered name —
    # the faithful recipe for plugin policies, whose class-level ``mode``
    # attribute is whatever builtin they subclass.  Hand-assembled policy
    # instances fall back to that class attribute.  Plugin policies
    # require the plugin module to be imported (or the start method to be
    # fork) wherever the worker runs.
    mode = getattr(policy, "registry_name", None) or policy.mode.value
    return EngineSpec(mode=mode, config=policy.config, p=policy.config.p)


def build_worker_engine(spec: Optional[EngineSpec]):
    """The worker-side engine replica described by ``spec`` (``None`` = no ATM).

    Replicas run with the IKT disabled: a worker processes one task at a
    time, so an in-flight twin can never exist inside it, and cross-worker
    in-flight tracking would serialise every lookup — the THT delta merge at
    the drain barrier recovers the sharing instead.
    """
    if spec is None:
        return None
    from repro.atm.engine import ATMEngine
    from repro.atm.policy import make_policy

    config = spec.config.with_overrides(use_ikt=False)
    policy = make_policy(spec.mode, config, p=spec.p)
    engine = ATMEngine(config=config, policy=policy, num_threads=1)
    engine.enable_delta_snapshots()
    return engine


@dataclass(frozen=True)
class NetTaskDescriptor:
    """Everything a remote worker needs to rebuild and run one task.

    ``accesses`` entries are ``(ref, mode_value, region_name)`` where
    ``ref`` is a :class:`NetArrayRef` or a shared-memory
    :class:`~repro.runtime.data.ArrayRef`; ndarray leaves of
    ``args``/``kwargs`` are replaced by the same kind of ref, so worker-side
    argument arrays alias the rebuilt access regions exactly as they alias
    the parent arrays at home.
    """

    task_id: int
    creation_index: int
    type_spec: TaskTypeSpec
    function: Any
    accesses: tuple[tuple[Any, str, str], ...]
    args: tuple
    kwargs: dict


@dataclass(frozen=True)
class NetChunk:
    """One dispatch unit: buffer spans + the task descriptors using them.

    ``buffers`` is empty for a shared-memory chunk.
    """

    chunk_id: int
    buffers: tuple[NetBuffer, ...]
    tasks: tuple[NetTaskDescriptor, ...]


def map_arrays(value: Any, leaf: type | tuple[type, ...], fn) -> Any:
    """Apply ``fn`` to every ``leaf`` instance of a nested argument payload.

    Walks tuples, lists and dict values; everything else passes through.
    Used in both directions: arrays to refs when a task is encoded, refs to
    arrays when it is rebuilt.
    """
    if isinstance(value, leaf):
        return fn(value)
    if isinstance(value, tuple):
        return tuple(map_arrays(v, leaf, fn) for v in value)
    if isinstance(value, list):
        return [map_arrays(v, leaf, fn) for v in value]
    if isinstance(value, dict):
        return {k: map_arrays(v, leaf, fn) for k, v in value.items()}
    return value


def describe_task(
    task_id: int, creation_index: int, task_type: TaskType, function: Any,
    accesses, args: tuple, kwargs: dict, ref,
) -> NetTaskDescriptor:
    """Descriptor of one task with every array replaced by ``ref(array)``:
    :meth:`ChunkEncoder.ref` (byte form) or a shared-memory registry's
    ``array_ref``.  Access arrays pass their region for its interval math."""
    return NetTaskDescriptor(
        task_id=task_id,
        creation_index=creation_index,
        type_spec=TaskTypeSpec.of(task_type),
        function=function,
        accesses=tuple(
            (ref(access.region.array, access.region), access.mode.value, access.region.name)
            for access in accesses
        ),
        args=map_arrays(args, np.ndarray, ref),
        kwargs=map_arrays(kwargs, np.ndarray, ref),
    )


def build_task(
    desc: NetTaskDescriptor,
    arena: "ChunkArena",
    task_types: dict[str, TaskType],
    task_id: Optional[int] = None,
) -> Task:
    """Rebuild the :class:`Task` ``desc`` describes over ``arena``'s views.

    ``task_types`` caches one :class:`TaskType` per name across calls.
    ``task_id`` overrides ``desc.task_id`` (the gateway passes ``-1``: its
    shared graph assigns dense ids).
    """
    name = desc.type_spec.name
    task_type = task_types.get(name)
    if task_type is None:
        task_type = task_types[name] = desc.type_spec.build()
    return Task(
        task_type=task_type,
        function=desc.function,
        accesses=[
            DataAccess(arena.region(ref, region_name), AccessMode(mode_value))
            for ref, mode_value, region_name in desc.accesses
        ],
        args=map_arrays(desc.args, (NetArrayRef, ArrayRef), arena.view),
        kwargs=map_arrays(desc.kwargs, (NetArrayRef, ArrayRef), arena.view),
        task_id=desc.task_id if task_id is None else task_id,
        creation_index=desc.creation_index,
    )


class ChunkEncoder:
    """Sender-side builder of :class:`NetArrayRef`/:class:`NetBuffer` sets.

    Tasks of one chunk are pairwise independent (they were ready
    simultaneously), so one buffer copy per base is consistent for the whole
    chunk.  Call :meth:`ref` for every array (:func:`map_arrays` walks
    argument payloads), then :meth:`buffers` once to materialise the union
    spans.
    """

    def __init__(self) -> None:
        # id(base) -> [base, min_start, max_end]; holding the base reference
        # keeps the id stable for the encoder's lifetime.
        self._spans: dict[int, list] = {}

    def _touch(self, base: np.ndarray, start: int, end: int) -> int:
        buffer_id = id(base)
        span = self._spans.get(buffer_id)
        if span is None:
            self._spans[buffer_id] = [base, start, end]
        else:
            span[1] = min(span[1], start)
            span[2] = max(span[2], end)
        return buffer_id

    def ref(self, array: np.ndarray, region: Optional[DataRegion] = None) -> NetArrayRef:
        """Handle for ``array``; pass ``region`` to reuse its interval math."""
        if region is None:
            region = DataRegion(array)
        base = _base_buffer(array)
        start, end = region.byte_interval
        buffer_id = self._touch(base, start, end)
        base_addr = base.__array_interface__["data"][0]
        my_addr = array.__array_interface__["data"][0]
        return NetArrayRef(
            buffer_id=buffer_id,
            offset=int(my_addr - base_addr),
            shape=tuple(array.shape),
            strides=tuple(array.strides),
            dtype=array.dtype.str,
        )

    def spans(self) -> dict[int, list]:
        """Touched union spans as ``buffer_id -> [base, start, end]``.

        Senders iterate this to choose what to ship per buffer: the
        residency-aware dispatch path a full or a cached ship, the gateway
        client the whole base on first touch.
        """
        return self._spans

    def buffers(self) -> tuple[NetBuffer, ...]:
        """Materialise the union span bytes of every touched base buffer."""
        return tuple(
            NetBuffer(
                buffer_id=buffer_id, start=start, data=span_bytes(base, start, end)
            )
            for buffer_id, (base, start, end) in self._spans.items()
        )


def span_bytes(base: np.ndarray, start: int, end: int) -> bytes:
    """Copy the ``[start, end)`` byte span out of an owning base buffer."""
    if not base.flags.c_contiguous:
        raise RuntimeStateError(
            "the network backend requires C-contiguous owning "
            f"buffers; got a non-contiguous owner of dtype "
            f"{base.dtype} shape {base.shape}"
        )
    if not base.size:
        return b""
    flat = base.reshape(-1).view(np.uint8)
    return flat[start:end].tobytes()


class ChunkArena:
    """Receiver-side materialisation of shipped buffers and their views.

    A worker builds one arena per chunk.  The serving gateway keeps one per
    client connection and adds each submission's whole-base ships with
    :meth:`add` (buffer ids are the client's ledger keys, meaningful only
    within that connection).

    Resolves both reference forms of :class:`NetTaskDescriptor`:

    * :class:`NetArrayRef` — every :class:`NetBuffer` becomes one writable
      ``bytearray``-backed ``uint8`` ndarray; views built over it share that
      object as their ``.base``, preserving region identity (aliasing *and*
      the keygen-cache keying) within the chunk;
    * :class:`~repro.runtime.data.ArrayRef` — a view over a shared segment
      attached through ``segments`` (:class:`~repro.runtime.shm.
      WorkerSegments`), wrapped in a
      :class:`~repro.runtime.data.SharedDataRegion` whose write-version
      lives in the cross-process version table.

    A ``cache`` (:class:`~repro.runtime.residency.WorkerBufferCache`) makes
    the arena residency-aware: full ships are stored into it under their
    generation tag, and cached (``data=None``) buffers are resolved from
    it — a missing or generation-mismatched entry raises
    :class:`WireProtocolError` (the parent's table said the worker holds
    bytes it does not; failing loudly triggers resubmission elsewhere).
    """

    def __init__(
        self, buffers: tuple[NetBuffer, ...] = (), cache=None, segments=None
    ) -> None:
        self._segments = segments
        self._cache = cache
        self._bases: dict[int, tuple[np.ndarray, int]] = {}
        self._views: dict[Any, np.ndarray] = {}
        self._regions: dict[Any, DataRegion] = {}
        self.add(buffers)

    def add(self, buffers: "tuple[NetBuffer, ...] | list[NetBuffer]") -> None:
        """Materialise more shipped buffers; a buffer id already held keeps
        its first backing, so views and regions built over it stay valid."""
        cache = self._cache
        for buf in buffers:
            if buf.buffer_id in self._bases:
                continue
            if buf.data is None:
                entry = cache.get(buf.buffer_id) if cache is not None else None
                if entry is None or entry.generation != buf.generation:
                    held = "nothing" if entry is None else f"g{entry.generation}"
                    raise WireProtocolError(
                        f"cached dispatch references buffer "
                        f"{buf.buffer_id:#x} at generation {buf.generation} "
                        f"but this worker holds {held}"
                    )
                self._bases[buf.buffer_id] = (entry.backing, entry.start)
                continue
            backing = np.frombuffer(bytearray(buf.data), dtype=np.uint8)
            self._bases[buf.buffer_id] = (backing, buf.start)
            if cache is not None:
                cache.put(buf.buffer_id, backing, buf.start, buf.generation)

    def backing_bytes(self, buffer_id: int) -> bytes:
        """Current bytes of the whole shipped backing of ``buffer_id``."""
        entry = self._bases.get(buffer_id)
        if entry is None:
            raise WireProtocolError(f"no shipped buffer {buffer_id:#x}")
        return entry[0].tobytes()

    def view(self, ref) -> np.ndarray:
        cached = self._views.get(ref)
        if cached is not None:
            return cached
        if isinstance(ref, ArrayRef):
            if self._segments is None:
                raise WireProtocolError(
                    f"chunk references shared segment {ref.shm_name!r} but "
                    f"this worker has no shared-memory plane"
                )
            backing, start = self._segments.attach(ref), 0
        else:
            entry = self._bases.get(ref.buffer_id)
            if entry is None:
                raise WireProtocolError(
                    f"task references buffer {ref.buffer_id:#x} that was not "
                    f"shipped to this arena"
                )
            backing, start = entry
        try:
            array = np.ndarray(
                ref.shape,
                dtype=np.dtype(ref.dtype),
                buffer=backing,
                offset=ref.offset - start,
                strides=ref.strides,
            )
        except (ValueError, TypeError) as exc:
            raise WireProtocolError(f"cannot rebuild array view: {exc}") from exc
        self._views[ref] = array
        return array

    def region(self, ref, name: str) -> DataRegion:
        cached = self._regions.get(ref)
        if cached is None:
            if isinstance(ref, ArrayRef):
                cached = SharedDataRegion(
                    self.view(ref),
                    name=name,
                    slot=ref.slot,
                    version_table=self._segments.version_table,
                )
            else:
                cached = DataRegion(self.view(ref), name=name)
            self._regions[ref] = cached
        return cached
