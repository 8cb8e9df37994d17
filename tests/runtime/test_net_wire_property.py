"""Property-based round-trip tests for the network wire format.

Hypothesis-driven guarantees over :mod:`repro.runtime.net_wire`:

* **frame identity** — ``decode_frame(encode_frame(m))`` returns ``m`` for
  arbitrary message payloads;
* **frame integrity** — flipping *any single byte* of a frame, or
  truncating it anywhere, raises the named
  :class:`~repro.common.exceptions.WireProtocolError` (never a silent
  mis-decode, never a hang on a garbage length prefix);
* **array identity** — the ChunkEncoder → bytes → ChunkArena path rebuilds
  every ndarray *view* shape-, dtype- and value-identically, including 0-d
  arrays, empty arrays and non-contiguous views (strided slices,
  transposes, negative steps), while aliasing between views of one base
  survives and the rebuilt buffers never share memory with the originals;
* **descriptor identity** — tasks survive ``describe_task`` → frame →
  ``build_task`` over a per-chunk or a connection-wide arena, and
  engine-delta payloads survive encode→decode structurally intact.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.common.exceptions import WireProtocolError  # noqa: E402
from repro.runtime.data import AccessMode, DataAccess, DataRegion  # noqa: E402
from repro.runtime.net_wire import (  # noqa: E402
    ChunkArena,
    ChunkEncoder,
    NetBuffer,
    TaskTypeSpec,
    build_task,
    decode_frame,
    describe_task,
    encode_frame,
    span_bytes,
)
from repro.runtime.task import TaskType  # noqa: E402

_DTYPES = ("<f8", "<f4", "<i4", "<i2", "|u1", "<c16")


# -- strategies -----------------------------------------------------------------------
messages = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**63), 2**63 - 1),
        st.floats(allow_nan=False),
        st.text(max_size=32),
        st.binary(max_size=64),
    ),
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=16,
)


@st.composite
def base_arrays(draw):
    """A freshly allocated (C-contiguous, owning) base array."""
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    ndim = draw(st.integers(0, 3))
    shape = tuple(draw(st.integers(0, 5)) for _ in range(ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = int(np.prod(shape, dtype=np.int64))
    data = rng.integers(0, 256, size=count * dtype.itemsize, dtype=np.uint8)
    return np.frombuffer(data.tobytes(), dtype=dtype).reshape(shape).copy()


@st.composite
def views(draw):
    """A view of a base array: slices with (possibly negative) steps and/or
    a transpose — the shapes task regions and stencil halos actually take."""
    base = draw(base_arrays())
    array = base
    if array.ndim and draw(st.booleans()):
        index = []
        for dim in array.shape:
            start = draw(st.integers(0, max(dim - 1, 0)))
            stop = draw(st.integers(start, dim))
            step = draw(st.sampled_from([1, 1, 2, -1]))
            index.append(
                slice(start, stop, step) if step > 0
                else slice(stop - 1 if stop > 0 else None, None, step)
            )
            # else-branch: a negative step anchored at the slice end.
        array = array[tuple(index)]
    if array.ndim >= 2 and draw(st.booleans()):
        array = array.T
    return base, array


# -- frame properties -----------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(messages)
def test_frame_round_trip_identity(message):
    decoded, consumed = decode_frame(encode_frame(message))
    assert decoded == message
    assert consumed == len(encode_frame(message))


@settings(max_examples=150, deadline=None)
@given(messages, st.data())
def test_any_single_byte_corruption_is_detected(message, data):
    frame = bytearray(encode_frame(message))
    index = data.draw(st.integers(0, len(frame) - 1), label="corrupt_index")
    frame[index] ^= data.draw(st.integers(1, 255), label="xor_mask")
    with pytest.raises(WireProtocolError):
        decode_frame(bytes(frame))


@settings(max_examples=100, deadline=None)
@given(messages, st.data())
def test_any_truncation_is_detected(message, data):
    frame = encode_frame(message)
    cut = data.draw(st.integers(0, len(frame) - 1), label="cut")
    with pytest.raises(WireProtocolError):
        decode_frame(frame[:cut])


def test_garbage_length_prefix_is_bounded():
    """A corrupted length field must raise, not allocate/await gigabytes."""
    frame = bytearray(encode_frame(("chunk", b"x" * 64)))
    frame[4:8] = (0x7F, 0xFF, 0xFF, 0xFF)  # 2 GiB length prefix
    with pytest.raises(WireProtocolError):
        decode_frame(bytes(frame))


# -- array properties -----------------------------------------------------------------
def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Byte-exact equality — the wire contract (``array_equal`` would call
    random-byte NaN payloads unequal to themselves)."""
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def round_trip_arrays(arrays):
    """Encode views through a ChunkEncoder frame and rebuild in a ChunkArena."""
    encoder = ChunkEncoder()
    refs = [encoder.ref(a) for a in arrays]
    message, _ = decode_frame(encode_frame((refs, encoder.buffers())))
    decoded_refs, buffers = message
    arena = ChunkArena(buffers)
    return [arena.view(ref) for ref in decoded_refs]


@settings(max_examples=150, deadline=None)
@given(views())
def test_array_view_round_trip_identity(base_and_view):
    base, view = base_and_view
    (rebuilt,) = round_trip_arrays([view])
    assert bit_equal(rebuilt, view)
    # No shared memory spans "hosts": mutating the rebuilt copy never
    # touches the original.
    if rebuilt.size:
        before = view.copy()
        rebuilt[...] = 0
        assert bit_equal(view, before)


@settings(max_examples=75, deadline=None)
@given(views())
def test_sibling_views_of_one_base_alias_after_round_trip(base_and_view):
    """Two views of one base must rebuild over *one* shared worker buffer:
    a write through one is visible through the other (the aliasing contract
    task arguments rely on)."""
    base, view = base_and_view
    whole, rebuilt_view = round_trip_arrays([base, view])
    assert bit_equal(whole, base)
    assert bit_equal(rebuilt_view, view)
    # Structural: both views resolve to the same backing uint8 ndarray.
    assert _backing_of(rebuilt_view) is _backing_of(whole)
    if whole.size:
        whole[...] = 0
        assert not rebuilt_view.size or np.count_nonzero(rebuilt_view) == 0


def _backing_of(array: np.ndarray):
    base = array
    while isinstance(base.base, np.ndarray):
        base = base.base
    return base


def square(x, y):  # module-level: pickles by reference
    y[:] = x ** 2


def _connection_ships(encoder: ChunkEncoder) -> tuple[NetBuffer, ...]:
    """Whole-base ships, the form a gateway connection's arena receives."""
    return tuple(
        NetBuffer(buffer_id, 0, span_bytes(base, 0, base.nbytes))
        for buffer_id, (base, _start, _end) in encoder.spans().items()
    )


@pytest.mark.parametrize("form", ["chunk", "connection"])
@settings(max_examples=50, deadline=None)
@given(views(), st.integers(0, 2**31 - 1), st.text(max_size=12))
def test_descriptor_round_trip_identity(form, base_and_view, task_id, name):
    """``describe_task`` -> frame -> ``build_task`` rebuilds the task, over a
    worker's per-chunk arena (union spans) or over the arena one gateway
    connection shares across its submissions (whole bases, via ``add``)."""
    _base, view = base_and_view
    encoder = ChunkEncoder()
    task_type = TaskType(name or "t", memoizable=True)
    descriptor = describe_task(
        task_id,
        task_id,
        task_type,
        square,
        [DataAccess(DataRegion(view, name=name), AccessMode.INOUT)],
        (view, 3.5, name),
        {"scale": 2, "data": view},
        encoder.ref,
    )
    ships = encoder.buffers() if form == "chunk" else _connection_ships(encoder)
    message, _ = decode_frame(encode_frame(("chunk-part", descriptor, ships)))
    _kind, decoded, buffers = message
    assert decoded.type_spec == TaskTypeSpec.of(task_type)
    if form == "chunk":
        arena = ChunkArena(buffers)
    else:
        arena = ChunkArena()
        arena.add(buffers)
    task_types: dict = {}
    task = build_task(decoded, arena, task_types)
    assert task.task_id == task.creation_index == task_id
    assert task.task_type is task_types[task_type.name]
    assert task.function is square  # resolved by reference, not copied
    (access,) = task.accesses
    assert access.mode is AccessMode.INOUT and access.region.name == name
    assert bit_equal(task.args[0], view)
    assert task.args[1:] == (3.5, name)
    assert task.kwargs["scale"] == 2
    assert bit_equal(task.kwargs["data"], view)
    # args and accesses alias one receiver-side view, like the parent side.
    assert access.region.array is task.args[0] is task.kwargs["data"]
    # A second submission over the same arena resolves to the same region
    # and type objects: the identity the dependence graph and ATM key on.
    again = build_task(decoded, arena, task_types, task_id=-1)
    assert again.task_id == -1
    assert again.accesses[0].region is access.region
    assert again.task_type is task.task_type


def test_engine_delta_round_trip():
    """A real ATM engine delta (stats + THT journal with output snapshots)
    survives the frame and merges into a fresh engine."""
    from repro.atm.engine import ATMEngine
    from repro.atm.policy import StaticATMPolicy
    from repro.common.config import ATMConfig
    from repro.runtime.data import In, Out
    from repro.runtime.task import Task

    config = ATMConfig(use_ikt=False)
    engine = ATMEngine(config=config, policy=StaticATMPolicy(config), num_threads=1)
    engine.enable_delta_snapshots()
    task_type = TaskType("delta-rt", memoizable=True)
    src, dst = np.arange(8, dtype=np.float64), np.zeros(8)
    for _ in range(3):  # same key: one commit + two hits
        task = Task(task_type=task_type, function=square,
                    accesses=[In(src), Out(dst)], args=(src, dst), task_id=0)
        decision = engine.task_ready(task, 0)
        executed = not decision.skips_execution
        if executed:
            task.run()
        engine.task_finished(task, decision, executed, 0)
    delta = engine.snapshot(reset=True)
    decoded, _ = decode_frame(encode_frame(delta))

    sink = ATMEngine(config=config, policy=StaticATMPolicy(config), num_threads=1)
    sink.merge(decoded)
    merged = sink.stats.snapshot()
    original = engine.stats.snapshot()
    assert merged["tht_hits"] == 2
    assert merged["tht_hits"] == original["tht_hits"] or original["tht_hits"] == 0
    # The hit now replays against the merged THT: a twin task must skip.
    twin = Task(task_type=task_type, function=square,
                accesses=[In(src), Out(np.zeros(8))], args=(src, dst), task_id=1)
    assert sink.task_ready(twin, 0).skips_execution
