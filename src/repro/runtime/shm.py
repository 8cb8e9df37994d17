"""Shared-memory data plane of the subprocess endpoints.

``executor="process"`` runs the remote-worker executor
(:mod:`repro.runtime.net_executor`) over forked subprocess endpoints on the
same host.  Task chunks bound for them carry
:class:`~repro.runtime.data.ArrayRef` handles instead of bytes, so
application arrays need one canonical cross-process home; this module
provides it (see DESIGN.md §4.3):

* :class:`SharedBufferRegistry` (parent side) — assigns every owning base
  buffer a *slot*, backs it with a ``multiprocessing.shared_memory`` segment
  mirroring the buffer's exact byte layout, and synchronises bytes between
  the parent arrays and the segments at drain boundaries (``copy_in`` /
  ``copy_out``).  ``copy_in`` only copies (and version-bumps) buffers whose
  bytes actually differ from the segment, so worker-side digest caches
  survive multi-barrier programs whose inputs the parent never touched.
* :class:`SharedVersionTable` — the cross-process write-version protocol:
  one ``int64`` version per slot in its own shared segment, bumped under a
  shared lock whenever a write to the buffer commits in *any* process.  The
  worker-side ATM key generator keys its digest caches on these versions,
  exactly as the in-process :class:`~repro.runtime.data.RegionVersionRegistry`
  does for single-process runs.
* :class:`WorkerSegments` (worker side) — attaches segments lazily by name
  for the worker's lifetime; :class:`~repro.runtime.net_wire.ChunkArena`
  builds region views over them.

Attach/detach is name-based, so the protocol works under every
multiprocessing start method (``fork``, ``spawn``, ``forkserver``).
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro.common.exceptions import RuntimeStateError
from repro.runtime.data import ArrayRef, _base_buffer

__all__ = ["SharedVersionTable", "SharedBufferRegistry", "WorkerSegments"]


class SharedVersionTable:
    """Monotonic write-versions shared across processes (one ``int64``/slot).

    Reads are lock-free (an aligned 8-byte load); bumps take the shared lock
    so concurrent writers to *sibling* regions of one base buffer can never
    lose an increment (a lost increment could let a stale cached digest
    survive a later write).
    """

    def __init__(
        self,
        capacity: int = 4096,
        name: Optional[str] = None,
        lock=None,
        context=None,
    ) -> None:
        self.capacity = capacity
        self._owner = name is None
        if self._owner:
            ctx = context or multiprocessing.get_context()
            self._shm = shared_memory.SharedMemory(create=True, size=capacity * 8)
            self._lock = lock if lock is not None else ctx.Lock()
            self.versions = np.ndarray((capacity,), dtype=np.int64, buffer=self._shm.buf)
            self.versions[:] = 0
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            self._lock = lock
            self.versions = np.ndarray((capacity,), dtype=np.int64, buffer=self._shm.buf)

    @classmethod
    def attach(cls, name: str, capacity: int, lock) -> "SharedVersionTable":
        return cls(capacity=capacity, name=name, lock=lock)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def lock(self):
        return self._lock

    def read(self, slot: int) -> int:
        return int(self.versions[slot])

    def bump(self, slot: int) -> int:
        with self._lock:
            self.versions[slot] += 1
            return int(self.versions[slot])

    def close(self) -> None:
        self.versions = None  # release the exported buffer before closing
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass


class _SharedBuffer:
    """Parent-side record of one base buffer mirrored into shared memory."""

    __slots__ = ("slot", "base", "shm", "mirror", "flat_mirror")

    def __init__(self, slot: int, base: np.ndarray, shm: shared_memory.SharedMemory) -> None:
        self.slot = slot
        self.base = base
        self.shm = shm
        # A view over the segment with the base buffer's exact layout, so the
        # byte offsets computed from parent addresses stay valid in workers.
        self.mirror = np.ndarray(
            base.shape, dtype=base.dtype, buffer=shm.buf, strides=base.strides
        )
        self.flat_mirror = np.ndarray((shm.size,), dtype=np.uint8, buffer=shm.buf)


class SharedBufferRegistry:
    """Parent-side slot registry mapping base buffers to shared segments."""

    def __init__(self, version_table: SharedVersionTable) -> None:
        self.version_table = version_table
        self._by_id: dict[int, _SharedBuffer] = {}
        self._entries: list[_SharedBuffer] = []

    def __len__(self) -> int:
        return len(self._entries)

    def register(self, base: np.ndarray) -> _SharedBuffer:
        """Register an owning base buffer, creating its segment on first sight."""
        entry = self._by_id.get(id(base))
        if entry is not None and entry.base is base:
            return entry
        slot = len(self._entries)
        if slot >= self.version_table.capacity:
            raise RuntimeStateError(
                f"shared version table full ({self.version_table.capacity} slots); "
                "raise NetworkExecutor.VERSION_TABLE_CAPACITY"
            )
        shm = shared_memory.SharedMemory(create=True, size=max(1, int(base.nbytes)))
        entry = _SharedBuffer(slot, base, shm)
        # Seed the segment immediately: buffers can be registered mid-drain
        # (first touched by a task dispatched after copy_in ran).
        np.copyto(entry.mirror, base, casting="no")
        self._entries.append(entry)
        self._by_id[id(base)] = entry
        return entry

    def entry_for_array(self, array: np.ndarray) -> _SharedBuffer:
        """Registry entry of the base buffer owning ``array`` (registering it)."""
        return self.register(_base_buffer(array))

    def array_ref(self, array: np.ndarray) -> ArrayRef:
        """Serializable handle reconstructing ``array`` inside a worker."""
        entry = self.entry_for_array(array)
        base_addr = entry.base.__array_interface__["data"][0]
        my_addr = array.__array_interface__["data"][0]
        return ArrayRef(
            shm_name=entry.shm.name,
            base_nbytes=int(entry.base.nbytes),
            slot=entry.slot,
            offset=int(my_addr - base_addr),
            shape=tuple(array.shape),
            strides=tuple(array.strides),
            dtype=array.dtype.str,
        )

    @staticmethod
    def _mirror_matches(entry: _SharedBuffer) -> bool:
        """Byte-level comparison (NaN-safe: ``array_equal`` treats NaN != NaN,
        which would defeat the skip forever for any buffer holding a NaN)."""
        base = entry.base
        flat = base.ravel(order="K")
        if not flat.flags.c_contiguous:  # pragma: no cover - exotic owners
            return False
        return np.array_equal(
            entry.flat_mirror[: base.nbytes], flat.view(np.uint8)
        )

    def copy_in(self) -> int:
        """Mirror parent bytes into the segments; returns buffers refreshed.

        Only buffers whose bytes differ are copied, and each refresh bumps
        the shared version so worker-side key caches can never serve a
        digest for bytes the parent replaced between drains.
        """
        refreshed = 0
        for entry in self._entries:
            if self._mirror_matches(entry):
                continue
            np.copyto(entry.mirror, entry.base, casting="no")
            self.version_table.bump(entry.slot)
            refreshed += 1
        return refreshed

    def copy_out(self, slots: Optional[set[int]] = None) -> int:
        """Copy worker-written segment bytes back into the parent arrays."""
        copied = 0
        for entry in self._entries:
            if slots is not None and entry.slot not in slots:
                continue
            np.copyto(entry.base, entry.mirror, casting="no")
            copied += 1
        return copied

    def close(self) -> None:
        for entry in self._entries:
            entry.mirror = None
            entry.flat_mirror = None
            entry.shm.close()
            try:
                entry.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._entries.clear()
        self._by_id.clear()


class WorkerSegments:
    """Worker-side lazy attachment of shared segments by name.

    One flat ``uint8`` ndarray per segment: every view built over it shares
    this object as its ``.base``, so region identity (the keygen caches'
    key) holds across chunks for the worker's lifetime.
    """

    def __init__(self, version_table: SharedVersionTable) -> None:
        self.version_table = version_table
        self._segments: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}

    def attach(self, ref: ArrayRef) -> np.ndarray:
        """The flat byte view of the segment ``ref`` points into."""
        cached = self._segments.get(ref.shm_name)
        if cached is not None:
            return cached[1]
        shm = shared_memory.SharedMemory(name=ref.shm_name)
        base = np.ndarray((max(1, ref.base_nbytes),), dtype=np.uint8, buffer=shm.buf)
        self._segments[ref.shm_name] = (shm, base)
        return base

    def close(self) -> None:
        for shm, _base in self._segments.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover - views still alive
                pass
        self._segments.clear()
