"""Persistent, shared THT stores (DESIGN.md §9).

The THT's ``snapshot(reset)/merge`` delta protocol (process backend PR 2,
network backend PR 5, serving merge pump PR 8) already defines the unit of
exchange: a picklable ``{"entries": [THTEntry, ...], "counters": {...}}``
dict.  This module gives those deltas a life beyond the ``Session`` — two
backends behind one tiny interface, selected by the ``atm.tht_store`` URL:

* :class:`FileTHTStore` (``file://<path>``) — a versioned snapshot file.
  The format reuses the :mod:`repro.runtime.net_wire` framing (magic +
  length + CRC32 per frame, so corruption and truncation are detected
  deterministically): one header frame ``("tht_store", {schema, geometry})``
  followed by any number of delta frames ``("tht_delta", delta)``.  Flushes
  *append* one delta frame (a single ``write`` on an ``O_APPEND`` handle);
  when the file accumulates more than ``tht_store_compact_frames`` deltas it
  is rewritten as one consolidated snapshot via a temp file and an atomic
  ``os.replace`` — readers never observe a half-written store.

* :class:`ShardTHTStore` (``tcp://<host>:<port>``) — a client of the
  standalone cache-shard daemon (``scripts/tht_shard.py``), speaking
  net_wire frames: ``hello``/``hello_ack`` (protocol handshake), ``fetch``
  (download the shard's table as one delta), ``publish`` (upload a delta),
  ``stats``.  Many sessions and gateways attach to one shard and share a
  warm tier without drain barriers: publishes are incremental merges on the
  shard, fetches are whole-table snapshots.

Failure semantics: a store that cannot be read raises
:class:`~repro.common.exceptions.THTStoreCorruptError` (bad frame, bad
header, schema mismatch) or
:class:`~repro.common.exceptions.THTStoreUnavailableError` (shard
unreachable) — never silently-garbage entries.  :func:`warm_start`, used by
the Session and the serving gateway, catches both and falls back to a cold
table.
"""

from __future__ import annotations

import os
import socket
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Any, Optional

from repro.common.config import ATMConfig
from repro.common.exceptions import (
    THTStoreCorruptError,
    THTStoreError,
    THTStoreUnavailableError,
    WireProtocolError,
)
from repro.runtime.net_wire import (
    encode_frame,
    iter_frames,
    read_frame,
    write_frame,
)

__all__ = [
    "STORE_SCHEMA_VERSION",
    "SHARD_PROTOCOL_VERSION",
    "FileTHTStore",
    "ShardTHTStore",
    "open_store",
    "warm_start",
    "parse_store_url",
    "merge_deltas",
    "serve_shard_connection",
    "ShardState",
]

#: Bumped on any incompatible change to the store file layout.  A file with
#: a different schema raises :class:`THTStoreCorruptError` (cold start)
#: rather than being guessed at.
STORE_SCHEMA_VERSION = 1

#: Handshake version of the cache-shard wire vocabulary.
SHARD_PROTOCOL_VERSION = 1

_HEADER_KIND = "tht_store"
_DELTA_KIND = "tht_delta"

#: Socket timeout of shard client operations (connect and per-reply).
_SHARD_TIMEOUT_S = 10.0


def _entry_key(entry) -> tuple:
    """Identity of one THT entry for later-wins dedup across deltas."""
    return (entry.key_value, entry.task_type_name, entry.p_canonical)


def merge_deltas(deltas: "list[dict]") -> dict:
    """Fold an ordered delta sequence into one: later entries win.

    This is the pure-data analogue of replaying ``THT.merge`` per delta —
    used to consolidate a store file's appended frames into a single
    snapshot and to aggregate what :meth:`FileTHTStore.load` returns.
    Counters are summed (they are cumulative event counts).
    """
    entries: dict[tuple, Any] = {}
    counters = {"hits": 0, "misses": 0, "insertions": 0, "evictions": 0}
    for delta in deltas:
        for entry in delta.get("entries", []):
            entries[_entry_key(entry)] = entry
        for name in counters:
            counters[name] += int(delta.get("counters", {}).get(name, 0))
    return {"entries": list(entries.values()), "counters": counters}


def parse_store_url(url: str) -> tuple[str, Any]:
    """Split a ``tht_store`` URL into ``("file", Path)`` or ``("tcp", (host, port))``."""
    url = url.strip()
    if url.startswith("file://"):
        path = url[len("file://"):]
        if not path:
            raise THTStoreError("tht_store file:// URL names no path")
        return "file", Path(path)
    if url.startswith("tcp://"):
        address = url[len("tcp://"):]
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise THTStoreError(
                f"tht_store tcp:// URL must be tcp://host:port, got {url!r}"
            )
        return "tcp", (host, int(port))
    raise THTStoreError(
        f"tht_store must be a file:// or tcp:// URL, got {url!r}"
    )


def open_store(url: str, atm_config: Optional[ATMConfig] = None):
    """Open the store named by a ``file://`` / ``tcp://`` URL."""
    kind, target = parse_store_url(url)
    config = atm_config or ATMConfig()
    if kind == "file":
        return FileTHTStore(target, atm_config=config)
    host, port = target
    return ShardTHTStore(host, port, atm_config=config)


def warm_start(url: str, atm_config: ATMConfig, tht, cold: str):
    """Open ``url`` and merge its table into ``tht``; returns ``(store, warmed)``.

    A damaged cache must never take down the computation it accelerates:
    an unreachable store (at open or load) warns and yields ``(None,
    False)``; a corrupt one warns and stays attached, so the next publish
    rewrites it.  Restored entries merge unjournaled and the journal starts
    after, so they are never re-published.  ``cold`` names the fallback
    in each warning.
    """

    def warn(problem: str, exc: Exception) -> None:
        # stacklevel 4: past this helper and its caller's constructor.
        warnings.warn(
            f"THT store {url} {problem}, {cold}: {exc}", RuntimeWarning, stacklevel=4
        )

    try:
        store = open_store(url, atm_config)
    except THTStoreUnavailableError as exc:
        warn("unavailable", exc)
        return None, False
    try:
        delta = store.load()
    except THTStoreCorruptError as exc:
        warn("unreadable", exc)
        delta = None
    except THTStoreUnavailableError as exc:
        store.close()
        warn("dropped during warm-start", exc)
        return None, False
    warmed = bool(delta and delta.get("entries"))
    if warmed:
        tht.merge(delta, journal=False)
    tht.enable_journal()
    return store, warmed


# -- file backend ---------------------------------------------------------------------
class FileTHTStore:
    """Warm-start snapshot file: header frame + appended delta frames."""

    def __init__(self, path: "Path | str", atm_config: Optional[ATMConfig] = None) -> None:
        self.path = Path(path)
        self.config = atm_config or ATMConfig()
        self.url = f"file://{self.path}"
        self._lock = threading.Lock()

    # -- framing ------------------------------------------------------------------
    def _header_frame(self) -> bytes:
        return encode_frame(
            (
                _HEADER_KIND,
                {
                    "schema": STORE_SCHEMA_VERSION,
                    "tht_bucket_bits": self.config.tht_bucket_bits,
                    "tht_bucket_capacity": self.config.tht_bucket_capacity,
                },
            )
        )

    def _read_frames(self) -> list:
        """Decode every frame of the file; raise the named error on damage."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise THTStoreError(f"cannot read THT store {self.path}: {exc}") from exc
        try:
            frames = list(iter_frames(raw))
        except WireProtocolError as exc:
            raise THTStoreCorruptError(
                f"THT store {self.path} is corrupt or truncated: {exc}"
            ) from exc
        if not frames:
            raise THTStoreCorruptError(f"THT store {self.path} is empty (no header)")
        header = frames[0]
        if (
            not isinstance(header, tuple)
            or len(header) != 2
            or header[0] != _HEADER_KIND
            or not isinstance(header[1], dict)
        ):
            raise THTStoreCorruptError(
                f"THT store {self.path} does not start with a {_HEADER_KIND!r} header"
            )
        schema = header[1].get("schema")
        if schema != STORE_SCHEMA_VERSION:
            raise THTStoreCorruptError(
                f"THT store {self.path} has schema {schema!r}; this build "
                f"reads schema {STORE_SCHEMA_VERSION}"
            )
        for frame in frames[1:]:
            if (
                not isinstance(frame, tuple)
                or len(frame) != 2
                or frame[0] != _DELTA_KIND
                or not isinstance(frame[1], dict)
            ):
                raise THTStoreCorruptError(
                    f"THT store {self.path} contains a non-delta frame "
                    f"{frame[0] if isinstance(frame, tuple) and frame else frame!r}"
                )
        return frames

    # -- store interface ----------------------------------------------------------
    def load(self) -> dict:
        """Aggregated content of the store (empty delta for a missing file)."""
        with self._lock:
            frames = self._read_frames()
        return merge_deltas([frame[1] for frame in frames[1:]])

    def publish(self, delta: dict) -> int:
        """Append one delta frame (then compact when the file has grown).

        The append is a single ``write`` on an append-mode handle, fsynced,
        so concurrent publishers interleave whole frames; compaction
        rewrites through a temp file + atomic ``os.replace``.
        """
        entries = delta.get("entries", [])
        if not entries:
            return 0
        frame = encode_frame((_DELTA_KIND, delta))
        compact_after = False
        with self._lock:
            try:
                existing = self._read_frames()
            except THTStoreCorruptError:
                # Self-heal: a damaged store is replaced by this snapshot
                # instead of having good frames appended after bad bytes.
                existing = []
            if not existing:
                self._write_atomic([frame])
            else:
                with open(self.path, "ab") as handle:
                    handle.write(frame)
                    handle.flush()
                    os.fsync(handle.fileno())
                compact_after = len(existing) > self.config.tht_store_compact_frames
        if compact_after:
            self.compact()
        return len(entries)

    def compact(self) -> None:
        """Rewrite the file as header + one consolidated delta frame."""
        with self._lock:
            frames = self._read_frames()
            if not frames:
                return
            merged = merge_deltas([frame[1] for frame in frames[1:]])
            self._write_atomic([encode_frame((_DELTA_KIND, merged))])

    def _write_atomic(self, delta_frames: list) -> None:
        """Write header + frames to a temp file and atomically replace."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=self.path.name + ".", suffix=".tmp", dir=self.path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(self._header_frame())
                for frame in delta_frames:
                    handle.write(frame)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def stats(self) -> dict:
        with self._lock:
            try:
                frames = self._read_frames()
            except THTStoreError:
                frames = []
        merged = merge_deltas([frame[1] for frame in frames[1:]])
        return {
            "backend": "file",
            "path": str(self.path),
            "delta_frames": max(len(frames) - 1, 0),
            "entries": len(merged["entries"]),
            "bytes": self.path.stat().st_size if self.path.exists() else 0,
        }

    def close(self) -> None:
        """Nothing to release: every publish is already durable."""

    def __enter__(self) -> "FileTHTStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- tcp shard backend ---------------------------------------------------------------
class ShardTHTStore:
    """Client of one ``scripts/tht_shard.py`` cache-shard daemon."""

    def __init__(
        self,
        host: str,
        port: int,
        atm_config: Optional[ATMConfig] = None,
        timeout_s: float = _SHARD_TIMEOUT_S,
    ) -> None:
        self.host = host
        self.port = port
        self.config = atm_config or ATMConfig()
        self.url = f"tcp://{host}:{port}"
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout_s)
            self._sock.settimeout(timeout_s)
            hello = self._request(("hello", {"protocol": SHARD_PROTOCOL_VERSION}))
        except OSError as exc:
            self.close()
            raise THTStoreUnavailableError(
                f"THT shard {self.url} unreachable: {exc}"
            ) from exc
        except THTStoreError:
            self.close()
            raise
        if hello.get("protocol") != SHARD_PROTOCOL_VERSION:
            self.close()
            raise THTStoreUnavailableError(
                f"THT shard {self.url} speaks protocol "
                f"{hello.get('protocol')!r}, this client speaks "
                f"{SHARD_PROTOCOL_VERSION}"
            )

    def _request(self, message: tuple) -> Any:
        """One request/reply round-trip; maps transport errors to the taxonomy."""
        expected = {
            "hello": "hello_ack",
            "fetch": "fetch_result",
            "publish": "publish_ack",
            "stats": "stats_reply",
        }[message[0]]
        with self._lock:
            if self._sock is None:
                raise THTStoreUnavailableError(
                    f"THT shard connection {self.url} is closed"
                )
            try:
                write_frame(self._sock, message)
                reply = read_frame(self._sock)
            except WireProtocolError as exc:
                raise THTStoreCorruptError(
                    f"THT shard {self.url} sent a malformed reply: {exc}"
                ) from exc
            except (OSError, EOFError) as exc:
                raise THTStoreUnavailableError(
                    f"THT shard {self.url} unreachable: {exc}"
                ) from exc
        if not isinstance(reply, tuple) or not reply:
            raise THTStoreCorruptError(
                f"THT shard {self.url} sent a non-tuple reply"
            )
        if reply[0] == "error":
            raise THTStoreError(
                f"THT shard {self.url} refused {message[0]!r}: {reply[1:]}"
            )
        if reply[0] != expected or len(reply) < 2:
            raise THTStoreCorruptError(
                f"THT shard {self.url} answered {message[0]!r} with "
                f"{reply[0]!r} (expected {expected!r})"
            )
        return reply[1]

    # -- store interface ----------------------------------------------------------
    def load(self) -> dict:
        """Download the shard's whole table as one delta."""
        delta = self._request(("fetch",))
        if not isinstance(delta, dict):
            raise THTStoreCorruptError(
                f"THT shard {self.url} fetch_result carries no delta dict"
            )
        return delta

    def publish(self, delta: dict) -> int:
        """Upload one delta; the shard merges it incrementally."""
        if not delta.get("entries") and not delta.get("counters"):
            return 0
        return int(self._request(("publish", delta)))

    def stats(self) -> dict:
        return dict(self._request(("stats",)))

    def close(self) -> None:
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ShardTHTStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- shard server side ---------------------------------------------------------------
class ShardState:
    """The daemon's shared state: one THT plus service counters.

    The table itself is thread-safe (per-bucket locks; ``merge``/``snapshot``
    coordinate through the journal lock when enabled), so concurrent client
    connections need no global table lock — only the service counters are
    guarded here.
    """

    def __init__(
        self,
        atm_config: Optional[ATMConfig] = None,
        backing: Optional[FileTHTStore] = None,
    ) -> None:
        from repro.atm.tht import TaskHistoryTable

        self.config = atm_config or ATMConfig()
        self.table = TaskHistoryTable(self.config)
        self.backing = backing
        self._lock = threading.Lock()
        self.publishes = 0
        self.fetches = 0
        self.entries_received = 0
        if backing is not None:
            # Warm the shard itself from its backing file; a corrupt file
            # cold-starts the shard exactly like it cold-starts a Session.
            try:
                self.table.merge(backing.load(), journal=False)
            except THTStoreError:
                pass

    def handle(self, message: Any) -> tuple:
        """Serve one shard request; returns the reply frame message."""
        if not isinstance(message, tuple) or not message:
            return ("error", "THTStoreError", "requests are non-empty tuples")
        kind = message[0]
        if kind == "hello":
            info = message[1] if len(message) > 1 else {}
            if info.get("protocol") != SHARD_PROTOCOL_VERSION:
                return (
                    "error",
                    "THTStoreUnavailableError",
                    f"shard speaks protocol {SHARD_PROTOCOL_VERSION}, "
                    f"client spoke {info.get('protocol')!r}",
                )
            return (
                "hello_ack",
                {
                    "protocol": SHARD_PROTOCOL_VERSION,
                    "schema": STORE_SCHEMA_VERSION,
                    "entries": len(self.table),
                },
            )
        if kind == "fetch":
            with self._lock:
                self.fetches += 1
            return ("fetch_result", self.table.snapshot())
        if kind == "publish":
            delta = message[1] if len(message) > 1 else {}
            if not isinstance(delta, dict):
                return ("error", "THTStoreError", "publish carries no delta dict")
            self.table.merge(delta)
            received = len(delta.get("entries", []))
            with self._lock:
                self.publishes += 1
                self.entries_received += received
            return ("publish_ack", received)
        if kind == "stats":
            with self._lock:
                publishes, fetches = self.publishes, self.fetches
                received = self.entries_received
            return (
                "stats_reply",
                {
                    "backend": "shard",
                    "entries": len(self.table),
                    "hits": self.table.hits,
                    "misses": self.table.misses,
                    "insertions": self.table.insertions,
                    "evictions": self.table.evictions,
                    "publishes": publishes,
                    "fetches": fetches,
                    "entries_received": received,
                },
            )
        return ("error", "THTStoreError", f"unknown request {kind!r}")

    def flush(self) -> None:
        """Persist the shard's table into its backing file (if any)."""
        if self.backing is not None:
            snapshot = self.table.snapshot()
            if snapshot["entries"]:
                self.backing.publish(snapshot)
                self.backing.compact()


def serve_shard_connection(sock: socket.socket, state: ShardState) -> None:
    """Blocking service loop for one shard client connection.

    Runs until the peer disconnects (clean EOF) or sends garbage (the
    connection is dropped; the shard's table is untouched — publishes are
    atomic merges that either happened or did not).
    """
    try:
        while True:
            try:
                message = read_frame(sock)
            except (WireProtocolError, OSError):
                return
            if isinstance(message, tuple) and message and message[0] == "bye":
                return
            reply = state.handle(message)
            try:
                write_frame(sock, reply)
            except OSError:
                return
    finally:
        try:
            sock.close()
        except OSError:
            pass
