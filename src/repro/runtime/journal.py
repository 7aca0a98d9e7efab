"""Durable event-sourced journal + snapshot store under the kernel.

Every layer of the reproduction keeps its state in memory — the workflow
database, conversation state, reliable-messaging dedup windows.  A hub
crash mid-RNIF-exchange therefore loses or duplicates orders, which the
paper's architecture (a hub that *absorbs* partner-facing failure) cannot
afford.  This module makes the PR-1 lifecycle event bus an actual
event-sourcing substrate:

* :class:`JournalWriter` — an append-only, checksummed, segment-rotated,
  fsync-optional log of :class:`JournalRecord` frames;
* :class:`SnapshotStore` — checksummed projection snapshots keyed by the
  journal sequence they were taken at, so recovery replays only the tail;
* :class:`KernelJournal` / :class:`ShardedJournal` — write-ahead wiring:
  the kernel bus's ``write_ahead`` hook appends each lifecycle event to
  the journal *before* any observer applies it.  The sharded variant
  keeps one journal per shard (each shard's segment bus writes only its
  own log) while stamping every record with the global submission
  sequence, so recovery can rebuild the deterministic global-order
  stream by a k-way merge.

Record framing (one ASCII line per record)::

    <seq> <kind> <payload-len> <crc32-hex8> <payload-json>\\n

``crc32`` covers the payload bytes; a torn append (crash mid-write) fails
the length or checksum test and recovery truncates the tail at the last
whole record — the corrupt-tail cases of the crash harness.  Kinds:

* ``event``   — one bus event, encoded positionally (see
  :func:`encode_event`);
* ``command`` — a write-ahead record of an external stimulus (an order
  submission, a VAN poll) logged *before* it executes; the exactly-once
  unit of the recovery contract;
* ``marker``  — out-of-band durability markers, e.g. the registry
  versions backing the incremental-lint cache, so warm verdicts can be
  trusted across restarts.

Recovery semantics live in :mod:`repro.runtime.recovery`.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.runtime.events import (
    ALL_EVENT_TYPES,
    CONVERSATION_EVENTS,
    KERNEL_EVENTS,
    MESSAGING_EVENTS,
    WORKFLOW_EVENTS,
    RuntimeEvent,
)

__all__ = [
    "JOURNAL_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "JournalRecord",
    "JournalError",
    "Truncation",
    "JournalWriter",
    "SnapshotStore",
    "KernelJournal",
    "ShardedJournal",
    "attach_journal",
    "encode_event",
    "decode_event",
    "read_segment_dir",
    "segment_files",
]

JOURNAL_SCHEMA = "repro-journal/1"
SNAPSHOT_SCHEMA = "repro-journal-snapshot/1"

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".jrnl"
SHARD_DIR_PREFIX = "shard-"

KIND_EVENT = "event"
KIND_COMMAND = "command"
KIND_MARKER = "marker"


class JournalError(Exception):
    """Raised for misuse of the journal API (never for corrupt data —
    corruption is reported as a :class:`Truncation`, not an exception)."""


# ---------------------------------------------------------------------------
# Event codec: positional, per-class, hot-path cheap
# ---------------------------------------------------------------------------

_EVENT_CLASSES: dict[str, type[RuntimeEvent]] = {
    cls.type: cls
    for cls in (
        *WORKFLOW_EVENTS,
        *MESSAGING_EVENTS,
        *CONVERSATION_EVENTS,
        *KERNEL_EVENTS,
    )
}
assert set(_EVENT_CLASSES) == set(ALL_EVENT_TYPES)

# Per-class attribute getters: one C-level call extracts every field in
# declaration order (``at``/``source`` first, then subclass fields), so
# encoding stays cheap enough for the write-ahead hot path.
_FIELD_NAMES: dict[str, tuple[str, ...]] = {
    type_name: tuple(spec.name for spec in dataclasses.fields(cls))
    for type_name, cls in _EVENT_CLASSES.items()
}
_GETTERS: dict[type[RuntimeEvent], Callable[[RuntimeEvent], tuple]] = {
    cls: operator.attrgetter(*_FIELD_NAMES[type_name])
    for type_name, cls in _EVENT_CLASSES.items()
}


def encode_event(event: RuntimeEvent) -> list[Any]:
    """``[type, at, source, *fields]`` — the journal payload of an event."""
    getter = _GETTERS.get(type(event))
    if getter is None:
        raise JournalError(
            f"cannot journal unregistered event type {type(event).__name__!r}"
        )
    values = getter(event)
    if not isinstance(values, tuple):  # single-field base class edge
        values = (values,)
    return [event.type, *values]


def decode_event(payload: list[Any]) -> RuntimeEvent:
    """Inverse of :func:`encode_event`."""
    cls = _EVENT_CLASSES.get(payload[0])
    if cls is None:
        raise JournalError(f"unknown journaled event type {payload[0]!r}")
    return cls(*payload[1:])


# ---------------------------------------------------------------------------
# Record framing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal frame."""

    seq: int
    kind: str
    payload: Any
    segment: str = ""
    offset: int = 0
    end_offset: int = 0

    def event(self) -> RuntimeEvent:
        """Decode an ``event`` record's payload (raises otherwise)."""
        if self.kind != KIND_EVENT:
            raise JournalError(f"record {self.seq} is a {self.kind}, not an event")
        return decode_event(self.payload)


@dataclass(frozen=True)
class Truncation:
    """Where and why a read stopped before the physical end of the log."""

    segment: str
    offset: int
    reason: str


# Hot-path encoder, cached: json.dumps with keyword options constructs a
# fresh JSONEncoder per call (~2x slower).  sort_keys canonicalizes dict
# payloads so a record re-journaled from recovered state (snapshots
# round-trip through sorted JSON) is byte-identical to the original
# append — the crash harness compares resumed and uncrashed journals
# byte for byte.
_encode_json = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode

_KIND_BYTES = {
    KIND_EVENT: b"event",
    KIND_COMMAND: b"command",
    KIND_MARKER: b"marker",
}

# Printable ASCII minus '"' and '\\': strings in this set serialize as
# themselves between quotes, byte-identically to the JSON encoder
# (ensure_ascii mode).  Everything else falls back to the real encoder.
_SAFE_ASCII = re.compile(r'[ !#-\[\]-~]*\Z').match
_INF = float("inf")


def _fast_body(payload: list) -> bytes | None:
    """Serialize a flat list of safe scalars byte-identically to
    ``_encode_json`` — the shape of every event payload — skipping the
    JSON encoder machinery on the per-event hot path.  Returns ``None``
    when any element needs the real encoder (escapes, non-ASCII,
    non-finite floats, nested containers)."""
    parts = []
    append = parts.append
    for item in payload:
        kind = type(item)
        if kind is str:
            if _SAFE_ASCII(item) is None:
                return None
            append('"' + item + '"')
        elif kind is float:
            # NaN/inf render differently in the stdlib encoder.
            if item != item or item == _INF or item == -_INF:
                return None
            append(float.__repr__(item))
        elif kind is bool:
            append("true" if item else "false")
        elif kind is int:
            append(int.__repr__(item))
        elif item is None:
            append("null")
        else:
            return None
    return ("[" + ",".join(parts) + "]").encode("utf-8")


def _frame(seq: int, kind: str, payload: Any) -> bytes:
    if type(payload) is list:
        body = _fast_body(payload)
        if body is None:
            body = _encode_json(payload).encode("utf-8")
    else:
        body = _encode_json(payload).encode("utf-8")
    return b"%d %s %d %08x %s\n" % (
        seq,
        _KIND_BYTES.get(kind) or kind.encode("ascii"),
        len(body),
        zlib.crc32(body),
        body,
    )


# Quoted-string memo for the hot path: sources, doc types and partner
# ids repeat across millions of events, so most fields hit the cache and
# skip the safety scan.  Capped so unique ids (conversation ids) cannot
# grow it without bound.
_QUOTED: dict[str, str] = {}
_QUOTED_CAP = 4096


def _compile_event_framer(
    type_name: str, cls: type[RuntimeEvent]
) -> Callable[[int, RuntimeEvent], bytes | None] | None:
    """Codegen one straight-line framer for an event class.

    The generated function loads each field by name, validates it
    against the declared annotation (returning ``None`` to punt any
    surprise — wrong runtime type, unsafe string, non-finite float — to
    the generic encoder path), and builds the whole frame body in a
    single f-string.  No attrgetter tuple, no per-item type dispatch,
    no parts list: this is the write-ahead hook's per-event cost.
    """
    guards: list[str] = []
    exprs: list[str] = []
    for index, spec in enumerate(dataclasses.fields(cls)):
        annotation = (
            spec.type
            if isinstance(spec.type, str)
            else getattr(spec.type, "__name__", "")
        )
        var = f"v{index}"
        guards.append(f"    {var} = event.{spec.name}")
        if annotation in ("float", "int"):
            # bool is excluded by the __class__ identity checks, and a
            # non-finite float renders differently in the JSON encoder.
            guards.append(f"    c = {var}.__class__")
            guards.append(
                f"    if c is float:\n"
                f"        if {var} != {var} or {var} == _INF or {var} == -_INF:\n"
                f"            return None\n"
                f"    elif c is not int:\n"
                f"        return None"
            )
            exprs.append(f"{{{var}!r}}")
        elif annotation == "str":
            guards.append(
                f"    if {var}.__class__ is not str:\n"
                f"        return None\n"
                f"    q = _QUOTED.get({var})\n"
                f"    if q is None:\n"
                f"        if _SAFE_ASCII({var}) is None:\n"
                f"            return None\n"
                f"        q = '\\\"' + {var} + '\\\"'\n"
                f"        if len(_QUOTED) < _QUOTED_CAP:\n"
                f"            _QUOTED[{var}] = q\n"
                f"    {var} = q"
            )
            exprs.append(f"{{{var}}}")
        else:
            return None
    body_template = '["' + type_name + '",' + ",".join(exprs) + "]"
    source = "\n".join(
        [
            "def framer(seq, event):",
            *guards,
            f"    body = f'{body_template}'.encode('ascii')",
            "    return b'%d event %d %08x %s\\n'"
            " % (seq, len(body), _crc32(body), body)",
        ]
    )
    namespace: dict[str, Any] = {
        "_INF": _INF,
        "_SAFE_ASCII": _SAFE_ASCII,
        "_QUOTED": _QUOTED,
        "_QUOTED_CAP": _QUOTED_CAP,
        "_crc32": zlib.crc32,
    }
    exec(source, namespace)  # noqa: S102 - input is dataclass metadata only
    return namespace["framer"]


_FRAMERS: dict[type[RuntimeEvent], Callable[[int, RuntimeEvent], bytes | None]] = {}
for _type_name, _cls in _EVENT_CLASSES.items():
    _framer = _compile_event_framer(_type_name, _cls)
    if _framer is not None:
        _FRAMERS[_cls] = _framer


def _event_frame(seq: int, event: RuntimeEvent) -> bytes | None:
    """One-step frame for a registered event with all-safe scalar fields.

    Byte-identical to ``_frame(seq, KIND_EVENT, encode_event(event))``;
    returns ``None`` when any field needs the full encoder path (the
    caller falls back).
    """
    framer = _FRAMERS.get(type(event))
    if framer is None:
        return None
    try:
        return framer(seq, event)
    except TypeError:
        return None


# Hot-path decoder, cached: raw_decode on an already-decoded str skips
# json.loads's per-call encoding detection and wrapper overhead.
_raw_decode = json.JSONDecoder().raw_decode

_KIND_FROM_BYTES = {frame: kind for kind, frame in _KIND_BYTES.items()}


def _parse_line(line: bytes) -> tuple[int, str, Any] | str:
    """Decode one frame; returns ``(seq, kind, payload)`` or a reason string."""
    if not line.endswith(b"\n"):
        return "torn record (no terminator)"
    parts = line[:-1].split(b" ", 4)
    if len(parts) != 5:
        return "malformed header"
    raw_seq, raw_kind, raw_len, raw_crc, body = parts
    try:
        seq = int(raw_seq)
        length = int(raw_len)
        crc = int(raw_crc, 16)
    except ValueError:
        return "malformed header"
    kind = _KIND_FROM_BYTES.get(raw_kind)
    if kind is None:
        return f"unknown record kind {raw_kind.decode('ascii', errors='replace')!r}"
    if len(body) != length:
        return f"length mismatch ({len(body)} != {length})"
    if zlib.crc32(body) != crc:
        return "checksum mismatch"
    try:
        text = body.decode("utf-8")
        payload, end = _raw_decode(text)
        if end != len(text):
            return "unparseable payload"
    except (UnicodeDecodeError, ValueError):
        return "unparseable payload"
    return seq, kind, payload


# ---------------------------------------------------------------------------
# Segment files
# ---------------------------------------------------------------------------


def segment_files(directory: str | Path) -> list[Path]:
    """The directory's journal segments, in rotation order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        path
        for path in directory.iterdir()
        if path.name.startswith(SEGMENT_PREFIX) and path.name.endswith(SEGMENT_SUFFIX)
    )


def read_segment_dir(
    directory: str | Path,
) -> tuple[list[JournalRecord], list[Truncation]]:
    """Read every whole record in one segment directory.

    Stops at the first torn/corrupt record: everything before it is
    returned, the damage is reported as a :class:`Truncation`, and any
    later segments are ignored (a crash tears only the tail; data after
    a tear cannot be trusted to be causally consistent).
    """
    records: list[JournalRecord] = []
    truncations: list[Truncation] = []
    append = records.append
    for segment in segment_files(directory):
        name = segment.name
        offset = 0
        with segment.open("rb") as handle:
            for line in handle:
                parsed = _parse_line(line)
                if isinstance(parsed, str):
                    truncations.append(Truncation(name, offset, parsed))
                    return records, truncations
                seq, kind, payload = parsed
                end = offset + len(line)
                append(JournalRecord(seq, kind, payload, name, offset, end))
                offset = end
    return records, truncations


class JournalWriter:
    """Append-only checksummed segment writer.

    :param directory: segment directory (created if missing).
    :param segment_max_bytes: rotate to a fresh segment once the current
        one reaches this size.
    :param fsync: when True, ``flush()`` also forces the bytes to disk
        (``os.fsync``) — the durable-commit mode; off by default because
        the simulated crash harness truncates files rather than losing
        page cache.
    :param flush_interval: appends between automatic flushes (group
        commit); 1 flushes every record.
    """

    def __init__(
        self,
        directory: str | Path,
        segment_max_bytes: int = 4_000_000,
        fsync: bool = False,
        flush_interval: int = 64,
    ) -> None:
        if segment_max_bytes < 1:
            raise JournalError("segment_max_bytes must be >= 1")
        if flush_interval < 1:
            raise JournalError("flush_interval must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = segment_max_bytes
        self.fsync = fsync
        self.flush_interval = flush_interval
        self.records_written = 0
        self.bytes_written = 0
        self.segments_rotated = 0
        self._pending: list[bytes] = []
        self._closed = False
        existing = segment_files(self.directory)
        if existing:
            self._segment_index = int(
                existing[-1].name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
            )
            self._segment_path = existing[-1]
            self._segment_bytes = self._segment_path.stat().st_size
            self._handle = self._segment_path.open("ab")
        else:
            self._segment_index = 0
            self._open_segment()

    def _open_segment(self) -> None:
        self._segment_index += 1
        self._segment_path = (
            self.directory
            / f"{SEGMENT_PREFIX}{self._segment_index:06d}{SEGMENT_SUFFIX}"
        )
        self._segment_bytes = 0
        self._handle = self._segment_path.open("ab")

    def append(self, seq: int, kind: str, payload: Any) -> int:
        """Append one record; returns the bytes written."""
        return self.append_frame(_frame(seq, kind, payload))

    def append_frame(self, frame: bytes) -> int:
        """Append one pre-framed record; returns the bytes written.

        Frames accumulate in memory (group commit) and reach the file at
        :meth:`flush` — every ``flush_interval`` appends, on rotation,
        and on close.  Rotation happens *before* the append, so a record
        is never split across segments.
        """
        if self._closed:
            raise JournalError("journal writer is closed")
        size = len(frame)
        if self._segment_bytes and self._segment_bytes + size > self.segment_max_bytes:
            self.flush()
            self._handle.close()
            self.segments_rotated += 1
            self._open_segment()
        pending = self._pending
        pending.append(frame)
        self._segment_bytes += size
        self.bytes_written += size
        self.records_written += 1
        if len(pending) >= self.flush_interval:
            self.flush()
        return size

    def flush(self) -> None:
        """Push buffered frames to the OS (and to disk when ``fsync``)."""
        if self._closed:
            return
        if self._pending:
            self._handle.write(b"".join(self._pending))
            self._pending.clear()
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._closed:
            self.flush()
            self._handle.close()
            self._closed = True


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


class SnapshotStore:
    """Checksummed projection snapshots, keyed by journal sequence.

    A snapshot holds a JSON projection of the journaled state *as of* a
    journal sequence; recovery loads the newest valid one and replays
    only the journal records after it.  A torn or bit-flipped snapshot
    fails its checksum and the store silently falls back to the previous
    one (or to full replay) — a snapshot must never make recovery worse
    than not having one.
    """

    def __init__(self, directory: str | Path, keep: int = 2) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = max(1, keep)

    def _paths(self) -> list[Path]:
        return sorted(self.directory.glob("snapshot-*.json"))

    def save(self, state: dict[str, Any], seq: int) -> Path:
        """Persist ``state`` as the snapshot at journal sequence ``seq``."""
        body = json.dumps(state, sort_keys=True, separators=(",", ":"))
        payload = {
            "schema": SNAPSHOT_SCHEMA,
            "seq": seq,
            "crc": zlib.crc32(body.encode("utf-8")),
            "state": state,
        }
        path = self.directory / f"snapshot-{seq:012d}.json"
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        for stale in self._paths()[: -self.keep]:
            stale.unlink()
        return path

    def load_latest(
        self, max_seq: int | None = None
    ) -> tuple[dict[str, Any], int] | None:
        """Newest valid ``(state, seq)`` with ``seq <= max_seq``, if any."""
        for path in reversed(self._paths()):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if not isinstance(payload, dict):
                continue
            if payload.get("schema") != SNAPSHOT_SCHEMA:
                continue
            state = payload.get("state")
            seq = payload.get("seq")
            if not isinstance(state, dict) or not isinstance(seq, int):
                continue
            body = json.dumps(state, sort_keys=True, separators=(",", ":"))
            if zlib.crc32(body.encode("utf-8")) != payload.get("crc"):
                continue
            if max_seq is not None and seq > max_seq:
                continue
            return state, seq
        return None


# ---------------------------------------------------------------------------
# Kernel wiring: write-ahead journaling sessions
# ---------------------------------------------------------------------------


class _JournalSessionBase:
    """Shared machinery of the single-kernel and sharded sessions."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.snapshots = SnapshotStore(self.directory)
        self.events_journaled = 0
        self.commands_journaled = 0
        self.markers_journaled = 0
        self._next_seq = 0
        self._closed = False

    # subclasses route a frame to the right segment writer
    def _append(self, writer_hint: Any, kind: str, payload: Any) -> int:
        raise NotImplementedError

    def _take_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    @property
    def last_seq(self) -> int:
        """Sequence of the most recently journaled record (-1 when empty)."""
        return self._next_seq - 1

    def log_command(self, command_id: str, op: str, args: dict[str, Any]) -> int:
        """Write-ahead a command *before* executing it; returns its seq.

        This is the exactly-once anchor: a command whose record reached
        the journal is replayed by recovery; one whose record did not is
        re-submitted by the client and deduplicated against the journal.
        """
        payload = {"id": command_id, "op": op, "args": args}
        seq = self._append(None, KIND_COMMAND, payload)
        self.commands_journaled += 1
        return seq

    def mark(self, name: str, data: dict[str, Any]) -> int:
        """Journal an out-of-band durability marker (e.g. registry version)."""
        payload = {"name": name, "data": data}
        seq = self._append(None, KIND_MARKER, payload)
        self.markers_journaled += 1
        return seq

    def mark_registry_version(self, model: Any, **verify_options: Any) -> int:
        """Journal the verification digest of an integration model.

        The incremental-lint cache keys warm verdicts on this digest; by
        journaling it, a recovered hub can prove its persisted
        ``.repro-lint-cache.json`` verdicts still apply (digest equal)
        without re-linting — warm verdicts survive restarts.
        """
        from repro.verify.incremental import verification_digest

        digest, _ = verification_digest(model, verify_options)
        return self.mark(
            "registry_version",
            {
                "model": model.name,
                "digest": digest,
                "transforms_version": model.transforms.version,
            },
        )

    def snapshot(self) -> Path:
        """Persist a projection of the journal at its current position.

        The projection is rebuilt by :func:`repro.runtime.recovery.recover`
        over this session's own directory (prior snapshot + tail), which
        keeps the per-event write path free of projection work *and*
        makes every snapshot a live recovery test: a snapshot that saves
        is a journal that recovers.
        """
        from repro.runtime.recovery import recover  # avoid import cycle

        self.flush()
        recovered = recover(self.directory)
        if recovered.last_seq != self.last_seq:
            raise JournalError(
                f"snapshot recovery saw seq {recovered.last_seq}, "
                f"session wrote through {self.last_seq}"
            )
        return self.snapshots.save(recovered.projector.state(), self.last_seq)

    def flush(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class KernelJournal(_JournalSessionBase):
    """Write-ahead journaling for a single-queue :class:`Kernel`.

    Hooks the kernel bus's ``write_ahead`` seam: every published event is
    framed, checksummed and appended before any observer sees it.  The
    hook does nothing but encode + append — projection happens lazily at
    :meth:`snapshot`/recovery time, keeping durability cost per event to
    the codec and the buffered write.
    """

    def __init__(
        self,
        directory: str | Path,
        kernel: Any,
        segment_max_bytes: int = 4_000_000,
        fsync: bool = False,
        flush_interval: int = 64,
    ) -> None:
        # Refuse before opening anything, so a failed attach leaves no file.
        if kernel.bus.write_ahead is not None:
            raise JournalError("kernel bus already has a write-ahead journal")
        super().__init__(directory)
        self.kernel = kernel
        self.writer = JournalWriter(
            self.directory,
            segment_max_bytes=segment_max_bytes,
            fsync=fsync,
            flush_interval=flush_interval,
        )
        # Bind once: ``self._write_event`` builds a fresh bound method per
        # access, so close() must compare against the exact object installed.
        self._hook = self._write_event
        kernel.bus.write_ahead = self._hook

    def _append(self, writer_hint: Any, kind: str, payload: Any) -> int:
        seq = self._take_seq()
        self.writer.append(seq, kind, payload)
        return seq

    def _write_event(self, event: RuntimeEvent) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        self.events_journaled += 1
        frame = _event_frame(seq, event)
        if frame is None:
            frame = _frame(seq, KIND_EVENT, encode_event(event))
        self.writer.append_frame(frame)

    def flush(self) -> None:
        self.writer.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.kernel.bus.write_ahead is self._hook:
            self.kernel.bus.write_ahead = None
        self.writer.close()


class ShardedJournal(_JournalSessionBase):
    """One journal per shard, stitched by the global submission sequence.

    Each shard's segment bus appends only to that shard's own segment
    directory (``shard-00/``, ``shard-01/``, ...), preserving the
    no-shared-mutable-state property that makes shards independent — but
    every record carries the *global* record sequence, so recovery can
    k-way-merge the per-shard logs back into the exact deterministic
    global order the drain executed.  Commands and markers (hub-level,
    not shard-level) land in shard 0's log.

    Deterministic drain mode only: the parallel drain has no global
    publish order to journal (tracked as future work in ROADMAP).
    """

    def __init__(
        self,
        directory: str | Path,
        kernel: Any,
        segment_max_bytes: int = 4_000_000,
        fsync: bool = False,
        flush_interval: int = 64,
    ) -> None:
        from repro.runtime.sharding import DETERMINISTIC

        if kernel.mode != DETERMINISTIC:
            raise JournalError(
                "ShardedJournal requires deterministic drain mode; the "
                "parallel drain has no global order to journal"
            )
        # Check every shard before opening any writer, so a failed attach
        # leaves no file and no hook behind.
        for shard in kernel.shards:
            if shard.bus.write_ahead is not None:
                raise JournalError(
                    f"shard {shard.index} bus already has a write-ahead journal"
                )
        super().__init__(directory)
        self.kernel = kernel
        self.writers: list[JournalWriter] = []
        self._hooks: list[Callable[[RuntimeEvent], None]] = []
        for shard in kernel.shards:
            writer = JournalWriter(
                self.directory / f"{SHARD_DIR_PREFIX}{shard.index:02d}",
                segment_max_bytes=segment_max_bytes,
                fsync=fsync,
                flush_interval=flush_interval,
            )
            self.writers.append(writer)
            hook = self._make_hook(writer)
            self._hooks.append(hook)
            shard.bus.write_ahead = hook

    def _make_hook(self, writer: JournalWriter) -> Callable[[RuntimeEvent], None]:
        append_frame = writer.append_frame

        def write_event(event: RuntimeEvent) -> None:
            seq = self._next_seq
            self._next_seq = seq + 1
            self.events_journaled += 1
            frame = _event_frame(seq, event)
            if frame is None:
                frame = _frame(seq, KIND_EVENT, encode_event(event))
            append_frame(frame)

        return write_event

    def _append(self, writer_hint: Any, kind: str, payload: Any) -> int:
        seq = self._take_seq()
        self.writers[0].append(seq, kind, payload)
        return seq

    def flush(self) -> None:
        for writer in self.writers:
            writer.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard, hook in zip(self.kernel.shards, self._hooks):
            if shard.bus.write_ahead is hook:
                shard.bus.write_ahead = None
        for writer in self.writers:
            writer.close()


def attach_journal(
    runtime: Any, directory: str | Path, **options: Any
) -> KernelJournal | ShardedJournal:
    """Attach write-ahead journaling to a kernel (sharded or not)."""
    if hasattr(runtime, "shards"):
        return ShardedJournal(directory, runtime, **options)
    return KernelJournal(directory, runtime, **options)
