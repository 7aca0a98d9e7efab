"""Crash recovery: rebuild hub state from snapshot + journal tail.

The counterpart of :mod:`repro.runtime.journal`.  A journal directory
plus the snapshot store it contains are everything needed to rebuild
the hub's durable state after a crash:

1. read every whole record from the segment files, stopping at the
   first torn/corrupt frame (the checksummed framing makes a mid-append
   crash detectable rather than silently poisonous);
2. keep only the **longest contiguous sequence prefix** — a missing
   segment leaves a gap in the sequence, and any record beyond the gap
   may causally depend on a lost one, so the journal is cut there;
3. load the newest valid snapshot *at or before* the cut and replay
   only the records after it through a :class:`Projector`.

The projector is a pure fold over the journal: a JSON-serializable view
of workflow-instance status, conversation state (which conversations
are mid-exchange and what documents each side has seen), the
reliable-messaging dedup window and the write-ahead command log.
Exactly-once across a crash falls out of the command log: a command
journaled before the crash is re-executed by deterministic replay; one
that never reached the journal is re-submitted by the client; the two
sets are disjoint by construction, so no order is lost and none is
duplicated (asserted end-to-end by :mod:`repro.analysis.crash`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.runtime.events import RuntimeEvent
from repro.runtime.journal import (
    KIND_COMMAND,
    KIND_EVENT,
    JournalRecord,
    SnapshotStore,
    Truncation,
    decode_event,
    read_segment_dir,
)

__all__ = ["Projector", "RecoveredState", "recover"]


class Projector:
    """A deterministic, JSON-serializable fold over the journal.

    Applying the same record sequence always yields the same state, and
    ``state()`` round-trips through JSON — the two properties snapshots
    depend on.  The projection tracks exactly the crash-fragile state:
    the workflow database, conversation state, and reliable-messaging
    dedup windows, plus the command WAL.
    """

    def __init__(self) -> None:
        self.workflows: dict[str, dict[str, Any]] = {}
        self.conversations: dict[str, dict[str, Any]] = {}
        self.dedup: dict[str, list[str]] = {}
        self.commands: dict[str, dict[str, Any]] = {}
        self.command_order: list[str] = []
        self.counters: dict[str, int] = {}
        self.events_applied = 0

    # -- folding ----------------------------------------------------------

    def apply_event(self, event: RuntimeEvent) -> None:
        """Fold one bus event into the projection."""
        self.events_applied += 1
        kind = event.type
        self.counters[kind] = self.counters.get(kind, 0) + 1
        if kind.startswith("instance_"):
            entry = self.workflows.setdefault(
                event.instance_id, {"type": event.type_name, "steps": {}}
            )
            entry["status"] = kind.removeprefix("instance_")
            if kind == "instance_failed":
                entry["error"] = event.error
            elif kind == "instance_cancelled":
                entry["reason"] = event.reason
        elif kind.startswith("step_"):
            entry = self.workflows.setdefault(
                event.instance_id, {"type": "?", "steps": {}}
            )
            status = kind.removeprefix("step_")
            if kind == "step_waiting":
                status = f"waiting:{event.wait_key}"
            entry["steps"][event.step_id] = status
        elif kind == "conversation_started":
            self.conversations[self._conv_key(event)] = {
                "protocol": event.protocol,
                "partner_id": event.partner_id,
                "role": event.role,
                "status": "open",
                "sent": [],
                "received": [],
            }
        elif kind in ("conversation_completed", "conversation_failed"):
            entry = self._conversation(event)
            entry["status"] = kind.removeprefix("conversation_")
            if kind == "conversation_failed":
                entry["reason"] = event.reason
        elif kind == "document_sent":
            self._conversation(event)["sent"].append(event.doc_type)
        elif kind == "document_received":
            self._conversation(event)["received"].append(event.doc_type)
        elif kind == "message_delivered" and event.kind == "business":
            # Only business deliveries enter an endpoint's at-most-once
            # window (acks are correlated, never deduplicated), so only
            # they belong in the recovered dedup state.
            seen = self.dedup.setdefault(event.receiver, [])
            if event.message_id not in seen:
                seen.append(event.message_id)

    def _conv_key(self, event: RuntimeEvent) -> str:
        # Both sides of a pair publish on one bus; the emitting engine's
        # name (event.source) disambiguates the two halves of a
        # conversation that share an id.
        return f"{event.source}:{event.conversation_id}"

    def _conversation(self, event: RuntimeEvent) -> dict[str, Any]:
        key = f"{event.source}:{event.conversation_id}"
        entry = self.conversations.get(key)
        if entry is None:
            entry = {
                "protocol": "?",
                "partner_id": getattr(event, "partner_id", "?"),
                "role": "?",
                "status": "open",
                "sent": [],
                "received": [],
            }
            self.conversations[key] = entry
        return entry

    def apply_command(self, payload: dict[str, Any]) -> None:
        """Fold one write-ahead command record."""
        command_id = payload["id"]
        if command_id not in self.commands:
            self.command_order.append(command_id)
        self.commands[command_id] = {"op": payload["op"], "args": payload["args"]}

    # -- snapshot round-trip ----------------------------------------------

    def state(self) -> dict[str, Any]:
        """The projection as a JSON-serializable dict (snapshot payload)."""
        return {
            "workflows": self.workflows,
            "conversations": self.conversations,
            "dedup": self.dedup,
            "commands": self.commands,
            "command_order": self.command_order,
            "counters": self.counters,
            "events_applied": self.events_applied,
        }

    def load(self, state: dict[str, Any]) -> None:
        """Restore the projection from a snapshot payload (deep-copied)."""
        state = json.loads(json.dumps(state))
        self.workflows = state.get("workflows", {})
        self.conversations = state.get("conversations", {})
        self.dedup = state.get("dedup", {})
        self.commands = state.get("commands", {})
        self.command_order = state.get("command_order", [])
        self.counters = state.get("counters", {})
        self.events_applied = state.get("events_applied", 0)

    # -- queries ----------------------------------------------------------

    def command_ids(self) -> set[str]:
        """Ids of every write-ahead command that reached the journal."""
        return set(self.commands)

    def open_conversations(self) -> list[str]:
        """Keys of conversations that were mid-exchange at the crash."""
        return sorted(
            key
            for key, entry in self.conversations.items()
            if entry.get("status") == "open"
        )

    def received_documents(self) -> dict[str, int]:
        """Conversation key -> count of documents received (dup detector)."""
        return {
            key: len(entry.get("received", []))
            for key, entry in self.conversations.items()
        }

    def dedup_ids(self, receiver: str) -> list[str]:
        """Delivered message ids for ``receiver`` (restores its dedup window)."""
        return list(self.dedup.get(receiver, []))


@dataclass
class RecoveredState:
    """Everything :func:`recover` learned from a journal directory."""

    directory: Path
    projector: Projector
    records: list[JournalRecord] = field(default_factory=list)
    truncations: list[Truncation] = field(default_factory=list)
    dropped_records: int = 0
    snapshot_seq: int = -1
    replayed: int = 0

    @property
    def last_seq(self) -> int:
        """Highest recovered record sequence (-1 for an empty journal)."""
        return self.records[-1].seq if self.records else -1

    def events(self) -> Iterator[RuntimeEvent]:
        """Decoded bus events, in global deterministic order."""
        for record in self.records:
            if record.kind == KIND_EVENT:
                yield decode_event(record.payload)

    def commands(self) -> list[dict[str, Any]]:
        """Write-ahead command payloads, in journal order."""
        return [
            record.payload for record in self.records if record.kind == KIND_COMMAND
        ]

    def describe(self) -> str:
        """One human-readable recovery summary line."""
        parts = [
            f"recovered {len(self.records)} records (last seq {self.last_seq})",
            f"snapshot@{self.snapshot_seq}" if self.snapshot_seq >= 0 else "no snapshot",
            f"replayed {self.replayed}",
        ]
        if self.dropped_records:
            parts.append(f"dropped {self.dropped_records} past seq gap")
        if self.truncations:
            cut = self.truncations[0]
            parts.append(f"truncated {cut.segment}@{cut.offset}: {cut.reason}")
        return ", ".join(parts)


def recover(directory: str | Path) -> RecoveredState:
    """Rebuild durable state from a journal directory.

    Only the longest contiguous sequence prefix is kept (see module
    docstring), and the newest valid snapshot at or before the cut seeds
    the projector so only the tail is replayed.
    """
    directory = Path(directory)
    records, truncations = read_segment_dir(directory)

    kept: list[JournalRecord] = []
    for record in records:
        if record.seq != len(kept):
            break
        kept.append(record)
    dropped = len(records) - len(kept)

    projector = Projector()
    snapshot_seq = -1
    loaded = SnapshotStore(directory).load_latest(
        max_seq=kept[-1].seq if kept else -1
    )
    if loaded is not None:
        state, snapshot_seq = loaded
        projector.load(state)

    replayed = 0
    for record in kept:
        if record.seq <= snapshot_seq:
            continue
        if record.kind == KIND_EVENT:
            projector.apply_event(decode_event(record.payload))
        elif record.kind == KIND_COMMAND:
            projector.apply_command(record.payload)
        replayed += 1

    return RecoveredState(
        directory=directory,
        projector=projector,
        records=kept,
        truncations=truncations,
        dropped_records=dropped,
        snapshot_seq=snapshot_seq,
        replayed=replayed,
    )
