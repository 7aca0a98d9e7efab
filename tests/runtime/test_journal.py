"""Unit tests for the append-only journal: framing, rotation, snapshots."""

import dataclasses
import json
import zlib

import pytest

from repro.runtime import DocumentReceived, Kernel, MessageSent, attach_journal, recover
from repro.runtime.journal import (
    _EVENT_CLASSES,
    _encode_json,
    _event_frame,
    _frame,
    _parse_line,
    JournalError,
    JournalWriter,
    KIND_COMMAND,
    KIND_EVENT,
    SnapshotStore,
    decode_event,
    encode_event,
    read_segment_dir,
    segment_files,
)

SAMPLE_VALUES = {"str": "value-01", "float": 12.5, "int": 7}


def sample_event(cls):
    """One instance of ``cls`` with annotation-typed field values."""
    kwargs = {
        spec.name: SAMPLE_VALUES[spec.type]
        for spec in dataclasses.fields(cls)
    }
    return cls(**kwargs)


ALL_CLASSES = sorted(_EVENT_CLASSES.values(), key=lambda cls: cls.type)


class TestEventCodec:
    @pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda cls: cls.type)
    def test_round_trip_every_event_class(self, cls):
        event = sample_event(cls)
        payload = encode_event(event)
        assert payload[0] == cls.type
        assert decode_event(payload) == event

    def test_unregistered_event_type_is_rejected(self):
        class Rogue:
            type = "rogue"

        with pytest.raises(JournalError, match="unregistered"):
            encode_event(Rogue())
        with pytest.raises(JournalError, match="unknown"):
            decode_event(["rogue", 0.0, "src"])


class TestFraming:
    @pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda cls: cls.type)
    def test_fused_framer_matches_generic_path(self, cls):
        """The codegen framer must be byte-identical to the encoder path."""
        event = sample_event(cls)
        fused = _event_frame(41, event)
        generic = _frame(41, KIND_EVENT, encode_event(event))
        assert fused == generic

    @pytest.mark.parametrize(
        "value",
        ['quote"inside', "back\\slash", "unié", "\n", float("nan"),
         float("inf"), {"nested": 1}, ["nested"]],
    )
    def test_fast_body_punts_unsafe_values_to_the_encoder(self, value):
        """Values no per-class framer inlines (escapes, non-ASCII,
        non-finite floats, containers) frame as the JSON encoder's bytes."""
        payload = ["x", value]
        body = _encode_json(payload).encode("utf-8")
        frame = _frame(3, KIND_EVENT, payload)
        assert frame == b"3 event %d %08x %s\n" % (len(body), zlib.crc32(body), body)
        seq, kind, parsed = _parse_line(frame)
        assert (seq, kind) == (3, KIND_EVENT)
        # NaN != NaN, so compare the decoded payload by its encoding
        assert _encode_json(parsed) == _encode_json(payload)

    def test_fused_framer_punts_surprise_field_types(self):
        # A str-annotated field holding None must fall back, not crash.
        event = DocumentReceived(
            at=1.0, source="hub", conversation_id=None,
            doc_type="po", partner_id="p",
        )
        assert _event_frame(0, event) is None
        # Non-finite floats likewise.
        event = MessageSent(
            at=float("nan"), source="hub", message_id="m", sender="a",
            receiver="b", kind="business", protocol="rnif", doc_type="po",
        )
        assert _event_frame(0, event) is None

    def test_frame_parse_round_trip(self):
        frame = _frame(12, KIND_COMMAND, {"id": "PO-1", "op": "submit", "args": {}})
        seq, kind, payload = _parse_line(frame)
        assert (seq, kind) == (12, KIND_COMMAND)
        assert payload == {"args": {}, "id": "PO-1", "op": "submit"}

    def test_parse_rejects_damage(self):
        good = _frame(0, KIND_EVENT, ["x", 1])
        assert _parse_line(good[:-5]) == "torn record (no terminator)"
        assert _parse_line(b"junk\n") == "malformed header"
        assert "unknown record kind" in _parse_line(b"0 bogus 1 00000000 x\n")
        flipped = bytearray(good)
        flipped[-3] ^= 0xFF
        assert _parse_line(bytes(flipped)) == "checksum mismatch"
        # Valid checksum over a non-JSON body.
        body = b"not json"
        bad = b"0 event %d %08x %s\n" % (len(body), zlib.crc32(body), body)
        assert _parse_line(bad) == "unparseable payload"


class TestJournalWriter:
    def test_rotation_round_trip(self, tmp_path):
        writer = JournalWriter(tmp_path, segment_max_bytes=200, flush_interval=1)
        for seq in range(50):
            writer.append(seq, KIND_EVENT, ["tick", float(seq), f"src-{seq}"])
        writer.close()
        segments = segment_files(tmp_path)
        assert len(segments) > 1
        assert writer.segments_rotated == len(segments) - 1
        records, truncations = read_segment_dir(tmp_path)
        assert not truncations
        assert [record.seq for record in records] == list(range(50))
        assert [record.payload[1] for record in records] == [
            float(seq) for seq in range(50)
        ]

    def test_record_never_splits_across_segments(self, tmp_path):
        writer = JournalWriter(tmp_path, segment_max_bytes=120, flush_interval=1)
        for seq in range(30):
            writer.append(seq, KIND_EVENT, ["padded", "x" * 40])
        writer.close()
        for segment in segment_files(tmp_path):
            for line in segment.read_bytes().splitlines(keepends=True):
                assert not isinstance(_parse_line(line), str)

    def test_group_commit_buffers_until_flush(self, tmp_path):
        writer = JournalWriter(tmp_path, flush_interval=64)
        writer.append(0, KIND_EVENT, ["x"])
        segment = segment_files(tmp_path)[0]
        assert segment.stat().st_size == 0  # still buffered
        writer.flush()
        assert segment.stat().st_size > 0
        writer.close()

    def test_directory_with_segments_is_refused(self, tmp_path):
        writer = JournalWriter(tmp_path, flush_interval=1)
        writer.append(0, KIND_EVENT, ["first"])
        writer.close()
        before = segment_files(tmp_path)[0].read_bytes()
        with pytest.raises(JournalError, match="already holds journal segments"):
            JournalWriter(tmp_path, flush_interval=1)
        assert segment_files(tmp_path) == [tmp_path / "segment-000001.jrnl"]
        assert segment_files(tmp_path)[0].read_bytes() == before

    def test_closed_writer_rejects_appends(self, tmp_path):
        writer = JournalWriter(tmp_path)
        writer.close()
        with pytest.raises(JournalError, match="closed"):
            writer.append(0, KIND_EVENT, ["x"])

    def test_corrupt_tail_truncates_at_last_whole_record(self, tmp_path):
        writer = JournalWriter(tmp_path, flush_interval=1)
        for seq in range(10):
            writer.append(seq, KIND_EVENT, ["tick", seq])
        writer.close()
        segment = segment_files(tmp_path)[0]
        data = bytearray(segment.read_bytes())
        data[-4] ^= 0xFF  # bit-rot inside the final frame
        segment.write_bytes(data)
        records, truncations = read_segment_dir(tmp_path)
        assert [record.seq for record in records] == list(range(9))
        assert len(truncations) == 1
        assert truncations[0].reason == "checksum mismatch"

    def test_data_after_a_tear_is_not_trusted(self, tmp_path):
        writer = JournalWriter(tmp_path, flush_interval=1)
        for seq in range(6):
            writer.append(seq, KIND_EVENT, ["tick", seq])
        writer.close()
        segment = segment_files(tmp_path)[0]
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][: len(lines[2]) // 2] + b"\n"  # torn mid-file
        segment.write_bytes(b"".join(lines))
        records, truncations = read_segment_dir(tmp_path)
        assert [record.seq for record in records] == [0, 1]
        assert truncations


class TestSnapshotStore:
    def test_save_load_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save({"counters": {"tick": 3}}, seq=41)
        state, seq = store.load_latest()
        assert seq == 41
        assert state == {"counters": {"tick": 3}}

    def test_keep_prunes_old_snapshots(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for seq in (10, 20, 30):
            store.save({"seq": seq}, seq=seq)
        assert len(sorted(tmp_path.glob("snapshot-*.json"))) == 2
        _, seq = store.load_latest()
        assert seq == 30

    def test_torn_snapshot_falls_back_to_previous(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=3)
        store.save({"seq": 10}, seq=10)
        newest = store.save({"seq": 20}, seq=20)
        blob = newest.read_bytes()
        newest.write_bytes(blob[: len(blob) // 2])
        state, seq = store.load_latest()
        assert seq == 10 and state == {"seq": 10}

    def test_max_seq_skips_snapshots_past_the_cut(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=3)
        store.save({"seq": 10}, seq=10)
        store.save({"seq": 20}, seq=20)
        _, seq = store.load_latest(max_seq=15)
        assert seq == 10
        assert store.load_latest(max_seq=5) is None

    def test_bit_flip_fails_the_snapshot_checksum(self, tmp_path):
        store = SnapshotStore(tmp_path)
        path = store.save({"balance": 100}, seq=5)
        payload = json.loads(path.read_text())
        payload["state"]["balance"] = 999  # tampered, crc now stale
        path.write_text(json.dumps(payload))
        assert store.load_latest() is None


class TestKernelJournalSession:
    def test_write_ahead_hook_is_exclusive_and_detaches_on_close(self, tmp_path):
        kernel = Kernel()
        journal = attach_journal(kernel, tmp_path)
        with pytest.raises(JournalError, match="already has"):
            attach_journal(kernel, tmp_path / "other")
        journal.close()
        assert kernel.bus.write_ahead is None
        kernel2 = Kernel()
        reattached = attach_journal(kernel2, tmp_path / "other")
        reattached.close()

    def test_refused_attach_creates_no_file(self, tmp_path):
        kernel = Kernel()
        journal = attach_journal(kernel, tmp_path / "first")
        refused = tmp_path / "refused"
        with pytest.raises(JournalError, match="already has"):
            attach_journal(kernel, refused)
        journal.close()
        assert not refused.exists() or not any(refused.rglob("*"))

    def test_reattaching_to_a_used_directory_is_refused(self, tmp_path):
        # Sequence numbers restart at 0 per session, so a second session
        # appended to the first one's segments would be cut off by
        # recovery at the sequence gap: refuse it before it writes.
        def session(kernel):
            journal = attach_journal(kernel, tmp_path, flush_interval=1)
            for index in range(5):
                kernel.emit(
                    DocumentReceived, "hub",
                    conversation_id=f"C-{index}", doc_type="po", partner_id="p",
                )
            journal.close()

        session(Kernel())
        before = {path: path.read_bytes() for path in tmp_path.rglob("*")}
        kernel = Kernel()
        with pytest.raises(JournalError, match="already holds journal segments"):
            session(kernel)
        assert kernel.bus.write_ahead is None
        assert {path: path.read_bytes() for path in tmp_path.rglob("*")} == before
        recovered = recover(tmp_path)
        assert len(recovered.records) == 5
        assert recovered.dropped_records == 0

    def test_events_and_commands_share_one_sequence(self, tmp_path):
        kernel = Kernel()
        journal = attach_journal(kernel, tmp_path, flush_interval=1)
        journal.log_command("PO-1", "submit", {"po_number": "PO-1"})
        kernel.emit(
            DocumentReceived, "hub",
            conversation_id="C-1", doc_type="po", partner_id="p-1",
        )
        journal.log_command("PO-2", "submit", {"po_number": "PO-2"})
        journal.close()
        records, _ = read_segment_dir(tmp_path)
        assert [(record.seq, record.kind) for record in records] == [
            (0, "command"), (1, "event"), (2, "command"),
        ]
        assert journal.events_journaled == 1
        assert journal.commands_journaled == 2

    def test_a_marker_record_reads_as_a_truncation(self, tmp_path):
        # Journals written before marker records were retired may hold
        # one; recovery keeps everything before it and cuts there.
        writer = JournalWriter(tmp_path, flush_interval=1)
        writer.append(0, KIND_EVENT, ["tick"])
        writer.close()
        body = b'{"data":{},"name":"registry_version"}'
        frame = b"1 marker %d %08x %s\n" % (len(body), zlib.crc32(body), body)
        with segment_files(tmp_path)[0].open("ab") as handle:
            handle.write(frame)
        records, truncations = read_segment_dir(tmp_path)
        assert [record.seq for record in records] == [0]
        assert truncations[0].reason == "unknown record kind 'marker'"

    def test_snapshot_validates_its_own_recovery(self, tmp_path):
        kernel = Kernel()
        journal = attach_journal(kernel, tmp_path)
        for index in range(20):
            kernel.emit(
                DocumentReceived, "hub",
                conversation_id=f"C-{index}", doc_type="po", partner_id="p",
            )
        path = journal.snapshot()
        journal.close()
        assert path.exists()
        state, seq = SnapshotStore(tmp_path).load_latest()
        assert seq == journal.last_seq
        assert state["counters"]["document_received"] == 20
