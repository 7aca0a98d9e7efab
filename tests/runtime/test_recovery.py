"""Recovery tests: prefix replay, snapshot stitching, sequence-gap cut."""

import shutil

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    ConversationStarted,
    DocumentReceived,
    DocumentSent,
    Kernel,
    MessageDelivered,
    attach_journal,
    recover,
)
from repro.runtime.journal import segment_files

# -- workload --------------------------------------------------------------

CONVERSATIONS = ("C-1", "C-2", "C-3")
PARTNERS = ("acme", "initech")
DOC_TYPES = ("purchase_order", "po_ack", "invoice")


def apply_operation(kernel, journal, operation) -> None:
    """Replay one generated operation against a journaled kernel."""
    tag, conversation, doc_type, partner = operation
    if tag == "start":
        kernel.emit(
            ConversationStarted, "hub",
            conversation_id=conversation, protocol="rnif",
            partner_id=partner, role="buyer",
        )
    elif tag == "send":
        kernel.emit(
            DocumentSent, "hub",
            conversation_id=conversation, doc_type=doc_type,
            partner_id=partner,
        )
    elif tag == "receive":
        kernel.emit(
            DocumentReceived, "hub",
            conversation_id=conversation, doc_type=doc_type,
            partner_id=partner,
        )
    elif tag == "deliver":
        kernel.emit(
            MessageDelivered, "hub",
            message_id=f"msg-{conversation}-{doc_type}", sender="hub",
            receiver=partner, kind="business",
        )
    else:  # command
        journal.log_command(
            f"cmd-{conversation}", "submit_order",
            {"po_number": conversation, "partner": partner},
        )


operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["start", "send", "receive", "deliver", "command"]
        ),
        st.sampled_from(CONVERSATIONS),
        st.sampled_from(DOC_TYPES),
        st.sampled_from(PARTNERS),
    ),
    min_size=1,
    max_size=40,
)


def write_journal(directory, ops, kernel=None):
    kernel = kernel if kernel is not None else Kernel()
    journal = attach_journal(kernel, directory, flush_interval=1)
    for operation in ops:
        apply_operation(kernel, journal, operation)
    journal.close()
    return journal


def record_keys(recovered):
    return [(r.seq, r.kind, r.payload) for r in recovered.records]


# -- the prefix property ---------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(ops=operations, cut=st.floats(min_value=0.0, max_value=1.0))
def test_replay_of_any_journal_prefix_is_a_prefix_of_the_full_run(
    tmp_path_factory, ops, cut
):
    """Truncating the log at *any* byte yields a prefix of the full replay.

    This is the recovery contract the crash harness leans on: no torn
    tail can ever produce state the uncrashed run would not have passed
    through."""
    base = tmp_path_factory.mktemp("prefix")
    full_dir = base / "full"
    write_journal(full_dir, ops)
    full = recover(full_dir)
    assert full.replayed == len(ops)

    cut_dir = base / "cut"
    shutil.copytree(full_dir, cut_dir)
    (segment,) = segment_files(cut_dir)
    blob = segment.read_bytes()
    offset = int(cut * len(blob))
    segment.write_bytes(blob[:offset])

    partial = recover(cut_dir)
    kept = len(partial.records)
    assert record_keys(partial) == record_keys(full)[:kept]

    # The projection over the prefix equals a fresh run of that prefix.
    replay_dir = base / "replay"
    write_journal(replay_dir, ops[:kept])
    assert partial.projector.state() == recover(replay_dir).projector.state()
    shutil.rmtree(base, ignore_errors=True)


# -- snapshot + tail stitching ---------------------------------------------


def test_snapshot_plus_tail_equals_full_replay(tmp_path):
    ops = [
        ("start", "C-1", "purchase_order", "acme"),
        ("command", "C-1", "purchase_order", "acme"),
        ("send", "C-1", "purchase_order", "acme"),
    ]
    tail = [
        ("receive", "C-1", "po_ack", "acme"),
        ("deliver", "C-1", "po_ack", "acme"),
        ("command", "C-2", "purchase_order", "initech"),
    ]
    kernel = Kernel()
    journal = attach_journal(kernel, tmp_path, flush_interval=1)
    for operation in ops:
        apply_operation(kernel, journal, operation)
    journal.snapshot()
    for operation in tail:
        apply_operation(kernel, journal, operation)
    journal.close()

    recovered = recover(tmp_path)
    assert recovered.snapshot_seq == len(ops) - 1
    assert recovered.replayed == len(tail)  # only the tail is re-folded
    assert len(recovered.records) == len(ops) + len(tail)

    # Stitched state == state of a journal that never snapshotted.
    flat_dir = tmp_path / "flat"
    write_journal(flat_dir, ops + tail)
    assert recovered.projector.state() == recover(flat_dir).projector.state()


def test_projection_queries_surface_crash_fragile_state(tmp_path):
    ops = [
        ("start", "C-1", "purchase_order", "acme"),
        ("start", "C-2", "purchase_order", "initech"),
        ("receive", "C-1", "purchase_order", "acme"),
        ("deliver", "C-1", "purchase_order", "acme"),
        ("command", "C-1", "purchase_order", "acme"),
    ]
    write_journal(tmp_path, ops)
    projector = recover(tmp_path).projector
    assert projector.open_conversations() == ["hub:C-1", "hub:C-2"]
    assert projector.received_documents()["hub:C-1"] == 1
    assert projector.dedup_ids("acme") == ["msg-C-1-purchase_order"]
    assert projector.command_ids() == {"cmd-C-1"}


# -- sequence gap ----------------------------------------------------------


def test_missing_segment_cuts_at_longest_contiguous_prefix(tmp_path):
    kernel = Kernel()
    journal = attach_journal(
        kernel, tmp_path, segment_max_bytes=400, flush_interval=1
    )
    for index in range(30):
        kernel.emit(
            DocumentReceived, "hub",
            conversation_id=f"C-{index}", doc_type="purchase_order",
            partner_id="acme",
        )
    journal.close()
    segments = segment_files(tmp_path)
    assert len(segments) >= 3
    per_segment = [len(segment.read_bytes().splitlines()) for segment in segments]
    full = recover(tmp_path)
    assert len(full.records) == sum(per_segment) == 30

    # A lost middle segment leaves a gap in the sequence: every record
    # past it may depend on a lost one, so recovery cuts at the gap even
    # though the later segments are whole.
    segments[1].unlink()
    recovered = recover(tmp_path)
    assert record_keys(recovered) == record_keys(full)[: per_segment[0]]
    assert recovered.dropped_records == sum(per_segment[2:])
    assert recovered.truncations == []
