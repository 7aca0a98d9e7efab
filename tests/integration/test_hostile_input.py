"""Hostile partner bytes at the seller hub.

A real RosettaNet PO is captured off the wire of the Figure 14 pair and
replayed at the seller's ``B2BEngine.handle_message``, once per hostile
variant.  Every variant must end as a recorded fault or an accepted
order: none may raise out of the engine, because one untyped exception
would abort the seller's drain for every partner.  A clean order sent
afterwards must still be booked exactly once.
"""

import dataclasses

import pytest

from repro.analysis.scenarios import build_two_enterprise_pair
from repro.core.enterprise import run_community

LINES = [{"sku": "GPU", "quantity": 2, "unit_price": 900.0, "description": "graphics card"}]
CAPTURED = "PO-CAPTURED"
DESCRIPTION = "<Description>graphics card</Description>"
LINE_NUMBER = "<LineNumber>1</LineNumber>"


def _deep_description(body: str) -> str:
    nested = "<d>" * 3000 + "</d>" * 3000
    return body.replace(DESCRIPTION, f"<Description>{nested}</Description>")


VARIANTS = {
    "bad-reference": lambda body: body.replace(DESCRIPTION, "<Description>&#xZZ;</Description>"),
    "out-of-range-reference": lambda body: body.replace(
        DESCRIPTION, "<Description>&#99999999;</Description>"
    ),
    "3000-deep-description": _deep_description,
    "line-number-inf": lambda body: body.replace(LINE_NUMBER, "<LineNumber>inf</LineNumber>"),
    "line-number-nan": lambda body: body.replace(LINE_NUMBER, "<LineNumber>nan</LineNumber>"),
    "truncated": lambda body: body[: len(body) // 2],
}


@pytest.fixture
def captured():
    """A pair after one clean order, and that order's PO message."""
    pair = build_two_enterprise_pair("rosettanet", seller_delay=0.0)
    sent = []
    send = pair.network.send

    def spy(message):
        sent.append(message)
        send(message)

    pair.network.send = spy
    pair.buyer.submit_order("SAP", "ACME", CAPTURED, LINES)
    run_community(pair.enterprises())
    pair.network.send = send
    (po,) = [m for m in sent if m.kind == "business" and m.doc_type == "purchase_order"]
    assert DESCRIPTION in po.body and LINE_NUMBER in po.body
    assert pair.seller.backends["Oracle"].has_order(CAPTURED)
    return pair, po


@pytest.mark.parametrize("index, name", enumerate(VARIANTS), ids=list(VARIANTS))
def test_hostile_variant_is_a_fault_or_an_order(captured, index, name):
    pair, po = captured
    seller = pair.seller.b2b
    oracle = pair.seller.backends["Oracle"]
    po_number = f"PO-HOSTILE-{index}"
    body = po.body.replace(CAPTURED, po_number)
    variant = dataclasses.replace(
        po,
        message_id=f"M-hostile-{index}",
        conversation_id=f"C-hostile-{index}",
        body=VARIANTS[name](body),
    )
    assert variant.body != body
    faults = len(seller.faults)
    seller.handle_message(variant)  # must not raise
    run_community(pair.enterprises())
    faulted = len(seller.faults) == faults + 1
    accepted = oracle.has_order(po_number)
    assert faulted != accepted

    booked = oracle.order_count()
    pair.buyer.submit_order("SAP", "ACME", "PO-CLEAN", LINES)
    run_community(pair.enterprises())
    assert oracle.has_order("PO-CLEAN")
    assert oracle.order_count() == booked + 1
    assert "PO-CLEAN" in pair.buyer.backends["SAP"].stored_acks


def test_resent_booked_po_under_a_fresh_conversation_is_a_fault(captured):
    # The captured PO again, as a new message in a new conversation: the
    # back end refuses the PO number it already booked.  That must end as
    # a recorded fault and a failed conversation, not an exception.
    pair, po = captured
    seller = pair.seller.b2b
    oracle = pair.seller.backends["Oracle"]
    failed = []
    pair.seller.runtime.subscribe(failed.append, events=["conversation_failed"])
    resent = dataclasses.replace(po, message_id="M-resent", conversation_id="C-resent")
    faults = len(seller.faults)
    booked = oracle.order_count()
    seller.handle_message(resent)  # must not raise
    run_community(pair.enterprises())
    assert len(seller.faults) == faults + 1
    assert seller.faults[-1]["conversation"] == "C-resent"
    assert CAPTURED in seller.faults[-1]["error"]
    assert seller.conversation("C-resent").status == "failed"
    assert [event.conversation_id for event in failed] == ["C-resent"]
    assert seller.open_conversations() == []
    assert oracle.order_count() == booked

    pair.buyer.submit_order("SAP", "ACME", "PO-CLEAN", LINES)
    run_community(pair.enterprises())
    assert oracle.order_count() == booked + 1
    assert "PO-CLEAN" in pair.buyer.backends["SAP"].stored_acks
