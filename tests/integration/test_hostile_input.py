"""Hostile partner bytes at the seller hub.

A real PO is captured off the wire of a buyer-seller pair and replayed at
the seller's ``B2BEngine.handle_message``, once per hostile variant, for
two codecs: RosettaNet (the Figure 14 pair) and OAGIS (the same pair
over ``oagis-http``).  Every variant must end as a recorded fault or an
accepted order: none may raise out of the engine, because one untyped
exception would abort the seller's drain for every partner, and none may
leave a conversation open.  A clean order sent afterwards must still be
booked exactly once.

A registered partner is hostile too when it answers on another partner's
conversation: the buyer must record a fault naming both partners and
carry on exactly as in a clean run.
"""

import dataclasses

import pytest

from repro.analysis.scenarios import build_sourcing_community, build_two_enterprise_pair
from repro.core.enterprise import run_community
from repro.partners.agreement import TradingPartnerAgreement
from repro.partners.profile import TradingPartner

LINES = [{"sku": "GPU", "quantity": 2, "unit_price": 900.0, "description": "graphics card"}]
CAPTURED = "PO-CAPTURED"
LINE_NUMBER = "<LineNumber>1</LineNumber>"

# Per protocol, the tags of the captured line's description and quantity.
TARGETS = {
    "rosettanet": ("Description", "OrderedQuantity"),
    "oagis-http": ("ItemDescription", "Quantity"),
}


def _leaf(tag: str, text: str) -> str:
    return f"<{tag}>{text}</{tag}>"


def _description(text: str):
    """A variant that puts ``text`` in the captured line's description."""
    return lambda body, description, quantity: body.replace(
        _leaf(description, "graphics card"), _leaf(description, text)
    )


# Each variant maps (body, description tag, quantity tag) to a new body.
VARIANTS = {
    "bad-reference": _description("&#xZZ;"),
    "out-of-range-reference": _description("&#99999999;"),
    "3000-deep-description": _description("<d>" * 3000 + "</d>" * 3000),
    "line-number-inf": lambda body, description, quantity: body.replace(
        LINE_NUMBER, "<LineNumber>inf</LineNumber>"
    ),
    "line-number-nan": lambda body, description, quantity: body.replace(
        LINE_NUMBER, "<LineNumber>nan</LineNumber>"
    ),
    "truncated": lambda body, description, quantity: body[: len(body) // 2],
    # well-formed XML the codec accepts, but the normalized PO schema
    # rejects (quantity > 0) in the inbound binding
    "negative-quantity": lambda body, description, quantity: body.replace(
        _leaf(quantity, "2.0"), _leaf(quantity, "-2.0")
    ),
    # character references to code points XML 1.0 forbids
    "nul-reference": _description("&#0;"),
    "surrogate-reference": _description("&#xD800;"),
}

# Variants that must end as a fault, never as a booked order.
FAULTS = {"nul-reference", "surrogate-reference", "negative-quantity"}


def capture(protocol: str):
    """A pair over ``protocol`` after one clean order, and that order's PO message."""
    pair = build_two_enterprise_pair(protocol, seller_delay=0.0)
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
    description, quantity = TARGETS[protocol]
    assert _leaf(description, "graphics card") in po.body
    assert LINE_NUMBER in po.body and _leaf(quantity, "2.0") in po.body
    assert pair.seller.backends["Oracle"].has_order(CAPTURED)
    return pair, po


@pytest.fixture
def captured():
    """The RosettaNet pair after one clean order, and that order's PO message."""
    return capture("rosettanet")


# RosettaNet ids are the bare variant names, so they stay stable as codecs are added.
CASES = [(protocol, index, name) for protocol in TARGETS for index, name in enumerate(VARIANTS)]


@pytest.mark.parametrize(
    "protocol, index, name",
    CASES,
    ids=[name if protocol == "rosettanet" else f"{protocol}-{name}" for protocol, _, name in CASES],
)
def test_hostile_variant_is_a_fault_or_an_order(protocol, index, name):
    pair, po = capture(protocol)
    seller = pair.seller.b2b
    oracle = pair.seller.backends["Oracle"]
    po_number = f"PO-HOSTILE-{index}"
    body = po.body.replace(CAPTURED, po_number)
    variant = dataclasses.replace(
        po,
        message_id=f"M-hostile-{index}",
        conversation_id=f"C-hostile-{index}",
        body=VARIANTS[name](body, *TARGETS[protocol]),
    )
    assert variant.body != body
    faults = len(seller.faults)
    seller.handle_message(variant)  # must not raise
    run_community(pair.enterprises())
    faulted = len(seller.faults) == faults + 1
    accepted = oracle.has_order(po_number)
    assert faulted != accepted
    if name in FAULTS:
        assert faulted
    assert seller.open_conversations() == []

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


def _spy(network):
    """Record every message sent on ``network``."""
    sent = []
    send = network.send

    def spy(message):
        sent.append(message)
        send(message)

    network.send = spy
    return sent


def test_partner_cannot_acknowledge_another_partners_order():
    # ACME's genuine POA, captured from a clean run of the same order.
    clean = build_two_enterprise_pair("rosettanet", seller_delay=5.0)
    sent = _spy(clean.network)
    clean.buyer.submit_order("SAP", "ACME", "PO-SPOOF", LINES)
    run_community(clean.enterprises())
    (poa,) = [m for m in sent if m.kind == "business" and m.doc_type == "po_ack"]
    clean_ack = clean.buyer.backends["SAP"].stored_acks["PO-SPOOF"].data
    assert clean_ack["header"]["action"] == "ACC"

    pair = build_two_enterprise_pair("rosettanet", seller_delay=5.0)
    pair.buyer.add_partner(
        TradingPartner("EVIL", protocols=("rosettanet",)),
        [TradingPartnerAgreement("EVIL", "rosettanet", "buyer")],
    )
    buyer = pair.buyer.b2b
    pair.buyer.submit_order("SAP", "ACME", "PO-SPOOF", LINES)
    pair.scheduler.run_until(1.0)  # ACME booked the PO; its POA is 5 s away
    (conversation,) = buyer.open_conversations()
    assert conversation.partner_id == "ACME"
    rejection = (
        poa.body.replace("Code>Accept<", "Code>Reject<")
        .replace("<AcceptedAmount>1800.0<", "<AcceptedAmount>0.0<")
        .replace("<AcceptedQuantity>2.0<", "<AcceptedQuantity>0.0<")
    )
    forged = dataclasses.replace(
        poa,
        message_id="M-evil",
        sender="EVIL",
        conversation_id=conversation.conversation_id,
        body=rejection,
    )
    buyer.handle_message(forged)  # must not raise
    run_community(pair.enterprises())

    assert buyer.faults == [
        {
            "conversation": conversation.conversation_id,
            "message": "M-evil",
            "error": f"partner 'EVIL' sent on conversation "
            f"'{conversation.conversation_id}' of partner 'ACME'",
        }
    ]
    assert conversation.status == "completed"
    assert conversation.documents == ["sent:purchase_order", "received:po_ack"]
    assert pair.seller.backends["Oracle"].has_order("PO-SPOOF")
    assert pair.buyer.backends["SAP"].stored_acks["PO-SPOOF"].data == clean_ack


RFQ_CATALOGS = {
    "ACME": {"GPU": 1500.0, "PSU": 260.0},
    "GLOBEX": {"GPU": 1450.0, "PSU": 280.0},
    "INITECH": {"GPU": 1480.0, "PSU": 240.0},
}
RFQ_LINES = [{"sku": "GPU", "quantity": 10}, {"sku": "PSU", "quantity": 10}]


def test_partner_cannot_quote_on_another_partners_conversation():
    # GLOBEX's genuine quote, captured from a clean run of the same RFQ.
    clean = build_sourcing_community(RFQ_CATALOGS)
    sent = _spy(clean.network)
    clean.buyer.submit_rfq(sorted(RFQ_CATALOGS), "RFQ-SPOOF", RFQ_LINES)
    run_community(clean.enterprises())
    (quote,) = [m for m in sent if m.doc_type == "quote" and m.sender == "GLOBEX"]

    community = build_sourcing_community(RFQ_CATALOGS)
    buyer = community.buyer.b2b
    instance_id = community.buyer.submit_rfq(
        sorted(RFQ_CATALOGS), "RFQ-SPOOF", RFQ_LINES
    )
    (acme,) = [c for c in buyer.open_conversations() if c.partner_id == "ACME"]
    lowball = (
        quote.body.replace("<UnitPrice>1450.0<", "<UnitPrice>1.0<")
        .replace("<UnitPrice>280.0<", "<UnitPrice>1.0<")
        .replace("<TotalAmount>17300.0<", "<TotalAmount>20.0<")
    )
    forged = dataclasses.replace(
        quote,
        message_id="M-lowball",
        conversation_id=acme.conversation_id,
        body=lowball,
    )
    buyer.handle_message(forged)  # must not raise
    run_community(community.enterprises())

    assert buyer.faults == [
        {
            "conversation": acme.conversation_id,
            "message": "M-lowball",
            "error": f"partner 'GLOBEX' sent on conversation "
            f"'{acme.conversation_id}' of partner 'ACME'",
        }
    ]
    instance = community.buyer.instance(instance_id)
    assert instance.status == "completed"
    totals = {
        entry["partner_id"]: entry["document"].get("summary.total_amount")
        for entry in instance.variables["quotes"]
    }
    assert totals == {"ACME": 17600.0, "GLOBEX": 17300.0, "INITECH": 17200.0}
    assert instance.variables["chosen_partner"] == "INITECH"
    assert instance.variables["chosen_quote"].get(
        "summary.total_amount"
    ) == pytest.approx(17200.0)
