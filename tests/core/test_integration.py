"""Tests for the integration model and B2B engine wiring."""

import pytest

from repro.analysis.scenarios import build_two_enterprise_pair
from repro.b2b.protocol import get_protocol
from repro.core.enterprise import run_community
from repro.core.integration import IntegrationModel
from repro.core.private_process import seller_po_process
from repro.documents import rosettanet
from repro.documents.normalized import make_purchase_order
from repro.errors import IntegrationError
from repro.messaging.envelope import Message
from repro.runtime import ConversationFailed

LINES = [{"sku": "LAPTOP", "quantity": 2, "unit_price": 1000.0}]


class TestIntegrationModel:
    @pytest.fixture
    def model(self):
        model = IntegrationModel("ACME")
        model.add_private_process(seller_po_process())
        return model

    def test_requires_name(self):
        with pytest.raises(IntegrationError):
            IntegrationModel("")

    def test_add_protocol_creates_routes_and_bindings(self, model):
        model.add_protocol(get_protocol("rosettanet"), "private-po-seller")
        route = model.route("rosettanet", "seller")
        assert route.public_process == "rosettanet/3a4/seller"
        assert route.binding == "rosettanet/seller-binding"
        assert route.private_process == "private-po-seller"
        assert len(model.public_processes) == 2
        assert len(model.bindings) == 2

    def test_protocol_needs_registered_private_process(self, model):
        with pytest.raises(IntegrationError):
            model.add_protocol(get_protocol("rosettanet"), "ghost-process")

    def test_duplicate_protocol_rejected(self, model):
        model.add_protocol(get_protocol("rosettanet"), "private-po-seller")
        with pytest.raises(IntegrationError):
            model.add_protocol(get_protocol("rosettanet"), "private-po-seller")

    def test_remove_protocol_cleans_up(self, model):
        model.add_protocol(get_protocol("rosettanet"), "private-po-seller")
        model.remove_protocol("rosettanet")
        assert model.public_processes == {}
        assert model.bindings == {}
        with pytest.raises(IntegrationError):
            model.route("rosettanet", "seller")

    def test_add_application_creates_binding(self, model):
        model.add_application("SAP", "sap-idoc", "private-po-seller")
        binding = model.app_binding("SAP")
        assert binding.application == "SAP"
        assert model.applications == {"SAP": "sap-idoc"}

    def test_duplicate_application_rejected(self, model):
        model.add_application("SAP", "sap-idoc", "private-po-seller")
        with pytest.raises(IntegrationError):
            model.add_application("SAP", "sap-idoc", "private-po-seller")

    def test_missing_route_raises(self, model):
        with pytest.raises(IntegrationError):
            model.route("rosettanet", "buyer")

    def test_duplicate_private_process_rejected(self, model):
        with pytest.raises(IntegrationError):
            model.add_private_process(seller_po_process())


class TestB2BEngineGuards:
    """Fault handling: malformed, unauthorized and unknown traffic."""

    @pytest.fixture
    def pair(self):
        return build_two_enterprise_pair("rosettanet", seller_delay=0.0)

    def _wire_po(self, pair):
        from repro.documents.normalized import make_purchase_order
        from repro.documents import rosettanet

        po = make_purchase_order("PO-X", "TP1", "ACME", LINES)
        return rosettanet.to_wire(pair.buyer.model.transforms.transform(po, "rosettanet-xml"))

    def test_garbage_body_recorded_as_fault(self, pair):
        message = Message(
            message_id="M-bad", sender="TP1", receiver="ACME",
            protocol="rosettanet", doc_type="purchase_order",
            body="<notxml", conversation_id="C-bad",
        )
        pair.seller.b2b.handle_message(message)
        assert len(pair.seller.b2b.faults) == 1
        assert pair.seller.b2b.conversations == {}

    def test_unknown_sender_recorded_as_fault(self, pair):
        message = Message(
            message_id="M-stranger", sender="MALLORY", receiver="ACME",
            protocol="rosettanet", doc_type="purchase_order",
            body=self._wire_po(pair), conversation_id="C-s",
        )
        pair.seller.b2b.handle_message(message)
        assert len(pair.seller.b2b.faults) == 1

    def test_undeployed_protocol_recorded_as_fault(self, pair):
        message = Message(
            message_id="M-proto", sender="TP1", receiver="ACME",
            protocol="oagis-http", doc_type="purchase_order",
            body="<ProcessPurchaseOrder/>", conversation_id="C-p",
        )
        pair.seller.b2b.handle_message(message)
        assert len(pair.seller.b2b.faults) == 1

    def test_no_agreement_recorded_as_fault(self, pair):
        # TP1 is known to the seller only as a *seller-side* counterparty;
        # suspend the agreement and the PO must be refused.
        pair.seller.model.partners.find_agreement("TP1").suspend()
        message = Message(
            message_id="M-agr", sender="TP1", receiver="ACME",
            protocol="rosettanet", doc_type="purchase_order",
            body=self._wire_po(pair), conversation_id="C-a",
        )
        pair.seller.b2b.handle_message(message)
        assert len(pair.seller.b2b.faults) == 1

    def test_acks_ignored_by_engine(self, pair):
        ack = Message(
            message_id="A1", sender="TP1", receiver="ACME",
            kind="ack", correlation_id="M1",
        )
        pair.seller.b2b.handle_message(ack)
        assert pair.seller.b2b.messages_received == 0

    def test_unknown_conversation_dispatch_rejected(self, pair):
        from repro.documents.normalized import make_purchase_order

        po = make_purchase_order("PO-X", "TP1", "ACME", LINES)
        with pytest.raises(IntegrationError):
            pair.buyer.b2b.dispatch_outbound("CONV-ghost", po)

    def test_start_conversation_requires_agreement(self, pair):
        from repro.documents.normalized import make_purchase_order
        from repro.errors import AgreementError

        po = make_purchase_order("PO-X", "ACME", "TP1", LINES)
        with pytest.raises(AgreementError):
            pair.seller.b2b.start_conversation("TP1", po)  # seller has no buyer role


class TestConversationLifecycle:
    def test_conversation_ids_flow_end_to_end(self):
        pair = build_two_enterprise_pair("rosettanet", seller_delay=0.0)
        pair.buyer.submit_order("SAP", "ACME", "PO-C1", LINES)
        run_community(pair.enterprises())
        buyer_convs = list(pair.buyer.b2b.conversations.values())
        seller_convs = list(pair.seller.b2b.conversations.values())
        assert len(buyer_convs) == len(seller_convs) == 1
        assert buyer_convs[0].conversation_id == seller_convs[0].conversation_id
        assert buyer_convs[0].role == "buyer"
        assert seller_convs[0].role == "seller"
        assert buyer_convs[0].status == seller_convs[0].status == "completed"

    def test_conversation_document_trace(self):
        pair = build_two_enterprise_pair("rosettanet", seller_delay=0.0)
        pair.buyer.submit_order("SAP", "ACME", "PO-C2", LINES)
        run_community(pair.enterprises())
        buyer_conv = next(iter(pair.buyer.b2b.conversations.values()))
        assert buyer_conv.documents == ["sent:purchase_order", "received:po_ack"]
        seller_conv = next(iter(pair.seller.b2b.conversations.values()))
        assert seller_conv.documents == ["received:purchase_order", "sent:po_ack"]

    def test_unexpected_document_type_fails_the_open_conversation(self):
        pair = build_two_enterprise_pair("rosettanet", seller_delay=5.0)
        buyer = pair.buyer.b2b
        failed = []
        pair.runtime.subscribe(failed.append, events=[ConversationFailed])
        pair.buyer.submit_order("SAP", "ACME", "PO-U", LINES)
        (conversation,) = buyer.open_conversations()
        # ACME answers the open PO conversation with a purchase order where
        # the buyer's public process expects the PO acknowledgement.
        po = make_purchase_order("PO-U", "TP1", "ACME", LINES)
        message = Message(
            message_id="M-unexpected", sender="ACME", receiver="TP1",
            protocol="rosettanet", doc_type="purchase_order",
            body=rosettanet.to_wire(buyer.model.transforms.transform(po, "rosettanet-xml")),
            conversation_id=conversation.conversation_id,
        )
        buyer.handle_message(message)  # must not raise
        (fault,) = buyer.faults
        assert fault["conversation"] == conversation.conversation_id
        assert fault["message"] == "M-unexpected"
        assert "expected receive[po_ack]" in fault["error"]
        assert conversation.status == "failed"
        assert conversation.fault == fault["error"]
        assert buyer.open_conversations() == []
        assert [(event.conversation_id, event.reason) for event in failed] == [
            (conversation.conversation_id, fault["error"])
        ]

    def test_open_conversations_query(self):
        pair = build_two_enterprise_pair("rosettanet", seller_delay=5.0)
        pair.buyer.submit_order("SAP", "ACME", "PO-C3", LINES)
        # before the community runs, the buyer conversation is open
        assert len(pair.buyer.b2b.open_conversations()) == 1
        run_community(pair.enterprises())
        assert pair.buyer.b2b.open_conversations() == []

    @staticmethod
    def _status_checks_for_one_more_order(completed_before: int) -> int:
        """``_after_advance`` calls, on both sides, for one order sent after
        ``completed_before`` completed ones."""
        pair = build_two_enterprise_pair("rosettanet", seller_delay=0.0)
        for index in range(completed_before):
            pair.buyer.submit_order("SAP", "ACME", f"PO-H{index}", LINES)
            run_community(pair.enterprises())
        calls = []
        for enterprise in pair.enterprises():
            engine = enterprise.b2b
            check = engine._after_advance
            engine._after_advance = lambda c, check=check: (calls.append(c), check(c))
        pair.buyer.submit_order("SAP", "ACME", "PO-NEXT", LINES)
        run_community(pair.enterprises())
        assert pair.seller.backends["Oracle"].has_order("PO-NEXT")
        assert len(pair.seller.b2b.conversations) == completed_before + 1
        return len(calls)

    def test_status_checks_do_not_grow_with_completed_conversations(self):
        # Back-end events and community rounds re-check open conversations
        # only, so a long-running hub pays per order, not per order ever.
        assert self._status_checks_for_one_more_order(
            5
        ) == self._status_checks_for_one_more_order(50)
