"""Tests for the SAP-like and Oracle-like ERP simulators."""

import pytest

from repro.backend import OracleSimulator, SapSimulator
from repro.backend.base import accept_all, partial_backorder, reject_over
from repro.documents.model import Document
from repro.errors import BackendError
from repro.sim import EventScheduler

LINES = [
    {"sku": "LAPTOP", "quantity": 2, "unit_price": 1000.0},
    {"sku": "MOUSE", "quantity": 10, "unit_price": 20.0},
]


@pytest.fixture(params=["sap", "oracle"])
def erp(request):
    if request.param == "sap":
        return SapSimulator("SAP")
    return OracleSimulator("Oracle")


def _native_po(erp, po_number="PO-1"):
    """An inbound native PO produced by a second simulator of the same kind."""
    feeder = type(erp)("feeder")
    return feeder.enter_order(po_number, "TP1", "ACME", LINES)


class TestOrderEntry:
    def test_enter_order_queues_outbound_po(self, erp):
        erp.enter_order("PO-1", "BUYER", "SELLER", LINES)
        documents = erp.extract_documents("purchase_order")
        assert len(documents) == 1
        assert documents[0].format_name == erp.format_name
        po_number, total, lines = erp._po_fields(documents[0])
        assert po_number == "PO-1"
        assert total == pytest.approx(2200.0)
        assert len(lines) == 2

    def test_enter_order_requires_lines(self, erp):
        with pytest.raises(BackendError):
            erp.enter_order("PO-1", "B", "S", [])

    def test_extract_document_for_by_number(self, erp):
        erp.enter_order("PO-1", "B", "S", LINES)
        erp.enter_order("PO-2", "B", "S", LINES)
        document = erp.extract_document_for("PO-2", "purchase_order")
        assert erp._po_fields(document)[0] == "PO-2"
        assert erp.pending_outbound() == 1


class TestOrderProcessing:
    def test_store_po_books_order_and_acks(self, erp):
        erp.store_document(_native_po(erp))
        record = erp.order("PO-1")
        assert record.status == "accepted"
        assert record.total_amount == pytest.approx(2200.0)
        acks = erp.extract_documents("po_ack")
        assert len(acks) == 1
        assert erp._ack_po_number(acks[0]) == "PO-1"

    def test_wrong_format_rejected(self, erp):
        other = OracleSimulator("O2") if isinstance(erp, SapSimulator) else SapSimulator("S2")
        foreign = _native_po(other)
        with pytest.raises(BackendError) as excinfo:
            erp.store_document(foreign)
        assert "binding transformation" in str(excinfo.value)

    def test_duplicate_order_rejected(self, erp):
        erp.store_document(_native_po(erp))
        with pytest.raises(BackendError):
            erp.store_document(_native_po(erp))

    def test_unknown_doc_type_rejected(self, erp):
        document = _native_po(erp)
        document.doc_type = "freight_bill"
        with pytest.raises(BackendError):
            erp.store_document(document)

    def test_store_ack_records_it(self, erp):
        erp.store_document(_native_po(erp))
        ack = erp.extract_documents("po_ack")[0]
        receiver = type(erp)("receiver")
        receiver.store_document(ack)
        assert "PO-1" in receiver.stored_acks

    def test_unknown_order_lookup_raises(self, erp):
        with pytest.raises(BackendError):
            erp.order("PO-404")

    def test_unsupported_doc_type_is_not_counted(self, erp):
        invoice = Document(erp.format_name, "invoice", {"header": {}})
        with pytest.raises(BackendError, match="cannot process doc_type 'invoice'"):
            erp.store_document(invoice)
        assert erp.stored_count == 0

    def test_duplicate_po_is_counted_once(self, erp):
        erp.store_document(_native_po(erp))
        with pytest.raises(BackendError, match="already has order"):
            erp.store_document(_native_po(erp))
        assert erp.stored_count == 1
        receiver = type(erp)("receiver")
        receiver.store_document(erp.extract_documents("po_ack")[0])
        assert receiver.stored_count == 1

    def test_outbound_documents_are_sealed(self, erp):
        po = erp.enter_order("PO-1", "BUYER", "SELLER", LINES)
        erp.store_document(_native_po(erp, "PO-2"))
        assert po.sealed
        assert all(document.sealed for document in erp.extract_documents())

    def test_sealed_document_kept_unsealed_one_copied(self, erp):
        sealed = _native_po(erp)
        erp.store_document(sealed)
        assert erp.order("PO-1").document is sealed
        unsealed = _native_po(erp, "PO-2").copy()
        erp.store_document(unsealed)
        kept = erp.order("PO-2").document
        assert kept == unsealed and kept is not unsealed


class TestPolicies:
    def test_accept_all(self):
        assert accept_all("P", 1e9, []) == ("accepted", {})

    def test_reject_over(self, erp):
        erp.acceptance_policy = reject_over(1000.0)
        erp.store_document(_native_po(erp))
        assert erp.order("PO-1").status == "rejected"
        ack = erp.extract_documents("po_ack")[0]
        # rejected acknowledgments carry zero accepted amount
        if isinstance(erp, SapSimulator):
            assert ack.get("summary.summe") == 0.0
            assert ack.get("header.action") == "REJ"
        else:
            assert ack.get("header.accepted_amount") == 0.0
            assert ack.get("header.acceptance_code") == "REJECTED"

    def test_partial_backorder(self, erp):
        erp.acceptance_policy = partial_backorder({"MOUSE"})
        erp.store_document(_native_po(erp))
        record = erp.order("PO-1")
        assert record.status == "partial"
        assert record.line_statuses == {2: "backordered"}
        ack = erp.extract_documents("po_ack")[0]
        if isinstance(erp, SapSimulator):
            assert ack.get("summary.summe") == pytest.approx(2000.0)
        else:
            assert ack.get("header.accepted_amount") == pytest.approx(2000.0)

    def test_fully_backordered_becomes_rejection(self):
        erp = SapSimulator("SAP")
        erp.acceptance_policy = partial_backorder({"LAPTOP", "MOUSE"})
        erp.store_document(_native_po(erp))
        assert erp.order("PO-1").status == "rejected"


class TestAsynchronousProcessing:
    def test_delayed_ack_appears_after_processing_delay(self):
        scheduler = EventScheduler()
        erp = SapSimulator("SAP", scheduler=scheduler, processing_delay=2.0)
        erp.store_document(_native_po(erp))
        assert erp.pending_outbound() == 0
        scheduler.run_until_idle()
        assert scheduler.clock.now() == 2.0
        assert erp.pending_outbound() == 1
        assert erp.order("PO-1").acknowledged_at == 2.0

    def test_ready_callback_fires(self):
        scheduler = EventScheduler()
        erp = OracleSimulator("Oracle", scheduler=scheduler, processing_delay=1.0)
        seen = []
        erp.on_document_ready(lambda name, doc: seen.append((name, doc.doc_type)))
        erp.store_document(_native_po(erp))
        scheduler.run_until_idle()
        assert seen == [("Oracle", "po_ack")]

    def test_delay_without_scheduler_rejected(self):
        with pytest.raises(BackendError):
            SapSimulator("SAP", processing_delay=1.0)


class TestNativeAckContent:
    def test_sap_ack_is_ordrsp_idoc(self):
        erp = SapSimulator("SAP")
        erp.store_document(_native_po(erp))
        ack = erp.extract_documents("po_ack")[0]
        assert ack.format_name == "sap-idoc"
        assert ack.get("control.message_type") == "ORDRSP"
        assert len(ack.get("items")) == 2
        assert {p["parvw"] for p in ack.get("partners")} == {"AG", "LF"}

    def test_oracle_ack_is_ack_record_set(self):
        erp = OracleSimulator("Oracle")
        erp.store_document(_native_po(erp))
        ack = erp.extract_documents("po_ack")[0]
        assert ack.format_name == "oracle-oif"
        assert ack.get("header.acceptance_code") == "FULL"
        assert ack.get("header.buyer_org") == "TP1"
        assert len(ack.get("lines")) == 2
