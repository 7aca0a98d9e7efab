"""Tests for the enterprise document archive and the invoice-match rule."""

import pytest

from repro.core.enterprise import DocumentArchive
from repro.core.rules import invoice_match_rule_set
from repro.documents.normalized import make_invoice, make_purchase_order
from repro.errors import IntegrationError


@pytest.fixture
def po():
    return make_purchase_order(
        "PO-9", "TP1", "ACME", [{"sku": "X", "quantity": 2, "unit_price": 50.0}]
    )


class TestDocumentArchive:
    def test_store_and_get(self, po):
        archive = DocumentArchive()
        key = archive.store(po)
        assert key == "purchase_order:PO-9"
        assert archive.get("purchase_order", "PO-9") == po
        assert archive.has("purchase_order", "PO-9")

    def test_stored_copy_is_detached(self, po):
        archive = DocumentArchive()
        archive.store(po)
        po.set("header.po_number", "MUTATED")
        assert archive.get("purchase_order", "PO-9").get("header.po_number") == "PO-9"

    def test_sealed_document_is_filed_as_it_is(self, po):
        archive = DocumentArchive()
        archive.store(po.seal())
        assert archive.get("purchase_order", "PO-9") is po

    def test_missing_raises(self):
        with pytest.raises(IntegrationError):
            DocumentArchive().get("invoice", "nope")

    def test_count_by_kind(self, po):
        archive = DocumentArchive()
        archive.store(po)
        archive.store(make_invoice(po, "INV-1"))
        assert archive.count() == 2
        assert archive.count("invoice") == 1
        assert archive.count("ship_notice") == 0

    def test_documents_without_po_number_keyed_by_document_id(self, po):
        archive = DocumentArchive()
        document = po.copy()
        document.delete("header.po_number")
        key = archive.store(document)
        assert key == "purchase_order:PO-DOC-PO-9"

    def test_restore_overwrites(self, po):
        archive = DocumentArchive()
        archive.store(po)
        updated = po.copy()
        updated.set("header.currency", "EUR")
        archive.store(updated)
        assert archive.count() == 1
        assert archive.get("purchase_order", "PO-9").get("header.currency") == "EUR"


class TestInvoiceMatchRule:
    def _invoice(self, po, tax_rate=0.0):
        return make_invoice(po, "INV-9", tax_rate=tax_rate)

    def test_matching_invoice_passes(self, po):
        rules = invoice_match_rule_set(lambda po_number: 100.0)
        assert rules.evaluate("ACME", "", self._invoice(po)) is True

    def test_amount_off_by_more_than_tolerance_fails(self, po):
        rules = invoice_match_rule_set(lambda po_number: 90.0)
        assert rules.evaluate("ACME", "", self._invoice(po)) is False

    def test_within_tolerance_passes(self, po):
        rules = invoice_match_rule_set(lambda po_number: 100.005, tolerance=0.01)
        assert rules.evaluate("ACME", "", self._invoice(po)) is True

    def test_unknown_po_fails(self, po):
        rules = invoice_match_rule_set(lambda po_number: None)
        assert rules.evaluate("ACME", "", self._invoice(po)) is False

    def test_surprise_tax_fails(self, po):
        rules = invoice_match_rule_set(lambda po_number: 100.0)
        taxed = self._invoice(po, tax_rate=0.1)
        assert rules.evaluate("ACME", "", taxed) is False

    def test_lookup_receives_po_number(self, po):
        seen = []

        def lookup(po_number):
            seen.append(po_number)
            return 100.0

        invoice_match_rule_set(lookup).evaluate("ACME", "", self._invoice(po))
        assert seen == ["PO-9"]
