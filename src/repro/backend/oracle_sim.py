"""Oracle-like ERP simulator: consumes/produces open-interface records.

Stands in for the paper's ``Oracle [37]`` back end.  Orders arrive as
``PO_HEADERS_INTERFACE``/``PO_LINES_INTERFACE`` record sets, and are
answered with ``PO_ACK_HEADERS``/``PO_ACK_LINES`` record sets; the
buyer-side API :meth:`enter_order` creates an outbound PO the way a
requisition import run would.
"""

from __future__ import annotations

from typing import Any

from repro.backend.base import ERPSimulator, OrderRecord, accepted_amount
from repro.documents import oracle_oif
from repro.documents.model import Document
from repro.errors import BackendError

__all__ = ["OracleSimulator"]


class OracleSimulator(ERPSimulator):
    """An ERP whose native tongue is the ``oracle-oif`` record format."""

    format_name = oracle_oif.ORACLE_OIF

    # -- subclass hooks -----------------------------------------------------------

    def _po_fields(self, document: Document) -> tuple[str, float, list[dict[str, Any]]]:
        po_number = document.get("header.document_num")
        total = float(document.get("header.total_amount"))
        lines = [
            {
                "line_no": int(line["line_num"]),
                "sku": line["item_id"],
                "quantity": float(line["quantity"]),
                "unit_price": float(line["unit_price"]),
            }
            for line in document.get("lines")
        ]
        return po_number, total, lines

    def _build_ack(self, record: OrderRecord, now: float) -> Document:
        po_document = record.document
        _, _, lines = self._po_fields(po_document)
        ack_lines = []
        for line in lines:
            status = record.line_statuses.get(
                line["line_no"],
                "accepted" if record.status in ("accepted", "partial") else "rejected",
            )
            quantity = 0.0 if status == "rejected" else line["quantity"]
            ack_lines.append(
                {
                    "line_num": line["line_no"],
                    "item_id": line["sku"],
                    "line_status": oracle_oif.LINE_STATUS_BY_STATUS[status],
                    "quantity": quantity,
                }
            )
        data = {
            "header": {
                "interface_header_id": f"POA-DOC-{record.po_number}",
                "document_num": record.po_number,
                "acceptance_code": oracle_oif.ACCEPTANCE_BY_STATUS[record.status],
                "buyer_org": po_document.get("header.buyer_org"),
                "vendor_org": po_document.get("header.vendor_org"),
                "accepted_amount": accepted_amount(
                    lines, record.line_statuses, record.status
                ),
                "creation_date": now,
            },
            "lines": ack_lines,
        }
        return Document(oracle_oif.ORACLE_OIF, "po_ack", data)

    def _ack_po_number(self, document: Document) -> str:
        return document.get("header.document_num")

    # -- buyer-side order entry ---------------------------------------------------

    def enter_order(
        self,
        po_number: str,
        buyer_id: str,
        seller_id: str,
        lines: list[dict[str, Any]],
        currency: str = "USD",
        payment_terms: str = "NET30",
    ) -> Document:
        """Create a purchase order inside the ERP and queue it for extraction."""
        if not lines:
            raise BackendError("an order needs at least one line")
        now = self.scheduler.clock.now() if self.scheduler else 0.0
        records = []
        total = 0.0
        for position, line in enumerate(lines, start=1):
            quantity = float(line["quantity"])
            price = round(float(line["unit_price"]), 2)
            total += quantity * price
            records.append(
                {
                    "line_num": int(line.get("line_no", position)),
                    "item_id": str(line["sku"]),
                    "item_description": str(line.get("description", "")),
                    "quantity": quantity,
                    "unit_price": price,
                }
            )
        data = {
            "header": {
                "interface_header_id": f"PO-DOC-{po_number}",
                "document_num": str(po_number),
                "currency_code": str(currency),
                "buyer_org": str(buyer_id),
                "vendor_org": str(seller_id),
                "terms": str(payment_terms),
                "total_amount": round(total, 2),
                "creation_date": now,
            },
            "lines": records,
        }
        return self._queue_outbound(Document(oracle_oif.ORACLE_OIF, "purchase_order", data))
