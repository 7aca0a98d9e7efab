"""SAP-like ERP simulator: consumes/produces IDoc documents.

Stands in for the paper's ``SAP [41]`` back end.  Orders arrive as
``ORDERS`` IDocs, are booked against the acceptance policy, and are
answered with ``ORDRSP`` IDocs; the buyer-side API :meth:`enter_order`
creates an outbound ``ORDERS`` IDoc the way an SAP user saving a purchase
requisition would.
"""

from __future__ import annotations

from typing import Any

from repro.backend.base import ERPSimulator, OrderRecord, accepted_amount
from repro.documents import idoc
from repro.documents.model import Document
from repro.errors import BackendError

__all__ = ["SapSimulator"]


class SapSimulator(ERPSimulator):
    """An ERP whose native tongue is the ``sap-idoc`` flat format."""

    format_name = idoc.SAP_IDOC

    # -- subclass hooks -----------------------------------------------------------

    def _po_fields(self, document: Document) -> tuple[str, float, list[dict[str, Any]]]:
        po_number = document.get("header.belnr")
        total = float(document.get("summary.summe"))
        lines = [
            {
                "line_no": int(item["posex"]),
                "sku": item["matnr"],
                "quantity": float(item["menge"]),
                "unit_price": float(item["vprei"]),
            }
            for item in document.get("items")
        ]
        return po_number, total, lines

    def _build_ack(self, record: OrderRecord, now: float) -> Document:
        po_document = record.document
        _, _, lines = self._po_fields(po_document)
        items = []
        for line in lines:
            status = record.line_statuses.get(
                line["line_no"],
                "accepted" if record.status in ("accepted", "partial") else "rejected",
            )
            quantity = 0.0 if status == "rejected" else line["quantity"]
            items.append(
                {
                    "posex": line["line_no"],
                    "menge": quantity,
                    "matnr": line["sku"],
                    "action": idoc.ITEM_ACTION_BY_STATUS[status],
                }
            )
        data = {
            "control": {
                "idoc_number": f"POA-DOC-{record.po_number}"[:24],
                "idoc_type": "ORDERS05",
                "message_type": "ORDRSP",
                "sender_port": "SAPERP",
                "receiver_port": "B2BHUB",
                "created_at": now,
            },
            "header": {
                "action": idoc.ACTION_BY_STATUS[record.status],
                "curcy": "",
                "belnr": record.po_number,
                "bsart": "NB",
                "zterm": "",
            },
            "partners": [dict(p) for p in po_document.get("partners")],
            "items": items,
            "summary": {
                "summe": accepted_amount(lines, record.line_statuses, record.status)
            },
        }
        return Document(idoc.SAP_IDOC, "po_ack", data)

    def _ack_po_number(self, document: Document) -> str:
        return document.get("header.belnr")

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
        """Create a purchase order inside the ERP and queue it for extraction.

        ``lines`` items need ``sku``, ``quantity``, ``unit_price`` and may
        carry ``line_no``/``description``.
        """
        if not lines:
            raise BackendError("an order needs at least one line")
        now = self.scheduler.clock.now() if self.scheduler else 0.0
        items = []
        total = 0.0
        for position, line in enumerate(lines, start=1):
            quantity = float(line["quantity"])
            price = round(float(line["unit_price"]), 2)
            total += quantity * price
            items.append(
                {
                    "posex": int(line.get("line_no", position)),
                    "menge": quantity,
                    "vprei": price,
                    "matnr": str(line["sku"]),
                    "arktx": str(line.get("description", ""))[:40],
                }
            )
        data = {
            "control": {
                "idoc_number": f"PO-DOC-{po_number}"[:24],
                "idoc_type": "ORDERS05",
                "message_type": "ORDERS",
                "sender_port": "SAPERP",
                "receiver_port": "B2BHUB",
                "created_at": now,
            },
            "header": {
                "action": "000",
                "curcy": currency[:3],
                "belnr": str(po_number),
                "bsart": "NB",
                "zterm": payment_terms[:10],
            },
            "partners": [
                {"parvw": "AG", "partn": str(buyer_id)},
                {"parvw": "LF", "partn": str(seller_id)},
            ],
            "items": items,
            "summary": {"summe": round(total, 2)},
        }
        return self._queue_outbound(Document(idoc.SAP_IDOC, "purchase_order", data))
