"""RosettaNet-like XML wire format (PIP 3A4, the paper's ``RN [40]``).

Implements the *document* half of RosettaNet: PIP-3A4-shaped XML for the
"create purchase order" request and the "purchase order acceptance"
response between a **Buyer** and a **Seller** role (Section 5.1 of the
paper).  The *behavioural* half — reliable exchange with acknowledgments,
time-outs and retries (RNIF) — lives in :mod:`repro.messaging.reliable` and
the protocol layer :mod:`repro.b2b.rosettanet`.

**RosettaNet document layout** (``format_name="rosettanet-xml"``) — field
names follow RosettaNet vocabulary, deliberately unlike the normalized
layout:

``purchase_order`` layout::

    service_header: pip_code ("3A4"), pip_instance_id, from_role ("Buyer"),
                    to_role ("Seller"), from_partner, to_partner
    order: global_document_id, po_number, currency_code, document_date,
           payment_terms, total_amount, product_lines[]: line_number,
           global_product_id, description, ordered_quantity, unit_price

``po_ack`` layout::

    service_header: pip_code, pip_instance_id, from_role ("Seller"),
                    to_role ("Buyer"), from_partner, to_partner
    acknowledgment: global_document_id, po_number, document_date,
                    global_response_code (Accept / Reject / Partial),
                    accepted_amount,
                    ack_lines[]: line_number, global_product_id,
                    response_code, accepted_quantity
"""

from __future__ import annotations

from repro.documents.layout import (
    Layout, XmlFormat, code, group, integer, number, optional, repeated, text,
)
from repro.documents.model import Document
from repro.documents.schema import DocumentSchema, FieldSpec
from repro.errors import WireFormatError

__all__ = [
    "ROSETTANET",
    "RESPONSE_CODE_BY_STATUS",
    "STATUS_BY_RESPONSE_CODE",
    "LINE_CODE_BY_STATUS",
    "STATUS_BY_LINE_CODE",
    "to_wire",
    "from_wire",
    "make_receipt_ack",
    "rn_po_schema",
    "rn_poa_schema",
]

ROSETTANET = "rosettanet-xml"

RESPONSE_CODE_BY_STATUS = {"accepted": "Accept", "rejected": "Reject", "partial": "Partial"}
STATUS_BY_RESPONSE_CODE = {value: status for status, value in RESPONSE_CODE_BY_STATUS.items()}

LINE_CODE_BY_STATUS = {"accepted": "Accept", "rejected": "Reject", "backordered": "Backorder"}
STATUS_BY_LINE_CODE = {value: status for status, value in LINE_CODE_BY_STATUS.items()}

_SERVICE_HEADER = group(
    "ServiceHeader", "service_header",
    text("PipCode", "pip_code"),
    text("PipInstanceId", "pip_instance_id"),
    text("FromRole", "from_role"),
    text("ToRole", "to_role"),
    text("FromPartner", "from_partner"),
    text("ToPartner", "to_partner"),
)

_FORMAT = XmlFormat(ROSETTANET, "RosettaNet", (
    Layout("Pip3A4PurchaseOrderRequest", "purchase_order", (
        _SERVICE_HEADER,
        group(
            "PurchaseOrder", "order",
            text("GlobalDocumentIdentifier", "global_document_id"),
            text("PurchaseOrderNumber", "po_number"),
            text("GlobalCurrencyCode", "currency_code"),
            number("DocumentDate", "document_date"),
            optional("PaymentTerms", "payment_terms"),
            number("TotalAmount", "total_amount"),
            repeated(
                "ProductLineItem", "product_lines",
                integer("LineNumber", "line_number"),
                text("GlobalProductIdentifier", "global_product_id"),
                optional("Description", "description"),
                number("OrderedQuantity", "ordered_quantity"),
                number("UnitPrice", "unit_price"),
            ),
        ),
    )),
    Layout("Pip3A4PurchaseOrderConfirmation", "po_ack", (
        _SERVICE_HEADER,
        group(
            "PurchaseOrderAcknowledgment", "acknowledgment",
            text("GlobalDocumentIdentifier", "global_document_id"),
            text("PurchaseOrderNumber", "po_number"),
            number("DocumentDate", "document_date"),
            code("GlobalResponseCode", "global_response_code", STATUS_BY_RESPONSE_CODE),
            number("AcceptedAmount", "accepted_amount"),
            repeated(
                "AcknowledgedLineItem", "ack_lines",
                integer("LineNumber", "line_number"),
                text("GlobalProductIdentifier", "global_product_id"),
                text("ResponseCode", "response_code"),
                number("AcceptedQuantity", "accepted_quantity"),
            ),
        ),
    )),
    Layout("ReceiptAcknowledgment", "receipt_ack", (
        _SERVICE_HEADER,
        group(
            "Receipt", "receipt",
            text("OriginalDocumentIdentifier", "original_document_id"),
            text("OriginalDocumentType", "original_doc_type"),
            number("ReceivedAt", "received_at"),
        ),
    )),
))


def to_wire(document: Document) -> str:
    """Render a ``rosettanet-xml`` document to its XML string."""
    return _FORMAT.write(document)


def from_wire(text: str) -> Document:
    """Parse a PIP 3A4 XML string into a sealed ``rosettanet-xml`` document."""
    return _FORMAT.read(text).seal()


def make_receipt_ack(received: Document, now: float) -> Document:
    """Build the RNIF-style business receipt for a received 3A4 document.

    The receipt reverses the service-header roles/partners of the received
    document — it travels back to whoever sent the original.
    """
    header = received.get("service_header")
    if received.doc_type == "purchase_order":
        original_id = received.get("order.global_document_id")
    elif received.doc_type == "po_ack":
        original_id = received.get("acknowledgment.global_document_id")
    else:
        raise WireFormatError(
            f"cannot build a receipt for doc_type {received.doc_type!r}"
        )
    data = {
        "service_header": {
            "pip_code": header["pip_code"],
            "pip_instance_id": header["pip_instance_id"],
            "from_role": header["to_role"],
            "to_role": header["from_role"],
            "from_partner": header["to_partner"],
            "to_partner": header["from_partner"],
        },
        "receipt": {
            "original_document_id": original_id,
            "original_doc_type": received.doc_type,
            "received_at": float(now),
        },
    }
    return Document(ROSETTANET, "receipt_ack", data)


def rn_po_schema() -> DocumentSchema:
    """Schema for the ``rosettanet-xml`` purchase-order layout."""
    return DocumentSchema(
        "rosettanet-xml/purchase_order",
        format_name=ROSETTANET,
        doc_type="purchase_order",
        fields=[
            FieldSpec("service_header.pip_code", choices=("3A4",)),
            FieldSpec("service_header.pip_instance_id"),
            FieldSpec("service_header.from_role", choices=("Buyer",)),
            FieldSpec("service_header.to_role", choices=("Seller",)),
            FieldSpec("service_header.from_partner"),
            FieldSpec("service_header.to_partner"),
            FieldSpec("order.global_document_id"),
            FieldSpec("order.po_number"),
            FieldSpec("order.currency_code"),
            FieldSpec("order.total_amount", "number"),
            FieldSpec("order.product_lines", "list", min_items=1),
        ],
    )


def rn_poa_schema() -> DocumentSchema:
    """Schema for the ``rosettanet-xml`` PO-acknowledgment layout."""
    return DocumentSchema(
        "rosettanet-xml/po_ack",
        format_name=ROSETTANET,
        doc_type="po_ack",
        fields=[
            FieldSpec("service_header.pip_code", choices=("3A4",)),
            FieldSpec("service_header.from_role", choices=("Seller",)),
            FieldSpec("service_header.to_role", choices=("Buyer",)),
            FieldSpec("acknowledgment.po_number"),
            FieldSpec(
                "acknowledgment.global_response_code",
                choices=tuple(STATUS_BY_RESPONSE_CODE),
            ),
            FieldSpec("acknowledgment.ack_lines", "list", min_items=1),
        ],
    )
