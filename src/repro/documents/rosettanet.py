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

from typing import Any

from repro.documents.model import Document
from repro.documents.schema import DocumentSchema, FieldSpec
from repro.documents.wire import wire_number
from repro.documents.xmlio import XmlElement, parse, serialize
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
STATUS_BY_RESPONSE_CODE = {code: status for status, code in RESPONSE_CODE_BY_STATUS.items()}

LINE_CODE_BY_STATUS = {"accepted": "Accept", "rejected": "Reject", "backordered": "Backorder"}
STATUS_BY_LINE_CODE = {code: status for status, code in LINE_CODE_BY_STATUS.items()}

_REQUEST_ROOT = "Pip3A4PurchaseOrderRequest"
_CONFIRM_ROOT = "Pip3A4PurchaseOrderConfirmation"
_RECEIPT_ROOT = "ReceiptAcknowledgment"


def to_wire(document: Document) -> str:
    """Render a ``rosettanet-xml`` document to its XML string."""
    if document.format_name != ROSETTANET:
        raise WireFormatError(
            f"to_wire expects format {ROSETTANET!r}, got {document.format_name!r}"
        )
    if document.doc_type == "purchase_order":
        root = _render_request(document)
    elif document.doc_type == "po_ack":
        root = _render_confirmation(document)
    elif document.doc_type == "receipt_ack":
        root = _render_receipt(document)
    else:
        raise WireFormatError(
            f"RosettaNet PIP 3A4 cannot carry doc_type {document.doc_type!r}"
        )
    return serialize(root, declaration=True, indent=2)


def _render_service_header(parent: XmlElement, document: Document) -> None:
    header = document.get("service_header")
    element = parent.child("ServiceHeader")
    element.child("PipCode", header["pip_code"])
    element.child("PipInstanceId", header["pip_instance_id"])
    element.child("FromRole", header["from_role"])
    element.child("ToRole", header["to_role"])
    element.child("FromPartner", header["from_partner"])
    element.child("ToPartner", header["to_partner"])


def _render_request(document: Document) -> XmlElement:
    root = XmlElement(_REQUEST_ROOT)
    _render_service_header(root, document)
    order = document.get("order")
    order_element = root.child("PurchaseOrder")
    order_element.child("GlobalDocumentIdentifier", order["global_document_id"])
    order_element.child("PurchaseOrderNumber", order["po_number"])
    order_element.child("GlobalCurrencyCode", order["currency_code"])
    order_element.child("DocumentDate", _text(order["document_date"]))
    order_element.child("PaymentTerms", order.get("payment_terms", ""))
    order_element.child("TotalAmount", _text(order["total_amount"]))
    for line in order["product_lines"]:
        line_element = order_element.child("ProductLineItem")
        line_element.child("LineNumber", _text(line["line_number"]))
        line_element.child("GlobalProductIdentifier", line["global_product_id"])
        line_element.child("Description", line.get("description", ""))
        line_element.child("OrderedQuantity", _text(line["ordered_quantity"]))
        line_element.child("UnitPrice", _text(line["unit_price"]))
    return root


def _render_confirmation(document: Document) -> XmlElement:
    root = XmlElement(_CONFIRM_ROOT)
    _render_service_header(root, document)
    ack = document.get("acknowledgment")
    ack_element = root.child("PurchaseOrderAcknowledgment")
    ack_element.child("GlobalDocumentIdentifier", ack["global_document_id"])
    ack_element.child("PurchaseOrderNumber", ack["po_number"])
    ack_element.child("DocumentDate", _text(ack["document_date"]))
    ack_element.child("GlobalResponseCode", ack["global_response_code"])
    ack_element.child("AcceptedAmount", _text(ack["accepted_amount"]))
    for line in ack["ack_lines"]:
        line_element = ack_element.child("AcknowledgedLineItem")
        line_element.child("LineNumber", _text(line["line_number"]))
        line_element.child("GlobalProductIdentifier", line["global_product_id"])
        line_element.child("ResponseCode", line["response_code"])
        line_element.child("AcceptedQuantity", _text(line["accepted_quantity"]))
    return root


def _text(value: Any) -> str:
    return "" if value is None else str(value)


def _render_receipt(document: Document) -> XmlElement:
    root = XmlElement(_RECEIPT_ROOT)
    _render_service_header(root, document)
    receipt = document.get("receipt")
    receipt_element = root.child("Receipt")
    receipt_element.child("OriginalDocumentIdentifier", receipt["original_document_id"])
    receipt_element.child("OriginalDocumentType", receipt["original_doc_type"])
    receipt_element.child("ReceivedAt", _text(receipt["received_at"]))
    return root


def from_wire(text: str) -> Document:
    """Parse a PIP 3A4 XML string into a ``rosettanet-xml`` document."""
    root = parse(text)
    if root.tag == _REQUEST_ROOT:
        return _parse_request(root)
    if root.tag == _CONFIRM_ROOT:
        return _parse_confirmation(root)
    if root.tag == _RECEIPT_ROOT:
        return _parse_receipt(root)
    raise WireFormatError(f"unknown RosettaNet root element <{root.tag}>")


def _parse_receipt(root: XmlElement) -> Document:
    receipt = root.require("Receipt")
    data = {
        "service_header": _parse_service_header(root),
        "receipt": {
            "original_document_id": receipt.require("OriginalDocumentIdentifier").text,
            "original_doc_type": receipt.require("OriginalDocumentType").text,
            "received_at": _float(receipt, "ReceivedAt"),
        },
    }
    return Document(ROSETTANET, "receipt_ack", data)


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


def _parse_service_header(root: XmlElement) -> dict[str, Any]:
    header = root.require("ServiceHeader")
    return {
        "pip_code": header.require("PipCode").text,
        "pip_instance_id": header.require("PipInstanceId").text,
        "from_role": header.require("FromRole").text,
        "to_role": header.require("ToRole").text,
        "from_partner": header.require("FromPartner").text,
        "to_partner": header.require("ToPartner").text,
    }


def _float(element: XmlElement, tag: str) -> float:
    return wire_number(element.require(tag).text, f"<{tag}>")


def _int(element: XmlElement, tag: str) -> int:
    return int(_float(element, tag))


def _parse_request(root: XmlElement) -> Document:
    order = root.require("PurchaseOrder")
    lines = [
        {
            "line_number": _int(line, "LineNumber"),
            "global_product_id": line.require("GlobalProductIdentifier").text,
            "description": line.child_text("Description", ""),
            "ordered_quantity": _float(line, "OrderedQuantity"),
            "unit_price": _float(line, "UnitPrice"),
        }
        for line in order.find_all("ProductLineItem")
    ]
    if not lines:
        raise WireFormatError("PIP 3A4 request without ProductLineItem")
    data = {
        "service_header": _parse_service_header(root),
        "order": {
            "global_document_id": order.require("GlobalDocumentIdentifier").text,
            "po_number": order.require("PurchaseOrderNumber").text,
            "currency_code": order.require("GlobalCurrencyCode").text,
            "document_date": _float(order, "DocumentDate"),
            "payment_terms": order.child_text("PaymentTerms", ""),
            "total_amount": _float(order, "TotalAmount"),
            "product_lines": lines,
        },
    }
    return Document(ROSETTANET, "purchase_order", data)


def _parse_confirmation(root: XmlElement) -> Document:
    ack = root.require("PurchaseOrderAcknowledgment")
    lines = [
        {
            "line_number": _int(line, "LineNumber"),
            "global_product_id": line.require("GlobalProductIdentifier").text,
            "response_code": line.require("ResponseCode").text,
            "accepted_quantity": _float(line, "AcceptedQuantity"),
        }
        for line in ack.find_all("AcknowledgedLineItem")
    ]
    if not lines:
        raise WireFormatError("PIP 3A4 confirmation without AcknowledgedLineItem")
    response_code = ack.require("GlobalResponseCode").text
    if response_code not in STATUS_BY_RESPONSE_CODE:
        raise WireFormatError(f"unknown GlobalResponseCode {response_code!r}")
    data = {
        "service_header": _parse_service_header(root),
        "acknowledgment": {
            "global_document_id": ack.require("GlobalDocumentIdentifier").text,
            "po_number": ack.require("PurchaseOrderNumber").text,
            "document_date": _float(ack, "DocumentDate"),
            "global_response_code": response_code,
            "accepted_amount": _float(ack, "AcceptedAmount"),
            "ack_lines": lines,
        },
    }
    return Document(ROSETTANET, "po_ack", data)


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
