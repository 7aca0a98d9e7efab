"""OAGIS-like XML wire format (the paper's ``OAGIS [36]``).

Implements Business Object Documents (BODs) shaped after OAGIS:
``ProcessPurchaseOrder`` (PO request) and ``AcknowledgePurchaseOrder``
(PO acknowledgment), each with the OAGIS two-part body:

* ``ApplicationArea`` — sender, creation time, BOD id;
* ``DataArea`` — the verb/noun payload.

**OAGIS document layout** (``format_name="oagis-bod"``):

``purchase_order`` layout::

    application_area: sender_id, receiver_id, creation_time, bod_id
    order_header: document_id, po_number, currency, total_value, terms
    order_lines[]: line_num, item_id, item_description, quantity, price

``po_ack`` layout::

    application_area: sender_id, receiver_id, creation_time, bod_id
    ack_header: document_id, po_number, acknowledge_code
                (Accepted / Rejected / Modified), total_accepted
    ack_lines[]: line_num, item_id, line_code, quantity

``ship_notice`` layout (``ShowShipment`` BOD)::

    application_area: sender_id, receiver_id, creation_time, bod_id
    shipment_header: document_id, shipment_id, po_number, carrier,
                     package_count
    shipment_lines[]: line_num, item_id, quantity_shipped

``invoice`` layout (``ProcessInvoice`` BOD)::

    application_area: sender_id, receiver_id, creation_time, bod_id
    invoice_header: document_id, invoice_number, po_number, currency,
                    subtotal, tax, total_due
    invoice_lines[]: line_num, item_id, quantity, unit_price, amount
"""

from __future__ import annotations

from typing import Any

from repro.documents.model import Document
from repro.documents.schema import DocumentSchema, FieldSpec
from repro.documents.wire import wire_number
from repro.documents.xmlio import XmlElement, parse, serialize
from repro.errors import WireFormatError

__all__ = [
    "OAGIS",
    "ACK_CODE_BY_STATUS",
    "STATUS_BY_ACK_CODE",
    "LINE_CODE_BY_STATUS",
    "STATUS_BY_LINE_CODE",
    "to_wire",
    "from_wire",
    "oagis_po_schema",
    "oagis_poa_schema",
]

OAGIS = "oagis-bod"

ACK_CODE_BY_STATUS = {"accepted": "Accepted", "rejected": "Rejected", "partial": "Modified"}
STATUS_BY_ACK_CODE = {code: status for status, code in ACK_CODE_BY_STATUS.items()}

LINE_CODE_BY_STATUS = {"accepted": "Accepted", "rejected": "Rejected", "backordered": "Backordered"}
STATUS_BY_LINE_CODE = {code: status for status, code in LINE_CODE_BY_STATUS.items()}

_PROCESS_ROOT = "ProcessPurchaseOrder"
_ACK_ROOT = "AcknowledgePurchaseOrder"
_SHIPMENT_ROOT = "ShowShipment"
_INVOICE_ROOT = "ProcessInvoice"
_RFQ_ROOT = "GetQuote"
_QUOTE_ROOT = "ShowQuote"


def _text(value: Any) -> str:
    return "" if value is None else str(value)


def to_wire(document: Document) -> str:
    """Render an ``oagis-bod`` document to its BOD XML string."""
    if document.format_name != OAGIS:
        raise WireFormatError(
            f"to_wire expects format {OAGIS!r}, got {document.format_name!r}"
        )
    if document.doc_type == "purchase_order":
        root = _render_process(document)
    elif document.doc_type == "po_ack":
        root = _render_acknowledge(document)
    elif document.doc_type == "ship_notice":
        root = _render_shipment(document)
    elif document.doc_type == "invoice":
        root = _render_invoice(document)
    elif document.doc_type == "request_for_quote":
        root = _render_rfq(document)
    elif document.doc_type == "quote":
        root = _render_quote(document)
    else:
        raise WireFormatError(f"OAGIS BODs here cannot carry doc_type {document.doc_type!r}")
    return serialize(root, declaration=True, indent=2)


def _render_application_area(root: XmlElement, document: Document) -> None:
    area = document.get("application_area")
    element = root.child("ApplicationArea")
    sender = element.child("Sender")
    sender.child("LogicalId", area["sender_id"])
    receiver = element.child("Receiver")
    receiver.child("LogicalId", area["receiver_id"])
    element.child("CreationDateTime", _text(area["creation_time"]))
    element.child("BODId", area["bod_id"])


def _render_process(document: Document) -> XmlElement:
    root = XmlElement(_PROCESS_ROOT, {"releaseID": "SIM.9"})
    _render_application_area(root, document)
    data_area = root.child("DataArea")
    data_area.child("Process")
    order = data_area.child("PurchaseOrder")
    header = document.get("order_header")
    header_element = order.child("PurchaseOrderHeader")
    header_element.child("DocumentId", header["document_id"])
    header_element.child("PurchaseOrderId", header["po_number"])
    header_element.child("Currency", header["currency"])
    header_element.child("TotalValue", _text(header["total_value"]))
    header_element.child("PaymentTerms", header.get("terms", ""))
    for line in document.get("order_lines"):
        line_element = order.child("PurchaseOrderLine")
        line_element.child("LineNumber", _text(line["line_num"]))
        line_element.child("ItemId", line["item_id"])
        line_element.child("ItemDescription", line.get("item_description", ""))
        line_element.child("Quantity", _text(line["quantity"]))
        line_element.child("UnitPrice", _text(line["price"]))
    return root


def _render_acknowledge(document: Document) -> XmlElement:
    root = XmlElement(_ACK_ROOT, {"releaseID": "SIM.9"})
    _render_application_area(root, document)
    data_area = root.child("DataArea")
    data_area.child("Acknowledge")
    order = data_area.child("PurchaseOrder")
    header = document.get("ack_header")
    header_element = order.child("PurchaseOrderHeader")
    header_element.child("DocumentId", header["document_id"])
    header_element.child("PurchaseOrderId", header["po_number"])
    header_element.child("AcknowledgeCode", header["acknowledge_code"])
    header_element.child("TotalAccepted", _text(header["total_accepted"]))
    for line in document.get("ack_lines"):
        line_element = order.child("PurchaseOrderLine")
        line_element.child("LineNumber", _text(line["line_num"]))
        line_element.child("ItemId", line["item_id"])
        line_element.child("LineCode", line["line_code"])
        line_element.child("Quantity", _text(line["quantity"]))
    return root


def _render_shipment(document: Document) -> XmlElement:
    root = XmlElement(_SHIPMENT_ROOT, {"releaseID": "SIM.9"})
    _render_application_area(root, document)
    data_area = root.child("DataArea")
    data_area.child("Show")
    shipment = data_area.child("Shipment")
    header = document.get("shipment_header")
    header_element = shipment.child("ShipmentHeader")
    header_element.child("DocumentId", header["document_id"])
    header_element.child("ShipmentId", header["shipment_id"])
    header_element.child("PurchaseOrderId", header["po_number"])
    header_element.child("Carrier", header["carrier"])
    header_element.child("PackageCount", _text(header["package_count"]))
    for line in document.get("shipment_lines"):
        line_element = shipment.child("ShipmentLine")
        line_element.child("LineNumber", _text(line["line_num"]))
        line_element.child("ItemId", line["item_id"])
        line_element.child("QuantityShipped", _text(line["quantity_shipped"]))
    return root


def _render_invoice(document: Document) -> XmlElement:
    root = XmlElement(_INVOICE_ROOT, {"releaseID": "SIM.9"})
    _render_application_area(root, document)
    data_area = root.child("DataArea")
    data_area.child("Process")
    invoice = data_area.child("Invoice")
    header = document.get("invoice_header")
    header_element = invoice.child("InvoiceHeader")
    header_element.child("DocumentId", header["document_id"])
    header_element.child("InvoiceId", header["invoice_number"])
    header_element.child("PurchaseOrderId", header["po_number"])
    header_element.child("Currency", header["currency"])
    header_element.child("Subtotal", _text(header["subtotal"]))
    header_element.child("Tax", _text(header["tax"]))
    header_element.child("TotalDue", _text(header["total_due"]))
    for line in document.get("invoice_lines"):
        line_element = invoice.child("InvoiceLine")
        line_element.child("LineNumber", _text(line["line_num"]))
        line_element.child("ItemId", line["item_id"])
        line_element.child("Quantity", _text(line["quantity"]))
        line_element.child("UnitPrice", _text(line["unit_price"]))
        line_element.child("Amount", _text(line["amount"]))
    return root


def _render_rfq(document: Document) -> XmlElement:
    root = XmlElement(_RFQ_ROOT, {"releaseID": "SIM.9"})
    _render_application_area(root, document)
    data_area = root.child("DataArea")
    data_area.child("Get")
    quote = data_area.child("Quote")
    header = document.get("rfq_header")
    header_element = quote.child("QuoteHeader")
    header_element.child("DocumentId", header["document_id"])
    header_element.child("RfqId", header["rfq_number"])
    header_element.child("RespondBy", _text(header["respond_by"]))
    for line in document.get("rfq_lines"):
        line_element = quote.child("QuoteLine")
        line_element.child("LineNumber", _text(line["line_num"]))
        line_element.child("ItemId", line["item_id"])
        line_element.child("ItemDescription", line.get("item_description", ""))
        line_element.child("Quantity", _text(line["quantity"]))
    return root


def _render_quote(document: Document) -> XmlElement:
    root = XmlElement(_QUOTE_ROOT, {"releaseID": "SIM.9"})
    _render_application_area(root, document)
    data_area = root.child("DataArea")
    data_area.child("Show")
    quote = data_area.child("Quote")
    header = document.get("quote_header")
    header_element = quote.child("QuoteHeader")
    header_element.child("DocumentId", header["document_id"])
    header_element.child("QuoteId", header["quote_number"])
    header_element.child("RfqId", header["rfq_number"])
    header_element.child("Currency", header["currency"])
    header_element.child("ValidUntil", _text(header["valid_until"]))
    header_element.child("TotalAmount", _text(header["total_amount"]))
    for line in document.get("quote_lines"):
        line_element = quote.child("QuoteLine")
        line_element.child("LineNumber", _text(line["line_num"]))
        line_element.child("ItemId", line["item_id"])
        line_element.child("Quantity", _text(line["quantity"]))
        line_element.child("UnitPrice", _text(line["unit_price"]))
    return root


def from_wire(text: str) -> Document:
    """Parse a BOD XML string into an ``oagis-bod`` document."""
    root = parse(text)
    if root.tag == _PROCESS_ROOT:
        return _parse_process(root)
    if root.tag == _ACK_ROOT:
        return _parse_acknowledge(root)
    if root.tag == _SHIPMENT_ROOT:
        return _parse_shipment(root)
    if root.tag == _INVOICE_ROOT:
        return _parse_invoice(root)
    if root.tag == _RFQ_ROOT:
        return _parse_rfq(root)
    if root.tag == _QUOTE_ROOT:
        return _parse_quote(root)
    raise WireFormatError(f"unknown OAGIS root element <{root.tag}>")


def _parse_rfq(root: XmlElement) -> Document:
    data_area = root.require("DataArea")
    if data_area.find("Get") is None:
        raise WireFormatError("GetQuote without <Get> verb")
    quote = data_area.require("Quote")
    header = quote.require("QuoteHeader")
    lines = [
        {
            "line_num": int(_float(line, "LineNumber")),
            "item_id": line.require("ItemId").text,
            "item_description": line.child_text("ItemDescription", ""),
            "quantity": _float(line, "Quantity"),
        }
        for line in quote.find_all("QuoteLine")
    ]
    if not lines:
        raise WireFormatError("GetQuote without QuoteLine")
    data = {
        "application_area": _parse_application_area(root),
        "rfq_header": {
            "document_id": header.require("DocumentId").text,
            "rfq_number": header.require("RfqId").text,
            "respond_by": _float(header, "RespondBy"),
        },
        "rfq_lines": lines,
    }
    return Document(OAGIS, "request_for_quote", data)


def _parse_quote(root: XmlElement) -> Document:
    data_area = root.require("DataArea")
    if data_area.find("Show") is None:
        raise WireFormatError("ShowQuote without <Show> verb")
    quote = data_area.require("Quote")
    header = quote.require("QuoteHeader")
    lines = [
        {
            "line_num": int(_float(line, "LineNumber")),
            "item_id": line.require("ItemId").text,
            "quantity": _float(line, "Quantity"),
            "unit_price": _float(line, "UnitPrice"),
        }
        for line in quote.find_all("QuoteLine")
    ]
    if not lines:
        raise WireFormatError("ShowQuote without QuoteLine")
    data = {
        "application_area": _parse_application_area(root),
        "quote_header": {
            "document_id": header.require("DocumentId").text,
            "quote_number": header.require("QuoteId").text,
            "rfq_number": header.require("RfqId").text,
            "currency": header.require("Currency").text,
            "valid_until": _float(header, "ValidUntil"),
            "total_amount": _float(header, "TotalAmount"),
        },
        "quote_lines": lines,
    }
    return Document(OAGIS, "quote", data)


def _parse_shipment(root: XmlElement) -> Document:
    data_area = root.require("DataArea")
    if data_area.find("Show") is None:
        raise WireFormatError("ShowShipment without <Show> verb")
    shipment = data_area.require("Shipment")
    header = shipment.require("ShipmentHeader")
    lines = [
        {
            "line_num": int(_float(line, "LineNumber")),
            "item_id": line.require("ItemId").text,
            "quantity_shipped": _float(line, "QuantityShipped"),
        }
        for line in shipment.find_all("ShipmentLine")
    ]
    if not lines:
        raise WireFormatError("ShowShipment without ShipmentLine")
    data = {
        "application_area": _parse_application_area(root),
        "shipment_header": {
            "document_id": header.require("DocumentId").text,
            "shipment_id": header.require("ShipmentId").text,
            "po_number": header.require("PurchaseOrderId").text,
            "carrier": header.require("Carrier").text,
            "package_count": int(_float(header, "PackageCount")),
        },
        "shipment_lines": lines,
    }
    return Document(OAGIS, "ship_notice", data)


def _parse_invoice(root: XmlElement) -> Document:
    data_area = root.require("DataArea")
    if data_area.find("Process") is None:
        raise WireFormatError("ProcessInvoice without <Process> verb")
    invoice = data_area.require("Invoice")
    header = invoice.require("InvoiceHeader")
    lines = [
        {
            "line_num": int(_float(line, "LineNumber")),
            "item_id": line.require("ItemId").text,
            "quantity": _float(line, "Quantity"),
            "unit_price": _float(line, "UnitPrice"),
            "amount": _float(line, "Amount"),
        }
        for line in invoice.find_all("InvoiceLine")
    ]
    if not lines:
        raise WireFormatError("ProcessInvoice without InvoiceLine")
    data = {
        "application_area": _parse_application_area(root),
        "invoice_header": {
            "document_id": header.require("DocumentId").text,
            "invoice_number": header.require("InvoiceId").text,
            "po_number": header.require("PurchaseOrderId").text,
            "currency": header.require("Currency").text,
            "subtotal": _float(header, "Subtotal"),
            "tax": _float(header, "Tax"),
            "total_due": _float(header, "TotalDue"),
        },
        "invoice_lines": lines,
    }
    return Document(OAGIS, "invoice", data)


def _parse_application_area(root: XmlElement) -> dict[str, Any]:
    area = root.require("ApplicationArea")
    creation_time = _float(area, "CreationDateTime")
    return {
        "sender_id": area.require("Sender").require("LogicalId").text,
        "receiver_id": area.require("Receiver").require("LogicalId").text,
        "creation_time": creation_time,
        "bod_id": area.require("BODId").text,
    }


def _float(element: XmlElement, tag: str) -> float:
    return wire_number(element.require(tag).text, f"<{tag}>")


def _parse_process(root: XmlElement) -> Document:
    data_area = root.require("DataArea")
    if data_area.find("Process") is None:
        raise WireFormatError("ProcessPurchaseOrder without <Process> verb")
    order = data_area.require("PurchaseOrder")
    header = order.require("PurchaseOrderHeader")
    lines = [
        {
            "line_num": int(_float(line, "LineNumber")),
            "item_id": line.require("ItemId").text,
            "item_description": line.child_text("ItemDescription", ""),
            "quantity": _float(line, "Quantity"),
            "price": _float(line, "UnitPrice"),
        }
        for line in order.find_all("PurchaseOrderLine")
    ]
    if not lines:
        raise WireFormatError("ProcessPurchaseOrder without PurchaseOrderLine")
    data = {
        "application_area": _parse_application_area(root),
        "order_header": {
            "document_id": header.require("DocumentId").text,
            "po_number": header.require("PurchaseOrderId").text,
            "currency": header.require("Currency").text,
            "total_value": _float(header, "TotalValue"),
            "terms": header.child_text("PaymentTerms", ""),
        },
        "order_lines": lines,
    }
    return Document(OAGIS, "purchase_order", data)


def _parse_acknowledge(root: XmlElement) -> Document:
    data_area = root.require("DataArea")
    if data_area.find("Acknowledge") is None:
        raise WireFormatError("AcknowledgePurchaseOrder without <Acknowledge> verb")
    order = data_area.require("PurchaseOrder")
    header = order.require("PurchaseOrderHeader")
    ack_code = header.require("AcknowledgeCode").text
    if ack_code not in STATUS_BY_ACK_CODE:
        raise WireFormatError(f"unknown AcknowledgeCode {ack_code!r}")
    lines = [
        {
            "line_num": int(_float(line, "LineNumber")),
            "item_id": line.require("ItemId").text,
            "line_code": line.require("LineCode").text,
            "quantity": _float(line, "Quantity"),
        }
        for line in order.find_all("PurchaseOrderLine")
    ]
    if not lines:
        raise WireFormatError("AcknowledgePurchaseOrder without PurchaseOrderLine")
    data = {
        "application_area": _parse_application_area(root),
        "ack_header": {
            "document_id": header.require("DocumentId").text,
            "po_number": header.require("PurchaseOrderId").text,
            "acknowledge_code": ack_code,
            "total_accepted": _float(header, "TotalAccepted"),
        },
        "ack_lines": lines,
    }
    return Document(OAGIS, "po_ack", data)


def oagis_po_schema() -> DocumentSchema:
    """Schema for the ``oagis-bod`` purchase-order layout."""
    return DocumentSchema(
        "oagis-bod/purchase_order",
        format_name=OAGIS,
        doc_type="purchase_order",
        fields=[
            FieldSpec("application_area.sender_id"),
            FieldSpec("application_area.receiver_id"),
            FieldSpec("application_area.bod_id"),
            FieldSpec("order_header.document_id"),
            FieldSpec("order_header.po_number"),
            FieldSpec("order_header.currency"),
            FieldSpec("order_header.total_value", "number"),
            FieldSpec("order_lines", "list", min_items=1),
        ],
    )


def oagis_asn_schema() -> DocumentSchema:
    """Schema for the ``oagis-bod`` ship-notice layout."""
    return DocumentSchema(
        "oagis-bod/ship_notice",
        format_name=OAGIS,
        doc_type="ship_notice",
        fields=[
            FieldSpec("application_area.sender_id"),
            FieldSpec("application_area.receiver_id"),
            FieldSpec("shipment_header.document_id"),
            FieldSpec("shipment_header.shipment_id"),
            FieldSpec("shipment_header.po_number"),
            FieldSpec("shipment_header.carrier"),
            FieldSpec("shipment_header.package_count", "int"),
            FieldSpec("shipment_lines", "list", min_items=1),
        ],
    )


def oagis_invoice_schema() -> DocumentSchema:
    """Schema for the ``oagis-bod`` invoice layout."""
    return DocumentSchema(
        "oagis-bod/invoice",
        format_name=OAGIS,
        doc_type="invoice",
        fields=[
            FieldSpec("application_area.sender_id"),
            FieldSpec("application_area.receiver_id"),
            FieldSpec("invoice_header.document_id"),
            FieldSpec("invoice_header.invoice_number"),
            FieldSpec("invoice_header.po_number"),
            FieldSpec("invoice_header.currency"),
            FieldSpec("invoice_header.subtotal", "number"),
            FieldSpec("invoice_header.tax", "number"),
            FieldSpec("invoice_header.total_due", "number"),
            FieldSpec("invoice_lines", "list", min_items=1),
        ],
    )


def oagis_rfq_schema() -> DocumentSchema:
    """Schema for the ``oagis-bod`` request-for-quote layout."""
    return DocumentSchema(
        "oagis-bod/request_for_quote",
        format_name=OAGIS,
        doc_type="request_for_quote",
        fields=[
            FieldSpec("application_area.sender_id"),
            FieldSpec("application_area.receiver_id"),
            FieldSpec("rfq_header.document_id"),
            FieldSpec("rfq_header.rfq_number"),
            FieldSpec("rfq_header.respond_by", "number"),
            FieldSpec("rfq_lines", "list", min_items=1),
        ],
    )


def oagis_quote_schema() -> DocumentSchema:
    """Schema for the ``oagis-bod`` quote layout."""
    return DocumentSchema(
        "oagis-bod/quote",
        format_name=OAGIS,
        doc_type="quote",
        fields=[
            FieldSpec("application_area.sender_id"),
            FieldSpec("application_area.receiver_id"),
            FieldSpec("quote_header.document_id"),
            FieldSpec("quote_header.quote_number"),
            FieldSpec("quote_header.rfq_number"),
            FieldSpec("quote_header.currency"),
            FieldSpec("quote_header.total_amount", "number"),
            FieldSpec("quote_lines", "list", min_items=1),
        ],
    )


def oagis_poa_schema() -> DocumentSchema:
    """Schema for the ``oagis-bod`` PO-acknowledgment layout."""
    return DocumentSchema(
        "oagis-bod/po_ack",
        format_name=OAGIS,
        doc_type="po_ack",
        fields=[
            FieldSpec("application_area.sender_id"),
            FieldSpec("application_area.receiver_id"),
            FieldSpec("ack_header.po_number"),
            FieldSpec("ack_header.acknowledge_code", choices=tuple(STATUS_BY_ACK_CODE)),
            FieldSpec("ack_lines", "list", min_items=1),
        ],
    )
