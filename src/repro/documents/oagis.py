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

from repro.documents.layout import (
    Field, Layout, XmlFormat, code, group, integer, number, optional, repeated, text, verb,
)
from repro.documents.model import Document
from repro.documents.schema import DocumentSchema, FieldSpec

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
STATUS_BY_ACK_CODE = {value: status for status, value in ACK_CODE_BY_STATUS.items()}

LINE_CODE_BY_STATUS = {"accepted": "Accepted", "rejected": "Rejected", "backordered": "Backordered"}
STATUS_BY_LINE_CODE = {value: status for status, value in LINE_CODE_BY_STATUS.items()}


def _bod(root: str, doc_type: str, verb_tag: str, noun: str, *fields: Field) -> Layout:
    """A BOD layout: ``ApplicationArea``, then ``DataArea`` with the verb and the noun's fields."""
    return Layout(root, doc_type, (
        group(
            "ApplicationArea", "application_area",
            group("Sender", None, text("LogicalId", "sender_id")),
            group("Receiver", None, text("LogicalId", "receiver_id")),
            number("CreationDateTime", "creation_time"),
            text("BODId", "bod_id"),
        ),
        group("DataArea", None, verb(verb_tag), group(noun, None, *fields)),
    ), {"releaseID": "SIM.9"})


_FORMAT = XmlFormat(OAGIS, "OAGIS", (
    _bod(
        "ProcessPurchaseOrder", "purchase_order", "Process", "PurchaseOrder",
        group(
            "PurchaseOrderHeader", "order_header",
            text("DocumentId", "document_id"),
            text("PurchaseOrderId", "po_number"),
            text("Currency", "currency"),
            number("TotalValue", "total_value"),
            optional("PaymentTerms", "terms"),
        ),
        repeated(
            "PurchaseOrderLine", "order_lines",
            integer("LineNumber", "line_num"),
            text("ItemId", "item_id"),
            optional("ItemDescription", "item_description"),
            number("Quantity", "quantity"),
            number("UnitPrice", "price"),
        ),
    ),
    _bod(
        "AcknowledgePurchaseOrder", "po_ack", "Acknowledge", "PurchaseOrder",
        group(
            "PurchaseOrderHeader", "ack_header",
            text("DocumentId", "document_id"),
            text("PurchaseOrderId", "po_number"),
            code("AcknowledgeCode", "acknowledge_code", STATUS_BY_ACK_CODE),
            number("TotalAccepted", "total_accepted"),
        ),
        repeated(
            "PurchaseOrderLine", "ack_lines",
            integer("LineNumber", "line_num"),
            text("ItemId", "item_id"),
            text("LineCode", "line_code"),
            number("Quantity", "quantity"),
        ),
    ),
    _bod(
        "ShowShipment", "ship_notice", "Show", "Shipment",
        group(
            "ShipmentHeader", "shipment_header",
            text("DocumentId", "document_id"),
            text("ShipmentId", "shipment_id"),
            text("PurchaseOrderId", "po_number"),
            text("Carrier", "carrier"),
            integer("PackageCount", "package_count"),
        ),
        repeated(
            "ShipmentLine", "shipment_lines",
            integer("LineNumber", "line_num"),
            text("ItemId", "item_id"),
            number("QuantityShipped", "quantity_shipped"),
        ),
    ),
    _bod(
        "ProcessInvoice", "invoice", "Process", "Invoice",
        group(
            "InvoiceHeader", "invoice_header",
            text("DocumentId", "document_id"),
            text("InvoiceId", "invoice_number"),
            text("PurchaseOrderId", "po_number"),
            text("Currency", "currency"),
            number("Subtotal", "subtotal"),
            number("Tax", "tax"),
            number("TotalDue", "total_due"),
        ),
        repeated(
            "InvoiceLine", "invoice_lines",
            integer("LineNumber", "line_num"),
            text("ItemId", "item_id"),
            number("Quantity", "quantity"),
            number("UnitPrice", "unit_price"),
            number("Amount", "amount"),
        ),
    ),
    _bod(
        "GetQuote", "request_for_quote", "Get", "Quote",
        group(
            "QuoteHeader", "rfq_header",
            text("DocumentId", "document_id"),
            text("RfqId", "rfq_number"),
            number("RespondBy", "respond_by"),
        ),
        repeated(
            "QuoteLine", "rfq_lines",
            integer("LineNumber", "line_num"),
            text("ItemId", "item_id"),
            optional("ItemDescription", "item_description"),
            number("Quantity", "quantity"),
        ),
    ),
    _bod(
        "ShowQuote", "quote", "Show", "Quote",
        group(
            "QuoteHeader", "quote_header",
            text("DocumentId", "document_id"),
            text("QuoteId", "quote_number"),
            text("RfqId", "rfq_number"),
            text("Currency", "currency"),
            number("ValidUntil", "valid_until"),
            number("TotalAmount", "total_amount"),
        ),
        repeated(
            "QuoteLine", "quote_lines",
            integer("LineNumber", "line_num"),
            text("ItemId", "item_id"),
            number("Quantity", "quantity"),
            number("UnitPrice", "unit_price"),
        ),
    ),
))


def to_wire(document: Document) -> str:
    """Render an ``oagis-bod`` document to its BOD XML string."""
    return _FORMAT.write(document)


def from_wire(text: str) -> Document:
    """Parse a BOD XML string into a sealed ``oagis-bod`` document."""
    return _FORMAT.read(text).seal()


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
