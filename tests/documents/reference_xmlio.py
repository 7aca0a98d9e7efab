"""Reference XML parser and writer: the code the fast paths replaced.

``repro.documents.xmlio.parse`` is a find-driven scanner with an explicit
element stack.  This module keeps the parser it replaced, unchanged, as
the oracle for the differential tests in ``test_xmlio.py``: on any input
where this parser returns a tree or raises :class:`XmlSyntaxError`, the
scanner must return an equal tree or raise the same message at the same
offset.  It has no production caller.

Two known defects are kept on purpose, because the tests check that the
scanner does *not* share them: a malformed numeric character reference
(``&#xZZ;``, ``&#99999999;``) escapes as ``ValueError``/``OverflowError``,
and deep nesting escapes as ``RecursionError``.

The RosettaNet and OAGIS codecs write their documents with
``xmlio.XmlWriter``, element by element, straight from the document's
dicts.  :func:`reference_to_wire` keeps the way they wrote before: build
an :class:`XmlElement` tree per document with the codecs' tree renderers,
then :func:`serialize` it.  ``to_wire`` must return the same bytes on
every document this renders.
"""

from __future__ import annotations

import re
from typing import Any

from repro.documents import oagis, rosettanet
from repro.documents.model import Document
from repro.documents.xmlio import XmlElement
from repro.errors import WireFormatError, XmlSyntaxError

__all__ = ["reference_parse", "reference_to_wire", "serialize"]

_NAME_START = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_:"
)
_NAME_CHARS = _NAME_START | set("0123456789.-")

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}


class _Parser:
    """A single-pass recursive-descent parser over the input string."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.length = len(text)

    # -- low-level helpers ---------------------------------------------------

    def error(self, message: str) -> XmlSyntaxError:
        return XmlSyntaxError(message, position=self.pos)

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < self.length else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def skip_misc(self) -> None:
        """Skip whitespace, comments and the XML declaration."""
        while True:
            self.skip_whitespace()
            if self.startswith("<!--"):
                end = self.text.find("-->", self.pos + 4)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            elif self.startswith("<?"):
                end = self.text.find("?>", self.pos + 2)
                if end < 0:
                    raise self.error("unterminated declaration")
                self.pos = end + 2
            else:
                return

    def read_name(self) -> str:
        start = self.pos
        if self.peek() not in _NAME_START:
            raise self.error("expected XML name")
        self.pos += 1
        while self.peek() in _NAME_CHARS:
            self.pos += 1
        return self.text[start:self.pos]

    def read_entity(self) -> str:
        self.expect("&")
        end = self.text.find(";", self.pos)
        if end < 0 or end - self.pos > 10:
            raise self.error("unterminated entity reference")
        body = self.text[self.pos:end]
        self.pos = end + 1
        if body.startswith("#x") or body.startswith("#X"):
            return chr(int(body[2:], 16))
        if body.startswith("#"):
            return chr(int(body[1:]))
        if body in _ENTITIES:
            return _ENTITIES[body]
        raise self.error(f"unknown entity &{body};")

    # -- grammar -------------------------------------------------------------

    def parse_document(self) -> XmlElement:
        self.skip_misc()
        if not self.startswith("<"):
            raise self.error("expected root element")
        root = self.parse_element()
        self.skip_misc()
        if self.pos != self.length:
            raise self.error("content after document root")
        return root

    def parse_element(self) -> XmlElement:
        self.expect("<")
        tag = self.read_name()
        attrs = self.parse_attributes()
        if self.startswith("/>"):
            self.pos += 2
            return XmlElement(tag, attrs)
        self.expect(">")
        content = self.parse_content(tag)
        return XmlElement(tag, attrs, content)

    def parse_attributes(self) -> dict[str, str]:
        attrs: dict[str, str] = {}
        while True:
            self.skip_whitespace()
            if self.peek() in (">", "/") or self.pos >= self.length:
                return attrs
            name = self.read_name()
            self.skip_whitespace()
            self.expect("=")
            self.skip_whitespace()
            quote = self.peek()
            if quote not in ('"', "'"):
                raise self.error("attribute value must be quoted")
            self.pos += 1
            value_pieces: list[str] = []
            while self.peek() != quote:
                if self.pos >= self.length:
                    raise self.error("unterminated attribute value")
                if self.peek() == "&":
                    value_pieces.append(self.read_entity())
                elif self.peek() == "<":
                    raise self.error("'<' not allowed in attribute value")
                else:
                    value_pieces.append(self.peek())
                    self.pos += 1
            self.pos += 1
            if name in attrs:
                raise self.error(f"duplicate attribute {name!r}")
            attrs[name] = "".join(value_pieces)

    def parse_content(self, open_tag: str) -> list[XmlElement | str]:
        content: list[XmlElement | str] = []
        text_pieces: list[str] = []

        def flush_text() -> None:
            if text_pieces:
                content.append("".join(text_pieces))
                text_pieces.clear()

        while True:
            if self.pos >= self.length:
                raise self.error(f"unterminated element <{open_tag}>")
            if self.startswith("</"):
                flush_text()
                self.pos += 2
                closing = self.read_name()
                if closing != open_tag:
                    raise self.error(
                        f"mismatched closing tag </{closing}> for <{open_tag}>"
                    )
                self.skip_whitespace()
                self.expect(">")
                return content
            if self.startswith("<!--"):
                end = self.text.find("-->", self.pos + 4)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            elif self.peek() == "<":
                flush_text()
                content.append(self.parse_element())
            elif self.peek() == "&":
                text_pieces.append(self.read_entity())
            else:
                text_pieces.append(self.peek())
                self.pos += 1


def reference_parse(text: str) -> XmlElement:
    """Parse ``text`` with the reference parser (same contract as ``parse``)."""
    if not isinstance(text, str):
        raise XmlSyntaxError(f"expected str, got {type(text).__name__}")
    return _Parser(text).parse_document()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {**_TEXT_ESCAPES, '"': "&quot;"}

_NAME = re.compile(r"[A-Za-z_:][A-Za-z0-9_:.\-]*")


def _escape(value: str, table: dict[str, str]) -> str:
    for raw, replacement in table.items():
        value = value.replace(raw, replacement)
    return value


def _check_name(name: str) -> str:
    if _NAME.fullmatch(name) is None:
        raise XmlSyntaxError(f"invalid XML name {name!r}")
    return name


def serialize(root: XmlElement, declaration: bool = True, indent: int = 0) -> str:
    """Serialize ``root`` to an XML string.

    ``indent > 0`` pretty-prints element-only content with that many spaces
    per level; mixed content (text alongside elements) is always emitted
    verbatim so that round-tripping preserves text exactly.
    """
    pieces: list[str] = []
    if declaration:
        pieces.append('<?xml version="1.0" encoding="UTF-8"?>')
        if indent:
            pieces.append("\n")
    _serialize_element(root, pieces, indent, 0)
    return "".join(pieces)


def _serialize_element(
    element: XmlElement, pieces: list[str], indent: int, depth: int
) -> None:
    pad = " " * (indent * depth) if indent else ""
    pieces.append(f"{pad}<{_check_name(element.tag)}")
    for key in element.attrs:
        pieces.append(f' {_check_name(key)}="{_escape(element.attrs[key], _ATTR_ESCAPES)}"')
    if not element.content:
        pieces.append("/>")
        if indent:
            pieces.append("\n")
        return
    pieces.append(">")
    element_only = all(isinstance(item, XmlElement) for item in element.content)
    if indent and element_only:
        pieces.append("\n")
        for item in element.content:
            _serialize_element(item, pieces, indent, depth + 1)  # type: ignore[arg-type]
        pieces.append(pad)
    else:
        for item in element.content:
            if isinstance(item, str):
                pieces.append(_escape(item, _TEXT_ESCAPES))
            else:
                _serialize_element(item, pieces, 0, 0)
    pieces.append(f"</{element.tag}>")
    if indent:
        pieces.append("\n")


# ---------------------------------------------------------------------------
# The codecs' tree renderers
# ---------------------------------------------------------------------------


def reference_to_wire(document: Document) -> str:
    """The text the RosettaNet or OAGIS codec wrote for ``document`` before ``XmlWriter``."""
    renderers = _RENDERERS.get(document.format_name, {})
    if document.doc_type not in renderers:
        raise WireFormatError(
            f"no reference renderer for {document.format_name} {document.doc_type}"
        )
    return serialize(renderers[document.doc_type](document), declaration=True, indent=2)


def _text(value: Any) -> str:
    return "" if value is None else str(value)


# -- RosettaNet PIP 3A4 ---------------------------------------------------------


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
    root = XmlElement("Pip3A4PurchaseOrderRequest")
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
    root = XmlElement("Pip3A4PurchaseOrderConfirmation")
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


def _render_receipt(document: Document) -> XmlElement:
    root = XmlElement("ReceiptAcknowledgment")
    _render_service_header(root, document)
    receipt = document.get("receipt")
    receipt_element = root.child("Receipt")
    receipt_element.child("OriginalDocumentIdentifier", receipt["original_document_id"])
    receipt_element.child("OriginalDocumentType", receipt["original_doc_type"])
    receipt_element.child("ReceivedAt", _text(receipt["received_at"]))
    return root


# -- OAGIS BODs -------------------------------------------------------------------


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
    root = XmlElement("ProcessPurchaseOrder", {"releaseID": "SIM.9"})
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
    root = XmlElement("AcknowledgePurchaseOrder", {"releaseID": "SIM.9"})
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
    root = XmlElement("ShowShipment", {"releaseID": "SIM.9"})
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
    root = XmlElement("ProcessInvoice", {"releaseID": "SIM.9"})
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
    root = XmlElement("GetQuote", {"releaseID": "SIM.9"})
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
    root = XmlElement("ShowQuote", {"releaseID": "SIM.9"})
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


_RENDERERS = {
    rosettanet.ROSETTANET: {
        "purchase_order": _render_request,
        "po_ack": _render_confirmation,
        "receipt_ack": _render_receipt,
    },
    oagis.OAGIS: {
        "purchase_order": _render_process,
        "po_ack": _render_acknowledge,
        "ship_notice": _render_shipment,
        "invoice": _render_invoice,
        "request_for_quote": _render_rfq,
        "quote": _render_quote,
    },
}
