"""Reference XML reader and writer: the code the layout codecs replaced.

The RosettaNet and OAGIS codecs read and write their documents by
declared layout (``repro.documents.layout``): ``xmlio.scan`` reads the
text once and keeps only the elements a layout names, and
``xmlio.XmlWriter`` writes straight from the document's dicts.  Neither
builds an element tree.  This module keeps the code they replaced, as
the oracle for the differential tests in ``test_xmlio.py``.  Its one
edit since is the character-reference rule in ``_reference``, kept the
same as the scanner's: XML 1.0 ``CharRef`` forms naming a ``Char`` only.
It has no production caller, and it shares no reader code with the
codecs: only ``Document``, the error classes, the code tables, the
format names and ``wire_number``.

* :func:`reference_from_wire` is the old reader: the find-driven tree
  parser ``parse``, which builds an :class:`XmlElement` tree, and the
  codecs' tree readers (``_parse_request`` and the rest) that walked it.
  Where it returns a document, ``from_wire`` must return an equal one;
  where it raises, ``from_wire`` must raise ``WireFormatError``, and
  ``XmlSyntaxError`` wherever ``parse`` fails.
* :func:`reference_to_wire` is the old writer: build an
  :class:`XmlElement` tree per document with the codecs' tree renderers,
  then :func:`serialize` it.  ``to_wire`` must return the same bytes on
  every document this renders.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.documents.model import Document
from repro.documents.oagis import OAGIS, STATUS_BY_ACK_CODE
from repro.documents.rosettanet import ROSETTANET, STATUS_BY_RESPONSE_CODE
from repro.documents.wire import wire_number
from repro.errors import WireFormatError, XmlSyntaxError

__all__ = ["XmlElement", "parse", "reference_from_wire", "reference_to_wire", "serialize"]


@dataclass
class XmlElement:
    """An XML element: tag, attributes, text chunks and child elements.

    ``content`` is the ordered mixed content: a list whose items are either
    ``str`` (text) or :class:`XmlElement` (child).  Convenience accessors
    cover the common case of element-only or text-only content.
    """

    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    content: list["XmlElement | str"] = field(default_factory=list)

    # -- construction helpers ------------------------------------------------

    def child(self, tag: str, text: str | None = None, **attrs: str) -> "XmlElement":
        """Append and return a new child element (optionally with text)."""
        element = XmlElement(tag, dict(attrs))
        if text is not None:
            element.content.append(text)
        self.content.append(element)
        return element

    # -- queries -------------------------------------------------------------

    @property
    def children(self) -> list["XmlElement"]:
        """Child elements, in document order (text chunks excluded)."""
        return [item for item in self.content if isinstance(item, XmlElement)]

    @property
    def text(self) -> str:
        """Concatenated direct text content."""
        return "".join([item for item in self.content if isinstance(item, str)])

    def find(self, tag: str) -> "XmlElement | None":
        """Return the first direct child with ``tag``, or ``None``."""
        for item in self.content:
            if isinstance(item, XmlElement) and item.tag == tag:
                return item
        return None

    def find_all(self, tag: str) -> list["XmlElement"]:
        """Return all direct children with ``tag``."""
        return [element for element in self.children if element.tag == tag]

    def require(self, tag: str) -> "XmlElement":
        """Like :meth:`find` but raises when the child is absent."""
        element = self.find(tag)
        if element is None:
            raise XmlSyntaxError(f"<{self.tag}> is missing required child <{tag}>")
        return element

    def child_text(self, tag: str, default: str | None = None) -> str | None:
        """Return the text of the first ``tag`` child, or ``default``."""
        element = self.find(tag)
        return element.text if element is not None else default

    def iter(self) -> Iterator["XmlElement"]:
        """Depth-first iteration over this element and all descendants."""
        yield self
        for element in self.children:
            yield from element.iter()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, XmlElement)
            and self.tag == other.tag
            and self.attrs == other.attrs
            and self.content == other.content
        )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# The one XML name pattern.
_NAME = re.compile(r"[A-Za-z_:][A-Za-z0-9_:.\-]*")

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
# A character reference's body: '#' and decimal digits, or '#x' and hex digits.
_CHAR_REF = re.compile(r"#(?:([0-9]+)|x([0-9a-fA-F]+))")

_SPACE = re.compile(r"[ \t\r\n]*")
# An attribute value's run up to its closing quote, a reference or a '<'.
_VALUE_RUN = {'"': re.compile(r'[^"&<]*'), "'": re.compile(r"[^'&<]*")}


def parse(text: str) -> XmlElement:
    """Parse an XML string and return its root :class:`XmlElement`.

    Raises :class:`XmlSyntaxError`, and nothing else, on any input that is
    not a document of the grammar above.
    """
    if not isinstance(text, str):
        raise XmlSyntaxError(f"expected str, got {type(text).__name__}")
    pos = _skip_misc(text, 0)
    if not text.startswith("<", pos):
        raise XmlSyntaxError("expected root element", pos)
    root, pos, is_open = _start_tag(text, pos)
    if is_open:
        pos = _scan_content(text, pos, root)
    pos = _skip_misc(text, pos)
    if pos != len(text):
        raise XmlSyntaxError("content after document root", pos)
    return root


def _skip_misc(text: str, pos: int) -> int:
    """Skip whitespace, comments and XML declarations from ``pos``."""
    while True:
        pos = _SPACE.match(text, pos).end()
        if text.startswith("<!--", pos):
            end = text.find("-->", pos + 4)
            if end < 0:
                raise XmlSyntaxError("unterminated comment", pos)
            pos = end + 3
        elif text.startswith("<?", pos):
            end = text.find("?>", pos + 2)
            if end < 0:
                raise XmlSyntaxError("unterminated declaration", pos)
            pos = end + 2
        else:
            return pos


def _scan_content(text: str, pos: int, root: XmlElement) -> int:
    """Fill ``root`` from its content at ``pos``; return the offset after its end tag.

    Open elements live on an explicit stack, so nesting depth is bounded by
    memory, not by the interpreter's recursion limit.  Text between two
    pieces of markup is sliced in one step; adjacent runs, references and
    runs split by a comment merge into one text chunk.
    """
    find = text.find
    startswith = text.startswith
    length = len(text)
    stack: list[tuple[XmlElement, str]] = []
    element = root
    content = root.content
    closing = f"</{root.tag}>"
    pieces: list[str] = []
    while True:
        lt = find("<", pos)
        if lt < 0:
            lt = length
        amp = find("&", pos, lt)
        while amp >= 0:
            if amp > pos:
                pieces.append(text[pos:amp])
            value, pos = _reference(text, amp)
            pieces.append(value)
            amp = find("&", pos, lt)
        if lt > pos:
            pieces.append(text[pos:lt])
        pos = lt
        if pos >= length:
            raise XmlSyntaxError(f"unterminated element <{element.tag}>", pos)
        if startswith("</", pos):
            if pieces:
                content.append("".join(pieces))
                pieces.clear()
            if startswith(closing, pos):
                pos += len(closing)
            else:
                pos = _end_tag(text, pos, element.tag)
            if not stack:
                return pos
            element, closing = stack.pop()
            content = element.content
        elif startswith("<!--", pos):
            end = find("-->", pos + 4)
            if end < 0:
                raise XmlSyntaxError("unterminated comment", pos)
            pos = end + 3
        else:
            if pieces:
                content.append("".join(pieces))
                pieces.clear()
            child, pos, is_open = _start_tag(text, pos)
            content.append(child)
            if is_open:
                stack.append((element, closing))
                element = child
                content = child.content
                closing = f"</{child.tag}>"


def _start_tag(text: str, pos: int) -> tuple[XmlElement, int, bool]:
    """Read the start tag at ``pos`` (a ``<``).

    Returns the new element, the offset after the tag, and whether the
    element is open (``>``) rather than empty (``/>``).
    """
    match = _NAME.match(text, pos + 1)
    if match is None:
        raise XmlSyntaxError("expected XML name", pos + 1)
    tag = match.group()
    pos = match.end()
    attrs: dict[str, str] = {}
    while True:
        pos = _SPACE.match(text, pos).end()
        if text.startswith(">", pos):
            return XmlElement(tag, attrs), pos + 1, True
        if text.startswith("/>", pos):
            return XmlElement(tag, attrs), pos + 2, False
        if pos >= len(text) or text[pos] == "/":
            raise XmlSyntaxError("expected '>'", pos)
        name, value, pos = _attribute(text, pos)
        if name in attrs:
            raise XmlSyntaxError(f"duplicate attribute {name!r}", pos)
        attrs[name] = value


def _attribute(text: str, pos: int) -> tuple[str, str, int]:
    """Read ``name = "value"`` at ``pos``; return name, value and the offset after it."""
    match = _NAME.match(text, pos)
    if match is None:
        raise XmlSyntaxError("expected XML name", pos)
    pos = _SPACE.match(text, match.end()).end()
    if not text.startswith("=", pos):
        raise XmlSyntaxError("expected '='", pos)
    pos = _SPACE.match(text, pos + 1).end()
    quote = text[pos:pos + 1]
    if quote not in ('"', "'"):
        raise XmlSyntaxError("attribute value must be quoted", pos)
    run = _VALUE_RUN[quote]
    pos += 1
    pieces: list[str] = []
    while True:
        end = run.match(text, pos).end()
        if end > pos:
            pieces.append(text[pos:end])
        pos = end
        if pos >= len(text):
            raise XmlSyntaxError("unterminated attribute value", pos)
        if text[pos] == quote:
            return match.group(), "".join(pieces), pos + 1
        if text[pos] == "<":
            raise XmlSyntaxError("'<' not allowed in attribute value", pos)
        value, pos = _reference(text, pos)
        pieces.append(value)


def _end_tag(text: str, pos: int, open_tag: str) -> int:
    """Read an end tag at ``pos`` that is not exactly ``</open_tag>``.

    Space before the ``>`` is allowed; anything else is an error.
    """
    pos += 2
    match = _NAME.match(text, pos)
    if match is None:
        raise XmlSyntaxError("expected XML name", pos)
    pos = match.end()
    if match.group() != open_tag:
        raise XmlSyntaxError(
            f"mismatched closing tag </{match.group()}> for <{open_tag}>", pos
        )
    pos = _SPACE.match(text, pos).end()
    if not text.startswith(">", pos):
        raise XmlSyntaxError("expected '>'", pos)
    return pos + 1


def _reference(text: str, amp: int) -> tuple[str, int]:
    """Decode the entity or character reference at ``amp`` (a ``&``).

    Returns the character and the offset after the ``;``.
    """
    start = amp + 1
    end = text.find(";", start, start + 11)
    if end < 0:
        raise XmlSyntaxError("unterminated entity reference", start)
    body = text[start:end]
    if body.startswith("#"):
        match = _CHAR_REF.fullmatch(body)
        if match is not None:
            decimal, hexadecimal = match.groups()
            code = int(decimal) if decimal is not None else int(hexadecimal, 16)
            if _is_char(code):
                return chr(code), end + 1
        raise XmlSyntaxError(f"invalid character reference &{body};", end + 1)
    if body in _ENTITIES:
        return _ENTITIES[body], end + 1
    raise XmlSyntaxError(f"unknown entity &{body};", end + 1)


def _is_char(code: int) -> bool:
    """Whether ``code`` is an XML 1.0 ``Char``: tab, LF, CR, or a code point
    outside the C0 controls, the surrogates and U+FFFE/U+FFFF."""
    return (
        0x20 <= code <= 0xD7FF
        or code in (0x9, 0xA, 0xD)
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    )


# ---------------------------------------------------------------------------
# The codecs' tree readers
# ---------------------------------------------------------------------------


def reference_from_wire(format_name: str, text: str) -> Document:
    """The document the RosettaNet or OAGIS codec read from ``text`` before layouts."""
    if format_name == ROSETTANET:
        return _rosettanet_from_wire(text)
    if format_name == OAGIS:
        return _oagis_from_wire(text)
    raise WireFormatError(f"no reference reader for {format_name}")


# -- RosettaNet PIP 3A4 ---------------------------------------------------------

_REQUEST_ROOT = "Pip3A4PurchaseOrderRequest"
_CONFIRM_ROOT = "Pip3A4PurchaseOrderConfirmation"
_RECEIPT_ROOT = "ReceiptAcknowledgment"


def _rosettanet_from_wire(text: str) -> Document:
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


# -- OAGIS BODs -------------------------------------------------------------------

_PROCESS_ROOT = "ProcessPurchaseOrder"
_ACK_ROOT = "AcknowledgePurchaseOrder"
_SHIPMENT_ROOT = "ShowShipment"
_INVOICE_ROOT = "ProcessInvoice"
_RFQ_ROOT = "GetQuote"
_QUOTE_ROOT = "ShowQuote"


def _oagis_from_wire(text: str) -> Document:
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


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {**_TEXT_ESCAPES, '"': "&quot;"}


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
    ROSETTANET: {
        "purchase_order": _render_request,
        "po_ack": _render_confirmation,
        "receipt_ack": _render_receipt,
    },
    OAGIS: {
        "purchase_order": _render_process,
        "po_ack": _render_acknowledge,
        "ship_notice": _render_shipment,
        "invoice": _render_invoice,
        "request_for_quote": _render_rfq,
        "quote": _render_quote,
    },
}
