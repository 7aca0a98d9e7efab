"""EDI X12-like wire format (the paper's ``EDI [19]``, www.x12.org).

A faithful *subset* of ANSI X12: segment strings terminated by ``~``,
elements separated by ``*``, with the standard envelope hierarchy

    ISA (interchange)  >  GS (functional group)  >  ST (transaction set)

around transaction sets ``850`` (purchase order) and ``855`` (purchase
order acknowledgment).  Segment vocabulary used:

====== ===========================================================
``850`` BEG (beginning), CUR (currency), ITD (terms), PO1 (line),
        PID (description), CTT (totals), AMT (amount)
``855`` BAK (beginning ack), ACK (line ack, one per PO1)
====== ===========================================================

The **EDI document layout** (what a :class:`~repro.documents.model.Document`
with ``format_name="edi-x12"`` contains) mirrors the segment structure —
field names are segment-qualified and deliberately unlike the normalized
layout, because translating between them is the transformation layer's job:

``purchase_order`` layout::

    isa: sender_id, receiver_id, control_number, date
    st:  transaction_set ("850"), control_number
    beg: purpose_code, type_code, po_number, date
    cur: currency
    itd: terms_description
    po1[]: line_no, quantity, unit, unit_price, sku, description
    ctt: line_count
    amt: total_amount

``po_ack`` layout::

    isa: sender_id, receiver_id, control_number, date
    st:  transaction_set ("855"), control_number
    bak: purpose_code, ack_type, po_number, date
    ack[]: line_status, quantity, unit, sku, line_no
    ctt: line_count
    amt: accepted_amount

``ship_notice`` layout (transaction set ``856``)::

    isa / st as above
    bsn: purpose_code, shipment_id, date
    prf: po_number
    td5: carrier
    td1: package_count
    lines[]: line_no, sku, quantity_shipped    (LIN + SN1 pairs)
    ctt: line_count

``invoice`` layout (transaction set ``810``)::

    isa / st as above
    big: date, invoice_number, po_number
    cur: currency
    it1[]: line_no, quantity, unit, unit_price, sku, amount
    tds: total_cents                            (X12 carries cents)
    amt_subtotal / amt_tax: subtotal, tax
    ctt: line_count
"""

from __future__ import annotations

from typing import Any

from repro.documents.model import Document
from repro.documents.schema import DocumentSchema, FieldSpec
from repro.documents.wire import render, wire_number as _number
from repro.errors import WireFormatError

__all__ = [
    "EDI_X12",
    "ACK_TYPE_BY_STATUS",
    "STATUS_BY_ACK_TYPE",
    "LINE_CODE_BY_STATUS",
    "STATUS_BY_LINE_CODE",
    "to_wire",
    "from_wire",
    "edi_po_schema",
    "edi_poa_schema",
]

EDI_X12 = "edi-x12"

SEGMENT_TERMINATOR = "~"
ELEMENT_SEPARATOR = "*"

# X12 BAK01/BAK02-style codes <-> normalized POA statuses.
ACK_TYPE_BY_STATUS = {"accepted": "AD", "rejected": "RD", "partial": "AC"}
STATUS_BY_ACK_TYPE = {code: status for status, code in ACK_TYPE_BY_STATUS.items()}

# X12 ACK01 line status codes <-> normalized line statuses.
LINE_CODE_BY_STATUS = {"accepted": "IA", "rejected": "IR", "backordered": "IB"}
STATUS_BY_LINE_CODE = {code: status for status, code in LINE_CODE_BY_STATUS.items()}


def _escape(value: Any) -> str:
    text = "" if value is None else str(value)
    if SEGMENT_TERMINATOR in text or ELEMENT_SEPARATOR in text:
        raise WireFormatError(
            f"EDI element value {text!r} contains a reserved delimiter"
        )
    return text


def _segment(tag: str, *elements: Any) -> str:
    rendered = [tag, *(_escape(element) for element in elements)]
    while len(rendered) > 1 and rendered[-1] == "":
        rendered.pop()
    return ELEMENT_SEPARATOR.join(rendered) + SEGMENT_TERMINATOR


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def to_wire(document: Document) -> str:
    """Render an ``edi-x12`` document to its X12 segment string."""
    if document.format_name != EDI_X12:
        raise WireFormatError(
            f"to_wire expects format {EDI_X12!r}, got {document.format_name!r}"
        )
    body = _BODIES.get(document.doc_type)
    if body is None:
        raise WireFormatError(f"EDI cannot carry doc_type {document.doc_type!r}")
    set_id, segments = body
    return render(lambda data: _wrap_envelope(data, set_id, segments(data)), document)


def _wrap_envelope(data: dict[str, Any], set_id: str, body: list[str]) -> str:
    isa = data["isa"]
    interchange = _segment(
        "ISA",
        "00", "", "00", "",
        "ZZ", isa["sender_id"],
        "ZZ", isa["receiver_id"],
        isa["date"], "0000", "U", "00401",
        isa["control_number"], "0", "P", ">",
    )
    group = _segment(
        "GS",
        {"850": "PO", "855": "PR", "856": "SH", "810": "IN", "997": "FA"}[set_id],
        isa["sender_id"], isa["receiver_id"],
        isa["date"], "0000", isa["control_number"], "X", "004010",
    )
    st_control = data["st"]["control_number"]
    segments = [
        interchange,
        group,
        _segment("ST", set_id, st_control),
        *body,
        _segment("SE", len(body) + 2, st_control),
        _segment("GE", 1, isa["control_number"]),
        _segment("IEA", 1, isa["control_number"]),
    ]
    return "".join(segments)


def _po_body_segments(data: dict[str, Any]) -> list[str]:
    beg = data["beg"]
    segments = [
        _segment("BEG", beg["purpose_code"], beg["type_code"], beg["po_number"], "", beg["date"]),
        _segment("CUR", "BY", data["cur"]["currency"]),
    ]
    try:
        terms = data["itd"]["terms_description"]
    except (KeyError, TypeError):  # no terms: the ITD segment is optional
        terms = None
    if terms:
        segments.append(_segment("ITD", "", "", "", "", "", "", "", "", "", "", "", terms))
    for line in data["po1"]:
        segments.append(
            _segment(
                "PO1",
                line["line_no"], line["quantity"], line.get("unit", "EA"),
                line["unit_price"], "", "VP", line["sku"],
            )
        )
        if line.get("description"):
            segments.append(_segment("PID", "F", "", "", "", line["description"]))
    segments.append(_segment("CTT", data["ctt"]["line_count"]))
    segments.append(_segment("AMT", "TT", data["amt"]["total_amount"]))
    return segments


def _poa_body_segments(data: dict[str, Any]) -> list[str]:
    bak = data["bak"]
    segments = [
        _segment("BAK", bak["purpose_code"], bak["ack_type"], bak["po_number"], bak["date"]),
    ]
    for line in data["ack"]:
        segments.append(
            _segment(
                "ACK",
                line["line_status"], line["quantity"], line.get("unit", "EA"),
                "", "", "VP", line["sku"], "", "", "", "", "", "", "", "",
                "", "", "", "", "", "", "", "", "", "", "", "", line["line_no"],
            )
        )
    segments.append(_segment("CTT", data["ctt"]["line_count"]))
    segments.append(_segment("AMT", "AA", data["amt"]["accepted_amount"]))
    return segments


def _asn_body_segments(data: dict[str, Any]) -> list[str]:
    bsn = data["bsn"]
    segments = [
        _segment("BSN", bsn["purpose_code"], bsn["shipment_id"], bsn["date"]),
        _segment("PRF", data["prf"]["po_number"]),
        _segment("TD5", "B", "2", data["td5"]["carrier"]),
        _segment("TD1", "CTN", data["td1"]["package_count"]),
    ]
    for line in data["lines"]:
        segments.append(_segment("LIN", line["line_no"], "VP", line["sku"]))
        segments.append(_segment("SN1", line["line_no"], line["quantity_shipped"], "EA"))
    segments.append(_segment("CTT", data["ctt"]["line_count"]))
    return segments


def _invoice_body_segments(data: dict[str, Any]) -> list[str]:
    big = data["big"]
    segments = [
        _segment("BIG", big["date"], big["invoice_number"], "", big["po_number"]),
        _segment("CUR", "SE", data["cur"]["currency"]),
    ]
    for line in data["it1"]:
        segments.append(
            _segment(
                "IT1",
                line["line_no"], line["quantity"], line.get("unit", "EA"),
                line["unit_price"], "VP", line["sku"], "", line["amount"],
            )
        )
    segments.append(_segment("TDS", data["tds"]["total_cents"]))
    segments.append(_segment("AMT", "1", data["amt_subtotal"]["subtotal"]))
    segments.append(_segment("AMT", "T", data["amt_tax"]["tax"]))
    segments.append(_segment("CTT", data["ctt"]["line_count"]))
    return segments


def _997_body_segments(data: dict[str, Any]) -> list[str]:
    ak1 = data["ak1"]
    segments = [_segment("AK1", ak1["functional_code"], ak1["group_control_number"])]
    segments.append(_segment("AK9", data["ak9"]["status_code"], 1, 1, 1))
    return segments


# doc_type -> (transaction set, body segment writer)
_BODIES = {
    "purchase_order": ("850", _po_body_segments),
    "po_ack": ("855", _poa_body_segments),
    "ship_notice": ("856", _asn_body_segments),
    "invoice": ("810", _invoice_body_segments),
    "functional_ack": ("997", _997_body_segments),
}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def from_wire(text: str) -> Document:
    """Parse an X12 segment string into an ``edi-x12`` document."""
    if not isinstance(text, str) or not text.strip():
        raise WireFormatError("empty EDI interchange")
    segments = [
        segment.split(ELEMENT_SEPARATOR)
        for segment in text.strip().split(SEGMENT_TERMINATOR)
        if segment.strip()
    ]
    table = _SegmentReader(segments)
    isa = table.require("ISA")
    if len(isa) < 14:
        raise WireFormatError("ISA segment too short")
    table.require("GS")
    st = table.require("ST")
    if len(st) < 3:
        raise WireFormatError("ST segment too short")
    envelope = {
        "isa": {
            "sender_id": isa[6].strip(),
            "receiver_id": isa[8].strip(),
            "date": isa[9],
            "control_number": isa[13],
        },
        "st": {"transaction_set": st[1], "control_number": st[2]},
    }
    if st[1] == "850":
        document = _parse_850(table, envelope)
    elif st[1] == "855":
        document = _parse_855(table, envelope)
    elif st[1] == "856":
        document = _parse_856(table, envelope)
    elif st[1] == "810":
        document = _parse_810(table, envelope)
    elif st[1] == "997":
        document = _parse_997(table, envelope)
    else:
        raise WireFormatError(f"unsupported transaction set {st[1]!r}")
    _check_trailer(table, st[2])
    return document


class _SegmentReader:
    """Sequential reader over parsed segments with lookahead by tag."""

    def __init__(self, segments: list[list[str]]):
        self.segments = segments
        self.pos = 0

    def peek_tag(self) -> str | None:
        if self.pos < len(self.segments):
            return self.segments[self.pos][0]
        return None

    def next(self) -> list[str]:
        if self.pos >= len(self.segments):
            raise WireFormatError("unexpected end of interchange")
        segment = self.segments[self.pos]
        self.pos += 1
        return segment

    def require(self, tag: str) -> list[str]:
        segment = self.next()
        if segment[0] != tag:
            raise WireFormatError(f"expected segment {tag}, found {segment[0]}")
        return segment

    def take_if(self, tag: str) -> list[str] | None:
        if self.peek_tag() == tag:
            return self.next()
        return None

    @staticmethod
    def element(segment: list[str], index: int, default: str = "") -> str:
        return segment[index] if index < len(segment) else default


def _parse_850(table: _SegmentReader, envelope: dict[str, Any]) -> Document:
    beg = table.require("BEG")
    if len(beg) < 4:
        raise WireFormatError("BEG segment too short")
    cur = table.take_if("CUR")
    itd = table.take_if("ITD")
    lines: list[dict[str, Any]] = []
    while table.peek_tag() == "PO1":
        po1 = table.next()
        if len(po1) < 8:
            raise WireFormatError("PO1 segment too short")
        line: dict[str, Any] = {
            "line_no": int(_number(po1[1], "PO1 line number")),
            "quantity": _number(po1[2], "PO1 quantity"),
            "unit": po1[3],
            "unit_price": _number(po1[4], "PO1 unit price"),
            "sku": po1[7],
            "description": "",
        }
        pid = table.take_if("PID")
        if pid is not None:
            line["description"] = _SegmentReader.element(pid, 5)
        lines.append(line)
    if not lines:
        raise WireFormatError("850 without PO1 line items")
    ctt = table.require("CTT")
    amt = table.require("AMT")
    data = {
        **envelope,
        "beg": {
            "purpose_code": beg[1],
            "type_code": beg[2],
            "po_number": beg[3],
            "date": _SegmentReader.element(beg, 5),
        },
        "cur": {"currency": _SegmentReader.element(cur or [], 2, "USD")},
        "itd": {"terms_description": _SegmentReader.element(itd or [], 12)},
        "po1": lines,
        "ctt": {"line_count": int(_number(ctt[1], "CTT count"))},
        "amt": {"total_amount": _number(_SegmentReader.element(amt, 2, "0"), "AMT total")},
    }
    return Document(EDI_X12, "purchase_order", data)


def _parse_855(table: _SegmentReader, envelope: dict[str, Any]) -> Document:
    bak = table.require("BAK")
    if len(bak) < 5:
        raise WireFormatError("BAK segment too short")
    lines: list[dict[str, Any]] = []
    while table.peek_tag() == "ACK":
        ack = table.next()
        if len(ack) < 8:
            raise WireFormatError("ACK segment too short")
        lines.append(
            {
                "line_status": ack[1],
                "quantity": _number(ack[2], "ACK quantity"),
                "unit": ack[3],
                "sku": ack[7],
                "line_no": int(_number(_SegmentReader.element(ack, 28, "0"), "ACK line number")),
            }
        )
    if not lines:
        raise WireFormatError("855 without ACK line items")
    ctt = table.require("CTT")
    amt = table.require("AMT")
    data = {
        **envelope,
        "bak": {
            "purpose_code": bak[1],
            "ack_type": bak[2],
            "po_number": bak[3],
            "date": bak[4],
        },
        "ack": lines,
        "ctt": {"line_count": int(_number(ctt[1], "CTT count"))},
        "amt": {"accepted_amount": _number(_SegmentReader.element(amt, 2, "0"), "AMT accepted")},
    }
    return Document(EDI_X12, "po_ack", data)


def _parse_856(table: _SegmentReader, envelope: dict[str, Any]) -> Document:
    bsn = table.require("BSN")
    if len(bsn) < 4:
        raise WireFormatError("BSN segment too short")
    prf = table.require("PRF")
    td5 = table.require("TD5")
    td1 = table.require("TD1")
    lines: list[dict[str, Any]] = []
    while table.peek_tag() == "LIN":
        lin = table.next()
        if len(lin) < 4:
            raise WireFormatError("LIN segment too short")
        sn1 = table.require("SN1")
        if len(sn1) < 4:
            raise WireFormatError("SN1 segment too short")
        lines.append(
            {
                "line_no": int(_number(lin[1], "LIN line number")),
                "sku": lin[3],
                "quantity_shipped": _number(sn1[2], "SN1 quantity"),
            }
        )
    if not lines:
        raise WireFormatError("856 without LIN/SN1 line items")
    ctt = table.require("CTT")
    data = {
        **envelope,
        "bsn": {"purpose_code": bsn[1], "shipment_id": bsn[2], "date": bsn[3]},
        "prf": {"po_number": prf[1]},
        "td5": {"carrier": _SegmentReader.element(td5, 3)},
        "td1": {"package_count": int(_number(_SegmentReader.element(td1, 2, "0"), "TD1 count"))},
        "lines": lines,
        "ctt": {"line_count": int(_number(ctt[1], "CTT count"))},
    }
    return Document(EDI_X12, "ship_notice", data)


def _parse_810(table: _SegmentReader, envelope: dict[str, Any]) -> Document:
    big = table.require("BIG")
    if len(big) < 5:
        raise WireFormatError("BIG segment too short")
    cur = table.require("CUR")
    lines: list[dict[str, Any]] = []
    while table.peek_tag() == "IT1":
        it1 = table.next()
        if len(it1) < 9:
            raise WireFormatError("IT1 segment too short")
        lines.append(
            {
                "line_no": int(_number(it1[1], "IT1 line number")),
                "quantity": _number(it1[2], "IT1 quantity"),
                "unit": it1[3],
                "unit_price": _number(it1[4], "IT1 unit price"),
                "sku": it1[6],
                "amount": _number(it1[8], "IT1 amount"),
            }
        )
    if not lines:
        raise WireFormatError("810 without IT1 line items")
    tds = table.require("TDS")
    amt_subtotal = table.require("AMT")
    amt_tax = table.require("AMT")
    ctt = table.require("CTT")
    data = {
        **envelope,
        "big": {"date": big[1], "invoice_number": big[2], "po_number": big[4]},
        "cur": {"currency": _SegmentReader.element(cur, 2, "USD")},
        "it1": lines,
        "tds": {"total_cents": int(_number(tds[1], "TDS total"))},
        "amt_subtotal": {"subtotal": _number(_SegmentReader.element(amt_subtotal, 2, "0"), "AMT subtotal")},
        "amt_tax": {"tax": _number(_SegmentReader.element(amt_tax, 2, "0"), "AMT tax")},
        "ctt": {"line_count": int(_number(ctt[1], "CTT count"))},
    }
    return Document(EDI_X12, "invoice", data)


def _parse_997(table: _SegmentReader, envelope: dict[str, Any]) -> Document:
    ak1 = table.require("AK1")
    if len(ak1) < 3:
        raise WireFormatError("AK1 segment too short")
    ak9 = table.require("AK9")
    if len(ak9) < 2:
        raise WireFormatError("AK9 segment too short")
    data = {
        **envelope,
        "ak1": {"functional_code": ak1[1], "group_control_number": ak1[2]},
        "ak9": {"status_code": ak9[1]},
    }
    return Document(EDI_X12, "functional_ack", data)


def make_functional_ack(received: Document, now: float) -> Document:
    """Build the 997 functional acknowledgment for a received interchange.

    References the original interchange's control number (AK1) and accepts
    it (AK9 status ``A``) — the classic EDI receipt discipline.
    """
    if received.doc_type == "functional_ack":
        raise WireFormatError("a 997 is never acknowledged with another 997")
    isa = received.get("isa")
    functional_codes = {
        "purchase_order": "PO", "po_ack": "PR",
        "ship_notice": "SH", "invoice": "IN",
    }
    data = {
        "isa": {
            "sender_id": isa["receiver_id"],
            "receiver_id": isa["sender_id"],
            "date": str(now),
            "control_number": f"FA{isa['control_number']}",
        },
        "st": {"transaction_set": "997", "control_number": "0001"},
        "ak1": {
            "functional_code": functional_codes.get(received.doc_type, "ZZ"),
            "group_control_number": isa["control_number"],
        },
        "ak9": {"status_code": "A"},
    }
    return Document(EDI_X12, "functional_ack", data)


def _check_trailer(table: _SegmentReader, st_control: str) -> None:
    se = table.require("SE")
    if _SegmentReader.element(se, 2) != st_control:
        raise WireFormatError("SE control number does not match ST")
    table.require("GE")
    table.require("IEA")
    if table.peek_tag() is not None:
        raise WireFormatError(f"trailing segment {table.peek_tag()!r} after IEA")


# ---------------------------------------------------------------------------
# Schemas for the EDI document layouts
# ---------------------------------------------------------------------------


def edi_po_schema() -> DocumentSchema:
    """Schema for the ``edi-x12`` purchase-order layout."""
    return DocumentSchema(
        "edi-x12/purchase_order",
        format_name=EDI_X12,
        doc_type="purchase_order",
        fields=[
            FieldSpec("isa.sender_id"),
            FieldSpec("isa.receiver_id"),
            FieldSpec("isa.control_number"),
            FieldSpec("st.transaction_set", choices=("850",)),
            FieldSpec("beg.po_number"),
            FieldSpec("cur.currency"),
            FieldSpec("po1", "list", min_items=1),
            FieldSpec("ctt.line_count", "int"),
            FieldSpec("amt.total_amount", "number"),
        ],
    )


def edi_asn_schema() -> DocumentSchema:
    """Schema for the ``edi-x12`` ship-notice (856) layout."""
    return DocumentSchema(
        "edi-x12/ship_notice",
        format_name=EDI_X12,
        doc_type="ship_notice",
        fields=[
            FieldSpec("isa.sender_id"),
            FieldSpec("isa.receiver_id"),
            FieldSpec("st.transaction_set", choices=("856",)),
            FieldSpec("bsn.shipment_id"),
            FieldSpec("prf.po_number"),
            FieldSpec("td5.carrier"),
            FieldSpec("td1.package_count", "int"),
            FieldSpec("lines", "list", min_items=1),
            FieldSpec("ctt.line_count", "int"),
        ],
    )


def edi_invoice_schema() -> DocumentSchema:
    """Schema for the ``edi-x12`` invoice (810) layout."""
    return DocumentSchema(
        "edi-x12/invoice",
        format_name=EDI_X12,
        doc_type="invoice",
        fields=[
            FieldSpec("isa.sender_id"),
            FieldSpec("isa.receiver_id"),
            FieldSpec("st.transaction_set", choices=("810",)),
            FieldSpec("big.invoice_number"),
            FieldSpec("big.po_number"),
            FieldSpec("cur.currency"),
            FieldSpec("it1", "list", min_items=1),
            FieldSpec("tds.total_cents", "int"),
            FieldSpec("amt_subtotal.subtotal", "number"),
            FieldSpec("amt_tax.tax", "number"),
            FieldSpec("ctt.line_count", "int"),
        ],
    )


def edi_poa_schema() -> DocumentSchema:
    """Schema for the ``edi-x12`` PO-acknowledgment layout."""
    return DocumentSchema(
        "edi-x12/po_ack",
        format_name=EDI_X12,
        doc_type="po_ack",
        fields=[
            FieldSpec("isa.sender_id"),
            FieldSpec("isa.receiver_id"),
            FieldSpec("st.transaction_set", choices=("855",)),
            FieldSpec("bak.po_number"),
            FieldSpec("bak.ack_type", choices=tuple(STATUS_BY_ACK_TYPE)),
            FieldSpec("ack", "list", min_items=1),
            FieldSpec("ctt.line_count", "int"),
            FieldSpec("amt.accepted_amount", "number"),
        ],
    )
