"""Oracle open-interface-like back-end format (the paper's ``Oracle [37]``).

The Oracle ERP simulator (:mod:`repro.backend.oracle_sim`) exchanges
documents as open-interface-table record sets: the wire form is one record
per line, ``TABLE_NAME|COLUMN=value|COLUMN=value|...`` — the shape of
loading ``PO_HEADERS_INTERFACE``/``PO_LINES_INTERFACE`` staging tables, with
pipes standing in for the SQL*Loader control files real deployments use.

Tables:

======================= ============================================
PO_HEADERS_INTERFACE    one per document: document number, currency,
                        buyer/vendor orgs, total, creation date
PO_LINES_INTERFACE      one per order line
PO_ACK_HEADERS          acknowledgment header: acceptance code
PO_ACK_LINES            acknowledgment lines: line status, quantity
======================= ============================================

**Oracle OIF document layout** (``format_name="oracle-oif"``):

``purchase_order`` layout::

    header: interface_header_id, document_num, currency_code, buyer_org,
            vendor_org, terms, total_amount, creation_date
    lines[]: line_num, item_id, item_description, quantity, unit_price

``po_ack`` layout::

    header: interface_header_id, document_num, acceptance_code
            (FULL / REJECTED / PARTIAL), buyer_org, vendor_org,
            accepted_amount, creation_date
    lines[]: line_num, item_id, line_status
             (ACCEPTED / REJECTED / BACKORDER), quantity
"""

from __future__ import annotations

from typing import Any

from repro.documents.model import Document
from repro.documents.schema import DocumentSchema, FieldSpec
from repro.documents.wire import render, wire_number as _number
from repro.errors import WireFormatError

__all__ = [
    "ORACLE_OIF",
    "ACCEPTANCE_BY_STATUS",
    "STATUS_BY_ACCEPTANCE",
    "LINE_STATUS_BY_STATUS",
    "STATUS_BY_LINE_STATUS",
    "to_wire",
    "from_wire",
    "oif_po_schema",
    "oif_poa_schema",
]

ORACLE_OIF = "oracle-oif"

ACCEPTANCE_BY_STATUS = {"accepted": "FULL", "rejected": "REJECTED", "partial": "PARTIAL"}
STATUS_BY_ACCEPTANCE = {code: status for status, code in ACCEPTANCE_BY_STATUS.items()}

LINE_STATUS_BY_STATUS = {"accepted": "ACCEPTED", "rejected": "REJECTED", "backordered": "BACKORDER"}
STATUS_BY_LINE_STATUS = {code: status for status, code in LINE_STATUS_BY_STATUS.items()}

_HEADER_COLUMNS = {
    "PO_HEADERS_INTERFACE": [
        "INTERFACE_HEADER_ID",
        "DOCUMENT_NUM",
        "CURRENCY_CODE",
        "BUYER_ORG",
        "VENDOR_ORG",
        "TERMS",
        "TOTAL_AMOUNT",
        "CREATION_DATE",
    ],
    "PO_LINES_INTERFACE": [
        "LINE_NUM",
        "ITEM_ID",
        "ITEM_DESCRIPTION",
        "QUANTITY",
        "UNIT_PRICE",
    ],
    "PO_ACK_HEADERS": [
        "INTERFACE_HEADER_ID",
        "DOCUMENT_NUM",
        "ACCEPTANCE_CODE",
        "BUYER_ORG",
        "VENDOR_ORG",
        "ACCEPTED_AMOUNT",
        "CREATION_DATE",
    ],
    "PO_ACK_LINES": [
        "LINE_NUM",
        "ITEM_ID",
        "LINE_STATUS",
        "QUANTITY",
    ],
}

_NUMERIC_COLUMNS = {"TOTAL_AMOUNT", "QUANTITY", "UNIT_PRICE", "CREATION_DATE", "ACCEPTED_AMOUNT"}
_INT_COLUMNS = {"LINE_NUM"}

# layout field name (lower case) per column, for each table
_FIELD_NAMES = {
    table: [column.lower() for column in columns]
    for table, columns in _HEADER_COLUMNS.items()
}


def _escape(value: Any) -> str:
    text = "" if value is None else str(value)
    return text.replace("\\", "\\\\").replace("|", "\\p").replace("\n", "\\n")


def _unescape(text: str) -> str:
    pieces: list[str] = []
    index = 0
    while index < len(text):
        character = text[index]
        if character == "\\":
            if index + 1 >= len(text):
                raise WireFormatError("dangling escape in OIF value")
            escape_code = text[index + 1]
            if escape_code == "\\":
                pieces.append("\\")
            elif escape_code == "p":
                pieces.append("|")
            elif escape_code == "n":
                pieces.append("\n")
            else:
                raise WireFormatError(f"unknown OIF escape \\{escape_code}")
            index += 2
        else:
            pieces.append(character)
            index += 1
    return "".join(pieces)


def _render_record(table: str, values: dict[str, Any]) -> str:
    pieces = [table]
    for column, field_name in zip(_HEADER_COLUMNS[table], _FIELD_NAMES[table]):
        pieces.append(f"{column}={_escape(values.get(field_name))}")
    return "|".join(pieces)


def _parse_record(line: str) -> tuple[str, dict[str, Any]]:
    cells = _split_record(line)
    table = cells[0]
    if table not in _HEADER_COLUMNS:
        raise WireFormatError(f"unknown OIF table {table!r}")
    values: dict[str, Any] = {}
    expected = dict(zip(_HEADER_COLUMNS[table], _FIELD_NAMES[table]))
    for cell in cells[1:]:
        if "=" not in cell:
            raise WireFormatError(f"malformed OIF cell {cell!r}")
        column, _, raw = cell.partition("=")
        if column not in expected:
            raise WireFormatError(f"unknown column {column!r} for table {table}")
        text = _unescape(raw)
        if column in _NUMERIC_COLUMNS:
            values[expected[column]] = _number(text, f"{table}.{column}")
        elif column in _INT_COLUMNS:
            values[expected[column]] = int(_number(text, f"{table}.{column}"))
        else:
            values[expected[column]] = text
    missing = set(expected.values()) - set(values)
    if missing:
        raise WireFormatError(f"{table} record missing columns {sorted(missing)}")
    return table, values


def _split_record(line: str) -> list[str]:
    """Split on unescaped pipes (escapes use ``\\p`` so no lookbehind needed)."""
    return line.split("|")


def to_wire(document: Document) -> str:
    """Render an ``oracle-oif`` document to its record-set string."""
    if document.format_name != ORACLE_OIF:
        raise WireFormatError(
            f"to_wire expects format {ORACLE_OIF!r}, got {document.format_name!r}"
        )
    if document.doc_type == "purchase_order":
        header_table, line_table = "PO_HEADERS_INTERFACE", "PO_LINES_INTERFACE"
    elif document.doc_type == "po_ack":
        header_table, line_table = "PO_ACK_HEADERS", "PO_ACK_LINES"
    else:
        raise WireFormatError(f"OIF cannot carry doc_type {document.doc_type!r}")
    return render(lambda data: _write(data, header_table, line_table), document)


def _write(data: dict[str, Any], header_table: str, line_table: str) -> str:
    lines = [_render_record(header_table, data["header"])]
    for line in data["lines"]:
        lines.append(_render_record(line_table, line))
    return "\n".join(lines) + "\n"


def from_wire(text: str) -> Document:
    """Parse an OIF record-set string into a sealed ``oracle-oif`` document."""
    if not isinstance(text, str) or not text.strip():
        raise WireFormatError("empty OIF record set")
    header: dict[str, Any] | None = None
    header_table: str | None = None
    lines: list[dict[str, Any]] = []
    for raw_line in text.splitlines():
        if not raw_line.strip():
            continue
        table, values = _parse_record(raw_line)
        if table in ("PO_HEADERS_INTERFACE", "PO_ACK_HEADERS"):
            if header is not None:
                raise WireFormatError("OIF record set with two header records")
            header, header_table = values, table
        else:
            lines.append(values)
    if header is None or header_table is None:
        raise WireFormatError("OIF record set without header record")
    if not lines:
        raise WireFormatError("OIF record set without line records")
    doc_type = "purchase_order" if header_table == "PO_HEADERS_INTERFACE" else "po_ack"
    expected_line_table = (
        "PO_LINES_INTERFACE" if doc_type == "purchase_order" else "PO_ACK_LINES"
    )
    data = {"header": header, "lines": lines}
    document = Document(ORACLE_OIF, doc_type, data)
    # Cross-check that line records match the header's document kind.
    for line in lines:
        expected_fields = set(_FIELD_NAMES[expected_line_table])
        if set(line) != expected_fields:
            raise WireFormatError(
                f"line record fields {sorted(line)} do not match {expected_line_table}"
            )
    return document.seal()


def oif_po_schema() -> DocumentSchema:
    """Schema for the ``oracle-oif`` purchase-order layout."""
    return DocumentSchema(
        "oracle-oif/purchase_order",
        format_name=ORACLE_OIF,
        doc_type="purchase_order",
        fields=[
            FieldSpec("header.interface_header_id"),
            FieldSpec("header.document_num"),
            FieldSpec("header.currency_code"),
            FieldSpec("header.buyer_org"),
            FieldSpec("header.vendor_org"),
            FieldSpec("header.total_amount", "number"),
            FieldSpec("lines", "list", min_items=1),
        ],
    )


def oif_poa_schema() -> DocumentSchema:
    """Schema for the ``oracle-oif`` PO-acknowledgment layout."""
    return DocumentSchema(
        "oracle-oif/po_ack",
        format_name=ORACLE_OIF,
        doc_type="po_ack",
        fields=[
            FieldSpec("header.interface_header_id"),
            FieldSpec("header.document_num"),
            FieldSpec("header.acceptance_code", choices=tuple(STATUS_BY_ACCEPTANCE)),
            FieldSpec("lines", "list", min_items=1),
        ],
    )
