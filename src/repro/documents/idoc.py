"""SAP IDoc-like back-end format (the paper's ``SAP [41]`` application).

The SAP ERP simulator (:mod:`repro.backend.sap_sim`) consumes and produces
documents in an IDoc-shaped fixed-width flat-file format: one segment per
line, segment name in the first column, then fields concatenated at fixed
offsets — the shape of real ``ORDERS05``/``ORDRSP`` IDocs, reduced to the
fields this reproduction needs.

Segments:

========== ==========================================================
EDI_DC40   control record: idoc number, basic type, message type, ports
E1EDK01    document header: action code, currency, document number
E1EDKA1    partner record: role (AG = sold-to, LF = vendor), partner id
E1EDP01    item: line number, quantity, price, material, description
E1EDS01    summary: total amount
========== ==========================================================

**IDoc document layout** (``format_name="sap-idoc"``):

``purchase_order`` layout::

    control:  idoc_number, idoc_type ("ORDERS05"), message_type ("ORDERS"),
              sender_port, receiver_port, created_at
    header:   action, curcy, belnr (document number), bsart (order type),
              zterm (payment terms)
    partners[]: parvw (role), partn (partner id)
    items[]:  posex, menge, vprei, matnr, arktx
    summary:  summe

``po_ack`` layout::

    control:  ... message_type ("ORDRSP")
    header:   action (ACC / REJ / PAR), curcy, belnr
    partners[]: parvw, partn
    items[]:  posex, menge, matnr, action (ACC / REJ / BCK)
    summary:  summe (accepted amount)
"""

from __future__ import annotations

from typing import Any

from repro.documents.model import Document
from repro.documents.schema import DocumentSchema, FieldSpec
from repro.documents.wire import render, wire_number as _number
from repro.errors import WireFormatError

__all__ = [
    "SAP_IDOC",
    "ACTION_BY_STATUS",
    "STATUS_BY_ACTION",
    "ITEM_ACTION_BY_STATUS",
    "STATUS_BY_ITEM_ACTION",
    "to_wire",
    "from_wire",
    "idoc_po_schema",
    "idoc_poa_schema",
]

SAP_IDOC = "sap-idoc"

ACTION_BY_STATUS = {"accepted": "ACC", "rejected": "REJ", "partial": "PAR"}
STATUS_BY_ACTION = {code: status for status, code in ACTION_BY_STATUS.items()}

ITEM_ACTION_BY_STATUS = {"accepted": "ACC", "rejected": "REJ", "backordered": "BCK"}
STATUS_BY_ITEM_ACTION = {code: status for status, code in ITEM_ACTION_BY_STATUS.items()}

_SEGMENT_NAME_WIDTH = 10

# Field tables: (field name, width).  Order matters — it is the wire order.
_FIELDS: dict[str, list[tuple[str, int]]] = {
    "EDI_DC40": [
        ("idoc_number", 24),
        ("idoc_type", 12),
        ("message_type", 8),
        ("sender_port", 12),
        ("receiver_port", 12),
        ("created_at", 16),
    ],
    "E1EDK01": [
        ("action", 3),
        ("curcy", 3),
        ("belnr", 35),
        ("bsart", 4),
        ("zterm", 10),
    ],
    "E1EDKA1": [
        ("parvw", 3),
        ("partn", 17),
    ],
    "E1EDP01": [
        ("posex", 6),
        ("menge", 15),
        ("vprei", 15),
        ("matnr", 35),
        ("arktx", 40),
    ],
    "E1EDS01": [
        ("sumid", 3),
        ("summe", 18),
    ],
    # ORDRSP item carries a per-line action code instead of a price.
    "E1EDP01A": [
        ("posex", 6),
        ("menge", 15),
        ("matnr", 35),
        ("action", 3),
    ],
}

_NUMERIC_FIELDS = {"menge", "vprei", "summe", "created_at"}
_INT_FIELDS = {"posex"}


def _render_segment(name: str, values: dict[str, Any]) -> str:
    pieces = [name.ljust(_SEGMENT_NAME_WIDTH)]
    for field_name, width in _FIELDS[name]:
        text = "" if values.get(field_name) is None else str(values[field_name])
        if len(text) > width:
            raise WireFormatError(
                f"IDoc field {name}.{field_name} value {text!r} exceeds width {width}"
            )
        pieces.append(text.ljust(width))
    return "".join(pieces)


def _parse_segment(line: str) -> tuple[str, dict[str, Any]]:
    name = line[:_SEGMENT_NAME_WIDTH].strip()
    if name not in _FIELDS:
        raise WireFormatError(f"unknown IDoc segment {name!r}")
    values: dict[str, Any] = {}
    offset = _SEGMENT_NAME_WIDTH
    for field_name, width in _FIELDS[name]:
        raw = line[offset:offset + width].strip()
        offset += width
        if field_name in _NUMERIC_FIELDS:
            values[field_name] = _number(raw, f"{name}.{field_name}")
        elif field_name in _INT_FIELDS:
            values[field_name] = int(_number(raw, f"{name}.{field_name}"))
        else:
            values[field_name] = raw
    return name, values


def to_wire(document: Document) -> str:
    """Render a ``sap-idoc`` document to its flat-file string."""
    if document.format_name != SAP_IDOC:
        raise WireFormatError(
            f"to_wire expects format {SAP_IDOC!r}, got {document.format_name!r}"
        )
    if document.doc_type == "purchase_order":
        item_segment = "E1EDP01"
    elif document.doc_type == "po_ack":
        item_segment = "E1EDP01A"
    else:
        raise WireFormatError(f"IDoc cannot carry doc_type {document.doc_type!r}")
    return render(lambda data: _write(data, item_segment), document)


def _write(data: dict[str, Any], item_segment: str) -> str:
    lines = [_render_segment("EDI_DC40", data["control"])]
    lines.append(_render_segment("E1EDK01", data["header"]))
    for partner in data["partners"]:
        lines.append(_render_segment("E1EDKA1", partner))
    for item in data["items"]:
        lines.append(_render_segment(item_segment, item))
    summary = dict(data["summary"])
    summary.setdefault("sumid", "002")
    lines.append(_render_segment("E1EDS01", summary))
    return "\n".join(lines) + "\n"


def from_wire(text: str) -> Document:
    """Parse an IDoc flat-file string into a ``sap-idoc`` document."""
    if not isinstance(text, str) or not text.strip():
        raise WireFormatError("empty IDoc")
    control: dict[str, Any] | None = None
    header: dict[str, Any] | None = None
    partners: list[dict[str, Any]] = []
    items: list[dict[str, Any]] = []
    summary: dict[str, Any] | None = None
    for line in text.splitlines():
        if not line.strip():
            continue
        name, values = _parse_segment(line)
        if name == "EDI_DC40":
            if control is not None:
                raise WireFormatError("duplicate EDI_DC40 control record")
            control = values
        elif name == "E1EDK01":
            header = values
        elif name == "E1EDKA1":
            partners.append(values)
        elif name in ("E1EDP01", "E1EDP01A"):
            items.append(values)
        elif name == "E1EDS01":
            summary = {"summe": values["summe"]}
    if control is None:
        raise WireFormatError("IDoc without EDI_DC40 control record")
    if header is None or summary is None or not items:
        raise WireFormatError("IDoc missing header, items, or summary")
    message_type = control["message_type"]
    if message_type == "ORDERS":
        doc_type = "purchase_order"
    elif message_type == "ORDRSP":
        doc_type = "po_ack"
    else:
        raise WireFormatError(f"unknown IDoc message type {message_type!r}")
    data = {
        "control": control,
        "header": header,
        "partners": partners,
        "items": items,
        "summary": summary,
    }
    return Document(SAP_IDOC, doc_type, data)


def idoc_po_schema() -> DocumentSchema:
    """Schema for the ``sap-idoc`` purchase-order layout."""
    return DocumentSchema(
        "sap-idoc/purchase_order",
        format_name=SAP_IDOC,
        doc_type="purchase_order",
        fields=[
            FieldSpec("control.idoc_number"),
            FieldSpec("control.idoc_type", choices=("ORDERS05",)),
            FieldSpec("control.message_type", choices=("ORDERS",)),
            FieldSpec("header.belnr"),
            FieldSpec("header.curcy"),
            FieldSpec("partners", "list", min_items=2),
            FieldSpec("items", "list", min_items=1),
            FieldSpec("summary.summe", "number"),
        ],
    )


def idoc_poa_schema() -> DocumentSchema:
    """Schema for the ``sap-idoc`` PO-acknowledgment layout."""
    return DocumentSchema(
        "sap-idoc/po_ack",
        format_name=SAP_IDOC,
        doc_type="po_ack",
        fields=[
            FieldSpec("control.message_type", choices=("ORDRSP",)),
            FieldSpec("header.belnr"),
            FieldSpec("header.action", choices=tuple(STATUS_BY_ACTION)),
            FieldSpec("items", "list", min_items=1),
            FieldSpec("summary.summe", "number"),
        ],
    )
