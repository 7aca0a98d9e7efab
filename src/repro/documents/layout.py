"""Declared layouts of the XML wire documents: one table drives both reader and writer.

A RosettaNet or OAGIS document type is declared once, as a
:class:`Layout`: its root tag, the attributes its writer puts on the
root, its doc type, and an ordered tuple of :class:`Field`.  A field
pairs an element tag with a key of the document's dict and has one of
these kinds:

* ``text``: the element's text;
* ``optional``: text that reads as ``""`` when the element is absent;
  the writer reads it with ``.get(key, "")``;
* ``number`` and ``integer``: read with
  :func:`~repro.documents.wire.wire_number` (``int(...)`` of it for an
  integer), written as ``str(value)``, or empty for ``None``;
* ``code``: text from a closed table of codes;
* ``verb``: an element that must be present and is written empty (the
  OAGIS ``<Process/>``); it has no key;
* ``group``: an element holding fields, with its own dict under ``key``,
  or none (``key`` is ``None``: its fields go into the enclosing dict);
* ``repeated``: a group that occurs once per item of the list under
  ``key``, at least once.

:meth:`XmlFormat.read` scans the text once with :func:`xmlio.scan`,
which keeps the elements the layout names and checks every other one.
It then converts the fields in layout order.  So a malformed document is
an :class:`~repro.errors.XmlSyntaxError` whatever else is wrong with it,
a well-formed one with an unknown root is a plain ``WireFormatError``,
and a missing required element is ``XmlSyntaxError("<Parent> is missing
required child <Tag>")``.  A number error names its element (``in
<LineNumber>``).  The first child with a field's tag counts and later
ones are ignored; a repeated group counts every such child of the first
parent; unknown elements and attributes are ignored.

:meth:`XmlFormat.write` walks the same layout over the document's dicts
with :class:`~repro.documents.xmlio.XmlWriter`, in document order, and
:func:`~repro.documents.wire.render` names the field of a document that
does not fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.documents.model import Document
from repro.documents.wire import render, wire_number
from repro.documents.xmlio import XmlWriter, scan
from repro.errors import WireFormatError, XmlSyntaxError

__all__ = [
    "Field",
    "Layout",
    "XmlFormat",
    "code",
    "group",
    "integer",
    "number",
    "optional",
    "repeated",
    "text",
    "verb",
]

_TEXT = "text"
_OPTIONAL = "optional"
_NUMBER = "number"
_INTEGER = "integer"
_CODE = "code"
_VERB = "verb"
_GROUP = "group"
_REPEATED = "repeated"


class Field:
    """One element of a layout; see the module docstring for the kinds."""

    __slots__ = ("tag", "key", "kind", "fields", "codes", "label", "table", "repeat")

    def __init__(
        self, tag: str, key: str | None, kind: str,
        fields: tuple["Field", ...] = (), codes: frozenset[str] = frozenset(),
    ):
        self.tag = tag
        self.key = key
        self.kind = kind
        self.fields = fields
        self.codes = codes
        self.label = f"<{tag}>"
        # What xmlio.scan reads: the table of a group's fields, and
        # whether every occurrence counts.
        self.table = _table(fields) if fields else None
        self.repeat = kind is _REPEATED


def _table(fields: tuple[Field, ...]) -> dict[str, Field]:
    return {field.tag: field for field in fields}


def text(tag: str, key: str) -> Field:
    return Field(tag, key, _TEXT)


def optional(tag: str, key: str) -> Field:
    return Field(tag, key, _OPTIONAL)


def number(tag: str, key: str) -> Field:
    return Field(tag, key, _NUMBER)


def integer(tag: str, key: str) -> Field:
    return Field(tag, key, _INTEGER)


def code(tag: str, key: str, codes: Any) -> Field:
    return Field(tag, key, _CODE, codes=frozenset(codes))


def verb(tag: str) -> Field:
    return Field(tag, None, _VERB)


def group(tag: str, key: str | None, *fields: Field) -> Field:
    return Field(tag, key, _GROUP, fields)


def repeated(tag: str, key: str, *fields: Field) -> Field:
    return Field(tag, key, _REPEATED, fields)


@dataclass(frozen=True, eq=False)
class Layout:
    """One document type of a wire format: root tag, root attributes, doc type and fields."""

    root: str
    doc_type: str
    fields: tuple[Field, ...]
    attrs: dict[str, str] | None = None

    def write(self, data: dict[str, Any]) -> str:
        """The document's text: ``data`` written by this layout."""
        writer = XmlWriter()
        writer.start(self.root, self.attrs)
        _write(writer, self.fields, data)
        writer.end()
        return writer.text()


def _write(writer: XmlWriter, fields: tuple[Field, ...], data: Any) -> None:
    leaf = writer.leaf
    for field in fields:
        kind = field.kind
        if kind is _TEXT or kind is _CODE:
            leaf(field.tag, data[field.key])
        elif kind is _NUMBER or kind is _INTEGER:
            value = data[field.key]
            leaf(field.tag, "" if value is None else str(value))
        elif kind is _OPTIONAL:
            leaf(field.tag, data.get(field.key, ""))
        elif kind is _VERB:
            leaf(field.tag, None)
        elif kind is _REPEATED:
            for item in data[field.key]:
                writer.start(field.tag)
                _write(writer, field.fields, item)
                writer.end()
        else:
            writer.start(field.tag)
            _write(writer, field.fields, data if field.key is None else data[field.key])
            writer.end()


class XmlFormat:
    """A wire format's layouts, by root tag and by doc type: its ``to_wire`` and ``from_wire``."""

    def __init__(self, format_name: str, label: str, layouts: tuple[Layout, ...]):
        self.format_name = format_name
        self.label = label
        self._by_root = {layout.root: layout for layout in layouts}
        self._by_doc_type = {layout.doc_type: layout for layout in layouts}
        self._tables = {layout.root: _table(layout.fields) for layout in layouts}

    def write(self, document: Document) -> str:
        """Render ``document`` to its XML text."""
        if document.format_name != self.format_name:
            raise WireFormatError(
                f"to_wire expects format {self.format_name!r}, got {document.format_name!r}"
            )
        layout = self._by_doc_type.get(document.doc_type)
        if layout is None:
            raise WireFormatError(f"{self.label} cannot carry doc_type {document.doc_type!r}")
        return render(layout.write, document)

    def read(self, text: str) -> Document:
        """Read the XML text of one of this format's documents."""
        root, kept = scan(text, self._tables)
        layout = self._by_root.get(root)
        if layout is None:
            raise WireFormatError(f"unknown {self.label} root element <{root}>")
        data = _read(layout.fields, kept, root, {}, root)
        return Document(self.format_name, layout.doc_type, data)


def _read(
    fields: tuple[Field, ...], kept: dict, parent: str, out: dict, root: str
) -> dict:
    """Convert the elements ``scan`` kept of ``parent`` into ``out``, field by field."""
    for field in fields:
        value = kept.get(field.tag)
        kind = field.kind
        if kind is _REPEATED:
            if not value:
                raise WireFormatError(f"{root} without {field.tag}")
            out[field.key] = [_read(field.fields, item, field.tag, {}, root) for item in value]
            continue
        if value is None:
            if kind is _OPTIONAL:
                out[field.key] = ""
                continue
            if kind is _VERB:
                raise WireFormatError(f"{root} without {field.label} verb")
            raise XmlSyntaxError(f"<{parent}> is missing required child {field.label}")
        if kind is _GROUP:
            if field.key is None:
                _read(field.fields, value, field.tag, out, root)
            else:
                out[field.key] = _read(field.fields, value, field.tag, {}, root)
            continue
        if kind is _VERB:
            continue
        if value.__class__ is not str:  # pieces of text split by markup
            value = "".join(value)
        if kind is _NUMBER:
            value = wire_number(value, field.label)
        elif kind is _INTEGER:
            value = int(wire_number(value, field.label))
        elif kind is _CODE and value not in field.codes:
            raise WireFormatError(f"unknown {field.tag} {value!r}")
        out[field.key] = value
    return out
