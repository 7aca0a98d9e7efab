"""Minimal XML reader/writer used by the XML wire formats.

The paper's B2B protocols (RosettaNet, OAGIS) are XML-based.  Per the
reproduction rule ("B2B/XML tooling weaker — build the substrate"), this is
a small, dependency-free XML subset implemented from scratch:

* elements with attributes and text,
* the five predefined entities (``&amp; &lt; &gt; &quot; &apos;``) plus
  numeric character references,
* comments and an optional XML declaration (both skipped on read),
* UTF-8 text in, text out.

It deliberately excludes namespaces-as-objects (prefixes are kept verbatim
in tag names), CDATA, DTDs and processing instructions — none of which the
wire formats here use.

Neither direction builds an element tree.  :class:`XmlWriter` streams a
document to text element by element, in the one layout the codecs put on
the wire.  :func:`scan` reads a document in one pass and keeps only the
elements a codec's layout (:mod:`repro.documents.layout`) asks for.
``tests/documents/reference_xmlio.py`` keeps the tree parser, the tree
serializer and the codecs' tree readers and renderers that these
replaced, and differential tests hold the codecs to them.

``scan`` reads untrusted partner bytes, so it makes one guarantee: on any
``str`` it either returns or raises :class:`~repro.errors.XmlSyntaxError` (a
``WireFormatError``, which the B2B engine records as a fault) with the
offset of the problem, and nothing else escapes.  A character reference
is read only in XML 1.0's two forms, ``&#`` decimal digits ``;`` and
``&#x`` hex digits ``;``, and only when it names a ``Char`` (tab, LF, CR
or a code point outside the C0 controls, the surrogates and U+FFFE/FFFF);
any other (``&#xZZ;``, ``&#+65;``, ``&#X41;``, ``&#0;``, ``&#xD800;``,
``&#99999999;``) is such an error.  Nesting depth is bounded by memory,
not by the recursion limit.
"""

from __future__ import annotations

import re
from typing import Any

from repro.errors import XmlSyntaxError

__all__ = ["XmlWriter", "scan"]


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>\n'

# The one XML name pattern, shared by the writer's check and the reader.
_NAME_PATTERN = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_NAME = re.compile(_NAME_PATTERN)

# Names that passed the check.  The codecs write constant tags, so each
# distinct name is matched once per process instead of once per element.
_CHECKED_NAMES: set[str] = set()


def _check_name(name: str) -> str:
    if name not in _CHECKED_NAMES:
        if _NAME.fullmatch(name) is None:
            raise XmlSyntaxError(f"invalid XML name {name!r}")
        _CHECKED_NAMES.add(name)
    return name


def _escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class XmlWriter:
    """Writes one XML document as text, element by element, in document order.

    The layout is fixed: the XML declaration, then one element per line,
    indented two spaces per level.  :meth:`start` opens an element and
    :meth:`end` closes the innermost one (as ``<tag/>`` when nothing was
    written inside it); :meth:`leaf` writes an element that holds only
    text.  Text escapes ``&``, ``<`` and ``>``, attribute values escape
    ``"`` as well, and an invalid tag or attribute name raises
    :class:`XmlSyntaxError`.
    """

    __slots__ = ("_pieces", "_open", "_pad")

    def __init__(self) -> None:
        self._pieces: list[str] = [_DECLARATION]
        # open elements: tag, indentation, start tag and its index in _pieces
        self._open: list[tuple[str, str, str, int]] = []
        self._pad = ""

    def start(self, tag: str, attrs: dict[str, str] | None = None) -> None:
        """Open element ``tag``; what is written until :meth:`end` goes inside it."""
        pad = self._pad
        head = f"{pad}<{_check_name(tag)}"
        if attrs:
            for key, value in attrs.items():
                value = _escape_text(value).replace('"', "&quot;")
                head += f' {_check_name(key)}="{value}"'
        self._open.append((tag, pad, head, len(self._pieces)))
        self._pieces.append(head + ">\n")
        self._pad = pad + "  "

    def leaf(self, tag: str, text: str | None) -> None:
        """Write element ``tag`` holding ``text``; ``None`` writes ``<tag/>``."""
        if tag not in _CHECKED_NAMES:
            _check_name(tag)
        if text is None:
            self._pieces.append(f"{self._pad}<{tag}/>\n")
            return
        if not isinstance(text, str):
            raise TypeError(f"<{tag}> holds {type(text).__name__}, not text")
        if "&" in text or "<" in text or ">" in text:
            text = _escape_text(text)
        self._pieces.append(f"{self._pad}<{tag}>{text}</{tag}>\n")

    def end(self) -> None:
        """Close the innermost open element."""
        tag, pad, head, index = self._open.pop()
        self._pad = pad
        pieces = self._pieces
        if len(pieces) == index + 1:
            pieces[index] = head + "/>\n"
        else:
            pieces.append(f"{pad}</{tag}>\n")

    def text(self) -> str:
        """The document written so far; every element must be closed."""
        if self._open:
            raise XmlSyntaxError(f"element <{self._open[-1][0]}> is not closed")
        return "".join(self._pieces)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
# A character reference's body: '#' and decimal digits, or '#x' and hex digits.
_CHAR_REF = re.compile(r"#(?:([0-9]+)|x([0-9a-fA-F]+))")

_SPACE = re.compile(r"[ \t\r\n]*")
# An attribute value's run up to its closing quote, a reference or a '<'.
_VALUE_RUN = {'"': re.compile(r'[^"&<]*'), "'": re.compile(r"[^'&<]*")}

# The common markup in one match: a run of plain text, then a start tag
# without attributes, with the plain text and end tag that close it when
# the element holds only plain text (<Tag> or <Tag>text</Tag>), or an end
# tag without space (</Tag>).  Each name is followed by '>', never by a
# name character, so backtracking cannot split a name (in '<abc="1">'
# nothing matches at all).  Anything else (references, comments,
# attributes, '<Tag/>', '</Tag >') takes the slow path in _scan_content,
# one construct at a time.
_MARKUP = re.compile(
    rf"([^<&]*)<(?:({_NAME_PATTERN})>(?:([^<&]*)</({_NAME_PATTERN})>)?|/({_NAME_PATTERN})>)"
)


def scan(text: str, tables: dict[str, dict[str, Any]]) -> tuple[str, dict | None]:
    """Read the XML document ``text`` in one pass; return its root tag and what was kept.

    ``tables`` maps a root tag to the table of its children to keep.  A
    table maps a child tag to an entry with two attributes: ``table``,
    the entry's own table (``None`` keeps the element's direct text), and
    ``repeat``.  The first child with a kept tag is kept and later ones
    are skipped, unless the entry repeats, in which case every such child
    is kept, as a list.  What is kept is a dict, child tag to value: the
    direct text (a ``str``, or a list of pieces to join) for an entry
    without a table, else a dict of the same kind.  Text is the
    element's direct text, merged across comments, references and child
    elements.  An unknown root keeps nothing (``None``).

    Every element is checked, kept or not.  Raises :class:`XmlSyntaxError`,
    and nothing else, on any input that is not a document of the grammar
    above.
    """
    if not isinstance(text, str):
        raise XmlSyntaxError(f"expected str, got {type(text).__name__}")
    pos = _skip_misc(text, 0)
    if not text.startswith("<", pos):
        raise XmlSyntaxError("expected root element", pos)
    root, pos, is_open = _start_tag(text, pos)
    table = tables.get(root)
    kept = None if table is None else {}
    if is_open:
        pos = _scan_content(text, pos, root, table, kept)
    pos = _skip_misc(text, pos)
    if pos != len(text):
        raise XmlSyntaxError("content after document root", pos)
    return root, kept


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


def _scan_content(
    text: str, pos: int, tag: str, table: dict | None, kept: dict | None
) -> int:
    """Read the content of the open element ``tag`` at ``pos``; return the offset after its end tag.

    ``table`` and ``kept`` say what to keep of the element's children and
    where (both ``None`` when nothing is kept), and ``pieces`` collects
    the direct text of a kept text element.  Open elements live on an
    explicit stack, so nesting depth is bounded by memory, not by the
    interpreter's recursion limit.
    """
    find = text.find
    startswith = text.startswith
    length = len(text)
    stack: list[tuple[str, dict | None, dict | None, list | None]] = []
    pieces: list[str] | None = None
    match = _MARKUP.match
    while True:
        found = match(text, pos)
        if found is not None:
            run, child, child_text, child_end, end = found.groups()
            if run and pieces is not None:
                pieces.append(run)
            pos = found.end()
            if child_end is not None:  # <Tag>text</Tag>
                if child_end != child:
                    raise XmlSyntaxError(
                        f"mismatched closing tag </{child_end}> for <{child}>", pos - 1
                    )
                if table is not None and child in table:
                    _keep_childless(table[child], kept, child, child_text)
            elif child is not None:  # <Tag>
                stack.append((tag, table, kept, pieces))
                tag = child
                table, kept, pieces = _open(table, kept, child)
            else:  # </Tag>
                if end != tag:
                    raise XmlSyntaxError(
                        f"mismatched closing tag </{end}> for <{tag}>", pos - 1
                    )
                if not stack:
                    return pos
                tag, table, kept, pieces = stack.pop()
            continue
        # The slow path: text with references, then one piece of markup.
        lt = find("<", pos)
        if lt < 0:
            lt = length
        amp = find("&", pos, lt)
        while amp >= 0:
            if amp > pos and pieces is not None:
                pieces.append(text[pos:amp])
            value, pos = _reference(text, amp)
            if pieces is not None:
                pieces.append(value)
            amp = find("&", pos, lt)
        if lt > pos and pieces is not None:
            pieces.append(text[pos:lt])
        pos = lt
        if pos >= length:
            raise XmlSyntaxError(f"unterminated element <{tag}>", pos)
        if startswith("</", pos):
            pos = _end_tag(text, pos, tag)
            if not stack:
                return pos
            tag, table, kept, pieces = stack.pop()
        elif startswith("<!--", pos):
            end_comment = find("-->", pos + 4)
            if end_comment < 0:
                raise XmlSyntaxError("unterminated comment", pos)
            pos = end_comment + 3
        else:
            child, pos, is_open = _start_tag(text, pos)
            if is_open:
                stack.append((tag, table, kept, pieces))
                tag = child
                table, kept, pieces = _open(table, kept, child)
            elif table is not None and child in table:
                _keep_childless(table[child], kept, child, "")


def _keep_childless(entry: Any, kept: dict, tag: str, text: str) -> None:
    """Keep child ``tag``, which holds ``text`` and no element of its own."""
    if entry.repeat:
        kept.setdefault(tag, []).append({})
    elif tag not in kept:
        kept[tag] = text if entry.table is None else {}


def _open(table: dict | None, kept: dict | None, tag: str) -> tuple:
    """What to keep inside child ``tag``, just opened: its table, kept dict and text pieces."""
    entry = None if table is None else table.get(tag)
    if entry is None:
        return None, None, None
    if entry.repeat:
        item: dict = {}
        kept.setdefault(tag, []).append(item)
        return entry.table, item, None
    if tag in kept:
        return None, None, None
    if entry.table is None:
        pieces: list[str] = []
        kept[tag] = pieces
        return None, None, pieces
    group: dict = {}
    kept[tag] = group
    return entry.table, group, None


def _start_tag(text: str, pos: int) -> tuple[str, int, bool]:
    """Read the start tag at ``pos`` (a ``<``).

    Returns the tag, the offset after the start tag, and whether the
    element is open (``>``) rather than empty (``/>``).  Attributes are
    checked and skipped.
    """
    match = _NAME.match(text, pos + 1)
    if match is None:
        raise XmlSyntaxError("expected XML name", pos + 1)
    tag = match.group()
    pos = match.end()
    names: set[str] = set()
    while True:
        pos = _SPACE.match(text, pos).end()
        if text.startswith(">", pos):
            return tag, pos + 1, True
        if text.startswith("/>", pos):
            return tag, pos + 2, False
        if pos >= len(text) or text[pos] == "/":
            raise XmlSyntaxError("expected '>'", pos)
        name, pos = _attribute(text, pos)
        if name in names:
            raise XmlSyntaxError(f"duplicate attribute {name!r}", pos)
        names.add(name)


def _attribute(text: str, pos: int) -> tuple[str, int]:
    """Read ``name = "value"`` at ``pos``; return the name and the offset after it."""
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
    while True:
        pos = run.match(text, pos).end()
        if pos >= len(text):
            raise XmlSyntaxError("unterminated attribute value", pos)
        if text[pos] == quote:
            return match.group(), pos + 1
        if text[pos] == "<":
            raise XmlSyntaxError("'<' not allowed in attribute value", pos)
        _, pos = _reference(text, pos)


def _end_tag(text: str, pos: int, open_tag: str) -> int:
    """Read the end tag at ``pos`` that must close ``open_tag``.

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
