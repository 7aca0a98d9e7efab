"""Minimal XML reader/writer used by the XML wire formats.

The paper's B2B protocols (RosettaNet, OAGIS) are XML-based.  Per the
reproduction rule ("B2B/XML tooling weaker — build the substrate"), this is
a small, dependency-free XML subset implemented from scratch:

* elements with attributes and text,
* the five predefined entities (``&amp; &lt; &gt; &quot; &apos;``) plus
  numeric character references,
* comments and an optional XML declaration (both skipped on parse),
* UTF-8 text in, text out.

It deliberately excludes namespaces-as-objects (prefixes are kept verbatim
in tag names), CDATA, DTDs and processing instructions — none of which the
wire formats here use.

:class:`XmlWriter` streams a document to text element by element, in the
one layout the codecs put on the wire; no tree is built.
``tests/documents/reference_xmlio.py`` keeps the tree serializer and the
codecs' tree renderers it replaced, and a property test holds the codecs'
writers to their bytes.

``parse`` reads untrusted partner bytes, so it makes one guarantee: on any
``str`` it returns a tree or raises :class:`~repro.errors.XmlSyntaxError`
(a ``WireFormatError``, which the B2B engine records as a fault) with the
offset of the problem, and nothing else escapes.  A malformed character
reference such as ``&#xZZ;`` or ``&#99999999;`` is such an error, and
nesting depth is bounded by memory, not by the recursion limit.

The parser is a scanner: ``str.find`` and compiled patterns jump from one
piece of markup to the next, text between them is sliced in one step, and
open elements live on an explicit stack.
``tests/documents/reference_xmlio.py`` keeps the character-at-a-time parser
it replaced, and a differential test holds the two to the same trees and
the same errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import XmlSyntaxError

__all__ = ["XmlElement", "XmlWriter", "parse"]


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
# Writing
# ---------------------------------------------------------------------------

_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>\n'

# The one XML name pattern, shared by the writer's check and the parser.
_NAME = re.compile(r"[A-Za-z_:][A-Za-z0-9_:.\-]*")

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
# Parsing
# ---------------------------------------------------------------------------

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}

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
    if body.startswith(("#x", "#X")):
        digits, base = body[2:], 16
    elif body.startswith("#"):
        digits, base = body[1:], 10
    elif body in _ENTITIES:
        return _ENTITIES[body], end + 1
    else:
        raise XmlSyntaxError(f"unknown entity &{body};", end + 1)
    try:
        return chr(int(digits, base)), end + 1
    except (ValueError, OverflowError):
        raise XmlSyntaxError(f"invalid character reference &{body};", end + 1) from None
