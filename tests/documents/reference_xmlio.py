"""Reference XML parser: the original character-at-a-time recursive descent.

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
"""

from __future__ import annotations

from repro.documents.xmlio import XmlElement
from repro.errors import XmlSyntaxError

__all__ = ["reference_parse"]

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
