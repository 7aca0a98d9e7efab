"""Helpers shared by every codec: numbers read from wire text, documents written to it.

Partner bytes are untrusted, so a number field must be a finite decimal:
``float()`` alone would also accept ``inf``, ``nan`` and ``1e999``, and
the codecs' ``int(...)`` of such a value would then escape as an untyped
``OverflowError`` or ``ValueError`` instead of a
:class:`~repro.errors.WireFormatError`.

On the way out, each codec's writer reads the document's dicts directly
and checks nothing on the good path.  :func:`render` runs it and turns a
document that does not fit the codec's layout into a ``WireFormatError``
that names the field.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.documents.model import Document
from repro.errors import WireFormatError

__all__ = ["render", "wire_number"]


def wire_number(text: str, context: str) -> float:
    """Parse ``text`` as a finite float; ``context`` names the field in errors."""
    try:
        value = float(text)
    except ValueError:
        raise WireFormatError(f"non-numeric value {text!r} in {context}") from None
    if not math.isfinite(value):
        raise WireFormatError(f"non-finite value {text!r} in {context}")
    return value


# What a writer raises on a document that does not fit its layout: a
# missing field or list item, a value of the wrong type (an XML text
# element holds a str or None), or a container of the wrong shape.
_MISFITS = (LookupError, TypeError, AttributeError, ValueError)


def render(write: Callable[[Any], str], document: Document) -> str:
    """Return ``write(document.data)``, or raise ``WireFormatError`` naming the field.

    When the write fails, it runs once more over a view of the data that
    records the path of each field as it is read (``order.lines[2].sku``),
    so the error names the last field read before the failure.  That is
    the field at fault as long as ``write`` uses each value it reads
    before it reads the next one, as a writer that goes in document order
    does; ``test_to_wire_raises_only_wire_format_errors`` holds every
    codec to it.
    """
    try:
        return write(document.data)
    except _MISFITS as error:
        failure = error
    trail = [""]
    try:
        write(_Fields(document.data, "", trail))
    except _MISFITS:
        pass
    raise WireFormatError(
        f"cannot write {document.format_name} {document.doc_type}: field "
        f"{trail[0] or '(root)'} ({type(failure).__name__}: {failure})"
    ) from None


class _Fields:
    """A dict or list of a document being written; each read records its path in ``trail``."""

    __slots__ = ("_node", "_path", "_trail")

    def __init__(self, node: Any, path: str, trail: list[str]) -> None:
        self._node = node
        self._path = path
        self._trail = trail

    def _wrap(self, path: str, value: Any) -> Any:
        if isinstance(value, (dict, list)):
            return _Fields(value, path, self._trail)
        return value

    def _note(self, key: str) -> str:
        """Record the path of field ``key`` as the last one read."""
        path = self._trail[0] = f"{self._path}.{key}" if self._path else key
        return path

    def __getitem__(self, key: str) -> Any:
        path = self._note(key)
        return self._wrap(path, self._node[key])

    def get(self, key: str, default: Any = None) -> Any:
        path = self._note(key)
        return self._wrap(path, self._node.get(key, default))

    def keys(self) -> Any:  # lets dict(view) copy a mapping field
        return self._node.keys()

    def __iter__(self) -> Any:
        for index, item in enumerate(self._node):
            path = self._trail[0] = f"{self._path}[{index}]"
            yield self._wrap(path, item)

    def __bool__(self) -> bool:
        return bool(self._node)

    def __str__(self) -> str:
        return str(self._node)
