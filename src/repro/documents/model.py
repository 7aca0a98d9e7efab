"""Generic business-document model.

A :class:`Document` is a typed, format-tagged tree of dicts, lists and
scalars with dotted-path access.  Both business rules ("``PO.amount >
10000``", Figure 1) and declarative transformations (Section 4.2) address
document content through these paths, so path semantics live here, in one
place.

Path syntax::

    header.po_number          nested dict fields
    lines[0].sku              list indexing
    lines[+]                  append position (set only)
    lines[-1].quantity        negative indexes (get only)

Paths are compiled by :class:`DocumentPath` and may be reused across
documents; ``Document.get``/``set`` accept either a string or a compiled
path.  Each path text is compiled once per process: every
:class:`DocumentPath` of that text shares its immutable steps.
"""

from __future__ import annotations

import copy as _copy
import functools
import re
from typing import Any, Iterator

from repro.errors import DocumentError, DocumentPathError

__all__ = ["Document", "DocumentPath", "APPEND"]


class _Append:
    """Sentinel index meaning 'append to the list' in a set operation."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "APPEND"


APPEND = _Append()

_SEGMENT_RE = re.compile(
    r"""
    (?P<name>[A-Za-z_][A-Za-z0-9_\-]*)     # field name
    (?P<indexes>(\[(-?\d+|\+)\])*)          # zero or more [i] / [+]
    $
    """,
    re.VERBOSE,
)
_INDEX_RE = re.compile(r"\[(-?\d+|\+)\]")


@functools.lru_cache(maxsize=4096)
def _compile_steps(text: str) -> tuple[Any, ...]:
    """The steps of path ``text``, compiled once per text.

    Every path with that text shares the returned tuple, which is
    immutable.  An invalid text raises :class:`DocumentPathError` on every
    call, because the cache keeps only results.
    """
    if not text.strip():
        raise DocumentPathError(f"empty or non-string path: {text!r}")
    steps: list[Any] = []
    for raw_segment in text.split("."):
        match = _SEGMENT_RE.match(raw_segment.strip())
        if match is None:
            raise DocumentPathError(
                f"invalid path segment {raw_segment!r} in {text!r}"
            )
        steps.append(match.group("name"))
        for index_text in _INDEX_RE.findall(match.group("indexes")):
            if index_text == "+":
                steps.append(APPEND)
            else:
                steps.append(int(index_text))
    return tuple(steps)


class DocumentPath:
    """A compiled document path.

    Internally a tuple of steps where each step is a field name (``str``),
    a list index (``int``) or the :data:`APPEND` sentinel.
    """

    __slots__ = ("text", "steps")

    def __init__(self, text: str):
        if not isinstance(text, str):
            raise DocumentPathError(f"empty or non-string path: {text!r}")
        self.text = text
        self.steps: tuple[Any, ...] = _compile_steps(text)

    def __repr__(self) -> str:
        return f"DocumentPath({self.text!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DocumentPath) and self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)


def _as_path(path: str | DocumentPath) -> DocumentPath:
    return path if isinstance(path, DocumentPath) else DocumentPath(path)


class Document:
    """A format-tagged tree of business data.

    :param format_name: the layout this document uses, e.g. ``"normalized"``,
        ``"edi-x12"``, ``"sap-idoc"``.  Transformations are registered
        between format names.
    :param doc_type: the business document kind, e.g. ``"purchase_order"``.
    :param data: the root mapping, held as given (not copied).

    A document is passed by reference.  The code that builds a business
    document (a codec's ``from_wire``, a mapping, an ERP's outbound queue)
    seals it before returning it (:meth:`seal`), and from then on it is a
    value: :meth:`set` and :meth:`delete` raise, and holders share it
    instead of copying it.  Code that edits a sealed document edits a :meth:`copy`.
    Python cannot stop a write through the raw ``data`` dicts, so no code
    writes to a sealed document's ``data``.  Every way of duplicating a
    document (:meth:`copy`, ``copy.copy``, ``copy.deepcopy``, pickle)
    gives an unsealed one that shares no container with the original.
    """

    # _passed is None while the document is unsealed; once sealed, it is
    # the tuple of schema accept checks the document has passed (see
    # DocumentSchema.validate).
    __slots__ = ("format_name", "doc_type", "data", "_passed")

    def __init__(
        self,
        format_name: str,
        doc_type: str,
        data: dict[str, Any] | None = None,
    ):
        if not format_name:
            raise DocumentError("format_name must be non-empty")
        if not doc_type:
            raise DocumentError("doc_type must be non-empty")
        if data is not None and not isinstance(data, dict):
            raise DocumentError(
                f"document root must be a dict, got {type(data).__name__}"
            )
        self.format_name = format_name
        self.doc_type = doc_type
        self.data: dict[str, Any] = data if data is not None else {}
        self._passed: tuple | None = None

    # -- sealing ------------------------------------------------------------

    def seal(self) -> "Document":
        """Make this document immutable from now on; returns it."""
        if self._passed is None:
            self._passed = ()
        return self

    @property
    def sealed(self) -> bool:
        """True once :meth:`seal` has been called."""
        return self._passed is not None

    def _sealed_error(self, action: str, path: str | DocumentPath) -> DocumentError:
        text = path.text if isinstance(path, DocumentPath) else path
        return DocumentError(
            f"cannot {action} {text!r}: the {self.doc_type!r} document is "
            "sealed; edit a copy()"
        )

    # -- path access --------------------------------------------------------

    def get(self, path: str | DocumentPath, default: Any = ...) -> Any:
        """Return the value at ``path``.

        Raises :class:`DocumentPathError` when the path does not resolve,
        unless ``default`` is given, in which case it is returned instead.
        """
        compiled = _as_path(path)
        node: Any = self.data
        for step in compiled.steps:
            try:
                node = self._descend(node, step)
            except DocumentPathError:
                if default is not ...:
                    return default
                raise DocumentPathError(
                    f"path {compiled.text!r} does not resolve in "
                    f"{self.doc_type!r} document (failed at {step!r})"
                ) from None
        return node

    @staticmethod
    def _descend(node: Any, step: Any) -> Any:
        if step is APPEND:
            raise DocumentPathError("[+] is only valid when setting")
        if isinstance(step, str):
            if isinstance(node, dict) and step in node:
                return node[step]
            raise DocumentPathError(f"no field {step!r}")
        # integer index
        if isinstance(node, list):
            try:
                return node[step]
            except IndexError:
                raise DocumentPathError(f"index {step} out of range") from None
        raise DocumentPathError(f"cannot index {type(node).__name__} with {step}")

    def has(self, path: str | DocumentPath) -> bool:
        """Return True when ``path`` resolves in this document."""
        marker = object()
        return self.get(path, default=marker) is not marker

    def set(self, path: str | DocumentPath, value: Any) -> None:
        """Set ``value`` at ``path``, creating intermediate containers.

        A string step creates a dict level; a ``[+]`` or integer step
        creates/extends a list level.  Setting index ``n`` on a list shorter
        than ``n`` raises (holes are never silently created).  Raises
        :class:`DocumentError` on a sealed document.
        """
        if self._passed is not None:
            raise self._sealed_error("set", path)
        compiled = _as_path(path)
        node: Any = self.data
        steps = compiled.steps
        for position, step in enumerate(steps[:-1]):
            next_step = steps[position + 1]
            node = self._descend_or_create(node, step, next_step, compiled)
        self._assign(node, steps[-1], value, compiled)

    def _descend_or_create(
        self, node: Any, step: Any, next_step: Any, compiled: DocumentPath
    ) -> Any:
        container_factory = list if next_step is APPEND or isinstance(next_step, int) else dict
        if isinstance(step, str):
            if not isinstance(node, dict):
                raise DocumentPathError(
                    f"{compiled.text!r}: expected dict at {step!r}, "
                    f"found {type(node).__name__}"
                )
            if step not in node:
                node[step] = container_factory()
            return node[step]
        if step is APPEND:
            if not isinstance(node, list):
                raise DocumentPathError(
                    f"{compiled.text!r}: [+] applied to {type(node).__name__}"
                )
            node.append(container_factory())
            return node[-1]
        # integer index
        if not isinstance(node, list):
            raise DocumentPathError(
                f"{compiled.text!r}: index {step} applied to "
                f"{type(node).__name__}"
            )
        if step == len(node):
            node.append(container_factory())
        if not -len(node) <= step < len(node):
            raise DocumentPathError(
                f"{compiled.text!r}: index {step} out of range "
                f"(length {len(node)})"
            )
        return node[step]

    @staticmethod
    def _assign(node: Any, step: Any, value: Any, compiled: DocumentPath) -> None:
        if isinstance(step, str):
            if not isinstance(node, dict):
                raise DocumentPathError(
                    f"{compiled.text!r}: cannot set field {step!r} on "
                    f"{type(node).__name__}"
                )
            node[step] = value
        elif step is APPEND:
            if not isinstance(node, list):
                raise DocumentPathError(
                    f"{compiled.text!r}: [+] applied to {type(node).__name__}"
                )
            node.append(value)
        else:
            if not isinstance(node, list):
                raise DocumentPathError(
                    f"{compiled.text!r}: index {step} applied to "
                    f"{type(node).__name__}"
                )
            if step == len(node):
                node.append(value)
            elif -len(node) <= step < len(node):
                node[step] = value
            else:
                raise DocumentPathError(
                    f"{compiled.text!r}: index {step} out of range "
                    f"(length {len(node)})"
                )

    def delete(self, path: str | DocumentPath) -> None:
        """Remove the value at ``path``; raises if it does not resolve, and
        raises :class:`DocumentError` on a sealed document."""
        if self._passed is not None:
            raise self._sealed_error("delete", path)
        compiled = _as_path(path)
        if not compiled.steps:
            raise DocumentPathError("cannot delete document root")
        parent: Any = self.data
        for step in compiled.steps[:-1]:
            parent = self._descend(parent, step)
        last = compiled.steps[-1]
        try:
            if isinstance(last, str):
                del parent[last]
            elif isinstance(last, int):
                parent.pop(last)
            else:
                raise DocumentPathError("[+] is only valid when setting")
        except (KeyError, IndexError, TypeError):
            raise DocumentPathError(
                f"path {compiled.text!r} does not resolve for delete"
            ) from None

    # -- traversal ----------------------------------------------------------

    def iter_leaves(self) -> Iterator[tuple[str, Any]]:
        """Yield ``(path_text, scalar_value)`` for every leaf, sorted by path.

        Dicts are walked in key order so the iteration is deterministic.
        """
        yield from _walk_leaves("", self.data)

    def leaf_count(self) -> int:
        """Return the number of scalar leaves (a size measure for metrics)."""
        return sum(1 for _ in self.iter_leaves())

    # -- lifecycle ----------------------------------------------------------

    def copy(self) -> "Document":
        """Return an unsealed deep copy, for code that edits the document."""
        return Document(self.format_name, self.doc_type, _copy.deepcopy(self.data))

    def __copy__(self) -> "Document":
        return self.copy()

    def __reduce__(self) -> tuple:
        # Pickle and copy.deepcopy take the content only: the seal and its
        # passed checks (closures, which cannot be pickled) stay with the
        # original.
        return Document, (self.format_name, self.doc_type, self.data)

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-compatible envelope for persistence."""
        return {
            "format": self.format_name,
            "doc_type": self.doc_type,
            "data": _copy.deepcopy(self.data),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Document":
        """Rebuild a document persisted with :meth:`to_dict`."""
        try:
            return cls(payload["format"], payload["doc_type"], payload["data"])
        except KeyError as exc:
            raise DocumentError(f"malformed document payload: missing {exc}") from None

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Document)
            and self.format_name == other.format_name
            and self.doc_type == other.doc_type
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return (
            f"Document(format={self.format_name!r}, doc_type={self.doc_type!r}, "
            f"leaves={self.leaf_count()})"
        )


def _walk_leaves(prefix: str, node: Any) -> Iterator[tuple[str, Any]]:
    if isinstance(node, dict):
        for key in sorted(node):
            child_prefix = f"{prefix}.{key}" if prefix else key
            yield from _walk_leaves(child_prefix, node[key])
    elif isinstance(node, list):
        for index, item in enumerate(node):
            yield from _walk_leaves(f"{prefix}[{index}]", item)
    else:
        yield prefix, node
