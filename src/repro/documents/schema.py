"""Document schemas: declarative structure checks for document layouts.

Transformations and bindings validate documents at the boundaries where the
paper places format obligations: public processes must produce documents in
their protocol's wire layout, private processes only ever see the normalized
layout (Section 4.2).  A schema failure at one of these seams is a modelling
bug, so violations are collected exhaustively and raised together.

Validation runs on every document at every seam, and nearly every document
is clean.  So :meth:`DocumentSchema.validate` first runs a boolean accept
check compiled from the field specs, which reads the raw dicts directly
(:func:`dict_reader`).  The exhaustive violation walk runs only when that
check fails, so a rejected document gets the same error, message and
violation list as before.

A sealed document cannot change, so a check it has passed once holds for
good: it remembers each accept check it passed, and validating it again
against the same check returns at once.  That rests on every
``FieldSpec.check`` being a pure function of the value.  Editing a
schema's fields, or an item schema's, builds a new check object, which no
document has passed yet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import methodcaller
from typing import Any, Callable

from repro.documents.model import Document, DocumentPath
from repro.errors import SchemaError, ValidationError

__all__ = ["FieldSpec", "DocumentSchema", "dict_reader"]

_ABSENT = object()

_TYPE_NAMES: dict[str, type | tuple[type, ...]] = {
    "str": str,
    "int": int,
    "float": (int, float),
    "number": (int, float),
    "bool": bool,
}


def dict_reader(path: DocumentPath, missing: Any) -> Callable[[dict], Any]:
    """Return ``read(root)``: ``Document.get(path, default=missing)`` on a
    raw root dict, without building a :class:`Document`.

    A name-only path (``header.po_number``) is read by indexing dicts
    directly.  A path with index steps (``lines[0]``) reads through a
    ``Document`` view, so it keeps the model's semantics.
    """
    steps = path.steps
    if not all(type(step) is str for step in steps):

        def read_indexed(root: dict) -> Any:
            return Document("item", "item", root).get(path, default=missing)

        return read_indexed
    if len(steps) == 1:
        return methodcaller("get", steps[0], missing)
    if len(steps) == 2:
        first, second = steps

        def read_two(root: dict) -> Any:
            node = root.get(first)
            if isinstance(node, dict):
                return node.get(second, missing)
            return missing

        return read_two

    def read_deep(root: dict) -> Any:
        node: Any = root
        for name in steps:
            if not isinstance(node, dict):
                return missing
            node = node.get(name, missing)
        return node

    return read_deep


@dataclass(frozen=True)
class FieldSpec:
    """One field constraint inside a :class:`DocumentSchema`.

    :param path: document path of the field (list fields are expressed via
        an ``items`` sub-schema on the containing spec instead).
    :param type_name: one of ``str int float number bool list dict``.
    :param required: whether the field must be present.
    :param choices: optional closed set of allowed values.
    :param check: optional predicate ``value -> bool`` for extra constraints
        (e.g. non-negative amounts); described by ``check_label`` in
        violation messages.
    :param items: for ``list`` fields, a schema every element must satisfy
        (elements are dicts, validated as anonymous sub-documents).
    :param min_items: for ``list`` fields, minimum number of elements.
    """

    path: str
    type_name: str = "str"
    required: bool = True
    choices: tuple[Any, ...] | None = None
    check: Callable[[Any], bool] | None = None
    check_label: str = "custom check"
    items: "DocumentSchema | None" = None
    min_items: int = 0

    def __post_init__(self) -> None:
        if self.type_name not in (*_TYPE_NAMES, "list", "dict"):
            raise SchemaError(
                f"unknown type {self.type_name!r} for field {self.path!r}"
            )
        if self.items is not None and self.type_name != "list":
            raise SchemaError(
                f"field {self.path!r}: items= requires type 'list'"
            )
        # Schema validation runs on every document at every trust boundary;
        # compile the path once instead of re-parsing it per validation.
        object.__setattr__(self, "_compiled_path", DocumentPath(self.path))

    def violations_for(self, document: Document) -> list[str]:
        """Return the list of violations of this spec in ``document``."""
        value = document.get(self._compiled_path, default=_ABSENT)
        if value is _ABSENT:
            if self.required:
                return [f"{self.path}: required field is missing"]
            return []
        return self._check_value(value)

    def _check_value(self, value: Any) -> list[str]:
        problems: list[str] = []
        if self.type_name == "list":
            if not isinstance(value, list):
                return [f"{self.path}: expected list, got {type(value).__name__}"]
            if len(value) < self.min_items:
                problems.append(
                    f"{self.path}: expected at least {self.min_items} item(s), "
                    f"got {len(value)}"
                )
            if self.items is not None:
                for index, element in enumerate(value):
                    if not isinstance(element, dict):
                        problems.append(
                            f"{self.path}[{index}]: expected dict item, got "
                            f"{type(element).__name__}"
                        )
                        continue
                    item_doc = Document("item", "item", element)
                    for spec in self.items.fields:
                        problems.extend(
                            f"{self.path}[{index}].{violation}"
                            for violation in spec.violations_for(item_doc)
                        )
            return problems
        if self.type_name == "dict":
            if not isinstance(value, dict):
                return [f"{self.path}: expected dict, got {type(value).__name__}"]
            return problems
        expected = _TYPE_NAMES[self.type_name]
        if isinstance(value, bool) and self.type_name in ("int", "float", "number"):
            problems.append(f"{self.path}: expected {self.type_name}, got bool")
        elif not isinstance(value, expected):
            problems.append(
                f"{self.path}: expected {self.type_name}, got {type(value).__name__}"
            )
        if self.choices is not None and value not in self.choices:
            problems.append(
                f"{self.path}: value {value!r} not in allowed choices {self.choices!r}"
            )
        if self.check is not None and not problems:
            try:
                passed = bool(self.check(value))
            except Exception as exc:  # checks must never crash validation
                passed = False
                problems.append(f"{self.path}: {self.check_label} raised {exc!r}")
            else:
                if not passed:
                    problems.append(f"{self.path}: failed {self.check_label}")
        return problems


def _accept_check(spec: FieldSpec) -> Callable[[dict], bool]:
    """A predicate over a root dict that is True only when
    ``spec.violations_for`` would return no violations.

    It may answer False for a clean value (a dict or list subclass, say);
    the caller then runs the exhaustive walk, which has the final word.
    """
    read = dict_reader(spec._compiled_path, _ABSENT)
    required = spec.required
    if spec.type_name == "list":
        min_items = spec.min_items
        item_check = None if spec.items is None else spec.items._fields_check()

        def check_list(root: dict) -> bool:
            value = read(root)
            if value is _ABSENT:
                return not required
            if type(value) is not list or len(value) < min_items:
                return False
            if item_check is not None:
                for element in value:
                    if type(element) is not dict or not item_check(element):
                        return False
            return True

        return check_list
    if spec.type_name == "dict":

        def check_dict(root: dict) -> bool:
            value = read(root)
            if value is _ABSENT:
                return not required
            return type(value) is dict

        return check_dict
    expected = _TYPE_NAMES[spec.type_name]
    numeric = spec.type_name in ("int", "float", "number")
    choices, check = spec.choices, spec.check

    def check_scalar(root: dict) -> bool:
        value = read(root)
        if value is _ABSENT:
            return not required
        if not isinstance(value, expected) or (numeric and isinstance(value, bool)):
            return False
        if choices is not None and value not in choices:
            return False
        if check is not None:
            try:
                return bool(check(value))
            except Exception:
                return False
        return True

    return check_scalar


@dataclass
class DocumentSchema:
    """A named set of field constraints for one (format, doc_type) layout."""

    name: str
    format_name: str = ""
    doc_type: str = ""
    fields: list[FieldSpec] = field(default_factory=list)

    # The compiled accept check over ``fields``, a copy of the list it was
    # built from, and the (item schema, item check) pairs it holds.
    # Unannotated class attributes, so not dataclass fields: equality and
    # ``repr`` must not see them.
    _check = None
    _checked_fields = None
    _item_checks = ()

    def add(self, spec: FieldSpec) -> "DocumentSchema":
        """Append a field spec (fluent)."""
        self.fields.append(spec)
        return self

    def violations(self, document: Document) -> list[str]:
        """Return every violation of this schema in ``document``."""
        problems: list[str] = []
        if self.format_name and document.format_name != self.format_name:
            problems.append(
                f"format mismatch: schema {self.name!r} expects "
                f"{self.format_name!r}, document is {document.format_name!r}"
            )
        if self.doc_type and document.doc_type != self.doc_type:
            problems.append(
                f"doc_type mismatch: schema {self.name!r} expects "
                f"{self.doc_type!r}, document is {document.doc_type!r}"
            )
        for spec in self.fields:
            problems.extend(spec.violations_for(document))
        return problems

    def _fields_check(self) -> Callable[[dict], bool]:
        """The accept check over ``fields``, built on first use.

        It is rebuilt, as a new object, when the list is edited (appended
        to, or an entry replaced) or when an item schema's own check is
        rebuilt, so a verdict remembered against the old check never
        matches.
        """
        if self._checked_fields != self.fields or any(
            items._fields_check() is not check for items, check in self._item_checks
        ):
            self._item_checks = tuple(
                (spec.items, spec.items._fields_check())
                for spec in self.fields
                if spec.items is not None
            )
            checks = tuple(_accept_check(spec) for spec in self.fields)

            def check_fields(root: dict) -> bool:
                for check in checks:
                    if not check(root):
                        return False
                return True

            self._check = check_fields
            self._checked_fields = list(self.fields)
        return self._check  # type: ignore[return-value]

    def accepts(self, document: Document) -> bool:
        """Fast check: True only when :meth:`violations` would be empty.

        False means "not proven clean", not "invalid": callers that need
        the verdict run :meth:`violations`.
        """
        if self.format_name and document.format_name != self.format_name:
            return False
        if self.doc_type and document.doc_type != self.doc_type:
            return False
        return self._fields_check()(document.data)

    def validate(self, document: Document) -> None:
        """Raise :class:`ValidationError` when ``document`` violates this schema.

        A sealed document that has passed this schema's current check
        returns at once, and one that passes it now remembers the check.
        """
        check = self._fields_check()
        if (not self.format_name or document.format_name == self.format_name) and (
            not self.doc_type or document.doc_type == self.doc_type
        ):
            passed = document._passed
            if passed is None:
                if check(document.data):
                    return
            elif check in passed:
                return
            elif check(document.data):
                document._passed = passed + (check,)
                return
        problems = self.violations(document)
        if problems:
            raise ValidationError(
                f"document failed schema {self.name!r}: "
                f"{len(problems)} violation(s): " + "; ".join(problems[:5]),
                violations=problems,
            )

    def is_valid(self, document: Document) -> bool:
        """Return True when ``document`` satisfies this schema."""
        return not self.violations(document)
