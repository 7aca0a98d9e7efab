"""Declarative field-mapping language for document transformations.

A :class:`Mapping` is a named, directed transformation between two document
layouts (``source_format -> target_format`` for one ``doc_type``).  It is a
list of rules applied in order:

* :class:`Field` — copy one leaf from a source path to a target path,
  optionally through a conversion function;
* :class:`Const` — set a target path to a constant;
* :class:`Compute` — set a target path from a function of the whole source
  document and the transformation context;
* :class:`Each` — map a source list to a target list, applying nested rules
  to each element (elements are addressed with paths relative to the item).

The *context* is a plain dict the caller (a binding, at runtime) supplies
for environmental values a pure field copy cannot know: control numbers,
logical timestamps, sender/receiver ids.  Rules never mutate the source
document.

The rules are declarations; a mapping is applied one way.
``Mapping.compile()`` lowers the rule list once into
:class:`CompiledMapping`, one per-document program whose rules read and
write the raw ``data`` dicts through pre-resolved path accessors, and
``Mapping.apply`` and the transformation registry run it.
``tests/transform/reference_mapping.py`` keeps the interpreter it
replaced, which applied each rule through ``Document.get``/``Document.set``,
and property tests hold the compiled program to it on the whole catalog:
the same document, key order included, or the same error.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable, Mapping as TypingMapping, Sequence

from repro.documents.model import Document, DocumentPath
from repro.documents.schema import DocumentSchema, dict_reader
from repro.errors import MappingError, TransformError

__all__ = [
    "Field",
    "Const",
    "Compute",
    "Each",
    "Mapping",
    "CompiledMapping",
    "MISSING",
]


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "MISSING"


MISSING = _Missing()

Context = TypingMapping[str, Any]
Converter = Callable[[Any], Any]
ComputeFn = Callable[[Document, Context], Any]


@dataclass(frozen=True)
class Field:
    """Copy ``source`` to ``target``, optionally converting the value.

    When the source path is absent: raise if ``required`` (the default),
    write ``default`` when one is given, otherwise skip the rule.
    """

    source: str
    target: str
    convert: Converter | None = None
    default: Any = MISSING
    required: bool = True


@dataclass(frozen=True)
class Const:
    """Set ``target`` to the constant ``value``."""

    target: str
    value: Any


@dataclass(frozen=True)
class Compute:
    """Set ``target`` to ``fn(source_document, context)``.

    ``label`` names the computation in error messages; supply one whenever
    ``fn`` is a lambda.
    """

    target: str
    fn: ComputeFn
    label: str = ""


@dataclass(frozen=True)
class Each:
    """Map every element of a source list into a target list.

    ``rules`` are applied per element; their paths are relative to the
    element, which a Compute receives wrapped as an anonymous sub-document.
    The context of the per-item rules is extended with ``_index`` (0-based)
    and ``_ordinal`` (1-based) so Compute rules can number lines.
    """

    source: str
    target: str
    rules: tuple[Any, ...] = ()
    min_items: int = 1

    def __init__(self, source: str, target: str, rules: Sequence[Any], min_items: int = 1):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "rules", tuple(rules))
        object.__setattr__(self, "min_items", min_items)


Rule = Field | Const | Compute | Each


# Sentinel for "source path absent" in compiled rules; private to this
# module so no document value can collide with it.
_ABSENT = object()

# A lowered rule runs on raw dicts: ``runner(source_doc, source, target,
# context)`` reads ``source`` and writes ``target``.  ``source_doc`` (the
# Document wrapping ``source``) and ``context`` are what a Compute receives;
# inside an Each without a nested Compute both are None.
RuleRunner = Callable[[Document | None, dict, dict, Context | None], None]


def _dict_writer(path: DocumentPath) -> Callable[[dict, Any], None]:
    """Return ``write(target, value)``: ``Document.set(path, value)`` on a
    raw target dict.

    Name-only paths create missing dict levels directly.  An index step,
    or a level that exists but is not a dict, goes through
    ``Document.set``, so the model's semantics and errors apply.
    """

    def write_via_document(target: dict, value: Any) -> None:
        Document("item", "item", target).set(path, value)

    steps = path.steps
    if not all(type(step) is str for step in steps):
        return write_via_document
    *parents, last = steps
    if not parents:

        def write_one(target: dict, value: Any) -> None:
            target[last] = value

        return write_one

    def write_nested(target: dict, value: Any) -> None:
        node = target
        for name in parents:
            child = node.get(name, _ABSENT)
            if child is _ABSENT:
                child = node[name] = {}
            elif type(child) is not dict:
                write_via_document(target, value)
                return
            node = child
        node[last] = value

    return write_nested


def _has_compute(rules: Sequence[Rule]) -> bool:
    """True when a Compute sits anywhere in ``rules`` (through Each)."""
    return any(
        isinstance(rule, Compute)
        or (isinstance(rule, Each) and _has_compute(rule.rules))
        for rule in rules
    )


def _lower_rule(rule: Rule) -> RuleRunner:
    """Lower one rule into a closure over raw-dict path accessors.

    A Field, Const, Compute or Each is a declaration; this is what it
    does to a document.  Paths are parsed once here, so the closures do
    no per-document path parsing or ``Document`` dispatch.
    """
    if isinstance(rule, Field):
        read = dict_reader(DocumentPath(rule.source), _ABSENT)
        write = _dict_writer(DocumentPath(rule.target))
        source_text, target_text = rule.source, rule.target
        convert, default, required = rule.convert, rule.default, rule.required

        def run_field(source_doc, source, target, context) -> None:
            value = read(source)
            if value is _ABSENT:
                if default is not MISSING:
                    write(target, default)
                    return
                if required:
                    raise MappingError(
                        f"source path {source_text!r} missing "
                        f"(mapping to {target_text!r})"
                    )
                return
            if convert is not None:
                try:
                    value = convert(value)
                except TransformError:
                    raise
                except Exception as exc:
                    raise MappingError(
                        f"converter failed on {source_text!r} -> {target_text!r}: {exc!r}"
                    ) from exc
            write(target, value)

        return run_field
    if isinstance(rule, Const):
        write_const = _dict_writer(DocumentPath(rule.target))
        const_value = rule.value

        def run_const(source_doc, source, target, context) -> None:
            write_const(target, const_value)

        return run_const
    if isinstance(rule, Compute):
        write_computed = _dict_writer(DocumentPath(rule.target))
        compute_target, fn, label = rule.target, rule.fn, rule.label

        def run_compute(source_doc, source, target, context) -> None:
            try:
                value = fn(source_doc, context)
            except TransformError:
                raise
            except Exception as exc:
                name = label or getattr(fn, "__name__", "<fn>")
                raise MappingError(
                    f"compute {name!r} for target {compute_target!r} failed: {exc!r}"
                ) from exc
            write_computed(target, value)

        return run_compute
    if isinstance(rule, Each):
        read_items = dict_reader(DocumentPath(rule.source), _ABSENT)
        write_built = _dict_writer(DocumentPath(rule.target))
        each_source, min_items = rule.source, rule.min_items
        item_rules = tuple(_lower_rule(nested) for nested in rule.rules)
        # Item wrapper documents and item contexts exist for Compute rules
        # only; field copies read and write the item dicts directly.
        wrap_items = _has_compute(rule.rules)

        def run_each(source_doc, source, target, context) -> None:
            items = read_items(source)
            if not isinstance(items, list):
                raise MappingError(f"source path {each_source!r} is not a list")
            if len(items) < min_items:
                raise MappingError(
                    f"source list {each_source!r} has {len(items)} item(s), "
                    f"mapping requires at least {min_items}"
                )
            built: list[Any] = []
            item_doc = item_context = None
            for index, item in enumerate(items):
                if not isinstance(item, dict):
                    raise MappingError(
                        f"{each_source}[{index}] is {type(item).__name__}, expected dict"
                    )
                if wrap_items:
                    item_doc = Document(source_doc.format_name, "item", item)
                    item_context = {**context, "_index": index, "_ordinal": index + 1}
                out: dict[str, Any] = {}
                for nested in item_rules:
                    nested(item_doc, item, out, item_context)
                built.append(out)
            write_built(target, built)

        return run_each
    raise MappingError(f"cannot compile rule of type {type(rule).__name__}")


class CompiledMapping:
    """A :class:`Mapping` lowered to one per-document program.

    Built once by :meth:`Mapping.compile`; its rules run on the raw source
    and target dicts.
    """

    __slots__ = ("mapping", "name", "_rules")

    def __init__(self, mapping: "Mapping"):
        self.mapping = mapping
        self.name = mapping.name
        self._rules: tuple[RuleRunner, ...] = tuple(
            _lower_rule(rule) for rule in mapping.rules
        )

    def apply(self, document: Document, context: Context | None = None) -> Document:
        """Transform ``document`` and return the new, sealed target-format
        document."""
        mapping = self.mapping
        context = context or {}
        if document.format_name != mapping.source_format:
            raise TransformError(
                f"mapping {mapping.name!r} expects format {mapping.source_format!r}, "
                f"got {document.format_name!r}"
            )
        if document.doc_type != mapping.doc_type:
            raise TransformError(
                f"mapping {mapping.name!r} expects doc_type {mapping.doc_type!r}, "
                f"got {document.doc_type!r}"
            )
        if mapping.source_schema is not None:
            mapping.source_schema.validate(document)
        target = Document(mapping.target_format, mapping.doc_type, {})
        source, data = document.data, target.data
        for rule in self._rules:
            rule(document, source, data, context)
        if mapping.post is not None:
            mapping.post(document, target, context)
        target.seal()
        if mapping.target_schema is not None:
            mapping.target_schema.validate(target)
        return target

    def __repr__(self) -> str:
        return f"CompiledMapping({self.name!r}, {len(self._rules)} rules)"


@dataclass
class Mapping:
    """A named transformation between two document layouts.

    :param name: unique id, conventionally ``"<source>__to__<target>/<doc_type>"``.
    :param source_format: format the input document must have.
    :param target_format: format of the produced document.
    :param doc_type: business document kind both sides share.
    :param rules: ordered mapping rules.
    :param source_schema: optional schema validated before mapping.
    :param target_schema: optional schema validated after mapping.
    :param post: optional ``fn(source_doc, target_doc, context)`` hook for
        adjustments the rule language cannot express.
    """

    name: str
    source_format: str
    target_format: str
    doc_type: str
    rules: list[Rule] = dataclass_field(default_factory=list)
    source_schema: DocumentSchema | None = None
    target_schema: DocumentSchema | None = None
    post: Callable[[Document, Document, Context], None] | None = None
    _compiled: CompiledMapping | None = dataclass_field(
        default=None, init=False, repr=False, compare=False
    )
    _compiled_rules: tuple[Rule, ...] | None = dataclass_field(
        default=None, init=False, repr=False, compare=False
    )

    _SCALAR_TYPES = frozenset({"str", "int", "float", "number", "bool"})

    def __post_init__(self) -> None:
        self._validate_targets()

    def compile(self) -> CompiledMapping:
        """Return the compiled form of this mapping (built once, cached).

        The cache is invalidated when the rule list is edited (rules are
        frozen, so edits replace rule objects).  The snapshot holds the
        rule objects themselves — a strong reference — and compares by
        identity, so a replaced rule can never false-hit by reusing a
        freed object's ``id()``.
        """
        snapshot = self._compiled_rules
        rules = self.rules
        if (
            self._compiled is None
            or snapshot is None
            or len(snapshot) != len(rules)
            or any(held is not current for held, current in zip(snapshot, rules))
        ):
            self._compiled = CompiledMapping(self)
            self._compiled_rules = tuple(rules)
        return self._compiled

    def _validate_targets(self) -> None:
        """Reject rules whose target paths contradict ``target_schema``.

        Two contradictions are decidable at construction time: a target
        path writing *below* a path the schema declares as a scalar, and an
        :class:`Each` rule (which always writes a list) targeting a path
        the schema declares as a non-list.  Both would fail on every
        document, so they are mapping bugs, not data bugs.

        The schema-shape questions are answered by the lowered field
        lattice of :mod:`repro.verify.dataflow` — one canonical
        interpretation of schema shapes shared with the dataflow pass.
        """
        if self.target_schema is None:
            return
        from repro.verify.dataflow import lower_schema

        lattice = lower_schema(self.target_schema)
        for index, rule in enumerate(self.rules):
            target = getattr(rule, "target", None)
            if target is None:
                continue
            conflict = lattice.scalar_ancestor(target)
            if conflict is not None:
                declared_path, type_name = conflict
                raise MappingError(
                    f"mapping {self.name!r} rule {index} "
                    f"({type(rule).__name__}) targets {target!r}, which "
                    f"writes below {declared_path!r} declared as "
                    f"{type_name} in schema {self.target_schema.name!r}"
                )
            if isinstance(rule, Each):
                state = lattice.fields.get(target)
                if state is not None and state.type_name != "list":
                    raise MappingError(
                        f"mapping {self.name!r} rule {index} (Each) targets "
                        f"{target!r}, declared as {state.type_name} (not list) "
                        f"in schema {self.target_schema.name!r}"
                    )

    def apply(self, document: Document, context: Context | None = None) -> Document:
        """Transform ``document`` and return the new target-format document."""
        return self.compile().apply(document, context)

    def rule_count(self) -> int:
        """Total number of rules including those nested in Each (a
        complexity measure used by the model metrics)."""
        total = 0
        for rule in self.rules:
            total += 1
            if isinstance(rule, Each):
                total += len(rule.rules)
        return total

    def __repr__(self) -> str:
        return (
            f"Mapping({self.name!r}: {self.source_format} -> "
            f"{self.target_format} [{self.doc_type}], {self.rule_count()} rules)"
        )
