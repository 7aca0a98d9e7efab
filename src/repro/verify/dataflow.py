"""Schema dataflow analysis: abstract interpretation over document shapes.

The static verifier (PR 2/4/6) checks every layer in isolation — mappings
against their own schemas, binding chains over *formats*, conversations
over message kinds.  None of those passes can see that a transformation
route actually *produces* what the next layer consumes.  This module
closes that gap: it lowers each :class:`~repro.documents.schema.
DocumentSchema` into a field lattice (presence x scalar type x list
shape), pushes abstract documents through every mapping rule and
binding-chain route in the model, and checks the inferred output state
against the actual downstream consumer.

The lattice
-----------

An abstract document maps dotted field paths to :class:`FieldState`:

* presence — ``present`` (written on every non-raising path) or
  ``optional`` (written on some paths); paths not in the map are
  *absent* under the closed-world reading below;
* ``type_name`` — one of the schema type names, or ``any`` (top);
* ``items`` — for lists, the abstract document of one element.

Two abstract documents feed the transfer functions: schemas lower to the
state a conforming document is *declared* to have, and mapping rule
lists transfer an input state to the exact set of paths the rules write
— a closed world, since the rule language has no dynamic targets.  A
``post`` hook (arbitrary Python) collapses the output to the opaque top
element.

Soundness: every check only fires on *provable* facts — a type conflict
where the possible-value sets are disjoint, a read of a path no rule
writes and no schema declares.  Anything under a ``dict``/``any``
container, behind a post hook, or computed by an opaque function is
unknown and never reported.  Applying the mappings
(``Mapping.apply``, the compiled program the hub runs, with
``DocumentSchema.validate``) therefore raises on a concrete document for
every B2B701/702/705 finding — witnessed by the counterexample document
attached to the diagnostic — while clean routes never raise a schema or
path error.  The tests check both claims on the reference interpreter
that the compiled program is property-tested against.

Diagnostics
-----------

======== ======== ====================================================
code     severity meaning
======== ======== ====================================================
B2B701   error    output field's inferred type conflicts with the
                  target schema's declaration
B2B702   warning  required target field unwritten on some rule path
B2B703   warning  lossy/narrowing conversion without a declared
                  transform function
B2B704   warning  rule reads a source path no upstream schema or
                  mapping can produce (dead rule)
B2B705   error    binding chain composes mappings whose intermediate
                  schemas disagree
B2B706   warning  BusinessRule expression reads a field the dataflow
                  proves absent from every inbound document
B2B707   info     compute has unanalyzable effects
======== ======== ====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.core.binding import KIND_CONSUME, KIND_PRODUCE, KIND_TRANSFORM
from repro.documents.model import Document
from repro.documents.schema import DocumentSchema, FieldSpec
from repro.errors import NoRouteError
from repro.transform.mapping import (
    MISSING as _MISSING,
    Compute,
    Const,
    Each,
    Field,
    Mapping,
)
from repro.verify.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    Diagnostic,
)
from repro.verify.effects import analyze_function

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.integration import IntegrationModel

__all__ = [
    "PRESENT",
    "OPTIONAL",
    "FieldState",
    "AbstractDocument",
    "RouteSpec",
    "lower_schema",
    "transfer",
    "counterexample_document",
    "iter_binding_routes",
    "check_mapping_dataflow",
    "check_route_dataflow",
    "check_rule_reads",
    "verify_dataflow",
]

PRESENT = "present"
OPTIONAL = "optional"

SCALAR_TYPES = frozenset({"str", "int", "float", "number", "bool"})
_NUMERIC_TYPES = frozenset({"int", "float", "number"})

# Possible concrete value types per schema type name; a declared/inferred
# pair conflicts exactly when these sets are disjoint (``any`` = all).
_POSSIBLE: dict[str, frozenset[str]] = {
    "str": frozenset({"str"}),
    "int": frozenset({"int"}),
    "float": frozenset({"int", "float"}),
    "number": frozenset({"int", "float"}),
    "bool": frozenset({"bool"}),
    "list": frozenset({"list"}),
    "dict": frozenset({"dict"}),
}


def types_conflict(inferred: str, declared: str) -> bool:
    """True when no concrete value can satisfy both type names."""
    if inferred == "any" or declared == "any":
        return False
    inferred_set = _POSSIBLE.get(inferred)
    declared_set = _POSSIBLE.get(declared)
    if inferred_set is None or declared_set is None:
        return False
    return not (inferred_set & declared_set)


# ---------------------------------------------------------------------------
# The lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldState:
    """Abstract value of one document field."""

    presence: str = PRESENT
    type_name: str = "any"
    items: "AbstractDocument | None" = None


# resolve() markers: a path can be provably absent (closed world) or
# unknown (opaque state, or below a dict/any/list container).
ABSENT = FieldState(presence="absent", type_name="absent")
UNKNOWN = FieldState(presence=OPTIONAL, type_name="any")


@dataclass
class AbstractDocument:
    """Field-path -> :class:`FieldState`, insertion-ordered like schemas.

    ``open`` distinguishes the two sources of abstract documents: a
    schema-lowered state is *open* — schemas are partial contracts, so an
    undeclared path may still be present on conforming documents — while
    a mapping-transferred state is *closed*: the rule language has no
    dynamic targets, so the write set is exact and an unwritten path is
    provably absent.
    """

    fields: dict[str, FieldState] = dataclass_field(default_factory=dict)
    opaque: bool = False
    open: bool = False

    def resolve(self, path: str) -> FieldState:
        """The abstract state of ``path``: a field state, ABSENT, or UNKNOWN."""
        if self.opaque:
            return UNKNOWN
        state = self.fields.get(path)
        if state is not None:
            return state
        # Below a known container?  dict/any containers hide their interior;
        # list interiors are indexed, which the flat path map cannot track.
        for declared, declared_state in self.fields.items():
            if path.startswith(declared + "."):
                if declared_state.type_name in ("dict", "any", "list"):
                    return UNKNOWN
                return ABSENT  # reading below a scalar always fails
        # Interior node of declared leaves (e.g. ``header`` when
        # ``header.po_number`` is declared): a present dict container.
        prefix = path + "."
        interior = [state for p, state in self.fields.items() if p.startswith(prefix)]
        if interior:
            presence = (
                PRESENT
                if any(state.presence == PRESENT for state in interior)
                else OPTIONAL
            )
            return FieldState(presence=presence, type_name="dict")
        return UNKNOWN if self.open else ABSENT

    def scalar_ancestor(self, path: str) -> tuple[str, str] | None:
        """First declared field that ``path`` writes below despite being a
        scalar — the construction-time contradiction ``Mapping`` rejects."""
        for declared, state in self.fields.items():
            if path.startswith(declared + ".") and state.type_name in SCALAR_TYPES:
                return declared, state.type_name
        return None


_OPAQUE = AbstractDocument(opaque=True)


def lower_schema(schema: DocumentSchema | None) -> AbstractDocument:
    """Lower a schema into the abstract state of a conforming document."""
    if schema is None:
        return _OPAQUE
    fields: dict[str, FieldState] = {}
    for spec in schema.fields:
        fields[spec.path] = FieldState(
            presence=PRESENT if spec.required else OPTIONAL,
            type_name=spec.type_name,
            items=lower_schema(spec.items) if spec.items is not None else None,
        )
    return AbstractDocument(fields=fields, open=True)


def _join_types(left: str, right: str) -> str:
    if left == right:
        return left
    if left in _NUMERIC_TYPES and right in _NUMERIC_TYPES:
        return "number"
    return "any"


def _value_type(value: object) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    if isinstance(value, list):
        return "list"
    if isinstance(value, dict):
        return "dict"
    return "any"


# Result types of the converter library (repro.transform.functions);
# factory-built converters are recognized by their ``__name__`` prefix.
_CONVERTER_RESULTS = {
    "to_str": "str",
    "upper": "str",
    "lower": "str",
    "strip": "str",
    "to_int": "int",
    "to_cents": "int",
    "to_float": "float",
    "money": "float",
    "from_cents": "float",
}
_CONVERTER_PREFIXES = (
    ("truncated_", "str"),
    ("scaled_", "float"),
    ("code_map_", "any"),
    ("chained_", "any"),
)


def converter_result_type(convert) -> str:
    name = getattr(convert, "__name__", "")
    result = _CONVERTER_RESULTS.get(name)
    if result is not None:
        return result
    for prefix, result in _CONVERTER_PREFIXES:
        if name.startswith(prefix):
            return result
    return "any"


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------


class _Sink:
    """Diagnostic collector for one mapping analysis (None-able).

    ``reads_only`` restricts emission to read-side findings (B2B704) —
    used when replaying a mapping's rules against an upstream state at
    route level, where the write-side findings were already reported by
    the per-mapping pass.
    """

    def __init__(self, mapping: Mapping, location: str, reads_only: bool = False):
        self.mapping = mapping
        self.location = location
        self.reads_only = reads_only
        self.diagnostics: list[Diagnostic] = []
        # target path -> the optional source whose absence skips the write
        self.may_skip: dict[str, str] = {}

    def add(self, code: str, severity: str, message: str, hint: str = "") -> None:
        self.diagnostics.append(
            Diagnostic(code, severity, self.location, message, hint=hint)
        )


def _field_result_type(rule: Field, source_type: str) -> str:
    if rule.convert is None:
        return source_type
    return converter_result_type(rule.convert)


def _check_write(
    sink: _Sink,
    declared: AbstractDocument,
    target: str,
    inferred: str,
    rule_note: str,
    narrowing_source: str | None,
) -> None:
    """B2B701/B2B703 for one write against the declared target lattice."""
    spec = declared.fields.get(target)
    if spec is None:
        return
    schema_name = sink.mapping.target_schema.name if sink.mapping.target_schema else ""
    if narrowing_source is not None and inferred != "any":
        # Classic narrowing shapes get the dedicated diagnostic: the fix
        # is a declared transform function, not a schema change.
        if inferred in ("list", "dict") and spec.type_name in SCALAR_TYPES:
            sink.add(
                "B2B703",
                SEVERITY_WARNING,
                f"{rule_note} copies {narrowing_source!r} ({inferred}) into "
                f"{target!r} declared as {spec.type_name} in schema "
                f"{schema_name!r} without a transform function",
                hint="declare a converter that flattens the value, or fix "
                "the target type",
            )
            return
        if inferred in _NUMERIC_TYPES and spec.type_name == "str":
            sink.add(
                "B2B703",
                SEVERITY_WARNING,
                f"{rule_note} copies {narrowing_source!r} ({inferred}) into "
                f"{target!r} declared as str in schema {schema_name!r} "
                "without a transform function",
                hint="convert explicitly (functions.to_str) or widen the "
                "schema type",
            )
            return
        if inferred in ("float", "number") and spec.type_name == "int":
            sink.add(
                "B2B703",
                SEVERITY_WARNING,
                f"{rule_note} copies {narrowing_source!r} ({inferred}) into "
                f"{target!r} declared as int in schema {schema_name!r} "
                "without a transform function",
                hint="convert explicitly (functions.to_int/to_cents) or "
                "declare the field as number",
            )
            return
    if types_conflict(inferred, spec.type_name):
        sink.add(
            "B2B701",
            SEVERITY_ERROR,
            f"{rule_note} writes {target!r} as {inferred}, but schema "
            f"{schema_name!r} declares it {spec.type_name}",
            hint="fix the rule's value or the schema declaration",
        )


def _apply_rules(
    rules: Sequence[object],
    state: AbstractDocument,
    sink: _Sink | None,
    declared: AbstractDocument | None,
    origin: str,
    path_prefix: str = "",
) -> AbstractDocument:
    """Transfer ``state`` through ``rules``; emit diagnostics into ``sink``.

    ``declared`` is the lowered target schema (for B2B701/703 write
    checks); ``origin`` describes where the input state came from (a
    schema or an upstream mapping) for B2B704 messages; ``path_prefix``
    renders nested Each targets as ``parent[].child``.
    """
    out = AbstractDocument()
    for index, rule in enumerate(rules):
        note = f"rule {index} ({type(rule).__name__})"
        if isinstance(rule, Field):
            source_state = state.resolve(rule.source)
            if source_state is ABSENT and sink is not None:
                read_path = path_prefix + rule.source
                sink.add(
                    "B2B704",
                    SEVERITY_WARNING,
                    f"{note} reads source path {read_path!r}, which no "
                    "upstream schema or mapping produces"
                    + (f" ({origin})" if origin else ""),
                    hint="remove the dead rule or fix the source path",
                )
            source_type = (
                "any" if source_state in (ABSENT, UNKNOWN)
                else source_state.type_name
            )
            converted = _field_result_type(rule, source_type)
            # presence/type of the written value
            if rule.default is not _MISSING:
                if source_state is ABSENT:
                    inferred = _value_type(rule.default)
                else:
                    inferred = _join_types(converted, _value_type(rule.default))
                presence = PRESENT
            elif rule.required:
                inferred = converted
                presence = PRESENT  # on every non-raising path
            else:
                inferred = converted
                if source_state is ABSENT:
                    continue  # never written
                presence = source_state.presence
                if (
                    presence != PRESENT
                    and source_state is not UNKNOWN
                    and sink is not None
                ):
                    # only a *declared-optional* source proves a skip path;
                    # an unknown source may well always be present
                    sink.may_skip[path_prefix + rule.target] = rule.source
            if sink is not None and declared is not None:
                narrowing = rule.source if rule.convert is None else None
                _check_write(
                    sink, declared, rule.target, inferred, note, narrowing
                )
            out.fields[rule.target] = FieldState(
                presence=presence, type_name=inferred
            )
        elif isinstance(rule, Const):
            inferred = _value_type(rule.value)
            if sink is not None and declared is not None:
                _check_write(sink, declared, rule.target, inferred, note, None)
            out.fields[rule.target] = FieldState(type_name=inferred)
        elif isinstance(rule, Compute):
            if sink is not None and not sink.reads_only:
                effects = analyze_function(rule.fn)
                if not effects.analyzable:
                    name = rule.label or getattr(rule.fn, "__name__", "<fn>")
                    sink.add(
                        "B2B707",
                        SEVERITY_INFO,
                        f"{note} compute {name!r} for "
                        f"{path_prefix + rule.target!r} has unanalyzable "
                        f"effects ({effects.reason})",
                        hint="use a plain two-argument function so the "
                        "effect analyzer (and the transform cache) can "
                        "reason about it",
                    )
            out.fields[rule.target] = FieldState(type_name="any")
        elif isinstance(rule, Each):
            source_state = state.resolve(rule.source)
            if sink is not None:
                if source_state is ABSENT:
                    sink.add(
                        "B2B704",
                        SEVERITY_WARNING,
                        f"{note} reads source list {rule.source!r}, which no "
                        "upstream schema or mapping produces"
                        + (f" ({origin})" if origin else ""),
                        hint="remove the dead rule or fix the source path",
                    )
                elif (
                    source_state is not UNKNOWN
                    and source_state.type_name not in ("list", "any")
                ):
                    sink.add(
                        "B2B704",
                        SEVERITY_WARNING,
                        f"{note} iterates {rule.source!r}, which upstream "
                        f"declares as {source_state.type_name}, not a list",
                        hint="fix the source path or the upstream schema",
                    )
            item_state = _OPAQUE
            if (
                source_state not in (ABSENT, UNKNOWN)
                and source_state.items is not None
            ):
                item_state = source_state.items
            declared_items: AbstractDocument | None = None
            if declared is not None:
                target_spec = declared.fields.get(rule.target)
                if target_spec is not None and target_spec.items is not None:
                    declared_items = target_spec.items
            items_out = _apply_rules(
                rule.rules,
                item_state,
                sink,
                declared_items,
                origin,
                path_prefix=f"{path_prefix}{rule.target}[].",
            )
            out.fields[rule.target] = FieldState(
                type_name="list", items=items_out
            )
    return out


def transfer(mapping: Mapping, state: AbstractDocument) -> AbstractDocument:
    """The abstract output of applying ``mapping`` to ``state``."""
    if mapping.post is not None:
        # a post hook may write (or delete) anything
        return _OPAQUE
    return _apply_rules(mapping.rules, state, None, None, "")


# ---------------------------------------------------------------------------
# Counterexamples
# ---------------------------------------------------------------------------


def _sample_value(spec: FieldSpec):
    if spec.choices:
        return spec.choices[0]
    type_name = spec.type_name
    if type_name == "str":
        return "X"
    if type_name == "int":
        return 1
    if type_name in ("float", "number"):
        return 1.0
    if type_name == "bool":
        return True
    if type_name == "dict":
        return {}
    if type_name == "list":
        count = max(spec.min_items, 1)
        element: dict = {}
        if spec.items is not None:
            item = Document("item", "item", {})
            for item_spec in spec.items.fields:
                if item_spec.required:
                    item.set(item_spec.path, _sample_value(item_spec))
            element = item.data
        return [dict(element) for _ in range(count)]
    return None


def counterexample_document(schema: DocumentSchema | None) -> Document | None:
    """A minimal concrete document satisfying ``schema`` using only its
    required fields — the witness for B2B701/702/705 findings (optional
    fields are deliberately omitted so skip-paths are exercised)."""
    if schema is None:
        return None
    document = Document(
        schema.format_name or "abstract", schema.doc_type or "document", {}
    )
    for spec in schema.fields:
        if spec.required:
            document.set(spec.path, _sample_value(spec))
    return document


def _witness_trace(schema: DocumentSchema | None) -> tuple[str, ...]:
    document = counterexample_document(schema)
    if document is None:
        return ()
    payload = json.dumps(document.data, sort_keys=True)
    return (
        f"counterexample document ({document.format_name}/"
        f"{document.doc_type}): {payload}",
    )


# ---------------------------------------------------------------------------
# Per-mapping analysis
# ---------------------------------------------------------------------------


def check_mapping_dataflow(mapping: Mapping) -> list[Diagnostic]:
    """Dataflow-lint one mapping against its own schemas (B2B701-704, 707)."""
    location = f"mapping:{mapping.name}"
    sink = _Sink(mapping, location)
    in_state = lower_schema(mapping.source_schema)
    declared = (
        lower_schema(mapping.target_schema)
        if mapping.target_schema is not None and mapping.post is None
        else None
    )
    origin = (
        f"source schema {mapping.source_schema.name!r}"
        if mapping.source_schema is not None
        else ""
    )
    out = _apply_rules(mapping.rules, in_state, sink, declared, origin)
    if declared is not None and mapping.target_schema is not None:
        _check_required_presence(sink, mapping.target_schema, out)
    witness = _witness_trace(mapping.source_schema)
    return [
        diag if not witness or diag.code not in ("B2B701", "B2B702")
        else _with_trace(diag, witness)
        for diag in sink.diagnostics
    ]


def _with_trace(diag: Diagnostic, trace: tuple[str, ...]) -> Diagnostic:
    from dataclasses import replace

    return replace(diag, trace=diag.trace + trace)


def _check_required_presence(
    sink: _Sink, schema: DocumentSchema, out: AbstractDocument
) -> None:
    """B2B702: required target fields whose write may be skipped."""
    for spec in schema.fields:
        if not spec.required:
            continue
        state = out.fields.get(spec.path)
        source = sink.may_skip.get(spec.path)
        if state is not None and state.presence == OPTIONAL and source is not None:
            sink.add(
                "B2B702",
                SEVERITY_WARNING,
                f"required target field {spec.path!r} of schema "
                f"{schema.name!r} is unwritten when optional source "
                f"{source!r} is absent",
                hint="give the Field rule a default= or mark the target "
                "field optional",
            )


# ---------------------------------------------------------------------------
# Binding-chain routes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RouteSpec:
    """One transformation chain a binding drives for one doc type."""

    binding: str
    direction: str
    doc_type: str
    chain: tuple[Mapping, ...]

    @property
    def label(self) -> str:
        return f"binding:{self.binding}/{self.direction}/{self.doc_type}"


def iter_binding_routes(model: "IntegrationModel") -> Iterator[RouteSpec]:
    """Enumerate every mapping chain the model's bindings can execute.

    Mirrors the format simulation of the B2B301 check: transform steps
    accumulate their resolved routes into one composed chain per
    (binding, direction, doc type); ``produce`` steps reset the chain
    (the producer's output is not statically known), ``consume`` ends it.
    Routes the registry cannot resolve are skipped here — B2B301 already
    reports them.
    """
    from repro.verify.binding_checks import _chain_context

    for binding in model.bindings.values():
        inbound_docs, outbound_docs, inbound_start, outbound_start = _chain_context(
            binding, model
        )
        for direction, docs, start, chain_steps in (
            ("inbound", inbound_docs, inbound_start, binding.inbound),
            ("outbound", outbound_docs, outbound_start, binding.outbound),
        ):
            if start is None:
                continue
            for doc_type in dict.fromkeys(docs):
                mappings: list[Mapping] = []
                current: str | None = start
                for step in chain_steps:
                    if step.kind == KIND_CONSUME:
                        break
                    if step.kind == KIND_PRODUCE:
                        if mappings:
                            yield RouteSpec(
                                binding.name, direction, doc_type, tuple(mappings)
                            )
                            mappings = []
                        current = None
                        continue
                    if step.kind != KIND_TRANSFORM or current is None:
                        continue
                    try:
                        hops = model.transforms.route(
                            current, step.target_format, doc_type
                        )
                    except NoRouteError:
                        hops = None  # B2B301's territory
                    if hops:
                        mappings.extend(hops)
                    current = step.target_format
                yield RouteSpec(
                    binding.name, direction, doc_type, tuple(mappings)
                )


def check_route_dataflow(route: RouteSpec) -> list[Diagnostic]:
    """Push an abstract document through a composed chain (B2B704/B2B705).

    Hops after the first consume a *closed* state (the upstream mapping's
    exact write set), so two provable facts appear that the per-mapping
    pass cannot see: the consumer's source schema disagreeing with what
    the producer writes (B2B705), and rules reading paths the producer
    never writes (B2B704).
    """
    diagnostics: list[Diagnostic] = []
    if len(route.chain) < 2:
        return diagnostics
    first = route.chain[0]
    state = transfer(first, lower_schema(first.source_schema))
    producer = first
    witness = _witness_trace(first.source_schema)
    for mapping in route.chain[1:]:
        consumer_schema = mapping.source_schema
        if consumer_schema is not None and not state.opaque:
            for spec in consumer_schema.fields:
                resolved = state.resolve(spec.path)
                if spec.required and resolved is ABSENT:
                    diagnostics.append(
                        Diagnostic(
                            "B2B705",
                            SEVERITY_ERROR,
                            route.label,
                            f"intermediate schemas disagree: mapping "
                            f"{mapping.name!r} requires {spec.path!r} "
                            f"(schema {consumer_schema.name!r}), but upstream "
                            f"mapping {producer.name!r} never writes it",
                            hint="add the missing rule to the upstream "
                            "mapping or relax the consumer schema",
                            trace=witness,
                        )
                    )
                elif resolved not in (ABSENT, UNKNOWN) and types_conflict(
                    resolved.type_name, spec.type_name
                ):
                    diagnostics.append(
                        Diagnostic(
                            "B2B705",
                            SEVERITY_ERROR,
                            route.label,
                            f"intermediate schemas disagree: mapping "
                            f"{producer.name!r} writes {spec.path!r} as "
                            f"{resolved.type_name}, but mapping "
                            f"{mapping.name!r} requires {spec.type_name} "
                            f"(schema {consumer_schema.name!r})",
                            hint="align the intermediate schemas or insert "
                            "a converting mapping",
                            trace=witness,
                        )
                    )
        read_sink = _Sink(mapping, route.label, reads_only=True)
        next_state = _apply_rules(
            mapping.rules,
            state,
            read_sink,
            None,
            f"output of mapping {producer.name!r}",
        )
        diagnostics.extend(read_sink.diagnostics)
        state = _OPAQUE if mapping.post is not None else next_state
        producer = mapping
    return diagnostics


# ---------------------------------------------------------------------------
# Expression reads (B2B706)
# ---------------------------------------------------------------------------

# Mirrors the access conventions of Document._access / the B2B202 check:
# ``amount`` aliases the summary totals, and bare keys fall back to the
# header section.
_AMOUNT_ALIASES = ("summary.total_amount", "summary.accepted_amount")


def _readable(states: list[AbstractDocument], path: str) -> bool:
    candidates = [path]
    if path == "amount":
        candidates.extend(_AMOUNT_ALIASES)
    if "." not in path:
        candidates.append(f"header.{path}")
    for state in states:
        for candidate in candidates:
            if state.resolve(candidate) is not ABSENT:
                return True
    return False


def check_rule_reads(
    model: "IntegrationModel", routes: Sequence[RouteSpec]
) -> list[Diagnostic]:
    """B2B706: BusinessRule expressions reading provably-absent fields.

    The abstract documents rules can observe are the final states of the
    inbound routes (the engine evaluates rules over normalized documents
    delivered by bindings).  A read is only flagged when the path is
    absent from *every* inbound document state — one producible doc type
    keeps the rule alive.
    """
    states: list[AbstractDocument] = []
    for route in routes:
        if route.direction != "inbound" or not route.chain:
            continue
        state = lower_schema(route.chain[0].source_schema)
        for mapping in route.chain:
            state = transfer(mapping, state)
        states.append(state)
    if not states or any(state.opaque for state in states):
        return []
    diagnostics: list[Diagnostic] = []
    for rule_set in model.rules.sets():
        for rule in rule_set.rules:
            compiled = getattr(rule, "_compiled", None)
            if compiled is None:
                continue
            for dotted in compiled.paths():
                root, _, rest = dotted.partition(".")
                if root != "document" or not rest:
                    continue
                leaf = rest.split("[", 1)[0]
                if not _readable(states, leaf):
                    diagnostics.append(
                        Diagnostic(
                            "B2B706",
                            SEVERITY_WARNING,
                            f"rules:{rule_set.function}/{rule.name}",
                            f"expression reads document.{rest}, but the "
                            "dataflow proves no inbound route ever writes "
                            f"{leaf!r}",
                            hint="fix the expression's path, or add the "
                            "field to the inbound mappings",
                        )
                    )
    return diagnostics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def verify_dataflow(
    model: "IntegrationModel", stats: dict | None = None
) -> list[Diagnostic]:
    """The whole-model dataflow pass: every mapping, route, and rule read.

    Returns unprefixed diagnostics (``verify_model`` adds the model
    prefix) and records the number of routes analyzed in ``stats``.
    """
    diagnostics: list[Diagnostic] = []
    for mapping in model.transforms.mappings():
        diagnostics.extend(check_mapping_dataflow(mapping))
    routes = list(iter_binding_routes(model))
    for route in routes:
        diagnostics.extend(check_route_dataflow(route))
    diagnostics.extend(check_rule_reads(model, routes))
    if stats is not None:
        stats["dataflow_routes"] = len(routes)
    return diagnostics
