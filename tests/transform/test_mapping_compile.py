"""Mapping.compile() is byte-identical to the reference interpreter in
``reference_mapping`` — on every catalog mapping, not a sample: the catalog
IS the deployed surface, so one divergent mapping would silently corrupt
documents on the wire.

The compiled form is one per-document program whose rules read and write
the raw dicts, and whose schemas run a compiled accept check before the
exhaustive violation walk.  Its correctness rests on these properties:

* on arbitrary valid, wire, ack, duplicate and broken documents,
  ``compile().apply`` returns the same document as the reference
  ``apply``, including dict key order, or raises the same exception type
  and message;
* the same holds for whole registry routes, two-hop hub routes included;
* a schema's accept check never accepts a document with violations, and
  ``validate`` raises exactly when ``violations()`` is non-empty;
* every catalog mapping and schema takes the fast form, which is the input
  property the speedup relies on.

Post hooks, indexed paths, raising computes and the compile cache's
invalidation on rule edits are covered case by case.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.documents.model import Document, DocumentPath
from repro.documents.normalized import (
    NORMALIZED,
    make_invoice,
    make_po_ack,
    make_purchase_order,
    make_quote,
    make_rfq,
    make_ship_notice,
)
from repro.documents.schema import DocumentSchema, FieldSpec
from repro.errors import NoRouteError, TransformError, ValidationError
from repro.transform import functions
from repro.transform.catalog import build_standard_registry, standard_mappings
from repro.transform.mapping import Compute, Const, Each, Field, Mapping
from tests.documents.strategies import single_breaks
from tests.transform import reference_mapping

LINES = [
    {"sku": "LAPTOP-15", "quantity": 50, "unit_price": 1200.0},
    {"sku": "DOCK-1", "quantity": 5, "unit_price": 150.0},
]

CONTEXT = {"sender_id": "ACME", "receiver_id": "TP1", "now": 1.0}


def _normalized_samples():
    po = make_purchase_order("PO-1001", "TP1", "ACME", LINES)
    rfq = make_rfq("RFQ-7", "TP1", "ACME", [{"sku": "GPU", "quantity": 5}])
    return {
        "purchase_order": po,
        "po_ack": make_po_ack(po),
        "ship_notice": make_ship_notice(po, "SHIP-1"),
        "invoice": make_invoice(po, "INV-1"),
        "request_for_quote": rfq,
        "quote": make_quote(rfq, {"GPU": 1450.0}, "Q-1"),
    }


def _source_document(mapping, registry, samples):
    """A valid source document for ``mapping`` (wire docs via the registry)."""
    normalized = samples[mapping.doc_type]
    if mapping.source_format == "normalized":
        return normalized
    return registry.transform(normalized, mapping.source_format, CONTEXT)


@pytest.mark.parametrize(
    "mapping", standard_mappings(), ids=lambda mapping: mapping.name
)
def test_catalog_mapping_compiled_identical(mapping):
    registry = build_standard_registry()
    document = _source_document(mapping, registry, _normalized_samples())
    interpreted = reference_mapping.apply(mapping, document, CONTEXT)
    compiled = mapping.compile().apply(document, CONTEXT)
    assert compiled.to_dict() == interpreted.to_dict()
    assert compiled.format_name == interpreted.format_name
    assert compiled.doc_type == interpreted.doc_type


def _failure(call, *args):
    try:
        call(*args)
    except (TransformError, ValidationError) as exc:
        return (type(exc).__name__, str(exc))
    return None


def test_validation_failure_identical():
    mapping = next(
        m for m in standard_mappings()
        if m.source_format == "normalized" and m.target_format == "edi-x12"
        and m.doc_type == "purchase_order"
    )
    bad = make_purchase_order("PO-X", "TP1", "ACME", LINES)
    bad.data.pop("summary")  # break the source schema
    interpreted = _failure(reference_mapping.apply, mapping, bad, CONTEXT)
    compiled = _failure(mapping.compile().apply, bad, CONTEXT)
    assert interpreted is not None
    assert compiled == interpreted


def test_wrong_format_failure_identical():
    mapping = next(m for m in standard_mappings() if m.source_format == "normalized")
    registry = build_standard_registry()
    samples = _normalized_samples()
    wire = registry.transform(samples["purchase_order"], "edi-x12", CONTEXT)
    interpreted = _failure(reference_mapping.apply, mapping, wire, CONTEXT)
    compiled = _failure(mapping.compile().apply, wire, CONTEXT)
    assert interpreted is not None
    assert compiled == interpreted


def test_compile_cache_reuses_and_invalidates():
    mapping = Mapping("m", "a", "b", "t")
    mapping.rules.append(Field("x", "y"))
    first = mapping.compile()
    assert mapping.compile() is first  # cached while rules are unchanged
    mapping.rules.append(Field("x2", "y2"))
    second = mapping.compile()
    assert second is not first  # rule edit rebuilds the compiled form

    from repro.documents.model import Document

    document = Document("a", "t", {"x": 1, "x2": 2})
    assert second.apply(document).to_dict() == reference_mapping.apply(mapping, document).to_dict()


# -- lowered program vs the interpreter, on arbitrary documents -------------

REGISTRY = build_standard_registry()
CATALOG = standard_mappings()

WIRE_FORMATS = sorted(
    {
        m.target_format
        for m in CATALOG
        if m.source_format == NORMALIZED and m.doc_type == "purchase_order"
    }
)


def _ordered(value):
    """``value`` with every dict turned into its item list, so equality
    also checks key order."""
    if isinstance(value, dict):
        return [(key, _ordered(item)) for key, item in value.items()]
    if isinstance(value, list):
        return [_ordered(item) for item in value]
    return value


def _outcome(call, *args):
    """The produced document (key order included), or the raised error."""
    try:
        document = call(*args)
    except Exception as error:
        return ("error", type(error).__name__, str(error))
    return ("ok", document.format_name, document.doc_type, _ordered(document.data))


def _assert_same_outcome(mapping, document, context=CONTEXT):
    compiled = _outcome(mapping.compile().apply, document, context)
    assert compiled == _outcome(reference_mapping.apply, mapping, document, context)
    return compiled


_skus = st.from_regex(r"[A-Z0-9][A-Z0-9\-]{0,8}", fullmatch=True)
_quantities = st.integers(1, 9999).map(float)
_prices = st.integers(0, 10_000_000).map(lambda cents: cents / 100)
_lines = st.lists(
    st.fixed_dictionaries(
        {"sku": _skus, "quantity": _quantities, "unit_price": _prices}
    ),
    min_size=1,
    max_size=5,
)
_po_numbers = st.from_regex(r"PO-[0-9]{1,6}", fullmatch=True)
_partner_ids = st.from_regex(r"[A-Z]{2,8}", fullmatch=True)


@st.composite
def normalized_pos(draw):
    return make_purchase_order(
        draw(_po_numbers), draw(_partner_ids), draw(_partner_ids), draw(_lines)
    )


@st.composite
def source_documents(draw):
    """A normalized, wire, ack or duplicated wire document."""
    po = draw(normalized_pos())
    shape = draw(st.sampled_from(["normalized", "wire", "ack", "dup-wire"]))
    if shape == "normalized":
        return po
    if shape == "ack":
        return make_po_ack(po)
    wire = REGISTRY.transform(po, draw(st.sampled_from(WIRE_FORMATS)), CONTEXT)
    if shape == "dup-wire":
        return Document.from_dict(wire.to_dict())
    return wire


def _mappings_from(document):
    return [
        mapping
        for mapping in CATALOG
        if (mapping.source_format, mapping.doc_type)
        == (document.format_name, document.doc_type)
    ]


@settings(max_examples=30, deadline=None)
@given(source_documents())
def test_lowered_equals_interpreter_on_mixed_documents(document):
    mappings = _mappings_from(document)
    assert mappings
    for variant in single_breaks(document):
        for mapping in mappings:
            _assert_same_outcome(mapping, variant)


def _interpreted_chain(document, target):
    """The route to ``target`` run hop by hop through the reference ``apply``."""
    result = document
    for mapping in REGISTRY.route(document.format_name, target, document.doc_type):
        result = reference_mapping.apply(mapping, result, CONTEXT)
    return result


@settings(max_examples=20, deadline=None)
@given(source_documents(), st.sampled_from(WIRE_FORMATS))
def test_lowered_route_equals_interpreter_outbound(document, target):
    # Through the registry, so wire-to-wire documents take the two-hop hub
    # route; acks have no outbound route to some formats and are skipped.
    try:
        REGISTRY.route(document.format_name, target, document.doc_type)
    except NoRouteError:
        return
    for variant in single_breaks(document):
        lowered = _outcome(REGISTRY.transform, variant, target, CONTEXT)
        assert lowered == _outcome(_interpreted_chain, variant, target)


@settings(max_examples=20, deadline=None)
@given(source_documents())
def test_catalog_schemas_accept_only_clean_documents(document):
    schemas = [
        schema
        for mapping in CATALOG
        for schema in (mapping.source_schema, mapping.target_schema)
        if (schema.format_name, schema.doc_type)
        == (document.format_name, document.doc_type)
    ]
    assert schemas
    for variant in single_breaks(document):
        for schema in schemas:
            problems = schema.violations(variant)
            if schema.accepts(variant):
                assert problems == []
            try:
                schema.validate(variant)
            except ValidationError as error:
                assert error.violations == problems != []
            else:
                assert problems == []


def _check_on_note(value):
    if value == "boom":
        raise ValueError("boom")
    return value != "bad"


# A mapping whose schema checks only ``head.note`` (a failing and a raising
# check), so broken Each sources reach the rules: one Each with nested
# Computes (item wrappers and item contexts), one without.
EACH_MAPPING = Mapping(
    "each",
    "a",
    "b",
    "t",
    [
        Field("head.id", "out.id"),
        Field("head.note", "out.note", required=False),
        Field("head.qty", "out.qty", functions.to_float, default=0.0),
        Const("out.kind", "k"),
        Each(
            "lines",
            "out.lines",
            [
                Field("sku", "sku"),
                Compute("ordinal", lambda item, context: context["_ordinal"], label="ordinal"),
                Each("parts", "parts", [Compute("at", lambda part, context: context["_index"])],
                     min_items=0),
            ],
            min_items=2,
        ),
        Each("lines", "codes", [Field("sku", "code", default="?")], min_items=0),
    ],
    source_schema=DocumentSchema(
        "each-in",
        fields=[
            FieldSpec("head.note", required=False, check=_check_on_note,
                      check_label="note check"),
        ],
    ),
)

_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
    st.sampled_from(["bad", "boom", "1.5"]),
)
_items = st.one_of(
    st.fixed_dictionaries(
        {"sku": _scalars, "parts": st.one_of(st.lists(st.just({}), max_size=2), _scalars)}
    ),
    st.fixed_dictionaries({}),
    _scalars,
)


@settings(max_examples=200, deadline=None)
@given(
    head=st.fixed_dictionaries(
        {"id": _scalars}, optional={"note": _scalars, "qty": _scalars}
    ),
    lines=st.one_of(st.lists(_items, max_size=4), _scalars),
)
@example(head={"id": 1}, lines=None)
@example(head={"id": 1}, lines="not a list")
@example(head={"id": 1}, lines=[{"sku": "A", "parts": []}])
@example(head={"id": 1}, lines=[{"sku": "A", "parts": []}, 7, {"sku": "B", "parts": []}])
@example(head={"id": 1}, lines=[{"sku": "A", "parts": []}, {"sku": "B", "parts": "x"}])
@example(head={"id": 1}, lines=[{"sku": "A", "parts": [{}, 3]}, {"sku": "B", "parts": []}])
@example(head={"id": 1, "note": "boom"}, lines=[{"sku": "A", "parts": []}] * 2)
@example(head={"id": 1, "note": "bad"}, lines=[{"sku": "A", "parts": []}] * 2)
@example(head={"id": 1, "qty": "x"}, lines=[{"sku": "A", "parts": []}] * 2)
def test_each_rules_match_on_broken_items(head, lines):
    _assert_same_outcome(EACH_MAPPING, Document("a", "t", {"head": head, "lines": lines}))
    _assert_same_outcome(EACH_MAPPING, Document("a", "t", {"head": head}))


def test_each_item_contexts_number_the_items():
    document = Document(
        "a", "t",
        {"head": {"id": 1}, "lines": [{"sku": "A", "parts": [{}, {}]}, {"sku": "B", "parts": []}]},
    )
    outcome = _assert_same_outcome(EACH_MAPPING, document)
    out = dict(outcome[3])["out"]
    assert dict(out)["lines"] == [
        [("sku", "A"), ("ordinal", 1), ("parts", [[("at", 0)], [("at", 1)]])],
        [("sku", "B"), ("ordinal", 2), ("parts", [])],
    ]


def test_every_catalog_mapping_and_schema_lowers_to_the_fast_form(monkeypatch):
    def name_only(path):
        return all(isinstance(step, str) for step in DocumentPath(path).steps)

    def rule_paths(rules):
        for rule in rules:
            yield from (getattr(rule, name) for name in ("source", "target") if hasattr(rule, name))
            if isinstance(rule, Each):
                yield from rule_paths(rule.rules)

    def spec_paths(schema):
        for spec in schema.fields:
            yield spec.path
            if spec.items is not None:
                yield from spec_paths(spec.items)

    for mapping in CATALOG:
        assert mapping.post is None, mapping.name
        assert all(name_only(path) for path in rule_paths(mapping.rules)), mapping.name
        for schema in (mapping.source_schema, mapping.target_schema):
            assert all(name_only(path) for path in spec_paths(schema)), schema.name

    # Behaviourally: a valid document crosses every catalog mapping without
    # one Document.set call or one violation walk.
    samples = _normalized_samples()
    cases = [(m, _source_document(m, REGISTRY, samples)) for m in CATALOG]
    expected = [_outcome(reference_mapping.apply, m, document, CONTEXT) for m, document in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("slow path taken")

    monkeypatch.setattr(Document, "set", forbidden)
    monkeypatch.setattr(DocumentSchema, "violations", forbidden)
    produced = [_outcome(m.compile().apply, document, CONTEXT) for m, document in cases]
    assert produced == expected
    assert all(outcome[0] == "ok" for outcome in produced)


# -- case by case ------------------------------------------------------------


def test_error_identity_on_invalid_document():
    wire = REGISTRY.transform(make_purchase_order("PO-1", "TP1", "ACME", LINES),
                              "edi-x12", CONTEXT)
    broken = Document.from_dict(wire.to_dict())
    broken.delete("beg.po_number")  # violates the EDI source schema
    mapping = REGISTRY.find("edi-x12", NORMALIZED, "purchase_order")
    assert _assert_same_outcome(mapping, wire)[0] == "ok"
    failure = _assert_same_outcome(mapping, broken)
    assert failure[:2] == ("error", "ValidationError")
    registry = build_standard_registry()
    assert _outcome(registry.transform, broken, NORMALIZED, CONTEXT) == failure
    # A failure leaves the route usable for the next document.
    assert _outcome(registry.transform, wire, NORMALIZED, CONTEXT) == _outcome(
        reference_mapping.apply, mapping, wire, CONTEXT
    )


def test_post_hook_runs_on_the_lowered_path():
    def stamp(source_doc, target_doc, context):
        target_doc.set("stamped", source_doc.get("x") + 1)

    mapping = Mapping("m", "a", "b", "t", [Field("x", "y.z")], post=stamp)
    outcome = _assert_same_outcome(mapping, Document("a", "t", {"x": 1}))
    assert outcome[3] == [("y", [("z", 1)]), ("stamped", 2)]


def test_indexed_paths_keep_document_semantics():
    mapping = Mapping(
        "m", "a", "b", "t",
        [
            Field("lines[0].sku", "first_sku"),
            Field("lines[-1].sku", "skus[+]"),
            Field("lines[0].sku", "skus[+]"),
            Field("lines[5].sku", "missing", required=False),
            Field("lines[0].sku", "skus[9]"),  # a hole: Document.set refuses
        ],
    )
    document = Document("a", "t", {"lines": [{"sku": "A"}, {"sku": "B"}]})
    failure = _assert_same_outcome(mapping, document)
    assert failure[:2] == ("error", "DocumentPathError")
    mapping.rules.pop()
    outcome = _assert_same_outcome(mapping, document)
    assert outcome[3] == [("first_sku", "A"), ("skus", ["B", "A"])]


def test_write_below_a_scalar_raises_the_reference_error():
    mapping = Mapping("m", "a", "b", "t", [Const("a", 1), Const("a.b", 2)])
    failure = _assert_same_outcome(mapping, Document("a", "t", {}))
    assert failure[:2] == ("error", "DocumentPathError")


def test_raising_compute_fails_identically():
    def explode_on(doc, context):
        if doc.get("boom"):
            raise ValueError("boom")
        return "ok"

    mapping = Mapping("m", "a", "b", "t", [Compute("status", explode_on)])
    assert _assert_same_outcome(mapping, Document("a", "t", {"boom": False}))[0] == "ok"
    failure = _assert_same_outcome(mapping, Document("a", "t", {"boom": True}))
    assert failure[:2] == ("error", "MappingError")


def test_compile_keying_is_identity_based():
    # Regression: the old cache key was tuple(map(id, rules)); a replaced
    # rule object could reuse the freed id and false-hit.  The snapshot now
    # holds strong references and compares by identity.
    mapping = Mapping("m", "a", "b", "t", [Field("x", "y")])
    first = mapping.compile()
    assert mapping.compile() is first
    mapping.rules[0] = Field("x", "z")  # in-place replacement, same length
    second = mapping.compile()
    assert second is not first
    document = Document("a", "t", {"x": 7})
    assert second.apply(document).get("z") == 7
