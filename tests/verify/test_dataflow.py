"""The B2B7xx schema dataflow pass (:mod:`repro.verify.dataflow`)."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bench import REGISTRY_AGREEMENTS
from repro.documents.model import Document
from repro.documents.schema import DocumentSchema, FieldSpec
from repro.errors import ValidationError
from repro.transform.mapping import Compute, Const, Each, Field, Mapping
from repro.verify import render_text
from repro.verify.dataflow import (
    ABSENT,
    OPTIONAL,
    PRESENT,
    UNKNOWN,
    RouteSpec,
    check_mapping_dataflow,
    check_route_dataflow,
    counterexample_document,
    iter_binding_routes,
    lower_schema,
    transfer,
    types_conflict,
    verify_dataflow,
)
from repro.verify.targets import build_dataflow_broken_model
from tests.transform import reference_mapping


def _schema(name, fields, format_name="fmt", doc_type="t"):
    return DocumentSchema(
        name, format_name=format_name, doc_type=doc_type, fields=fields
    )


def _codes(diagnostics):
    return [d.code for d in diagnostics]


# ---------------------------------------------------------------------------
# Lattice
# ---------------------------------------------------------------------------


class TestLattice:
    def test_lower_schema_presence_and_types(self):
        schema = _schema("s", [
            FieldSpec("header.id", "str"),
            FieldSpec("header.note", "str", required=False),
            FieldSpec("summary.total", "float"),
        ])
        state = lower_schema(schema)
        assert state.open and not state.opaque
        assert state.fields["header.id"].presence == PRESENT
        assert state.fields["header.note"].presence == OPTIONAL
        assert state.fields["summary.total"].type_name == "float"

    def test_open_world_undeclared_path_is_unknown(self):
        state = lower_schema(_schema("s", [FieldSpec("a.b", "str")]))
        assert state.resolve("other.path") is UNKNOWN

    def test_reading_below_a_scalar_is_absent(self):
        state = lower_schema(_schema("s", [FieldSpec("a.b", "str")]))
        assert state.resolve("a.b.c") is ABSENT

    def test_reading_below_a_dict_is_unknown(self):
        state = lower_schema(_schema("s", [FieldSpec("a.b", "dict")]))
        assert state.resolve("a.b.c") is UNKNOWN

    def test_interior_node_of_declared_leaves_is_a_dict(self):
        state = lower_schema(_schema("s", [FieldSpec("a.b", "str")]))
        resolved = state.resolve("a")
        assert resolved.type_name == "dict"
        assert resolved.presence == PRESENT

    def test_closed_world_unwritten_path_is_absent(self):
        mapping = Mapping("m", "src", "tgt", "t", [Const("x.y", 1)])
        out = transfer(mapping, lower_schema(None))
        assert out.resolve("x.y").type_name == "int"
        assert out.resolve("never.written") is ABSENT

    def test_post_hook_collapses_to_opaque(self):
        mapping = Mapping(
            "m", "src", "tgt", "t", [Const("x", 1)],
            post=lambda s, t, c: None,
        )
        out = transfer(mapping, lower_schema(None))
        assert out.opaque
        assert out.resolve("anything") is UNKNOWN

    def test_scalar_ancestor(self):
        state = lower_schema(_schema("s", [
            FieldSpec("a.b", "str"), FieldSpec("c", "dict"),
        ]))
        assert state.scalar_ancestor("a.b.c") == ("a.b", "str")
        assert state.scalar_ancestor("c.d") is None

    def test_types_conflict(self):
        assert types_conflict("int", "str")
        assert types_conflict("bool", "int")
        assert types_conflict("list", "float")
        assert not types_conflict("int", "float")
        assert not types_conflict("float", "number")
        assert not types_conflict("any", "str")
        assert not types_conflict("str", "unknown-name")


# ---------------------------------------------------------------------------
# Per-mapping checks
# ---------------------------------------------------------------------------


SRC = _schema("src-schema", [
    FieldSpec("header.id", "str"),
    FieldSpec("header.code", "str", required=False),
    FieldSpec("summary.total", "float"),
], format_name="src")


class TestMappingChecks:
    def test_b2b701_const_type_conflict(self):
        mapping = Mapping(
            "m", "src", "tgt", "t",
            [Field("header.id", "out.id"), Const("out.flag", "yes")],
            source_schema=SRC,
            target_schema=_schema("tgt-schema", [
                FieldSpec("out.id", "str"), FieldSpec("out.flag", "bool"),
            ]),
        )
        diagnostics = check_mapping_dataflow(mapping)
        assert _codes(diagnostics) == ["B2B701"]
        assert "'out.flag' as str" in diagnostics[0].message
        assert any(
            "counterexample document" in line for line in diagnostics[0].trace
        )

    def test_b2b702_optional_source_required_target(self):
        mapping = Mapping(
            "m", "src", "tgt", "t",
            [
                Field("header.id", "out.id"),
                Field("header.code", "out.code", required=False),
            ],
            source_schema=SRC,
            target_schema=_schema("tgt-schema", [
                FieldSpec("out.id", "str"), FieldSpec("out.code", "str"),
            ]),
        )
        diagnostics = check_mapping_dataflow(mapping)
        assert _codes(diagnostics) == ["B2B702"]
        assert "'out.code'" in diagnostics[0].message

    def test_b2b703_numeric_to_str_without_transform(self):
        mapping = Mapping(
            "m", "src", "tgt", "t",
            [Field("summary.total", "out.total")],
            source_schema=SRC,
            target_schema=_schema("tgt-schema", [FieldSpec("out.total", "str")]),
        )
        diagnostics = check_mapping_dataflow(mapping)
        assert _codes(diagnostics) == ["B2B703"]

    def test_b2b703_suppressed_by_declared_converter(self):
        from repro.transform.functions import to_str

        mapping = Mapping(
            "m", "src", "tgt", "t",
            [Field("summary.total", "out.total", convert=to_str)],
            source_schema=SRC,
            target_schema=_schema("tgt-schema", [FieldSpec("out.total", "str")]),
        )
        assert check_mapping_dataflow(mapping) == []

    def test_b2b704_read_below_scalar(self):
        mapping = Mapping(
            "m", "src", "tgt", "t",
            [Field("header.id.sub", "out.x", required=False)],
            source_schema=SRC,
        )
        diagnostics = check_mapping_dataflow(mapping)
        assert _codes(diagnostics) == ["B2B704"]
        assert "'header.id.sub'" in diagnostics[0].message

    def test_b2b704_each_over_scalar(self):
        mapping = Mapping(
            "m", "src", "tgt", "t",
            [Each("header.id", "items", [Field("a", "b", required=False)])],
            source_schema=SRC,
        )
        diagnostics = check_mapping_dataflow(mapping)
        assert _codes(diagnostics) == ["B2B704"]
        assert "not a list" in diagnostics[0].message

    def test_open_world_suppresses_b2b704_for_undeclared_reads(self):
        # src schema does not declare 'trailer.checksum', but schemas are
        # partial contracts — the read may still succeed at runtime.
        mapping = Mapping(
            "m", "src", "tgt", "t",
            [Field("trailer.checksum", "out.x", required=False)],
            source_schema=SRC,
        )
        assert check_mapping_dataflow(mapping) == []

    def test_b2b707_unanalyzable_compute(self):
        def reader(document, context, key="x"):
            return document.get(key)

        mapping = Mapping(
            "m", "src", "tgt", "t",
            [Compute("out.x", functools.partial(reader, key="y"))],
        )
        diagnostics = check_mapping_dataflow(mapping)
        assert _codes(diagnostics) == ["B2B707"]
        assert diagnostics[0].severity == "info"
        assert "partial with keyword arguments" in diagnostics[0].message

    def test_post_hook_disables_write_checks(self):
        mapping = Mapping(
            "m", "src", "tgt", "t",
            [Const("out.flag", "yes")],
            target_schema=_schema("tgt-schema", [FieldSpec("out.flag", "bool")]),
            post=lambda s, t, c: None,
        )
        assert check_mapping_dataflow(mapping) == []


# ---------------------------------------------------------------------------
# Counterexample witnessing
# ---------------------------------------------------------------------------


class TestCounterexamples:
    def test_counterexample_satisfies_schema(self):
        schema = _schema("s", [
            FieldSpec("header.id", "str"),
            FieldSpec("header.note", "str", required=False),
            FieldSpec("summary.total", "float"),
            FieldSpec("lines", "list", min_items=2, items=_schema("items", [
                FieldSpec("sku", "str"), FieldSpec("qty", "int"),
            ])),
        ], format_name="src", doc_type="t")
        document = counterexample_document(schema)
        schema.validate(document)  # must not raise
        assert document.get("header.note", default=None) is None  # optionals omitted

    def test_b2b701_witness_fails_dynamically(self):
        mapping = Mapping(
            "m", "src", "tgt", "t",
            [Field("header.id", "out.id"), Const("out.flag", "yes")],
            source_schema=SRC,
            target_schema=_schema("tgt-schema", [
                FieldSpec("out.id", "str"), FieldSpec("out.flag", "bool"),
            ]),
        )
        [diagnostic] = check_mapping_dataflow(mapping)
        assert diagnostic.code == "B2B701"
        witness = counterexample_document(mapping.source_schema)
        with pytest.raises(ValidationError):
            reference_mapping.apply(mapping, witness)

    def test_b2b702_witness_fails_dynamically(self):
        mapping = Mapping(
            "m", "src", "tgt", "t",
            [
                Field("header.id", "out.id"),
                Field("header.code", "out.code", required=False),
            ],
            source_schema=SRC,
            target_schema=_schema("tgt-schema", [
                FieldSpec("out.id", "str"), FieldSpec("out.code", "str"),
            ]),
        )
        [diagnostic] = check_mapping_dataflow(mapping)
        assert diagnostic.code == "B2B702"
        witness = counterexample_document(mapping.source_schema)
        with pytest.raises(ValidationError):
            reference_mapping.apply(mapping, witness)

    def test_b2b705_witness_fails_dynamically(self):
        producer = Mapping(
            "m1", "src", "mid", "t",
            [Field("header.id", "po.number")],
            source_schema=SRC,
            target_schema=_schema(
                "mid-v1", [FieldSpec("po.number", "str")], format_name="mid"
            ),
        )
        consumer = Mapping(
            "m2", "mid", "app", "t",
            [Field("po.reference", "record.ref")],
            source_schema=_schema("mid-v2", [
                FieldSpec("po.number", "str"),
                FieldSpec("po.reference", "str"),
            ], format_name="mid"),
        )
        route = RouteSpec("b", "inbound", "t", (producer, consumer))
        diagnostics = check_route_dataflow(route)
        assert "B2B705" in _codes(diagnostics)
        witness = counterexample_document(producer.source_schema)
        with pytest.raises(ValidationError):
            reference_mapping.apply(consumer, reference_mapping.apply(producer, witness))


# ---------------------------------------------------------------------------
# The broken demo model and route enumeration
# ---------------------------------------------------------------------------


class TestBrokenDemoModel:
    def test_routes_enumerate_both_directions(self):
        model = build_dataflow_broken_model()
        routes = list(iter_binding_routes(model))
        labels = {route.label for route in routes}
        assert (
            "binding:dataflow-binding/inbound/purchase_order" in labels
        )
        assert "binding:dataflow-binding/outbound/po_ack" in labels
        inbound = next(r for r in routes if r.direction == "inbound")
        assert [m.name for m in inbound.chain] == [
            "legacy-wire__to__broken-hub/purchase_order",
            "broken-hub__to__app-flat/purchase_order",
        ]

    def test_demo_surfaces_the_b2b7xx_family(self):
        model = build_dataflow_broken_model()
        diagnostics = model.verify(dataflow=True)
        codes = set(_codes(diagnostics))
        assert {"B2B701", "B2B703", "B2B704", "B2B705"} <= codes
        for code in ("B2B701", "B2B705"):
            found = next(d for d in diagnostics if d.code == code)
            assert any(
                "counterexample document" in line for line in found.trace
            )

    def test_b2b706_expression_reading_absent_field(self):
        from repro.core.rules import BusinessRule, RuleSet

        model = build_dataflow_broken_model()
        model.rules.register(RuleSet("check_po", [
            BusinessRule("dead", expression="document.record.missing > 1"),
            BusinessRule("alive", expression="document.record.id == 'X'"),
        ]))
        diagnostics = verify_dataflow(model)
        flagged = [d for d in diagnostics if d.code == "B2B706"]
        assert len(flagged) == 1
        assert "rules:check_po/dead" in flagged[0].location
        assert "'record.missing'" in flagged[0].message

    def test_golden_rendered_output_is_totally_ordered(self):
        model = build_dataflow_broken_model()
        rendered = render_text(model.verify(dataflow=True), title="golden")
        expected = "\n".join([
            "golden",
            "  error   B2B701 model:dataflow-broken-demo/mapping:legacy-wire"
            "__to__broken-hub/purchase_order: rule 1 (Const) writes "
            "'po.currency' as int, but schema 'broken-hub/purchase_order' "
            "declares it str (hint: fix the rule's value or the schema "
            "declaration)",
            "      counterexample document (legacy-wire/purchase_order): "
            '{"header": {"currency": "X", "po_number": "X"}, '
            '"summary": {"total": 1.0}}',
            "  error   B2B705 model:dataflow-broken-demo/binding:dataflow-"
            "binding/inbound/purchase_order: intermediate schemas disagree: "
            "mapping 'broken-hub__to__app-flat/purchase_order' requires "
            "'po.reference' (schema 'broken-hub/purchase_order'), but "
            "upstream mapping 'legacy-wire__to__broken-hub/purchase_order' "
            "never writes it (hint: add the missing rule to the upstream "
            "mapping or relax the consumer schema)",
            "      counterexample document (legacy-wire/purchase_order): "
            '{"header": {"currency": "X", "po_number": "X"}, '
            '"summary": {"total": 1.0}}',
            "  error   B2B705 model:dataflow-broken-demo/binding:dataflow-"
            "binding/inbound/purchase_order: intermediate schemas disagree: "
            "mapping 'legacy-wire__to__broken-hub/purchase_order' writes "
            "'po.currency' as int, but mapping "
            "'broken-hub__to__app-flat/purchase_order' requires str (schema "
            "'broken-hub/purchase_order') (hint: align the intermediate "
            "schemas or insert a converting mapping)",
            "      counterexample document (legacy-wire/purchase_order): "
            '{"header": {"currency": "X", "po_number": "X"}, '
            '"summary": {"total": 1.0}}',
            "  error   B2B705 model:dataflow-broken-demo/binding:dataflow-"
            "binding/inbound/purchase_order: intermediate schemas disagree: "
            "mapping 'legacy-wire__to__broken-hub/purchase_order' writes "
            "'po.total_code' as float, but mapping "
            "'broken-hub__to__app-flat/purchase_order' requires str (schema "
            "'broken-hub/purchase_order') (hint: align the intermediate "
            "schemas or insert a converting mapping)",
            "      counterexample document (legacy-wire/purchase_order): "
            '{"header": {"currency": "X", "po_number": "X"}, '
            '"summary": {"total": 1.0}}',
            "  warning B2B703 model:dataflow-broken-demo/mapping:legacy-wire"
            "__to__broken-hub/purchase_order: rule 3 (Field) copies "
            "'summary.total' (float) into 'po.total_code' declared as str "
            "in schema 'broken-hub/purchase_order' without a transform "
            "function (hint: convert explicitly (functions.to_str) or widen "
            "the schema type)",
            "  warning B2B704 model:dataflow-broken-demo/binding:dataflow-"
            "binding/inbound/purchase_order: rule 1 (Field) reads source "
            "path 'po.reference', which no upstream schema or mapping "
            "produces (output of mapping "
            "'legacy-wire__to__broken-hub/purchase_order') (hint: remove "
            "the dead rule or fix the source path)",
            "  4 error(s), 2 warning(s), 0 info",
        ])
        assert rendered == expected


# ---------------------------------------------------------------------------
# Property: clean routes never raise on conforming documents
# ---------------------------------------------------------------------------


WIRE_SCHEMA = _schema("wire/po", [
    FieldSpec("header.po_number", "str"),
    FieldSpec("header.note", "str", required=False),
    FieldSpec("summary.total", "float"),
    FieldSpec("lines", "list", min_items=1, items=_schema("wire/po-lines", [
        FieldSpec("sku", "str"), FieldSpec("qty", "int"),
    ])),
], format_name="wire", doc_type="po")

HUB_SCHEMA = _schema("hub/po", [
    FieldSpec("po.number", "str"),
    FieldSpec("po.note", "str", required=False),
    FieldSpec("po.amount", "float"),
    FieldSpec("po.lines", "list", min_items=1, items=_schema("hub/po-lines", [
        FieldSpec("sku", "str"), FieldSpec("qty", "int"),
    ])),
], format_name="hub", doc_type="po")

APP_SCHEMA = _schema("app/po", [
    FieldSpec("record.id", "str"),
    FieldSpec("record.amount", "float"),
    FieldSpec("record.note", "str", required=False),
], format_name="app", doc_type="po")


def _clean_chain():
    to_hub = Mapping(
        "wire__to__hub/po", "wire", "hub", "po",
        [
            Field("header.po_number", "po.number"),
            Field("header.note", "po.note", required=False),
            Field("summary.total", "po.amount"),
            Each("lines", "po.lines", [Field("sku", "sku"), Field("qty", "qty")]),
        ],
        source_schema=WIRE_SCHEMA,
        target_schema=HUB_SCHEMA,
    )
    to_app = Mapping(
        "hub__to__app/po", "hub", "app", "po",
        [
            Field("po.number", "record.id"),
            Field("po.amount", "record.amount"),
            Field("po.note", "record.note", required=False),
        ],
        source_schema=HUB_SCHEMA,
        target_schema=APP_SCHEMA,
    )
    return to_hub, to_app


_line = st.fixed_dictionaries({
    "sku": st.text(min_size=1, max_size=8),
    "qty": st.integers(min_value=0, max_value=10_000),
})

_wire_documents = st.builds(
    lambda number, note, total, lines: _build_wire_doc(number, note, total, lines),
    st.text(min_size=1, max_size=12),
    st.one_of(st.none(), st.text(max_size=12)),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.lists(_line, min_size=1, max_size=4),
)


def _build_wire_doc(number, note, total, lines):
    document = Document("wire", "po", {})
    document.set("header.po_number", number)
    if note is not None:
        document.set("header.note", note)
    document.set("summary.total", total)
    document.set("lines", lines)
    return document


class TestCleanRouteProperty:
    def test_dataflow_marks_the_chain_clean(self):
        to_hub, to_app = _clean_chain()
        assert check_mapping_dataflow(to_hub) == []
        assert check_mapping_dataflow(to_app) == []
        route = RouteSpec("b", "inbound", "po", (to_hub, to_app))
        assert check_route_dataflow(route) == []

    @settings(max_examples=60, deadline=None)
    @given(document=_wire_documents)
    def test_clean_route_never_raises_on_conforming_documents(self, document):
        to_hub, to_app = _clean_chain()
        WIRE_SCHEMA.validate(document)
        final = reference_mapping.apply(to_app, reference_mapping.apply(to_hub, document))
        APP_SCHEMA.validate(final)
        assert final.get("record.id") == document.get("header.po_number")


# ---------------------------------------------------------------------------
# Registry lints
# ---------------------------------------------------------------------------


class TestRegistrySweep:
    def test_dataflow_sweep_checks_every_route_clean(self):
        from repro.analysis.scenarios import build_registry_model

        model = build_registry_model(REGISTRY_AGREEMENTS)
        stats: dict = {}
        assert model.verify(dataflow=True, stats=stats) == []
        assert stats["dataflow_routes"] == len(list(iter_binding_routes(model)))
        assert stats["dataflow_routes"] > 0

    def test_editing_one_mapping_shows_in_the_next_sweep(self):
        from repro.analysis.scenarios import build_registry_model

        model = build_registry_model(REGISTRY_AGREEMENTS)
        assert model.verify(dataflow=True) == []
        # a content edit: one catalog mapping now writes a number where
        # its target schema declares a string
        mapping = next(
            m for m in model.transforms.mappings()
            if m.target_schema is not None
            and any(spec.type_name == "str" for spec in m.target_schema.fields)
        )
        path = next(
            spec.path for spec in mapping.target_schema.fields
            if spec.type_name == "str"
        )
        mapping.rules.append(Const(path, 840))
        assert any(
            d.code == "B2B701" and mapping.name in d.location
            for d in model.verify(dataflow=True)
        )


class TestExampleModelsAreClean:
    def test_all_example_units_pass_the_dataflow_gate(self):
        from repro.verify.targets import lint_units

        for label, unit in lint_units(None).items():
            if not hasattr(unit, "transforms"):
                continue  # bare workflow baseline: no routes to dataflow
            diagnostics = [
                d for d in unit.verify(dataflow=True)
                if d.code.startswith("B2B7")
            ]
            assert diagnostics == [], f"{label}: {_codes(diagnostics)}"
