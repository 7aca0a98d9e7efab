"""Tests for document schemas and validation."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.documents.model import Document
from repro.documents.schema import DocumentSchema, FieldSpec
from repro.errors import SchemaError, ValidationError
from tests.documents.strategies import single_breaks


def _make_schema():
    return DocumentSchema(
        "test",
        format_name="normalized",
        doc_type="purchase_order",
        fields=[
            FieldSpec("header.po_number"),
            FieldSpec("header.amount", "number", check=lambda v: v >= 0,
                      check_label="amount >= 0"),
            FieldSpec("header.notes", required=False),
            FieldSpec("header.status", choices=("open", "closed")),
            FieldSpec(
                "lines",
                "list",
                min_items=1,
                items=DocumentSchema("line", fields=[
                    FieldSpec("sku"),
                    FieldSpec("quantity", "int"),
                ]),
            ),
        ],
    )


@pytest.fixture
def schema():
    return _make_schema()


def _valid_doc():
    return Document(
        "normalized",
        "purchase_order",
        {
            "header": {"po_number": "PO-1", "amount": 10.0, "status": "open"},
            "lines": [{"sku": "A", "quantity": 1}],
        },
    )


class TestFieldSpec:
    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            FieldSpec("x", "decimal")

    def test_items_requires_list_type(self):
        with pytest.raises(SchemaError):
            FieldSpec("x", "str", items=DocumentSchema("s"))

    def test_bool_is_not_a_number(self):
        spec = FieldSpec("x", "number")
        doc = Document("f", "t", {"x": True})
        assert spec.violations_for(doc)

    def test_int_accepted_as_float(self):
        spec = FieldSpec("x", "float")
        doc = Document("f", "t", {"x": 3})
        assert spec.violations_for(doc) == []

    def test_crashing_check_reported_not_raised(self):
        spec = FieldSpec("x", "str", check=lambda v: v.undefined,
                         check_label="weird")
        doc = Document("f", "t", {"x": "s"})
        violations = spec.violations_for(doc)
        assert len(violations) == 1 and "weird" in violations[0]


class TestValidation:
    def test_valid_document_passes(self, schema):
        assert schema.is_valid(_valid_doc())
        schema.validate(_valid_doc())  # should not raise

    def test_missing_required_field(self, schema):
        doc = _valid_doc()
        doc.delete("header.po_number")
        assert any("po_number" in v for v in schema.violations(doc))

    def test_optional_field_may_be_absent(self, schema):
        assert schema.is_valid(_valid_doc())

    def test_wrong_type(self, schema):
        doc = _valid_doc()
        doc.set("header.amount", "ten")
        assert any("expected number" in v for v in schema.violations(doc))

    def test_choices_enforced(self, schema):
        doc = _valid_doc()
        doc.set("header.status", "pending")
        assert any("choices" in v for v in schema.violations(doc))

    def test_check_enforced(self, schema):
        doc = _valid_doc()
        doc.set("header.amount", -1)
        assert any("amount >= 0" in v for v in schema.violations(doc))

    def test_min_items(self, schema):
        doc = _valid_doc()
        doc.set("lines", [])
        assert any("at least 1" in v for v in schema.violations(doc))

    def test_item_schema_applied_per_element(self, schema):
        doc = _valid_doc()
        doc.set("lines[+]", {"sku": "B"})  # missing quantity
        violations = schema.violations(doc)
        assert any("lines[1].quantity" in v for v in violations)

    def test_non_dict_list_item(self, schema):
        doc = _valid_doc()
        doc.set("lines[+]", "not-a-line")
        assert any("expected dict item" in v for v in schema.violations(doc))

    def test_format_mismatch(self, schema):
        doc = _valid_doc()
        doc.format_name = "edi-x12"
        assert any("format mismatch" in v for v in schema.violations(doc))

    def test_doc_type_mismatch(self, schema):
        doc = _valid_doc()
        doc.doc_type = "invoice"
        assert any("doc_type mismatch" in v for v in schema.violations(doc))

    def test_validate_raises_with_all_violations(self, schema):
        doc = Document("normalized", "purchase_order", {"lines": []})
        with pytest.raises(ValidationError) as excinfo:
            schema.validate(doc)
        assert len(excinfo.value.violations) >= 3

    def test_violations_are_exhaustive_not_first_only(self, schema):
        doc = _valid_doc()
        doc.set("header.amount", -5)
        doc.set("header.status", "bogus")
        assert len(schema.violations(doc)) == 2


class TestAcceptCheck:
    """``validate`` runs a compiled accept check first and walks the specs
    only when it fails; the two must never disagree on a verdict."""

    _values = st.one_of(
        st.none(), st.booleans(), st.integers(-2, 2), st.floats(allow_nan=True),
        st.sampled_from(["PO-1", "open", "closed", "pending", ""]),
    )
    _lines = st.lists(
        st.one_of(
            _values,
            st.dictionaries(st.sampled_from(["sku", "quantity", "extra"]), _values),
        ),
        max_size=3,
    )
    _documents = st.builds(
        lambda header, lines, keys, format_name: Document(
            format_name,
            "purchase_order",
            {key: value for key, value in (("header", header), ("lines", lines)) if key in keys},
        ),
        header=st.one_of(
            _values,
            st.dictionaries(
                st.sampled_from(["po_number", "amount", "notes", "status"]), _values
            ),
        ),
        lines=st.one_of(_values, _lines),
        keys=st.sets(st.sampled_from(["header", "lines"])),
        format_name=st.sampled_from(["normalized", "edi-x12"]),
    )

    @settings(max_examples=300, deadline=None)
    @given(document=_documents)
    def test_accept_implies_no_violations_and_validate_is_exact(self, document):
        schema = _make_schema()
        problems = schema.violations(document)
        if schema.accepts(document):
            assert problems == []
        assert schema.is_valid(document) == (problems == [])
        try:
            schema.validate(document)
        except ValidationError as error:
            assert error.violations == problems != []
        else:
            assert problems == []

    def test_every_single_break_is_rejected_exactly(self, schema):
        verdicts = set()
        for document in single_breaks(_valid_doc()):
            problems = schema.violations(document)
            verdicts.add(problems == [])
            assert schema.accepts(document) == (problems == [])
            assert schema.is_valid(document) == (problems == [])
        assert verdicts == {True, False}

    def test_failing_or_raising_check_is_a_rejection(self):
        schema = DocumentSchema("s", fields=[
            FieldSpec("x", check=lambda value: value != "bad" and 1 / len(value) > 0,
                      check_label="x check"),
        ])
        assert schema.accepts(Document("f", "t", {"x": "ok"}))
        for value, message in (("bad", "failed x check"),
                               ("", "x check raised ZeroDivisionError")):
            document = Document("f", "t", {"x": value})
            assert not schema.accepts(document)
            with pytest.raises(ValidationError, match=message):
                schema.validate(document)

    def test_spec_appended_after_first_validate_takes_effect(self, schema):
        doc = _valid_doc()
        schema.validate(doc)
        schema.add(FieldSpec("header.approver"))
        assert not schema.accepts(doc)
        with pytest.raises(ValidationError, match="header.approver"):
            schema.validate(doc)

    def test_replaced_spec_takes_effect(self, schema):
        doc = _valid_doc()
        schema.validate(doc)
        schema.fields[0] = FieldSpec("header.po_number", choices=("PO-2",))
        with pytest.raises(ValidationError, match="allowed choices"):
            schema.validate(doc)

    def test_item_schema_edit_takes_effect(self, schema):
        doc = _valid_doc()
        schema.validate(doc)
        schema.fields[-1].items.add(FieldSpec("unit"))
        with pytest.raises(ValidationError, match=r"lines\[0\]\.unit"):
            schema.validate(doc)

    def test_item_schema_edit_gives_a_new_top_level_check(self, schema):
        check = schema._fields_check()
        assert schema._fields_check() is check
        schema.fields[-1].items.add(FieldSpec("unit"))
        assert schema._fields_check() is not check

    def test_check_is_not_part_of_equality_or_repr(self, schema):
        before = copy.copy(schema)
        schema.validate(_valid_doc())
        assert schema._check is not None
        assert schema == before
        assert repr(schema) == repr(before)


class TestValidateOnce:
    """A sealed document remembers the checks it passed."""

    @staticmethod
    def _counting(schema):
        calls = []
        spec = schema.fields[1]
        counted = FieldSpec(spec.path, spec.type_name,
                            check=lambda value: calls.append(value) or value >= 0,
                            check_label=spec.check_label)
        schema.fields[1] = counted
        return calls

    def test_a_sealed_document_is_checked_once(self, schema):
        calls = self._counting(schema)
        doc = _valid_doc().seal()
        for _ in range(3):
            schema.validate(doc)
        assert calls == [10.0]

    def test_an_unsealed_document_is_checked_every_time(self, schema):
        calls = self._counting(schema)
        doc = _valid_doc()
        for _ in range(3):
            schema.validate(doc)
        assert calls == [10.0] * 3

    def test_a_failed_check_is_not_remembered(self, schema):
        doc = Document("normalized", "purchase_order", {
            "header": {"po_number": "PO-1", "amount": -1.0, "status": "open"},
            "lines": [{"sku": "A", "quantity": 1}],
        }).seal()
        for _ in range(2):
            with pytest.raises(ValidationError, match="amount >= 0"):
                schema.validate(doc)

    def test_format_and_doc_type_are_still_compared(self, schema):
        doc = _valid_doc().seal()
        schema.validate(doc)
        other = DocumentSchema("other", format_name="edi-x12", doc_type="purchase_order",
                               fields=schema.fields)
        with pytest.raises(ValidationError, match="format mismatch"):
            other.validate(doc)

    def test_an_equal_schema_is_a_different_check(self, schema):
        calls = self._counting(schema)
        doc = _valid_doc().seal()
        schema.validate(doc)
        twin = DocumentSchema(schema.name, schema.format_name, schema.doc_type,
                              list(schema.fields))
        twin.validate(doc)
        assert calls == [10.0, 10.0]

    def test_editing_the_fields_reruns_the_check(self, schema):
        doc = _valid_doc().seal()
        schema.validate(doc)
        schema.add(FieldSpec("header.approver"))
        with pytest.raises(ValidationError, match="header.approver"):
            schema.validate(doc)

    def test_replacing_a_field_reruns_the_check(self, schema):
        doc = _valid_doc().seal()
        schema.validate(doc)
        schema.fields[0] = FieldSpec("header.po_number", choices=("PO-2",))
        with pytest.raises(ValidationError, match="allowed choices"):
            schema.validate(doc)

    def test_editing_an_item_schema_reruns_the_check(self, schema):
        doc = _valid_doc().seal()
        schema.validate(doc)
        schema.fields[-1].items.add(FieldSpec("unit"))
        with pytest.raises(ValidationError, match=r"lines\[0\]\.unit"):
            schema.validate(doc)
