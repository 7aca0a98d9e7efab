"""Tests for the generic document model and path language."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.documents.model import APPEND, Document, DocumentPath
from repro.errors import DocumentError, DocumentPathError


@pytest.fixture
def doc():
    return Document(
        "normalized",
        "purchase_order",
        {
            "header": {"po_number": "PO-1", "amounts": {"total": 100.0}},
            "lines": [
                {"sku": "A", "quantity": 1.0},
                {"sku": "B", "quantity": 2.0},
            ],
        },
    )


class TestConstruction:
    def test_requires_format(self):
        with pytest.raises(DocumentError):
            Document("", "purchase_order")

    def test_requires_doc_type(self):
        with pytest.raises(DocumentError):
            Document("normalized", "")

    def test_root_must_be_dict(self):
        with pytest.raises(DocumentError):
            Document("normalized", "po", data=[1, 2])  # type: ignore[arg-type]

    def test_default_data_is_empty_dict(self):
        assert Document("f", "t").data == {}


class TestPathCompilation:
    def test_simple_path(self):
        assert DocumentPath("header.po_number").steps == ("header", "po_number")

    def test_indexed_path(self):
        assert DocumentPath("lines[0].sku").steps == ("lines", 0, "sku")

    def test_negative_index(self):
        assert DocumentPath("lines[-1].sku").steps == ("lines", -1, "sku")

    def test_append_marker(self):
        steps = DocumentPath("lines[+]").steps
        assert steps[0] == "lines" and steps[1] is APPEND

    def test_multi_index(self):
        assert DocumentPath("grid[1][2]").steps == ("grid", 1, 2)

    @pytest.mark.parametrize("bad", ["", " ", "a..b", "[0]", "a[b]", "a.", "1abc"])
    def test_invalid_paths_rejected(self, bad):
        with pytest.raises(DocumentPathError):
            DocumentPath(bad)

    def test_compiled_paths_are_reusable_and_hashable(self):
        p1, p2 = DocumentPath("a.b"), DocumentPath("a.b")
        assert p1 == p2
        assert hash(p1) == hash(p2)

    def test_each_path_text_is_compiled_once(self, doc):
        from repro.documents.model import _compile_steps

        text = "header.amounts.compiled_once_total"
        misses = _compile_steps.cache_info().misses
        for _ in range(3):
            doc.set(text, 7.0)
            assert doc.get(text) == 7.0
        assert _compile_steps.cache_info().misses == misses + 1
        # only the immutable steps are shared, never a path object
        first, second = DocumentPath(text), DocumentPath(text)
        assert first is not second and first.steps is second.steps
        assert isinstance(first.steps, tuple)

    @pytest.mark.parametrize("bad", ["", " ", "a..b", "a[b]"])
    def test_invalid_path_text_raises_on_every_call(self, doc, bad):
        for _ in range(3):
            with pytest.raises(DocumentPathError):
                doc.get(bad)
            with pytest.raises(DocumentPathError):
                doc.set(bad, 1)


class TestGet:
    def test_nested_field(self, doc):
        assert doc.get("header.amounts.total") == 100.0

    def test_list_index(self, doc):
        assert doc.get("lines[1].sku") == "B"

    def test_negative_index(self, doc):
        assert doc.get("lines[-1].sku") == "B"

    def test_compiled_path_accepted(self, doc):
        assert doc.get(DocumentPath("header.po_number")) == "PO-1"

    def test_missing_field_raises(self, doc):
        with pytest.raises(DocumentPathError):
            doc.get("header.missing")

    def test_out_of_range_index_raises(self, doc):
        with pytest.raises(DocumentPathError):
            doc.get("lines[5].sku")

    def test_default_suppresses_error(self, doc):
        assert doc.get("header.missing", default="fallback") == "fallback"

    def test_default_not_used_when_present(self, doc):
        assert doc.get("header.po_number", default="x") == "PO-1"

    def test_indexing_scalar_raises(self, doc):
        with pytest.raises(DocumentPathError):
            doc.get("header.po_number[0]")

    def test_has(self, doc):
        assert doc.has("lines[0].sku")
        assert not doc.has("lines[9].sku")


class TestSet:
    def test_set_existing(self, doc):
        doc.set("header.po_number", "PO-2")
        assert doc.get("header.po_number") == "PO-2"

    def test_creates_intermediate_dicts(self, doc):
        doc.set("summary.totals.gross", 1.0)
        assert doc.get("summary.totals.gross") == 1.0

    def test_append_to_list(self, doc):
        doc.set("lines[+].sku", "C")
        assert doc.get("lines[2].sku") == "C"

    def test_append_scalar(self, doc):
        doc.set("tags[+]", "urgent")
        assert doc.get("tags[0]") == "urgent"

    def test_set_one_past_end_appends(self, doc):
        doc.set("lines[2]", {"sku": "C"})
        assert doc.get("lines[2].sku") == "C"

    def test_set_with_hole_raises(self, doc):
        with pytest.raises(DocumentPathError):
            doc.set("lines[7].sku", "X")

    def test_creates_list_for_index_step(self):
        document = Document("f", "t")
        document.set("items[0].name", "first")
        assert document.get("items[0].name") == "first"

    def test_cannot_set_field_on_list(self, doc):
        with pytest.raises(DocumentPathError):
            doc.set("lines.sku", "X")


class TestDelete:
    def test_delete_field(self, doc):
        doc.delete("header.po_number")
        assert not doc.has("header.po_number")

    def test_delete_list_item(self, doc):
        doc.delete("lines[0]")
        assert doc.get("lines[0].sku") == "B"

    def test_delete_missing_raises(self, doc):
        with pytest.raises(DocumentPathError):
            doc.delete("header.nope")


class TestTraversal:
    def test_iter_leaves_sorted_and_complete(self, doc):
        leaves = dict(doc.iter_leaves())
        assert leaves["header.po_number"] == "PO-1"
        assert leaves["lines[1].quantity"] == 2.0
        assert len(leaves) == doc.leaf_count() == 6

    def test_leaf_paths_reparse(self, doc):
        for path, value in doc.iter_leaves():
            assert doc.get(path) == value


class TestLifecycle:
    def test_copy_is_deep(self, doc):
        clone = doc.copy()
        clone.set("lines[0].sku", "Z")
        assert doc.get("lines[0].sku") == "A"

    def test_to_from_dict_roundtrip(self, doc):
        assert Document.from_dict(doc.to_dict()) == doc

    def test_to_dict_detached(self, doc):
        payload = doc.to_dict()
        payload["data"]["header"]["po_number"] = "HACKED"
        assert doc.get("header.po_number") == "PO-1"

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(DocumentError):
            Document.from_dict({"format": "f"})

    def test_equality_considers_format_and_type(self, doc):
        other = Document("edi-x12", doc.doc_type, doc.data)
        assert doc != other


def _containers(node):
    """Every dict and list inside ``node``, by identity."""
    found = {}
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            found[id(item)] = item
            stack.extend(item.values())
        elif isinstance(item, list):
            found[id(item)] = item
            stack.extend(item)
    return found


DUPLICATES = {
    "copy-method": lambda document: document.copy(),
    "copy.copy": copy.copy,
    "copy.deepcopy": copy.deepcopy,
    "pickle": lambda document: pickle.loads(pickle.dumps(document)),
}


class TestSealing:
    def test_a_new_document_is_unsealed(self, doc):
        assert not doc.sealed
        doc.set("header.po_number", "PO-2")

    def test_seal_returns_the_document(self, doc):
        assert doc.seal() is doc
        assert doc.sealed
        assert doc.seal() is doc

    @pytest.mark.parametrize("path", ["header.po_number", "lines[+]", "new.field"])
    def test_set_on_a_sealed_document_raises(self, doc, path):
        doc.seal()
        with pytest.raises(DocumentError, match="sealed"):
            doc.set(path, "X")
        assert doc.get("header.po_number") == "PO-1"
        assert len(doc.get("lines")) == 2

    def test_delete_on_a_sealed_document_raises(self, doc):
        doc.seal()
        with pytest.raises(DocumentError, match="sealed"):
            doc.delete("lines[0]")
        assert len(doc.get("lines")) == 2

    def test_reads_work_on_a_sealed_document(self, doc):
        doc.seal()
        assert doc.get("lines[1].sku") == "B"
        assert doc.has("header.amounts.total")
        assert doc == Document(doc.format_name, doc.doc_type, copy.deepcopy(doc.data))

    @pytest.mark.parametrize("duplicate", DUPLICATES.values(), ids=list(DUPLICATES))
    def test_a_duplicate_is_unsealed_and_shares_no_container(self, doc, duplicate):
        doc.seal()
        clone = duplicate(doc)
        assert type(clone) is Document
        assert clone == doc
        assert not clone.sealed
        assert doc.sealed
        assert not set(_containers(clone.data)) & set(_containers(doc.data))
        clone.set("lines[0].sku", "Z")
        assert doc.get("lines[0].sku") == "A"

    def test_a_list_holding_a_sealed_document_pickles(self, doc):
        doc.seal()
        loaded = pickle.loads(pickle.dumps([doc, doc]))
        assert loaded[0] is loaded[1]
        assert loaded[0] == doc and not loaded[0].sealed

    @pytest.mark.parametrize("duplicate", DUPLICATES.values(), ids=list(DUPLICATES))
    def test_an_unsealed_duplicate_shares_no_container(self, doc, duplicate):
        clone = duplicate(doc)
        assert clone == doc and not clone.sealed
        assert not set(_containers(clone.data)) & set(_containers(doc.data))


# -- property-based ----------------------------------------------------------

_scalars = st.one_of(
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=10),
    st.booleans(),
)
_keys = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
_trees = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=20,
)


@given(st.dictionaries(_keys, _trees, max_size=5))
def test_leaf_paths_always_resolve(data):
    document = Document("f", "t", data)
    for path, value in document.iter_leaves():
        assert document.get(path) == value


@given(st.dictionaries(_keys, _trees, max_size=5))
def test_serialization_roundtrip(data):
    document = Document("f", "t", data)
    assert Document.from_dict(document.to_dict()) == document
