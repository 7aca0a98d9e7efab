"""Tests for the transformation registry and hub routing."""

import pytest

from repro.documents.model import Document
from repro.errors import ConfigurationError, NoRouteError
from repro.transform.mapping import Compute, Field, Mapping
from repro.transform.transformer import TransformationRegistry


def _mapping(source, target, doc_type="order"):
    return Mapping(
        name=f"{source}__to__{target}/{doc_type}",
        source_format=source,
        target_format=target,
        doc_type=doc_type,
        rules=[Field("v", "v")],
    )


@pytest.fixture
def hub_registry():
    registry = TransformationRegistry(hub_format="hub")
    registry.register_all(
        [
            _mapping("a", "hub"),
            _mapping("hub", "a"),
            _mapping("b", "hub"),
            _mapping("hub", "b"),
            _mapping("a", "c"),  # a direct shortcut
        ]
    )
    return registry


def _doc(format_name, value=1):
    return Document(format_name, "order", {"v": value})


class TestRegistration:
    def test_duplicate_route_rejected(self, hub_registry):
        with pytest.raises(ConfigurationError):
            hub_registry.register(_mapping("a", "hub"))

    def test_same_pair_different_doc_type_ok(self, hub_registry):
        hub_registry.register(_mapping("a", "hub", doc_type="invoice"))
        assert hub_registry.find("a", "hub", "invoice") is not None

    def test_formats_enumeration(self, hub_registry):
        assert hub_registry.formats() == {"a", "b", "c", "hub"}

    def test_len_counts_mappings(self, hub_registry):
        assert len(hub_registry) == 5


class TestRouting:
    def test_identity_route_is_empty(self, hub_registry):
        assert hub_registry.route("a", "a", "order") == ()

    def test_route_returns_a_tuple(self, hub_registry):
        first = hub_registry.route("a", "b", "order")
        assert isinstance(first, tuple)
        assert first == hub_registry.route("a", "b", "order")

    def test_executor_is_memoized_per_route_until_registration(self, hub_registry):
        executor = hub_registry.executor("a", "b", "order")
        assert hub_registry.executor("a", "b", "order") is executor
        hub_registry.register(_mapping("b", "c"))
        assert hub_registry.executor("a", "b", "order") is not executor

    def test_direct_route_preferred(self, hub_registry):
        chain = hub_registry.route("a", "c", "order")
        assert [m.name for m in chain] == ["a__to__c/order"]

    def test_hub_route(self, hub_registry):
        chain = hub_registry.route("a", "b", "order")
        assert [m.name for m in chain] == ["a__to__hub/order", "hub__to__b/order"]

    def test_no_route_raises(self, hub_registry):
        with pytest.raises(NoRouteError):
            hub_registry.route("c", "b", "order")

    def test_no_route_for_unknown_doc_type(self, hub_registry):
        with pytest.raises(NoRouteError):
            hub_registry.route("a", "b", "invoice")


class TestTransformExecution:
    def test_identity_returns_same_document(self, hub_registry):
        document = _doc("a")
        assert hub_registry.transform(document, "a") is document

    def test_two_hop_transform(self, hub_registry):
        result = hub_registry.transform(_doc("a", 42), "b")
        assert result.format_name == "b"
        assert result.get("v") == 42

    def test_stats_counted_per_mapping(self, hub_registry):
        hub_registry.transform(_doc("a"), "b")
        hub_registry.transform(_doc("a"), "b")
        assert hub_registry.stats["a__to__hub/order"] == 2
        assert hub_registry.applications() == 4

    def test_stale_result_never_served_after_reregistration(self):
        registry = TransformationRegistry(hub_format="hub")
        registry.register(
            Mapping("v1", "src", "hub", "t", [Compute("out", lambda d, c: "v1")])
        )
        document = Document("src", "t", {})
        assert registry.transform(document, "hub").get("out") == "v1"
        registry._mappings.clear()  # simulate a redeployed catalog
        registry.register(
            Mapping("v2", "src", "hub", "t", [Compute("out", lambda d, c: "v2")])
        )
        assert registry.transform(document, "hub").get("out") == "v2"

    def test_standard_registry_uses_normalized_hub(self, registry, sample_po):
        # wire -> other wire goes through the normalized layout
        edi_doc = registry.transform(sample_po, "edi-x12")
        rn_doc = registry.transform(edi_doc, "rosettanet-xml")
        assert rn_doc.get("order.po_number") == "PO-1001"
