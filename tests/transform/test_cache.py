"""The content-addressed transformation result cache.

Covers the cache protocol itself (LRU bounds, counters, per-route
breakdowns), the registry integration (enable/disable, invalidation on
registration, bypass of context-sensitive chains, stats opt-out) and the
observability surface (snapshot dict, kernel event).  The governing
invariant — enabling the cache never changes any transformation output —
is property-tested in test_mapping_compile.py.
"""

import functools

import pytest

from repro.documents.model import Document
from repro.documents.normalized import NORMALIZED, make_purchase_order
from repro.runtime.kernel import Kernel
from repro.transform.cache import TransformCache
from repro.transform.catalog import build_standard_registry
from repro.transform.mapping import Compute, Field, Mapping

CONTEXT = {"sender_id": "ACME", "receiver_id": "TP1", "now": 1.0}

LINES = [
    {"sku": "LAPTOP-15", "quantity": 50, "unit_price": 1200.0},
    {"sku": "DOCK-1", "quantity": 5, "unit_price": 150.0},
]


def _wire_po(registry, number="PO-1001"):
    po = make_purchase_order(number, "TP1", "ACME", LINES)
    return registry.transform(po, "edi-x12", CONTEXT)


class TestTransformCache:
    def test_lookup_miss_then_hit(self):
        cache = TransformCache(capacity=4)
        document = Document("f", "t", {"a": 1})
        assert cache.lookup("k", "r") is None
        cache.store("k", document, "r")
        hit = cache.lookup("k", "r")
        assert hit is not None
        assert hit.to_dict() == document.to_dict()
        assert (cache.hits, cache.misses) == (1, 1)

    def test_hits_return_fresh_copies(self):
        cache = TransformCache(capacity=4)
        cache.store("k", Document("f", "t", {"lines": [{"qty": 1}]}), "r")
        first = cache.lookup("k", "r")
        first.data["lines"][0]["qty"] = 999
        second = cache.lookup("k", "r")
        assert second.data["lines"][0]["qty"] == 1

    def test_store_keeps_private_copy(self):
        cache = TransformCache(capacity=4)
        document = Document("f", "t", {"lines": [{"qty": 1}]})
        cache.store("k", document, "r")
        document.data["lines"][0]["qty"] = 999
        assert cache.lookup("k", "r").data["lines"][0]["qty"] == 1

    def test_lru_evicts_least_recently_used(self):
        cache = TransformCache(capacity=2)
        cache.store("a", Document("f", "t", {"n": 1}), "r")
        cache.store("b", Document("f", "t", {"n": 2}), "r")
        assert cache.lookup("a", "r") is not None  # refresh a
        cache.store("c", Document("f", "t", {"n": 3}), "r")  # evicts b
        assert cache.evictions == 1
        assert cache.lookup("b", "r") is None
        assert cache.lookup("a", "r") is not None
        assert cache.lookup("c", "r") is not None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TransformCache(capacity=0)

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = TransformCache(capacity=4)
        cache.store("k", Document("f", "t", {}), "r")
        cache.lookup("k", "r")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        assert cache.lookup("k", "r") is None  # entry is really gone

    def test_per_route_counters(self):
        cache = TransformCache(capacity=1)
        cache.store("a", Document("f", "t", {}), "route-1")
        cache.lookup("a", "route-1")
        cache.lookup("zzz", "route-2")
        cache.store("b", Document("f", "t", {}), "route-2")  # evicts route-1's entry
        cache.note_bypass("route-3")
        snapshot = cache.snapshot()
        assert snapshot["routes"]["route-1"]["hits"] == 1
        assert snapshot["routes"]["route-2"]["misses"] == 1
        assert snapshot["routes"]["route-1"]["evictions"] == 1
        assert snapshot["routes"]["route-3"]["bypasses"] == 1

    def test_hit_rate(self):
        cache = TransformCache(capacity=4)
        assert cache.hit_rate() == 0.0
        cache.store("k", Document("f", "t", {}), "r")
        cache.lookup("k", "r")
        cache.lookup("missing", "r")
        assert cache.hit_rate() == 0.5


class TestContentDigest:
    def test_equal_payloads_collide(self):
        a = Document("f", "t", {"x": 1, "y": [1, 2]})
        b = Document("f", "t", {"y": [1, 2], "x": 1})
        assert a.content_digest() == b.content_digest()

    def test_payload_format_and_type_all_distinguish(self):
        base = Document("f", "t", {"x": 1})
        assert base.content_digest() != Document("f", "t", {"x": 2}).content_digest()
        assert base.content_digest() != Document("g", "t", {"x": 1}).content_digest()
        assert base.content_digest() != Document("f", "u", {"x": 1}).content_digest()


class TestRegistryIntegration:
    def test_repeat_transform_hits(self):
        registry = build_standard_registry()
        cache = registry.enable_cache()
        wire = _wire_po(registry)
        first = registry.transform(wire, NORMALIZED)
        second = registry.transform(wire, NORMALIZED)
        assert first.to_dict() == second.to_dict()
        assert cache.hits == 1 and cache.misses == 1

    def test_equal_content_distinct_objects_hit(self):
        registry = build_standard_registry()
        cache = registry.enable_cache()
        wire = _wire_po(registry)
        clone = Document.from_dict(wire.to_dict())
        registry.transform(wire, NORMALIZED)
        registry.transform(clone, NORMALIZED)
        assert cache.hits == 1

    def test_context_sensitive_route_bypasses(self):
        # The outbound catalog mappings read context (sender/receiver ids),
        # so normalized -> wire must never consult the cache.
        registry = build_standard_registry()
        cache = registry.enable_cache()
        po = make_purchase_order("PO-1", "TP1", "ACME", LINES)
        registry.transform(po, "edi-x12", CONTEXT)
        registry.transform(po, "edi-x12", CONTEXT)
        assert cache.bypasses == 2
        assert cache.hits == 0 and cache.misses == 0

    def test_cached_result_is_mutation_safe(self):
        registry = build_standard_registry()
        registry.enable_cache()
        wire = _wire_po(registry)
        first = registry.transform(wire, NORMALIZED)
        first.set("header.po_number", "TAMPERED")
        second = registry.transform(wire, NORMALIZED)
        assert second.get("header.po_number") == "PO-1001"

    def test_registration_invalidates(self):
        registry = build_standard_registry()
        cache = registry.enable_cache()
        wire = _wire_po(registry)
        registry.transform(wire, NORMALIZED)
        registry.register(
            Mapping("extra", "fmt-x", "fmt-y", "purchase_order",
                    [Field("a", "b")])
        )
        registry.transform(wire, NORMALIZED)
        # Both the entries and the version half of the key changed, so the
        # second transform recomputes.
        assert cache.hits == 0 and cache.misses == 2
        assert len(cache) == 1

    def test_stale_result_never_served_after_reregistration(self):
        registry = object.__new__(build_standard_registry().__class__)
        registry.__init__(hub_format="hub")
        registry.register(
            Mapping("v1", "src", "hub", "t", [Compute("out", lambda d, c: "v1")])
        )
        registry.enable_cache()
        document = Document("src", "t", {})
        assert registry.transform(document, "hub").get("out") == "v1"
        registry._mappings.clear()  # simulate a redeployed catalog
        registry.register(
            Mapping("v2", "src", "hub", "t", [Compute("out", lambda d, c: "v2")])
        )
        assert registry.transform(document, "hub").get("out") == "v2"

    def test_disable_cache_detaches(self):
        registry = build_standard_registry()
        cache = registry.enable_cache()
        wire = _wire_po(registry)
        registry.transform(wire, NORMALIZED)
        registry.disable_cache()
        registry.transform(wire, NORMALIZED)
        assert registry.cache is None
        assert cache.hits == 0

    def test_cache_stats_surface(self):
        registry = build_standard_registry()
        assert registry.cache_stats() == {}
        registry.enable_cache()
        wire = _wire_po(registry)
        registry.transform(wire, NORMALIZED)
        registry.transform(wire, NORMALIZED)
        stats = registry.cache_stats()
        assert stats["hits"] == 1
        assert "edi-x12->normalized/purchase_order" in stats["routes"]

    def test_hits_still_count_as_applications(self):
        registry = build_standard_registry()
        registry.enable_cache()
        wire = _wire_po(registry)
        registry.transform(wire, NORMALIZED)
        cold = registry.applications()
        registry.transform(wire, NORMALIZED)
        assert registry.applications() == cold + 1  # one-hop route, one count

    def test_collect_stats_opt_out(self):
        registry = build_standard_registry()
        source = build_standard_registry()
        quiet = registry.__class__(collect_stats=False)
        quiet.register_all(source.mappings())
        quiet.enable_cache()
        wire = _wire_po(registry)
        first = quiet.transform(wire, NORMALIZED)
        second = quiet.transform(wire, NORMALIZED)
        assert first.to_dict() == second.to_dict()
        assert quiet.applications() == 0  # no Counter updates at all
        assert quiet.cache.hits == 1  # the cache still works

    def test_partial_of_pure_reader_is_now_cacheable(self):
        # The PR 8 bytecode check treated anything without a __code__
        # attribute (like functools.partial) as context-reading and
        # bypassed the cache; the shared effect analyzer unwraps the
        # partial, proves the reader pure, and keeps the route cacheable.
        def read_path(path, document, context):
            return document.get(path)

        registry = build_standard_registry().__class__(hub_format="hub")
        mapping = Mapping(
            "widened", "src", "hub", "t",
            [Compute("out", functools.partial(read_path, "x"))],
        )
        registry.register(mapping)
        cache = registry.enable_cache()
        assert mapping.compile().cacheable is True
        document = Document("src", "t", {"x": 7})
        assert registry.transform(document, "hub").get("out") == 7
        registry.transform(document, "hub")
        assert cache.hits == 1 and cache.bypasses == 0

    def test_bound_method_reader_is_cacheable(self):
        class Extractor:
            def __init__(self, path):
                self.path = path

            def read(self, document, context):
                return document.get(self.path)

        registry = build_standard_registry().__class__(hub_format="hub")
        mapping = Mapping(
            "bound", "src", "hub", "t",
            [Compute("out", Extractor("x").read)],
        )
        registry.register(mapping)
        cache = registry.enable_cache()
        assert mapping.compile().cacheable is True
        document = Document("src", "t", {"x": 3})
        registry.transform(document, "hub")
        registry.transform(document, "hub")
        assert cache.hits == 1 and cache.bypasses == 0

    def test_context_reading_partial_still_bypasses(self):
        def read_context(key, document, context):
            return context.get(key)

        registry = build_standard_registry().__class__(hub_format="hub")
        mapping = Mapping(
            "ctx", "src", "hub", "t",
            [Compute("out", functools.partial(read_context, "now"))],
        )
        registry.register(mapping)
        cache = registry.enable_cache()
        assert mapping.compile().cacheable is False
        document = Document("src", "t", {})
        registry.transform(document, "hub", {"now": 1.0})
        registry.transform(document, "hub", {"now": 2.0})
        assert cache.bypasses == 2 and cache.hits == 0

    def test_publish_emits_snapshot_event(self):
        registry = build_standard_registry()
        cache = registry.enable_cache()
        wire = _wire_po(registry)
        registry.transform(wire, NORMALIZED)
        registry.transform(wire, NORMALIZED)
        kernel = Kernel()
        seen = []
        kernel.subscribe(seen.append, ["transform_cache_snapshot"])
        cache.publish(kernel)
        assert len(seen) == 1
        event = seen[0]
        assert (event.hits, event.misses) == (1, 1)
        assert event.entries == 1
        assert kernel.metrics.count("transform_cache_snapshot") == 1
