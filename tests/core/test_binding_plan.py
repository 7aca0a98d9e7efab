"""Binding chain plans: cached execution must equal the unplanned
interpreter, and every way a plan can go stale must invalidate it.

Staleness vectors: registering a new mapping (registry version bump),
editing the chain (snapshot mismatch), swapping the registry instance, and
the explicit ``invalidate_plans`` model-change hook.
"""

from repro.core.binding import Binding, BindingStep, make_protocol_binding
from repro.documents.model import Document
from repro.documents.normalized import NORMALIZED, make_purchase_order
from repro.transform.catalog import build_standard_registry
from repro.transform.mapping import Field, Mapping
from tests.core.reference_binding import run_chain

LINES = [
    {"sku": "LAPTOP-15", "quantity": 50, "unit_price": 1200.0},
    {"sku": "DOCK-1", "quantity": 5, "unit_price": 150.0},
]

CONTEXT = {"sender_id": "ACME", "receiver_id": "TP1", "now": 1.0}


def _binding():
    return make_protocol_binding(
        "b", "public", "private", wire_format="edi-x12"
    )


def _po():
    return make_purchase_order("PO-1001", "TP1", "ACME", LINES)


class TestPlannedEqualsInterpreted:
    def test_outbound_transform(self):
        binding, registry = _binding(), build_standard_registry()
        planned = binding.apply_outbound(_po(), registry, CONTEXT)
        reference = run_chain(binding, binding.outbound, _po(), registry, CONTEXT)
        assert planned.to_dict() == reference.to_dict()

    def test_round_trip(self):
        binding, registry = _binding(), build_standard_registry()
        wire = binding.apply_outbound(_po(), registry, CONTEXT)
        back = binding.apply_inbound(wire, registry, CONTEXT)
        reference = run_chain(binding, binding.inbound, wire, registry, CONTEXT)
        assert back.format_name == NORMALIZED
        assert back.to_dict() == reference.to_dict()

    def test_consume_and_produce_steps(self):
        def producer(context):
            return Document(NORMALIZED, "receipt", {"ok": True})

        binding = Binding(
            "b2",
            private_process="private",
            public_process="public",
            inbound=[BindingStep("drop", "consume")],
            outbound=[BindingStep("make", "produce", producer=producer)],
        )
        registry = build_standard_registry()
        assert binding.apply_inbound(_po(), registry, CONTEXT) is None
        produced = binding.apply_outbound(None, registry, CONTEXT)
        assert produced.get("ok") is True
        assert produced.doc_type == "receipt"

    def test_stats_still_counted(self):
        binding, registry = _binding(), build_standard_registry()
        binding.apply_outbound(_po(), registry, CONTEXT)
        binding.apply_outbound(_po(), registry, CONTEXT)
        assert registry.stats["normalized__to__edi-x12/purchase_order"] == 2


class TestPlanReuse:
    def test_plan_reused_across_messages(self):
        binding, registry = _binding(), build_standard_registry()
        binding.apply_outbound(_po(), registry, CONTEXT)
        plan = binding._active_plans["out"]
        binding.apply_outbound(_po(), registry, CONTEXT)
        assert binding._active_plans["out"] is plan

    def test_routes_memoized_per_format(self):
        binding, registry = _binding(), build_standard_registry()
        binding.apply_outbound(_po(), registry, CONTEXT)
        plan = binding._active_plans["out"]
        assert len(plan.routes) == 1
        binding.apply_outbound(_po(), registry, CONTEXT)
        assert len(plan.routes) == 1  # second message reused the route


class TestInvalidation:
    def test_registering_a_mapping_invalidates(self):
        binding, registry = _binding(), build_standard_registry()
        binding.apply_outbound(_po(), registry, CONTEXT)
        stale = binding._active_plans["out"]
        extra = Mapping("extra", "fmt-a", "fmt-b", "purchase_order",
                        rules=[Field("x", "x")])
        registry.register(extra)
        binding.apply_outbound(_po(), registry, CONTEXT)
        assert binding._active_plans["out"] is not stale

    def test_editing_the_chain_invalidates(self):
        binding, registry = _binding(), build_standard_registry()
        binding.apply_outbound(_po(), registry, CONTEXT)
        stale = binding._active_plans["out"]
        binding.outbound[0] = BindingStep(
            "to_wire", "transform", target_format="rosettanet-xml"
        )
        result = binding.apply_outbound(_po(), registry, CONTEXT)
        assert binding._active_plans["out"] is not stale
        assert result.format_name == "rosettanet-xml"

    def test_swapping_registry_invalidates(self):
        binding = _binding()
        first, second = build_standard_registry(), build_standard_registry()
        binding.apply_outbound(_po(), first, CONTEXT)
        stale = binding._active_plans["out"]
        binding.apply_outbound(_po(), second, CONTEXT)
        assert binding._active_plans["out"] is not stale

    def test_invalidate_plans_hook(self):
        binding, registry = _binding(), build_standard_registry()
        binding.apply_outbound(_po(), registry, CONTEXT)
        assert binding._active_plans
        binding.invalidate_plans()
        assert not binding._active_plans
        assert not binding._plan_cache

    def test_reverted_chain_reuses_cached_plan(self):
        binding, registry = _binding(), build_standard_registry()
        original_step = binding.outbound[0]
        binding.apply_outbound(_po(), registry, CONTEXT)
        first_plan = binding._active_plans["out"]
        binding.outbound[0] = BindingStep(
            "to_wire", "transform", target_format="rosettanet-xml"
        )
        binding.apply_outbound(_po(), registry, CONTEXT)
        binding.outbound[0] = original_step
        binding.apply_outbound(_po(), registry, CONTEXT)
        assert binding._active_plans["out"] is first_plan  # routes preserved
