"""Binding chains: each step goes through the registry on every message.

A chain edit, a newly registered mapping or a swapped registry therefore
takes effect on the next message; nothing a binding remembers can serve
a stale route.
"""

from repro.core.binding import Binding, BindingStep, make_protocol_binding
from repro.documents.model import Document
from repro.documents.normalized import NORMALIZED, make_purchase_order
from repro.transform.catalog import build_standard_registry
from repro.transform.mapping import Const, Field, Mapping

LINES = [
    {"sku": "LAPTOP-15", "quantity": 50, "unit_price": 1200.0},
    {"sku": "DOCK-1", "quantity": 5, "unit_price": 150.0},
]

CONTEXT = {"sender_id": "ACME", "receiver_id": "TP1", "now": 1.0}

EDI_OUT = "normalized__to__edi-x12/purchase_order"


def _binding():
    return make_protocol_binding(
        "b", "public", "private", wire_format="edi-x12"
    )


def _po():
    return make_purchase_order("PO-1001", "TP1", "ACME", LINES)


class TestChainExecution:
    def test_round_trip(self):
        binding, registry = _binding(), build_standard_registry()
        wire = binding.apply_outbound(_po(), registry, CONTEXT)
        assert wire.format_name == "edi-x12"
        back = binding.apply_inbound(wire, registry, CONTEXT)
        assert back.format_name == NORMALIZED
        assert back.get("header.po_number") == "PO-1001"
        assert binding.outbound_runs == binding.inbound_runs == 1

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
        assert registry.stats[EDI_OUT] == 2


class TestEditsTakeEffectOnTheNextMessage:
    def test_edited_chain(self):
        binding, registry = _binding(), build_standard_registry()
        assert binding.apply_outbound(_po(), registry, CONTEXT).format_name == "edi-x12"
        binding.outbound[0] = BindingStep(
            "to_wire", "transform", target_format="rosettanet-xml"
        )
        result = binding.apply_outbound(_po(), registry, CONTEXT)
        assert result.format_name == "rosettanet-xml"

    def test_newly_registered_direct_mapping(self):
        binding = Binding(
            "b3",
            private_process="private",
            public_process="public",
            outbound=[BindingStep("to_wire", "transform", target_format="fmt-b")],
        )
        registry = build_standard_registry()
        registry.register(Mapping(
            "via-hub-out", NORMALIZED, "fmt-b", "purchase_order",
            rules=[Field("header.po_number", "po"), Const("route", "hub")],
        ))
        registry.register(Mapping(
            "fmt-a-in", "fmt-a", NORMALIZED, "purchase_order",
            rules=[Field("po", "header.po_number")],
        ))
        document = Document("fmt-a", "purchase_order", {"po": "PO-7"})
        assert binding.apply_outbound(document, registry, CONTEXT).get("route") == "hub"
        registry.register(Mapping(
            "direct", "fmt-a", "fmt-b", "purchase_order",
            rules=[Field("po", "po"), Const("route", "direct")],
        ))
        result = binding.apply_outbound(document, registry, CONTEXT)
        assert result.get("route") == "direct"
        assert result.get("po") == "PO-7"
        assert registry.stats["direct"] == 1

    def test_swapped_registry_counts_the_run(self):
        binding = _binding()
        first, second = build_standard_registry(), build_standard_registry()
        binding.apply_outbound(_po(), first, CONTEXT)
        binding.apply_outbound(_po(), second, CONTEXT)
        assert first.stats[EDI_OUT] == 1
        assert second.stats[EDI_OUT] == 1
