"""Small-gap tests: minor paths not covered elsewhere."""

import pytest

from repro.analysis.scenarios import build_two_enterprise_pair
from repro.core.enterprise import Enterprise
from repro.errors import BindingError, PartnerError, ProtocolError


class TestEnterpriseEdges:
    def test_poll_van_without_van_is_noop(self, network):
        enterprise = Enterprise("solo", network)
        assert enterprise.poll_van() == 0

    def test_update_unknown_partner_rejected(self, network):
        from repro.partners.profile import TradingPartner

        enterprise = Enterprise("solo", network)
        with pytest.raises(PartnerError):
            enterprise.model.partners.update_partner(TradingPartner("ghost"))

    def test_rule_engine_alias(self, network):
        enterprise = Enterprise("solo", network)
        assert enterprise.rules is enterprise.model.rules


class TestIntegrationEdges:
    def test_consuming_outbound_binding_is_an_error(self):
        """A binding that consumes an *outbound* document would silently
        swallow a business reply — the engine treats it as a wiring bug."""
        from repro.core.binding import BindingStep

        pair = build_two_enterprise_pair("rosettanet", seller_delay=0.0)
        route = pair.buyer.model.route("rosettanet", "buyer")
        binding = pair.buyer.model.bindings[route.binding]
        binding.outbound.insert(0, BindingStep("drop", "consume"))
        pair.buyer.wfms.raise_on_failure = False
        pair.buyer.submit_order(
            "SAP", "ACME", "PO-CONSUME",
            [{"sku": "X", "quantity": 1, "unit_price": 1.0}],
        )
        instances = pair.buyer.wfms.database.list_instances()
        assert instances[0].status == "failed"
        assert "consumed" in instances[0].error

    def test_start_conversation_rejects_non_initiating_definition(self):
        from repro.documents.normalized import make_po_ack, make_purchase_order

        pair = build_two_enterprise_pair("rosettanet", seller_delay=0.0)
        po = make_purchase_order(
            "PO-NI", "TP1", "ACME", [{"sku": "X", "quantity": 1, "unit_price": 1.0}]
        )
        poa = make_po_ack(po)
        # the seller cannot *initiate* a conversation with a POA — its
        # public process for the seller role only responds
        with pytest.raises(Exception) as excinfo:
            pair.seller.b2b.start_conversation("TP1", poa, our_role="seller")
        assert isinstance(excinfo.value, (ProtocolError,)) or "agreement" in str(
            excinfo.value
        ).lower()

    def test_auto_ack_without_receipt_builder_rejected(self):
        """A public process with auto_ack steps on a protocol without a
        receipt builder is a configuration error surfaced at runtime."""
        from repro.core.integration import Conversation
        from repro.core.public_process import PublicProcessDefinition, PublicStep
        from repro.core.public_process import PublicProcessInstance

        pair = build_two_enterprise_pair("rosettanet", seller_delay=0.0)
        definition = PublicProcessDefinition(
            "x", "rosettanet", "seller", "rosettanet-xml",
            [PublicStep("bad", "send", "receipt_ack", {"auto_ack": True})],
        )
        conversation = Conversation(
            conversation_id="C-X", protocol="rosettanet", partner_id="TP1",
            role="seller", public=PublicProcessInstance(definition, "C-X", "TP1"),
        )
        with pytest.raises(ProtocolError):
            pair.seller.b2b._drive_auto(conversation)


class TestCrossFormatReExport:
    def test_erp_ack_reexports_to_every_wire_format(self, registry):
        """Figure 9's 'Transform SAP to RN POA' path: an acknowledgment the
        SAP simulator produced natively re-exports to every wire format
        through the hub without loss of business content."""
        from repro.backend import SapSimulator

        feeder = SapSimulator("feeder")
        erp = SapSimulator("SAP")
        erp.store_document(
            feeder.enter_order(
                "PO-XF", "TP1", "ACME",
                [{"sku": "X", "quantity": 2, "unit_price": 50.0}],
            )
        )
        native_ack = erp.extract_documents("po_ack")[0]
        for wire_format in ("edi-x12", "rosettanet-xml", "oagis-bod", "oracle-oif"):
            exported = registry.transform(native_ack, wire_format)
            back = registry.transform(exported, "normalized")
            assert back.get("header.po_number") == "PO-XF"
            assert back.get("header.status") == "accepted"
            assert back.get("summary.accepted_amount") == pytest.approx(100.0)


class TestTransformerEdges:
    def test_identity_transform_ignores_unknown_format(self, registry, sample_po):
        # identity never needs a route, even for formats with no mappings
        sample_po.format_name = "exotic"
        assert registry.transform(sample_po, "exotic") is sample_po

    def test_binding_error_on_missing_document(self, registry):
        from repro.core.binding import Binding, BindingStep

        binding = Binding(
            "b", "private", public_process="p",
            inbound=[
                BindingStep("drop", "consume"),
            ],
            outbound=[
                BindingStep("make", "transform", target_format="edi-x12"),
            ],
        )
        with pytest.raises(BindingError, match="has no document to transform"):
            binding.apply_outbound(None, registry, {})
