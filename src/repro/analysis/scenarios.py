"""Canned enterprise topologies used by tests, examples and benchmarks.

Three families:

* :func:`build_two_enterprise_pair` — the running PO-POA example between
  one buyer and one seller over a chosen protocol (Figures 1 and 14);
* :func:`build_fig15_community` — the Figure 15 deployment: one seller
  integrating three trading partners over three different B2B protocols
  into two back ends, plus the three buyers;
* :func:`advanced_synthetic_model` — a *model-only* advanced deployment of
  arbitrary (protocols x partners x back ends) size for the growth sweeps,
  with synthetic protocols/formats where the real three run out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.b2b.protocol import B2BProtocol, TRANSPORT_PLAIN, WireCodec, get_protocol
from repro.backend import OracleSimulator, SapSimulator
from repro.core.enterprise import Enterprise
from repro.core.integration import IntegrationModel
from repro.core.private_process import buyer_po_process, seller_po_process
from repro.core.public_process import buyer_request_reply, seller_request_reply
from repro.core.rules import approval_rule_set, routing_rule_set
from repro.errors import ConfigurationError
from repro.messaging.network import NetworkConditions, SimulatedNetwork
from repro.messaging.reliable import RetryPolicy
from repro.messaging.transport import ValueAddedNetwork
from repro.partners.agreement import TradingPartnerAgreement
from repro.partners.profile import TradingPartner
from repro.sim import EventScheduler
from repro.transform.catalog import build_standard_registry
from repro.transform.mapping import Field, Mapping

__all__ = [
    "TwoEnterprisePair",
    "Fig15Community",
    "build_two_enterprise_pair",
    "build_fig15_community",
    "advanced_synthetic_model",
    "build_registry_model",
    "synthetic_protocol",
]

REAL_PROTOCOLS = ("edi-van", "rosettanet", "oagis-http")


@dataclass
class TwoEnterprisePair:
    """The wired Figure 14 pair, ready to exchange purchase orders."""

    scheduler: EventScheduler
    network: SimulatedNetwork
    van: ValueAddedNetwork
    buyer: Enterprise
    seller: Enterprise

    def enterprises(self) -> list[Enterprise]:
        return [self.buyer, self.seller]

    @property
    def runtime(self):
        """The runtime kernel shared by every component of the pair."""
        return self.network.runtime


def build_two_enterprise_pair(
    protocol_name: str = "rosettanet",
    conditions: NetworkConditions | None = None,
    seed: int = 7,
    buyer_name: str = "TP1",
    seller_name: str = "ACME",
    buyer_threshold: float = 10000,
    seller_threshold: float = 55000,
    seller_delay: float = 1.0,
    retry_policy: RetryPolicy | None = None,
    auto_approve: bool = True,
    verify: bool = False,
) -> TwoEnterprisePair:
    """Assemble the paper's running example (Figure 1 / Figure 14).

    Buyer ``TP1`` runs an SAP-like ERP; seller ``ACME`` runs an Oracle-like
    ERP with ``seller_delay`` of asynchronous order processing.  Approval
    thresholds default to Figure 1's 10 000 (buyer) and the seller-side
    amount of the Figure 9 rules (55 000).

    With ``verify=True``, both assembled models are statically verified
    (:mod:`repro.verify`) and :class:`~repro.errors.VerificationError` is
    raised on any error-severity diagnostic.
    """
    scheduler = EventScheduler()
    network = SimulatedNetwork(
        scheduler, conditions or NetworkConditions.perfect(), seed=seed
    )
    van = ValueAddedNetwork()

    buyer = Enterprise(buyer_name, network, van=van, retry_policy=retry_policy)
    seller = Enterprise(seller_name, network, van=van, retry_policy=retry_policy)

    buyer.deploy_private_process(buyer_po_process(owner=buyer_name))
    buyer.deploy_protocol(get_protocol(protocol_name), "private-po-buyer")
    buyer.add_backend(SapSimulator("SAP", scheduler=scheduler), "private-po-buyer")
    buyer.add_partner(
        TradingPartner(seller_name, protocols=(protocol_name,)),
        [TradingPartnerAgreement(seller_name, protocol_name, "buyer")],
    )
    buyer.add_rule_set(approval_rule_set({(seller_name, "SAP"): buyer_threshold}))

    seller.deploy_private_process(seller_po_process(owner=seller_name))
    seller.deploy_protocol(get_protocol(protocol_name), "private-po-seller")
    seller.add_backend(
        OracleSimulator("Oracle", scheduler=scheduler, processing_delay=seller_delay),
        "private-po-seller",
    )
    seller.add_partner(
        TradingPartner(buyer_name, protocols=(protocol_name,)),
        [TradingPartnerAgreement(buyer_name, protocol_name, "seller")],
    )
    seller.add_rule_set(approval_rule_set({("Oracle", buyer_name): seller_threshold}))
    seller.add_rule_set(routing_rule_set({buyer_name: "Oracle"}))

    if auto_approve:
        buyer.worklist.set_auto_policy(lambda item: {"approved": True})
        seller.worklist.set_auto_policy(lambda item: {"approved": True})
    if verify:
        buyer.model.verify(strict=True)
        seller.model.verify(strict=True)
    return TwoEnterprisePair(scheduler, network, van, buyer, seller)


def build_order_to_cash_pair(
    po_protocol: str = "rosettanet",
    fulfillment_protocol: str = "oagis-fulfillment",
    seed: int = 7,
    conditions: NetworkConditions | None = None,
    seller_delay: float = 0.5,
    verify: bool = False,
) -> TwoEnterprisePair:
    """The Figure 14 pair extended with the order-to-cash dispatch.

    On top of the PO/POA exchange over ``po_protocol``, both enterprises
    deploy the one-way ``fulfillment_protocol`` exchange (OAGIS BODs by
    default, EDI 856/810 over the VAN with ``"edi-fulfillment"``): the
    seller's fulfillment process dispatches ship notice + invoice, the
    buyer's goods-receipt process receives, two-way-matches the invoice
    against its stored acknowledgment, and posts both to its document
    archive.
    """
    from repro.b2b.protocol import get_protocol as _get_protocol
    from repro.core.private_process import (
        buyer_goods_receipt_process,
        seller_fulfillment_process,
    )
    from repro.core.rules import invoice_match_rule_set

    pair = build_two_enterprise_pair(
        po_protocol, conditions=conditions, seed=seed, seller_delay=seller_delay
    )
    buyer, seller = pair.buyer, pair.seller

    seller.deploy_private_process(seller_fulfillment_process(owner=seller.name))
    seller.deploy_protocol(
        _get_protocol(fulfillment_protocol), "private-fulfillment-seller"
    )
    seller.model.partners.update_partner(
        seller.model.partners.get_partner(buyer.name).with_protocol(fulfillment_protocol)
    )
    seller.model.partners.add_agreement(
        TradingPartnerAgreement(
            buyer.name, fulfillment_protocol, "seller",
            doc_types=("ship_notice", "invoice"),
        )
    )

    buyer.deploy_private_process(buyer_goods_receipt_process(owner=buyer.name))
    buyer.deploy_protocol(
        _get_protocol(fulfillment_protocol), "private-goods-receipt"
    )
    buyer.model.partners.update_partner(
        buyer.model.partners.get_partner(seller.name).with_protocol(fulfillment_protocol)
    )
    buyer.model.partners.add_agreement(
        TradingPartnerAgreement(
            seller.name, fulfillment_protocol, "buyer",
            doc_types=("ship_notice", "invoice"),
        )
    )

    def expected_amount(po_number: str) -> float | None:
        """What the buyer believes it owes: the accepted amount of the
        acknowledgment stored in its own ERP."""
        ack = buyer.backends["SAP"].stored_acks.get(po_number)
        if ack is None:
            return None
        return float(ack.get("summary.summe"))

    buyer.add_rule_set(invoice_match_rule_set(expected_amount))
    if verify:
        buyer.model.verify(strict=True)
        seller.model.verify(strict=True)
    return pair


@dataclass
class SourcingCommunity:
    """One buyer broadcasting RFQs to several quoting sellers."""

    scheduler: EventScheduler
    network: SimulatedNetwork
    buyer: Enterprise
    sellers: dict[str, Enterprise]

    def enterprises(self) -> list[Enterprise]:
        return [self.buyer, *self.sellers.values()]

    @property
    def runtime(self):
        """The runtime kernel shared by every component of the community."""
        return self.network.runtime


def build_sourcing_community(
    seller_prices: dict[str, dict[str, float]],
    seed: int = 7,
    conditions: NetworkConditions | None = None,
    buyer_name: str = "TP1",
    verify: bool = False,
) -> SourcingCommunity:
    """Assemble the Section 2.3 RFQ scenario: one buyer, N quoting sellers.

    ``seller_prices`` maps seller id -> its private price catalog
    (sku -> unit price).  The buyer's quote-scoring rule and each seller's
    pricing rule are *body* rules — the competitive knowledge the paper
    says must never be shared.
    """
    from repro.core.private_process import (
        buyer_sourcing_process,
        seller_quotation_process,
    )
    from repro.core.rules import BusinessRule, RuleSet

    scheduler = EventScheduler()
    network = SimulatedNetwork(scheduler, conditions or NetworkConditions.perfect(), seed=seed)

    buyer = Enterprise(buyer_name, network)
    buyer.deploy_private_process(buyer_sourcing_process(owner=buyer_name))
    buyer.deploy_protocol(get_protocol("oagis-quotation"), "private-sourcing")

    def lowest_total(source: str, target: str, quote) -> float:
        """The buyer's secret scoring rule: cheaper is better."""
        return -float(quote.get("summary.total_amount"))

    lowest_total.__name__ = "score_lowest_total"
    buyer.add_rule_set(RuleSet("score_quote", [BusinessRule("lowest total", body=lowest_total)]))

    sellers: dict[str, Enterprise] = {}
    for seller_id, catalog in seller_prices.items():
        seller = Enterprise(seller_id, network)
        seller.deploy_private_process(seller_quotation_process(owner=seller_id))
        seller.deploy_protocol(get_protocol("oagis-quotation"), "private-quotation-seller")
        seller.add_partner(
            TradingPartner(buyer_name, protocols=("oagis-quotation",)),
            [
                TradingPartnerAgreement(
                    buyer_name, "oagis-quotation", "seller",
                    doc_types=("request_for_quote", "quote"),
                )
            ],
        )

        def price(source: str, target: str, rfq, _catalog=dict(catalog)) -> dict[str, float]:
            """The seller's secret price catalog."""
            return {
                line["sku"]: _catalog[line["sku"]]
                for line in rfq.get("lines")
                if line["sku"] in _catalog
            }

        price.__name__ = f"price_catalog_{seller_id}"
        seller.add_rule_set(RuleSet("price_catalog", [BusinessRule("catalog", body=price)]))

        buyer.add_partner(
            TradingPartner(seller_id, protocols=("oagis-quotation",)),
            [
                TradingPartnerAgreement(
                    seller_id, "oagis-quotation", "buyer",
                    doc_types=("request_for_quote", "quote"),
                )
            ],
        )
        sellers[seller_id] = seller

    if verify:
        for enterprise in (buyer, *sellers.values()):
            enterprise.model.verify(strict=True)
    return SourcingCommunity(scheduler, network, buyer, sellers)


@dataclass
class Fig15Community:
    """The Figure 15 deployment: a seller, three buyers, three protocols."""

    scheduler: EventScheduler
    network: SimulatedNetwork
    van: ValueAddedNetwork
    seller: Enterprise
    buyers: dict[str, Enterprise]

    def enterprises(self) -> list[Enterprise]:
        return [self.seller, *self.buyers.values()]

    @property
    def runtime(self):
        """The runtime kernel shared by every component of the community."""
        return self.network.runtime


# Figure 9/10 rule amounts: TP1/TP2 at 55 000 / 40 000, TP3 (the Figure 10
# addition) at 10 000.
FIG15_PARTNERS: dict[str, tuple[str, float, str]] = {
    "TP1": ("edi-van", 55000, "SAP"),
    "TP2": ("rosettanet", 40000, "Oracle"),
    "TP3": ("oagis-http", 10000, "SAP"),
}


def build_fig15_community(
    seed: int = 7,
    conditions: NetworkConditions | None = None,
    seller_delay: float = 0.5,
    partners: dict[str, tuple[str, float, str]] | None = None,
    verify: bool = False,
) -> Fig15Community:
    """Assemble the Figure 15 topology.

    ``partners`` maps partner id -> (protocol, approval threshold, target
    application); defaults to the paper's TP1/TP2/TP3.  Every buyer runs an
    SAP-like back end; the seller runs both an SAP-like and an Oracle-like
    back end, with routing decided by the external rule set.
    """
    partners = partners or dict(FIG15_PARTNERS)
    scheduler = EventScheduler()
    network = SimulatedNetwork(scheduler, conditions or NetworkConditions.perfect(), seed=seed)
    van = ValueAddedNetwork()

    seller = Enterprise("ACME", network, van=van)
    seller.deploy_private_process(seller_po_process(owner="ACME"))
    for protocol_name in sorted({spec[0] for spec in partners.values()}):
        seller.deploy_protocol(get_protocol(protocol_name), "private-po-seller")
    seller.add_backend(
        SapSimulator("SAP", scheduler=scheduler, processing_delay=seller_delay),
        "private-po-seller",
    )
    seller.add_backend(
        OracleSimulator("Oracle", scheduler=scheduler, processing_delay=seller_delay),
        "private-po-seller",
    )
    thresholds = {}
    routing = {}
    for partner_id, (protocol_name, threshold, application) in partners.items():
        seller.add_partner(
            TradingPartner(partner_id, protocols=(protocol_name,)),
            [TradingPartnerAgreement(partner_id, protocol_name, "seller")],
        )
        routing[partner_id] = application
        for app in ("SAP", "Oracle"):
            thresholds[(app, partner_id)] = threshold
    seller.add_rule_set(approval_rule_set(thresholds))
    seller.add_rule_set(routing_rule_set(routing))
    seller.worklist.set_auto_policy(lambda item: {"approved": True})

    buyers: dict[str, Enterprise] = {}
    for partner_id, (protocol_name, _, _) in partners.items():
        buyer = Enterprise(partner_id, network, van=van)
        buyer.deploy_private_process(buyer_po_process(owner=partner_id))
        buyer.deploy_protocol(get_protocol(protocol_name), "private-po-buyer")
        buyer.add_backend(SapSimulator("SAP", scheduler=scheduler), "private-po-buyer")
        buyer.add_partner(
            TradingPartner("ACME", protocols=(protocol_name,)),
            [TradingPartnerAgreement("ACME", protocol_name, "buyer")],
        )
        buyer.add_rule_set(approval_rule_set({("ACME", "SAP"): 10000}))
        buyer.worklist.set_auto_policy(lambda item: {"approved": True})
        buyers[partner_id] = buyer

    if verify:
        for enterprise in (seller, *buyers.values()):
            enterprise.model.verify(strict=True)
    return Fig15Community(scheduler, network, van, seller, buyers)


# ---------------------------------------------------------------------------
# Synthetic advanced models for the growth sweeps
# ---------------------------------------------------------------------------


def synthetic_protocol(name: str, wire_format: str) -> B2BProtocol:
    """A protocol descriptor for size sweeps (never transmitted)."""

    def _unusable(*_args):  # pragma: no cover - sweeps never serialize
        raise ConfigurationError(f"synthetic protocol {name} has no codec")

    return B2BProtocol(
        name=name,
        codec=WireCodec(wire_format, _unusable, _unusable),
        transport=TRANSPORT_PLAIN,
        buyer_process=lambda: buyer_request_reply(f"{name}/buyer", name, wire_format),
        seller_process=lambda: seller_request_reply(f"{name}/seller", name, wire_format),
    )


def _synthetic_mappings(format_name: str) -> list[Mapping]:
    """Representative expert mappings for a synthetic format.

    Sized after the real catalog (roughly a dozen field rules per mapping)
    so the sweep's mapping counts stay honest.
    """
    mappings = []
    for doc_type in ("purchase_order", "po_ack"):
        for source, target in ((format_name, "normalized"), ("normalized", format_name)):
            rules = [
                Field(f"header.field_{i}", f"header.mapped_{i}") for i in range(10)
            ]
            mappings.append(
                Mapping(
                    name=f"{source}__to__{target}/{doc_type}",
                    source_format=source,
                    target_format=target,
                    doc_type=doc_type,
                    rules=rules,
                )
            )
    return mappings


def advanced_synthetic_model(
    protocol_count: int, partner_count: int, backend_count: int
) -> IntegrationModel:
    """Build the advanced integration model for an arbitrary topology size.

    The first three protocols/back ends are the real ones (real mapping
    catalog); beyond that, synthetic protocols and formats with
    representative mappings keep the element counts comparable.
    """
    model = IntegrationModel(f"sweep-{protocol_count}x{partner_count}x{backend_count}")
    model.add_private_process(seller_po_process(owner=model.name))
    # Count only the mappings the deployment actually needs: 4 per deployed
    # format (2 doc kinds x 2 directions).  Loading the whole catalog would
    # make real formats look free in the growth curves.
    standard_by_format: dict[str, list[Mapping]] = {}
    for mapping in build_standard_registry().mappings():
        if mapping.doc_type not in ("purchase_order", "po_ack"):
            continue  # the sweep models the PO/POA exchange only
        foreign = (
            mapping.source_format
            if mapping.source_format != "normalized"
            else mapping.target_format
        )
        standard_by_format.setdefault(foreign, []).append(mapping)

    protocol_names: list[str] = []
    for index in range(protocol_count):
        if index < len(REAL_PROTOCOLS):
            protocol = get_protocol(REAL_PROTOCOLS[index])
            model.transforms.register_all(standard_by_format[protocol.wire_format])
        else:
            wire_format = f"wire-{index + 1}"
            protocol = synthetic_protocol(f"proto-{index + 1}", wire_format)
            model.transforms.register_all(_synthetic_mappings(wire_format))
        model.add_protocol(protocol, "private-po-seller")
        protocol_names.append(protocol.name)

    real_backends = (("SAP", "sap-idoc"), ("Oracle", "oracle-oif"))
    backend_names: list[str] = []
    for index in range(backend_count):
        if index < len(real_backends):
            name, native_format = real_backends[index]
            model.transforms.register_all(standard_by_format[native_format])
        else:
            name, native_format = f"app-{index + 1}", f"native-{index + 1}"
            model.transforms.register_all(_synthetic_mappings(native_format))
        model.add_application(name, native_format, "private-po-seller")
        backend_names.append(name)

    thresholds = {}
    routing = {}
    for index in range(1, partner_count + 1):
        partner_id = f"TP{index}"
        protocol_name = protocol_names[(index - 1) % len(protocol_names)]
        model.partners.add_partner(
            TradingPartner(partner_id, protocols=(protocol_name,))
        )
        model.partners.add_agreement(
            TradingPartnerAgreement(partner_id, protocol_name, "seller")
        )
        routing[partner_id] = backend_names[(index - 1) % len(backend_names)]
        for backend_name in backend_names:
            thresholds[(backend_name, partner_id)] = 10000.0 * index
    model.rules.register(approval_rule_set(thresholds))
    model.rules.register(routing_rule_set(routing))
    return model


def build_registry_model(agreements: int, seed: int = 7) -> IntegrationModel:
    """A deployment-scale model: one hub, ``agreements`` partner agreements.

    Every extended protocol is deployed once (the §4.6 advantage: adding a
    partner reuses the deployed public processes); each trading partner
    holds one agreement whose protocol, role and doc types are assigned
    deterministically from ``seed`` — the substrate for registry-scale
    verification and its benchmarks.  Same ``(agreements, seed)`` always
    builds a model with the same ``element_index()``.
    """
    import random

    from repro.b2b.protocol import extended_protocols

    rng = random.Random(seed)
    model = IntegrationModel(f"registry-{agreements}")
    model.transforms = build_standard_registry()
    model.add_private_process(seller_po_process(owner=model.name))
    protocols = extended_protocols()
    protocol_names = sorted(protocols)
    doc_types: dict[str, tuple[str, ...]] = {}
    for name in protocol_names:
        protocol = protocols[name]
        model.add_protocol(protocol, "private-po-seller")
        doc_types[name] = tuple(sorted(
            {step.doc_type for step in protocol.buyer_process().steps if step.doc_type}
        ))
    for index in range(1, agreements + 1):
        partner_id = f"TP{index}"
        protocol_name = rng.choice(protocol_names)
        our_role = rng.choice(("buyer", "seller"))
        model.partners.add_partner(
            TradingPartner(partner_id, protocols=(protocol_name,))
        )
        model.partners.add_agreement(
            TradingPartnerAgreement(
                partner_id, protocol_name, our_role,
                doc_types=doc_types[protocol_name],
            )
        )
    return model
