"""repro — Semantic B2B integration with public/private processes.

A complete reproduction of Bussler's *Semantic B2B Integration* /
*"The Application of Workflow Technology in Semantic B2B Integration"*
(SIGMOD 2001 / Distributed and Parallel Databases 12, 2002): a from-scratch
workflow management system, a simulated network with RNIF-style reliable
messaging, five business-document formats with a declarative transformation
catalog, SAP-like and Oracle-like ERP simulators, the paper's advanced
architecture (public processes, bindings, private processes, external
business rules), and the rejected baseline architectures for comparison.

Quickstart::

    from repro import build_two_enterprise_pair, run_community

    pair = build_two_enterprise_pair("rosettanet")
    instance_id = pair.buyer.submit_order(
        "SAP", "ACME", "PO-1001",
        [{"sku": "LAPTOP-15", "quantity": 10, "unit_price": 1200.0}],
    )
    run_community(pair.enterprises())
    assert pair.buyer.instance(instance_id).status == "completed"

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.errors import ReproError
from repro.sim import Clock, EventScheduler
from repro.runtime import (
    EventBus,
    Kernel,
    MetricsObserver,
    RunQueue,
    RuntimeEvent,
    TraceRecorder,
)
from repro.documents.model import Document
from repro.documents.normalized import make_po_ack, make_purchase_order
from repro.transform import TransformationRegistry, build_standard_registry
from repro.messaging import (
    Message,
    NetworkConditions,
    ReliableEndpoint,
    RetryPolicy,
    SimulatedNetwork,
    ValueAddedNetwork,
)
from repro.workflow import WorkflowBuilder, WorkflowEngine, WorkflowType
from repro.partners import PartnerDirectory, TradingPartner, TradingPartnerAgreement
from repro.backend import OracleSimulator, SapSimulator
from repro.core import (
    B2BEngine,
    Binding,
    BusinessRule,
    Enterprise,
    IntegrationModel,
    PublicProcessDefinition,
    RuleEngine,
    RuleSet,
    approval_rule_set,
    diff_models,
    measure_model,
    measure_workflow_type,
)
from repro.core.enterprise import DocumentArchive, run_community
from repro.core.private_process import (
    buyer_goods_receipt_process,
    buyer_po_process,
    buyer_sourcing_process,
    seller_fulfillment_process,
    seller_po_process,
    seller_quotation_process,
)
from repro.b2b import get_protocol, standard_protocols
from repro.b2b.protocol import extended_protocols
from repro.analysis import build_fig15_community, build_two_enterprise_pair
from repro.analysis.scenarios import build_order_to_cash_pair, build_sourcing_community

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "Clock",
    "EventScheduler",
    "EventBus",
    "Kernel",
    "MetricsObserver",
    "RunQueue",
    "RuntimeEvent",
    "TraceRecorder",
    "Document",
    "make_purchase_order",
    "make_po_ack",
    "TransformationRegistry",
    "build_standard_registry",
    "Message",
    "NetworkConditions",
    "SimulatedNetwork",
    "ValueAddedNetwork",
    "ReliableEndpoint",
    "RetryPolicy",
    "WorkflowBuilder",
    "WorkflowEngine",
    "WorkflowType",
    "TradingPartner",
    "TradingPartnerAgreement",
    "PartnerDirectory",
    "SapSimulator",
    "OracleSimulator",
    "BusinessRule",
    "RuleSet",
    "RuleEngine",
    "approval_rule_set",
    "PublicProcessDefinition",
    "Binding",
    "IntegrationModel",
    "B2BEngine",
    "Enterprise",
    "run_community",
    "buyer_po_process",
    "seller_po_process",
    "buyer_goods_receipt_process",
    "buyer_sourcing_process",
    "seller_fulfillment_process",
    "seller_quotation_process",
    "DocumentArchive",
    "extended_protocols",
    "build_order_to_cash_pair",
    "build_sourcing_community",
    "measure_model",
    "measure_workflow_type",
    "diff_models",
    "get_protocol",
    "standard_protocols",
    "build_two_enterprise_pair",
    "build_fig15_community",
]
