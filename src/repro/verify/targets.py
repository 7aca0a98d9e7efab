"""Named lint targets: every model the analysis layer can build.

``repro lint`` and the CI model-lint job iterate these so a regression in
any scenario builder, the mapping catalog, or the standard protocol
registry surfaces as a diagnostic instead of a runtime failure three
layers deep.  Each builder returns ``{label: unit}`` where a unit is an
``IntegrationModel`` (or, for the naive baseline, a bare workflow type);
:func:`lint_all` verifies every unit with :func:`verify_unit`, which
records each unit's diagnostics, time and state counts in a
:class:`ModelReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.verify.diagnostics import Diagnostic

__all__ = [
    "ModelReport",
    "verify_unit",
    "lint_targets",
    "lint_units",
    "lint_all",
    "build_broken_model",
    "build_deadlock_model",
    "build_dataflow_broken_model",
]


@dataclass
class ModelReport:
    """One unit's verification outcome and what it cost."""

    label: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    duration: float = 0.0
    states_explored: int = 0
    states_pruned: int = 0
    dataflow_routes: int = 0


def verify_unit(
    label: str, target: Any, verify_options: Mapping[str, Any] | None = None
) -> ModelReport:
    """Verify one unit (model or bare workflow) and time it."""
    options = dict(verify_options or {})
    started = time.monotonic()
    stats: dict[str, Any] = {}
    if hasattr(target, "transforms"):
        diagnostics = target.verify(stats=stats, **options)
    else:
        from repro.verify.workflow_checks import verify_workflow

        # A bare workflow has no conversations to explore or routes to
        # dataflow-check; only the deep flag is meaningful (it enables
        # the B2B6xx race analysis).
        diagnostics = verify_workflow(target, deep=bool(options.get("deep")))
    return ModelReport(
        label=label,
        diagnostics=diagnostics,
        duration=time.monotonic() - started,
        states_explored=int(stats.get("states_explored", 0)),
        states_pruned=int(stats.get("states_pruned", 0)),
        dataflow_routes=int(stats.get("dataflow_routes", 0)),
    )


Builder = Callable[[], dict[str, Any]]


def _pair_units(protocol: str) -> dict[str, Any]:
    from repro.analysis.scenarios import build_two_enterprise_pair

    pair = build_two_enterprise_pair(protocol)
    return {
        f"pair-{protocol}/{enterprise.name}": enterprise.model
        for enterprise in pair.enterprises()
    }


def _order_to_cash_units() -> dict[str, Any]:
    from repro.analysis.scenarios import build_order_to_cash_pair

    pair = build_order_to_cash_pair()
    return {
        f"order-to-cash/{enterprise.name}": enterprise.model
        for enterprise in pair.enterprises()
    }


def _sourcing_units() -> dict[str, Any]:
    from repro.analysis.scenarios import build_sourcing_community

    community = build_sourcing_community(
        {"S1": {"widget": 5.0}, "S2": {"widget": 4.5}}
    )
    return {
        f"sourcing/{enterprise.name}": enterprise.model
        for enterprise in community.enterprises()
    }


def _fig15_units() -> dict[str, Any]:
    from repro.analysis.scenarios import build_fig15_community

    community = build_fig15_community()
    return {
        f"fig15/{enterprise.name}": enterprise.model
        for enterprise in community.enterprises()
    }


def _fig14_units() -> dict[str, Any]:
    from repro.analysis.change_impact import build_fig14_model

    return {"fig14": build_fig14_model()}


def _sweep_units() -> dict[str, Any]:
    from repro.analysis.scenarios import advanced_synthetic_model

    model = advanced_synthetic_model(4, 4, 3)
    return {f"sweep/{model.name}": model}


def _naive_seller_units() -> dict[str, Any]:
    from repro.baselines.monolithic import NaiveTopology, build_naive_seller_type

    return {"naive-seller": build_naive_seller_type(NaiveTopology.figure9())}


def lint_targets() -> dict[str, Builder]:
    """The registry of named lint targets (each builds ``{label: unit}``)."""
    return {
        "pair-edi-van": lambda: _pair_units("edi-van"),
        "pair-rosettanet": lambda: _pair_units("rosettanet"),
        "pair-oagis-http": lambda: _pair_units("oagis-http"),
        "pair-rosettanet-ra": lambda: _pair_units("rosettanet-ra"),
        "order-to-cash": _order_to_cash_units,
        "sourcing": _sourcing_units,
        "fig15": _fig15_units,
        "fig14": _fig14_units,
        "sweep": _sweep_units,
        "naive-seller": _naive_seller_units,
    }


def lint_units(only: str | None = None) -> dict[str, Any]:
    """Build all (or one) named targets' verification units.

    :param only: restrict to the target with this name.
    """
    targets = lint_targets()
    if only is not None:
        if only not in targets:
            raise KeyError(
                f"unknown lint target {only!r}; known: {sorted(targets)}"
            )
        targets = {only: targets[only]}
    units: dict[str, Any] = {}
    for builder in targets.values():
        units.update(builder())
    return units


def lint_all(
    only: str | None = None,
    reports: dict[str, ModelReport] | None = None,
    **verify_options: Any,
) -> dict[str, list[Diagnostic]]:
    """Verify all (or one) named lint targets; returns ``{label: diagnostics}``.

    :param only: restrict to the target with this name.
    :param reports: optional dict filled with each unit's
        :class:`ModelReport` (timing, explored/pruned state counts).
    :param verify_options: forwarded to every model's ``verify()`` —
        ``deep=True`` plus the ``queue_bound``/``max_states``/
        ``time_budget``/``reduce`` exploration controls.
    """
    results: dict[str, list[Diagnostic]] = {}
    for label, unit in lint_units(only).items():
        report = verify_unit(label, unit, verify_options)
        results[label] = report.diagnostics
        if reports is not None:
            reports[label] = report
    return results


def build_broken_model():
    """A deliberately broken model for demonstrating the verifier.

    Contains (at least) an undeclared condition variable (B2B201), a
    binding chain whose transform has no route (B2B301), and an XOR
    fan-out without an otherwise arc (B2B103) — three distinct failure
    families the verifier must catch.
    """
    from repro.core.binding import Binding, BindingStep
    from repro.core.integration import IntegrationModel
    from repro.core.public_process import seller_request_reply
    from repro.transform.catalog import build_standard_registry
    from repro.workflow.definitions import WorkflowBuilder

    workflow = (
        WorkflowBuilder("broken-seller")
        .activity("receive", "receive_po", outputs={"document": "document"})
        .activity("approve", "approve_po")
        .activity("reject", "reject_po")
        .activity("store", "store_po")
        # B2B201: 'approval_flag' is never declared nor bound as an output
        .link("receive", "approve", condition="approval_flag == True")
        # B2B103: the XOR fan-out has no otherwise and is not exhaustive
        .link("receive", "reject", condition="document.amount > 100000")
        .link("approve", "store")
        .link("reject", "store")
        .meta(doc_types=["purchase_order"])
        .build()
    )
    model = IntegrationModel("broken-demo")
    model.transforms = build_standard_registry()
    model.add_private_process(workflow)
    definition = seller_request_reply(
        "broken-public", protocol="rosettanet", wire_format="rosettanet-xml"
    )
    model.public_processes[definition.name] = definition
    # B2B301: the inbound chain targets a format the registry cannot
    # reach from rosettanet-xml for purchase orders
    binding = Binding(
        name="broken-binding",
        public_process=definition.name,
        private_process=workflow.name,
        inbound=[BindingStep("to_nowhere", "transform", target_format="csv-flat")],
        outbound=[BindingStep("to_wire", "transform", target_format="rosettanet-xml")],
    )
    model.bindings[binding.name] = binding
    return model


def build_dataflow_broken_model():
    """A deliberately mis-typed route for demonstrating ``--dataflow``.

    One binding chain composes two independently authored mappings whose
    intermediate schemas disagree.  The first mapping writes a numeric
    currency code where its own target schema declares a string (B2B701,
    with a counterexample document) and narrows a float total into a
    string field without a declared transform (B2B703); the second
    mapping's source schema requires a reference field the first mapping
    never writes and expects the currency as a string (B2B705 twice), so
    its reference-copying rule is dead on this route (B2B704).
    """
    from repro.core.binding import Binding, BindingStep
    from repro.core.integration import IntegrationModel
    from repro.core.public_process import seller_request_reply
    from repro.documents.schema import DocumentSchema, FieldSpec
    from repro.transform.mapping import Const, Field, Mapping
    from repro.transform.transformer import TransformationRegistry
    from repro.workflow.definitions import WorkflowBuilder

    wire_schema = DocumentSchema(
        "legacy-wire/purchase_order",
        format_name="legacy-wire",
        doc_type="purchase_order",
        fields=[
            FieldSpec("header.po_number", "str"),
            FieldSpec("header.currency", "str"),
            FieldSpec("summary.total", "float"),
        ],
    )
    # The hub schema as the *first* mapping's author understood it.
    hub_schema = DocumentSchema(
        "broken-hub/purchase_order",
        format_name="broken-hub",
        doc_type="purchase_order",
        fields=[
            FieldSpec("po.number", "str"),
            FieldSpec("po.currency", "str"),
            FieldSpec("po.amount", "float"),
            FieldSpec("po.total_code", "str"),
        ],
    )
    # The hub schema as the *second* mapping's author understood it:
    # it additionally requires ``po.reference``.
    hub_schema_v2 = DocumentSchema(
        "broken-hub/purchase_order",
        format_name="broken-hub",
        doc_type="purchase_order",
        fields=[
            FieldSpec("po.number", "str"),
            FieldSpec("po.currency", "str"),
            FieldSpec("po.amount", "float"),
            FieldSpec("po.total_code", "str"),
            FieldSpec("po.reference", "str"),
        ],
    )
    app_schema = DocumentSchema(
        "app-flat/purchase_order",
        format_name="app-flat",
        doc_type="purchase_order",
        fields=[
            FieldSpec("record.id", "str"),
            FieldSpec("record.ref", "str", required=False),
        ],
    )
    to_hub = Mapping(
        name="legacy-wire__to__broken-hub/purchase_order",
        source_format="legacy-wire",
        target_format="broken-hub",
        doc_type="purchase_order",
        rules=[
            Field("header.po_number", "po.number"),
            # B2B701: a numeric currency code where the schema says str
            Const("po.currency", 840),
            Field("summary.total", "po.amount"),
            # B2B703: float -> str narrowing without a declared transform
            Field("summary.total", "po.total_code"),
        ],
        source_schema=wire_schema,
        target_schema=hub_schema,
    )
    to_app = Mapping(
        name="broken-hub__to__app-flat/purchase_order",
        source_format="broken-hub",
        target_format="app-flat",
        doc_type="purchase_order",
        rules=[
            Field("po.number", "record.id"),
            # B2B704 on this route: the upstream mapping never writes it
            Field("po.reference", "record.ref", required=False),
        ],
        source_schema=hub_schema_v2,
        target_schema=app_schema,
    )
    ack_out = Mapping(
        name="broken-hub__to__legacy-wire/po_ack",
        source_format="broken-hub",
        target_format="legacy-wire",
        doc_type="po_ack",
        rules=[Field("po.number", "header.po_number")],
    )
    registry = TransformationRegistry(hub_format="broken-hub")
    registry.register(to_hub)
    registry.register(to_app)
    registry.register(ack_out)

    workflow = (
        WorkflowBuilder("dataflow-seller")
        .activity("receive", "receive_po", outputs={"document": "document"})
        .activity("store", "store_po")
        .link("receive", "store")
        .meta(doc_types=["purchase_order"])
        .build()
    )
    model = IntegrationModel("dataflow-broken-demo")
    model.transforms = registry
    model.add_private_process(workflow)
    definition = seller_request_reply(
        "dataflow-public", protocol="rosettanet", wire_format="legacy-wire"
    )
    model.public_processes[definition.name] = definition
    binding = Binding(
        name="dataflow-binding",
        public_process=definition.name,
        private_process=workflow.name,
        inbound=[
            BindingStep("to_hub", "transform", target_format="broken-hub"),
            BindingStep("to_app", "transform", target_format="app-flat"),
        ],
        outbound=[
            BindingStep("to_wire", "transform", target_format="legacy-wire"),
        ],
    )
    model.bindings[binding.name] = binding
    return model


def build_deadlock_model():
    """A deliberately deadlocking agreement for demonstrating ``--deep``.

    The buyer sends the purchase order and then waits for the invoice;
    the seller holds the invoice back until it also receives shipping
    terms the buyer never sends.  ``add_protocol`` would reject the pair
    as non-complementary (that mirror check is exactly why deployed
    protocols cannot do this), so the definitions are inserted into the
    model directly — the situation the conversation checker exists for:
    two *independently authored* public processes that each look fine
    alone but cannot finish a conversation together.

    Deep verification reports B2B501 (deadlock) with the message-sequence
    chart of the shortest run into the stuck state.
    """
    from repro.core.integration import IntegrationModel
    from repro.core.public_process import PublicProcessDefinition, PublicStep

    buyer = PublicProcessDefinition(
        name="deadlock-buyer",
        protocol="deadlock-handshake",
        role="buyer",
        wire_format="rosettanet-xml",
        steps=[
            PublicStep("send_po", "send", doc_type="purchase_order"),
            PublicStep("receive_invoice", "receive", doc_type="invoice"),
            PublicStep("store_invoice", "to_binding", doc_type="invoice"),
        ],
    )
    seller = PublicProcessDefinition(
        name="deadlock-seller",
        protocol="deadlock-handshake",
        role="seller",
        wire_format="rosettanet-xml",
        steps=[
            PublicStep("receive_po", "receive", doc_type="purchase_order"),
            PublicStep("receive_terms", "receive", doc_type="shipping_terms"),
            PublicStep("fetch_invoice", "from_binding", doc_type="invoice"),
            PublicStep("send_invoice", "send", doc_type="invoice"),
        ],
    )
    model = IntegrationModel("deadlock-demo")
    model.public_processes[buyer.name] = buyer
    model.public_processes[seller.name] = seller
    return model
