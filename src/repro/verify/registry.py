"""Registry-scale verification: lint every trading-partner agreement.

The paper's deployment story (§4.5–4.6) requires every pairwise agreement
to be statically checked before it goes live — not just the shipped
example models.  A new partner adds an agreement over an already
deployed public process, so all agreements over one protocol verify
against the same buyer/seller public-process pair: a sweep explores each
protocol at most once, however many thousands of agreements reference
it, instead of once per agreement.

The fabric pass runs the ordinary static checks once for the shared
infrastructure (workflows, mappings, bindings, routes, agreement
integrity — everything ``verify_model(deep=False)`` covers); the
per-agreement pass attaches the protocol's conversation diagnostics
(B2B5xx) under each agreement's location.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.verify.diagnostics import Diagnostic
from repro.verify.model_checks import verify_model
from repro.verify.statespace import (
    DEFAULT_MAX_STATES,
    DEFAULT_QUEUE_BOUND,
    ExplorationResult,
    explore_pair,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.integration import IntegrationModel

__all__ = ["SweepReport", "sweep_registry"]


@dataclass
class SweepReport:
    """Outcome of one registry sweep.

    ``explorations`` counts the conversation explorations run (shared per
    protocol, so it is bounded by the protocol count, not the agreement
    count).
    """

    agreements: int = 0
    explorations: int = 0
    states_explored: int = 0
    states_pruned: int = 0
    dataflow_routes: int = 0
    duration: float = 0.0
    fabric_diagnostics: list[Diagnostic] = field(default_factory=list)
    dataflow_diagnostics: list[Diagnostic] = field(default_factory=list)
    agreement_diagnostics: dict[str, list[Diagnostic]] = field(default_factory=dict)

    @property
    def diagnostics(self) -> list[Diagnostic]:
        """Fabric and dataflow diagnostics plus every agreement's, flattened."""
        merged = list(self.fabric_diagnostics)
        merged.extend(self.dataflow_diagnostics)
        for label in sorted(self.agreement_diagnostics):
            merged.extend(self.agreement_diagnostics[label])
        return merged

    @property
    def dirty(self) -> dict[str, list[Diagnostic]]:
        """Only the agreements that reported diagnostics."""
        return {
            label: diagnostics
            for label, diagnostics in self.agreement_diagnostics.items()
            if diagnostics
        }


def sweep_registry(
    model: "IntegrationModel",
    deep: bool = True,
    dataflow: bool = False,
    queue_bound: int | None = None,
    max_states: int | None = None,
    time_budget: float | None = None,
    reduce: bool = True,
) -> SweepReport:
    """Verify every agreement in ``model``'s partner directory.

    With ``dataflow=True`` the B2B7xx schema dataflow pass also runs once
    for the model: every mapping, every binding-chain route and every
    rule read, as ``verify_dataflow`` checks them.
    """
    from repro.verify.dataflow import verify_dataflow

    started = time.monotonic()
    options = {
        "queue_bound": queue_bound,
        "max_states": max_states,
        "time_budget": time_budget,
        "reduce": reduce,
    }
    report = SweepReport()
    report.fabric_diagnostics = verify_model(model, deep=False)

    if dataflow:
        stats: dict[str, Any] = {}
        prefix = f"model:{model.name}"
        report.dataflow_diagnostics = [
            replace(d, location=f"{prefix}/{d.location}")
            for d in verify_dataflow(model, stats)
        ]
        report.dataflow_routes = stats["dataflow_routes"]

    explored: dict[str, list[Diagnostic]] = {}
    for agreement in model.partners.agreements():
        label = f"agreement:{':'.join(agreement.key())}"
        report.agreements += 1
        diagnostics: list[Diagnostic] = []
        if deep:
            if agreement.protocol not in explored:
                explored[agreement.protocol] = _explore_protocol(
                    model, agreement.protocol, options, report
                )
            diagnostics = [
                replace(d, location=f"{label}/{d.location}")
                for d in explored[agreement.protocol]
            ]
        report.agreement_diagnostics[label] = diagnostics
    report.duration = time.monotonic() - started
    return report


def _explore_protocol(
    model: "IntegrationModel",
    protocol: str,
    options: dict[str, Any],
    report: SweepReport,
) -> list[Diagnostic]:
    """Explore one protocol's buyer/seller conversations, tallying stats."""
    by_role: dict[str, list[Any]] = {}
    for name in sorted(model.public_processes):
        definition = model.public_processes[name]
        if definition.protocol == protocol:
            by_role.setdefault(definition.role, []).append(definition)
    diagnostics: list[Diagnostic] = []
    for buyer in by_role.get("buyer", []):
        for seller in by_role.get("seller", []):
            location = (
                f"model:{model.name}/conversation:{protocol}/"
                f"{buyer.name}+{seller.name}"
            )
            result: ExplorationResult = explore_pair(
                buyer,
                seller,
                queue_bound=options["queue_bound"] or DEFAULT_QUEUE_BOUND,
                max_states=options["max_states"] or DEFAULT_MAX_STATES,
                time_budget=options["time_budget"],
                location=location,
                reduce=options["reduce"],
            )
            report.explorations += 1
            report.states_explored += result.states_explored
            report.states_pruned += result.states_pruned
            diagnostics.extend(result.diagnostics)
    return diagnostics
