"""Deployment-time static verification of integration models.

The paper's central argument is that B2B integration concepts must be
first-class so that tooling can analyze them *before* any message flows
(Section 5.2 lists analysis as a core benefit of explicit semantics).
This package is that tooling: it lints workflow types, bindings, mappings,
public processes, or a whole :class:`~repro.core.integration.IntegrationModel`
without executing anything, and reports findings as stable-coded
:class:`Diagnostic` records.

Code families::

    B2B1xx  workflow graph        (unreachable steps, dead/constant arcs,
                                   non-exhaustive XOR fan-outs)
    B2B2xx  expressions           (undeclared variables, unknown doc paths)
    B2B3xx  bindings & transform  (broken chains, dangling references,
                                   uncovered schema fields)
    B2B4xx  whole model           (unrouted protocols, orphaned processes,
                                   agreement integrity)
    B2B5xx  conversations         (deadlock, unspecified reception, queue
                                   overflow, orphan messages, no terminal
                                   state — see :mod:`repro.verify.statespace`)
    B2B6xx  parallel races        (write/write and read/write conflicts in
                                   AND-parallel branches — see
                                   :mod:`repro.verify.race_checks`)
    B2B7xx  schema dataflow       (wrong output types, unwritten required
                                   fields, lossy conversions, dead rules,
                                   disagreeing intermediate schemas,
                                   provably-absent reads, unanalyzable
                                   computes — see :mod:`repro.verify.dataflow`
                                   and :mod:`repro.verify.effects`)

Entry points: ``repro lint`` on the CLI (``--deep`` enables the B2B5xx
conversation exploration and B2B6xx race analysis; ``--dataflow`` the
B2B7xx schema dataflow pass), ``IntegrationModel.verify()``
programmatically, and the scenario builders' ``verify=True`` opt-in.
Conversations are explored once per deployed protocol, not once per
agreement, so ``repro lint --registry N`` lints a generated registry of
N agreements as one ordinary model.
"""

from repro.verify.binding_checks import (
    verify_binding,
    verify_mapping,
    verify_public_process,
)
from repro.verify.dataflow import (
    AbstractDocument,
    FieldState,
    RouteSpec,
    counterexample_document,
    iter_binding_routes,
    lower_schema,
    verify_dataflow,
)
from repro.verify.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    Diagnostic,
    at_or_above,
    count_by_severity,
    render_text,
    worst_severity,
)
from repro.verify.effects import (
    FunctionEffects,
    analyze_function,
)
from repro.verify.model_checks import verify_model
from repro.verify.race_checks import concurrent_step_pairs, verify_workflow_races
from repro.verify.statespace import (
    DEFAULT_MAX_STATES,
    DEFAULT_QUEUE_BOUND,
    ExplorationResult,
    explore_pair,
    render_msc,
    verify_conversations,
)
from repro.verify.targets import ModelReport, verify_unit
from repro.verify.workflow_checks import verify_workflow

__all__ = [
    "Diagnostic",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SEVERITY_INFO",
    "at_or_above",
    "count_by_severity",
    "render_text",
    "worst_severity",
    "verify_workflow",
    "verify_binding",
    "verify_mapping",
    "verify_public_process",
    "verify_model",
    "DEFAULT_MAX_STATES",
    "DEFAULT_QUEUE_BOUND",
    "ExplorationResult",
    "explore_pair",
    "render_msc",
    "verify_conversations",
    "concurrent_step_pairs",
    "verify_workflow_races",
    "ModelReport",
    "verify_unit",
    "AbstractDocument",
    "FieldState",
    "RouteSpec",
    "counterexample_document",
    "iter_binding_routes",
    "lower_schema",
    "verify_dataflow",
    "FunctionEffects",
    "analyze_function",
]
