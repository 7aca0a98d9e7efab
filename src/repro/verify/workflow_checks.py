"""Graph and expression checks over a :class:`WorkflowType` (B2B1xx/B2B2xx).

The workflow constructor already rejects structural nonsense (cycles,
unknown steps, bad otherwise arcs); these checks find models that are
*valid but wrong* — steps no token can reach, XOR fan-outs that can strand
a token, conditions that constant-fold to a fixed truth value, and
expressions referencing variables or document fields that do not exist.

Reachability is computed over the **live** graph: transitions whose
condition constant-folds to ``False`` are removed first, so a step that is
only reachable through a dead edge is correctly reported as unreachable.
"""

from __future__ import annotations

from repro.documents.schema import DocumentSchema
from repro.errors import ReproError
from repro.verify.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Diagnostic,
)
from repro.workflow.definitions import LoopStep, Transition, WorkflowType
from repro.workflow.expressions import Expression

__all__ = ["verify_workflow"]


def verify_workflow(
    workflow: WorkflowType,
    schemas: dict[str, DocumentSchema] | None = None,
    location_prefix: str = "",
    deep: bool = False,
) -> list[Diagnostic]:
    """Statically lint ``workflow``; returns the diagnostics found.

    :param schemas: optional map of *variable name* -> the document schema
        its value is expected to satisfy; dotted paths rooted at these
        variables are checked against the schema (B2B202).  When omitted,
        schemas are derived from the workflow's ``doc_types`` metadata for
        the conventional document variables (``document``, ``ack``, ...).
    :param location_prefix: prepended to every diagnostic location (used
        by :func:`repro.verify.verify_model` to point into the model).
    :param deep: also run the AND-parallel race analysis (B2B6xx, see
        :mod:`repro.verify.race_checks`).
    """
    prefix = location_prefix or f"workflow:{workflow.name}"
    diagnostics: list[Diagnostic] = []
    dead, always_true = _fold_transitions(workflow, prefix, diagnostics)
    _check_reachability(workflow, dead, prefix, diagnostics)
    _check_fanouts(workflow, dead, always_true, prefix, diagnostics)
    _check_expressions(workflow, schemas, prefix, diagnostics)
    if deep:
        from repro.verify.race_checks import verify_workflow_races

        diagnostics.extend(verify_workflow_races(workflow, location_prefix=prefix))
    return diagnostics


# ---------------------------------------------------------------------------
# B2B104 / B2B105: constant conditions
# ---------------------------------------------------------------------------


def _fold_transitions(
    workflow: WorkflowType, prefix: str, diagnostics: list[Diagnostic]
) -> tuple[set[int], set[int]]:
    """Constant-fold every transition condition.

    Returns the index sets of dead (always-False) and always-True arcs,
    appending B2B104/B2B105 diagnostics along the way.
    """
    dead: set[int] = set()
    always_true: set[int] = set()
    for index, arc in enumerate(workflow.transitions):
        if arc.condition is None:
            continue
        folded = Expression(arc.condition).fold_constant()
        if folded is None:
            continue
        location = f"{prefix}/transition[{index}]"
        label = f"{arc.source} -> {arc.target}"
        if not folded[0]:
            dead.add(index)
            diagnostics.append(
                Diagnostic(
                    "B2B104",
                    SEVERITY_ERROR,
                    location,
                    f"condition {arc.condition!r} on {label} constant-folds "
                    "to False: the transition can never fire",
                    hint="remove the dead transition or fix its condition",
                )
            )
        else:
            always_true.add(index)
            siblings = [
                other
                for other in workflow.outgoing(arc.source)
                if other is not arc and (other.condition is not None or other.otherwise)
            ]
            shadow = (
                "; the otherwise/conditioned siblings it shadows can decide nothing"
                if siblings
                else ""
            )
            diagnostics.append(
                Diagnostic(
                    "B2B105",
                    SEVERITY_WARNING,
                    location,
                    f"condition {arc.condition!r} on {label} constant-folds "
                    f"to True{shadow}",
                    hint="make the transition unconditional or fix the condition",
                )
            )
    return dead, always_true


# ---------------------------------------------------------------------------
# B2B101 / B2B102: reachability over the live graph
# ---------------------------------------------------------------------------


def _live_outgoing(
    workflow: WorkflowType, dead: set[int]
) -> dict[str, list[Transition]]:
    dead_arcs = {id(workflow.transitions[index]) for index in dead}
    return {
        step_id: [arc for arc in workflow.outgoing(step_id) if id(arc) not in dead_arcs]
        for step_id in workflow.steps
    }


def _check_reachability(
    workflow: WorkflowType,
    dead: set[int],
    prefix: str,
    diagnostics: list[Diagnostic],
) -> None:
    live = _live_outgoing(workflow, dead)
    reachable: set[str] = set()
    frontier = [step.step_id for step in workflow.start_steps()]
    while frontier:
        step_id = frontier.pop()
        if step_id in reachable:
            continue
        reachable.add(step_id)
        frontier.extend(arc.target for arc in live[step_id])
    for step_id in workflow.steps:
        if step_id not in reachable:
            diagnostics.append(
                Diagnostic(
                    "B2B101",
                    SEVERITY_ERROR,
                    f"{prefix}/step:{step_id}",
                    "step is unreachable from every start step "
                    "(over the graph with dead edges removed)",
                    hint="add a live transition into the step or delete it",
                )
            )
    # A step whose outgoing arcs all died became an unintended sink: the
    # token stalls there instead of continuing to a real terminal step.
    for step_id in workflow.steps:
        if workflow.outgoing(step_id) and not live[step_id]:
            diagnostics.append(
                Diagnostic(
                    "B2B102",
                    SEVERITY_ERROR,
                    f"{prefix}/step:{step_id}",
                    "every outgoing transition is dead: the flow has no "
                    "path from this step to a terminal step",
                    hint="fix or remove the constant-False conditions downstream",
                )
            )


# ---------------------------------------------------------------------------
# B2B103: XOR fan-outs that cannot be proven exhaustive
# ---------------------------------------------------------------------------


def _check_fanouts(
    workflow: WorkflowType,
    dead: set[int],
    always_true: set[int],
    prefix: str,
    diagnostics: list[Diagnostic],
) -> None:
    true_arcs = {id(workflow.transitions[index]) for index in always_true}
    dead_arcs = {id(workflow.transitions[index]) for index in dead}
    for step_id in workflow.steps:
        arcs = workflow.outgoing(step_id)
        conditioned = [
            arc
            for arc in arcs
            if arc.condition is not None and id(arc) not in dead_arcs
        ]
        if not conditioned:
            continue
        has_otherwise = any(arc.otherwise for arc in arcs)
        has_unconditional = any(
            arc.condition is None and not arc.otherwise for arc in arcs
        )
        provably_exhaustive = any(id(arc) in true_arcs for arc in conditioned)
        if has_otherwise or has_unconditional or provably_exhaustive:
            continue
        conditions = ", ".join(repr(arc.condition) for arc in conditioned)
        diagnostics.append(
            Diagnostic(
                "B2B103",
                SEVERITY_WARNING,
                f"{prefix}/step:{step_id}",
                f"XOR fan-out ({conditions}) cannot be proven exhaustive "
                "and has no otherwise transition: a token may strand here",
                hint="add an otherwise transition as the default branch",
            )
        )


# ---------------------------------------------------------------------------
# B2B201 / B2B202: expression references
# ---------------------------------------------------------------------------

# Variables that conventionally hold normalized documents in the private
# processes (see core.private_process); used to derive schemas when the
# caller supplies none.
_DOCUMENT_VARIABLES = ("document", "ack", "invoice", "rfq", "quote", "asn")


def _declared_variables(workflow: WorkflowType) -> set[str]:
    declared = set(workflow.variables)
    for step in workflow.steps.values():
        declared.update(getattr(step, "outputs", {}))
    return declared


def _default_schemas(workflow: WorkflowType) -> dict[str, list[DocumentSchema]]:
    doc_types = workflow.metadata.get("doc_types") or []
    if not doc_types:
        return {}
    from repro.documents.normalized import schema_for

    schemas: list[DocumentSchema] = []
    for doc_type in doc_types:
        try:
            schemas.append(schema_for(doc_type))
        except ReproError:
            continue
    if not schemas:
        return {}
    return {variable: schemas for variable in _DOCUMENT_VARIABLES}


def _expression_sites(workflow: WorkflowType) -> list[tuple[str, Expression]]:
    sites: list[tuple[str, Expression]] = []
    prefix_steps = [(f"step:{step.step_id}", step) for step in workflow.steps.values()]
    for location, step in prefix_steps:
        for input_name, text in getattr(step, "inputs", {}).items():
            sites.append((f"{location}/input:{input_name}", Expression(text)))
        if isinstance(step, LoopStep):
            sites.append((f"{location}/condition", Expression(step.condition)))
    for index, arc in enumerate(workflow.transitions):
        if arc.condition is not None:
            sites.append((f"transition[{index}]", Expression(arc.condition)))
    return sites


def _path_in_schema(path: str, schema: DocumentSchema) -> bool:
    """Whether a dotted path (relative to the document root) can resolve
    against ``schema``, honouring the expression evaluator's access rules:
    the ``amount`` alias and the bare-key -> ``header.<key>`` fallback."""
    candidates = [path]
    head, _, rest = path.partition(".")
    if head == "amount" and not rest:
        candidates += ["summary.total_amount", "summary.accepted_amount"]
    candidates.append(f"header.{path}")
    declared = {spec.path: spec for spec in schema.fields}
    for candidate in candidates:
        for declared_path, spec in declared.items():
            if candidate == declared_path:
                return True
            # accessing below a declared dict/list container is fine
            if candidate.startswith(declared_path + ".") and spec.type_name in (
                "dict",
                "list",
            ):
                return True
            if candidate.startswith(declared_path + "[") and spec.type_name == "list":
                return True
            # accessing a declared path's ancestor (a sub-document) is fine
            if declared_path.startswith(candidate + "."):
                return True
    return False


def _check_expressions(
    workflow: WorkflowType,
    schemas: dict[str, DocumentSchema] | None,
    prefix: str,
    diagnostics: list[Diagnostic],
) -> None:
    declared = _declared_variables(workflow)
    if schemas is None:
        schema_map: dict[str, list[DocumentSchema]] = _default_schemas(workflow)
    else:
        schema_map = {name: [schema] for name, schema in schemas.items()}
    for location, expression in _expression_sites(workflow):
        for name in sorted(expression.variables_used() - declared):
            diagnostics.append(
                Diagnostic(
                    "B2B201",
                    SEVERITY_ERROR,
                    f"{prefix}/{location}",
                    f"expression {expression.text!r} references variable "
                    f"{name!r}, which is neither declared via "
                    "WorkflowBuilder.variable() nor bound as a step output",
                    hint="declare the variable or bind it as an output first",
                )
            )
        for dotted in sorted(expression.paths()):
            root, _, rest = dotted.partition(".")
            if not rest or root not in schema_map:
                continue
            rest = rest.split("[", 1)[0]  # schemas do not constrain indexes
            if any(_path_in_schema(rest, schema) for schema in schema_map[root]):
                continue
            names = ", ".join(schema.name for schema in schema_map[root])
            diagnostics.append(
                Diagnostic(
                    "B2B202",
                    SEVERITY_WARNING,
                    f"{prefix}/{location}",
                    f"document path {dotted!r} is absent from the relevant "
                    f"schema(s): {names}",
                    hint="fix the path or extend the document schema",
                )
            )
