"""Parallel-branch race detection over workflow types (B2B6xx).

A step with two or more *unconditioned* outgoing transitions fans tokens
out into AND-parallel branches (see :mod:`repro.workflow.definitions`);
the branches run concurrently until the matching AND-join.  Instance
variables are the data-flow medium, so two concurrently-enabled steps that
touch the same variable race: the final value (write/write) or the value
observed (read/write) depends on scheduling — exactly the class of defect
that only shows up under load, and exactly what deployment-time analysis
should catch instead.

Codes::

    B2B601  write/write   two concurrent steps both write a variable
    B2B602  read/write    one concurrent branch writes a variable another
                          branch reads (directly or through a document path)

Concurrency is decided structurally on the acyclic step graph: steps X
and Y can hold tokens simultaneously iff some fork reaches them through
*different* unconditioned arcs and neither is a graph descendant of the
other (the AND-join and everything after it is a descendant of both
branches, so post-join steps are never flagged).  Conditioned (XOR)
siblings are deliberately excluded — their exclusivity is the modeler's
intent, and flagging them would drown real races in noise.

Reads come from :meth:`Expression.names` / :meth:`Expression.paths` over
activity inputs, loop conditions and outgoing transition conditions;
writes come from the steps' output declarations.
"""

from __future__ import annotations

from repro.verify.diagnostics import SEVERITY_WARNING, Diagnostic
from repro.workflow.definitions import LoopStep, Step, WorkflowType
from repro.workflow.expressions import Expression

__all__ = ["verify_workflow_races", "concurrent_step_pairs"]


def concurrent_step_pairs(workflow: WorkflowType) -> list[tuple[str, str, str]]:
    """All structurally concurrent step pairs of ``workflow``.

    Returns ``(fork_step_id, step_a, step_b)`` triples with ``step_a <
    step_b``, sorted, one triple per pair (the first fork in sorted order
    wins when several forks make the same pair concurrent).
    """
    descendants = _descendants(workflow)
    pairs: dict[tuple[str, str], str] = {}
    for fork_id in sorted(workflow.steps):
        parallel_arcs = [
            arc
            for arc in workflow.outgoing(fork_id)
            if arc.condition is None and not arc.otherwise
        ]
        if len(parallel_arcs) < 2:
            continue
        regions = [
            {arc.target} | descendants[arc.target] for arc in parallel_arcs
        ]
        for index, region_a in enumerate(regions):
            for region_b in regions[index + 1:]:
                for step_a in sorted(region_a):
                    for step_b in sorted(region_b):
                        if step_a == step_b:
                            continue
                        if step_a in descendants[step_b]:
                            continue
                        if step_b in descendants[step_a]:
                            continue
                        first, second = sorted((step_a, step_b))
                        pairs.setdefault((first, second), fork_id)
    return sorted(
        (fork_id, step_a, step_b)
        for (step_a, step_b), fork_id in pairs.items()
    )


def verify_workflow_races(
    workflow: WorkflowType, location_prefix: str = ""
) -> list[Diagnostic]:
    """Report variable conflicts between concurrently-enabled steps."""
    prefix = location_prefix or f"workflow:{workflow.name}"
    writes = {sid: _writes(step) for sid, step in workflow.steps.items()}
    reads = {sid: _reads(workflow, sid) for sid in workflow.steps}
    diagnostics: list[Diagnostic] = []
    reported: set[tuple[str, str, str, str]] = set()
    for fork_id, step_a, step_b in concurrent_step_pairs(workflow):
        location = f"{prefix}/parallel:{fork_id}"
        for variable in sorted(writes[step_a] & writes[step_b]):
            key = ("B2B601", step_a, step_b, variable)
            if key in reported:
                continue
            reported.add(key)
            diagnostics.append(
                Diagnostic(
                    "B2B601",
                    SEVERITY_WARNING,
                    location,
                    f"write/write race: steps {step_a!r} and {step_b!r} run "
                    f"in parallel branches of fork {fork_id!r} and both "
                    f"write variable {variable!r}; the surviving value "
                    "depends on completion order",
                    hint="write distinct variables per branch and merge "
                    "after the AND-join",
                )
            )
        for writer, reader in ((step_a, step_b), (step_b, step_a)):
            for variable in sorted(writes[writer]):
                paths = reads[reader].get(variable)
                if paths is None:
                    continue
                key = ("B2B602", writer, reader, variable)
                if key in reported:
                    continue
                reported.add(key)
                spelled = ", ".join(repr(path) for path in sorted(paths))
                diagnostics.append(
                    Diagnostic(
                        "B2B602",
                        SEVERITY_WARNING,
                        location,
                        f"read/write race: step {writer!r} writes variable "
                        f"{variable!r} while parallel step {reader!r} reads "
                        f"it (as {spelled}); the value observed depends on "
                        "scheduling",
                        hint="move the read after the AND-join or pass the "
                        "value through a branch-local variable",
                    )
                )
    return diagnostics


# ---------------------------------------------------------------------------
# Topology and data-flow extraction
# ---------------------------------------------------------------------------


def _descendants(workflow: WorkflowType) -> dict[str, set[str]]:
    """Step id -> every step reachable from it (the graph is acyclic)."""
    memo: dict[str, set[str]] = {}

    def visit(step_id: str) -> set[str]:
        known = memo.get(step_id)
        if known is not None:
            return known
        reached: set[str] = set()
        memo[step_id] = reached  # safe: the constructor rejected cycles
        for arc in workflow.outgoing(step_id):
            reached.add(arc.target)
            reached.update(visit(arc.target))
        return reached

    for step_id in workflow.steps:
        visit(step_id)
    return memo


def _writes(step: Step) -> set[str]:
    """Variables the step writes: its output declarations' target names."""
    return set(getattr(step, "outputs", {}) or {})


def _reads(workflow: WorkflowType, step_id: str) -> dict[str, set[str]]:
    """Variable -> dotted paths the step (and its outgoing conditions) reads."""
    step = workflow.steps[step_id]
    expressions = [
        Expression.shared(text)
        for text in (getattr(step, "inputs", {}) or {}).values()
    ]
    if isinstance(step, LoopStep):
        expressions.append(Expression.shared(step.condition))
    expressions.extend(
        Expression.shared(arc.condition)
        for arc in workflow.outgoing(step_id)
        if arc.condition is not None
    )
    reads: dict[str, set[str]] = {}
    for expression in expressions:
        for name in expression.variables_used():
            reads.setdefault(name, set()).add(name)
        for path in expression.paths():
            root = path.partition(".")[0].partition("[")[0]
            reads.setdefault(root, set()).add(path)
    return reads
