"""Property-based tests: engine invariants over random workflow DAGs.

Random layered workflow types (XOR joins, conditioned arcs over boolean
variables, arbitrary fan-in/out) are generated and executed; the invariants
checked are the ones every WfMC-style engine must guarantee:

* every started instance reaches a terminal status with every step
  terminal (no token is ever lost);
* a step starts only after all of its predecessors are terminal;
* dead paths are consistent: a completed step has at least one completed
  predecessor arc whose condition held;
* execution is deterministic: same type + same variables = same trace;
* instances survive a persistence round trip mid-flight.
"""

from hypothesis import given, settings, strategies as st

from repro.workflow.database import WorkflowDatabase
from repro.workflow.definitions import Transition, WorkflowBuilder
from repro.workflow.engine import WorkflowEngine
from repro.workflow.expressions import Expression
from repro.workflow.instance import (
    INSTANCE_COMPLETED,
    STEP_COMPLETED,
    STEP_SKIPPED,
)
from tests.workflow.reference_expressions import ReferenceExpression

VARIABLES = ("v0", "v1", "v2", "v3")


@st.composite
def workflow_graphs(draw):
    """A random layered DAG with conditioned arcs and XOR joins."""
    layer_sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    layers: list[list[str]] = []
    counter = 0
    for size in layer_sizes:
        layers.append([f"s{counter + i}" for i in range(size)])
        counter += size

    transitions: list[tuple[str, str, str | None]] = []
    for upper, lower in zip(layers, layers[1:]):
        for target in lower:
            # every lower step needs at least one incoming arc
            source_count = draw(st.integers(1, len(upper)))
            sources = draw(
                st.lists(st.sampled_from(upper), min_size=source_count,
                         max_size=source_count, unique=True)
            )
            for source in sources:
                conditioned = draw(st.booleans())
                condition = None
                if conditioned:
                    variable = draw(st.sampled_from(VARIABLES))
                    wanted = draw(st.booleans())
                    condition = f"{variable} == {wanted}"
                transitions.append((source, target, condition))
    assignment = {name: draw(st.booleans()) for name in VARIABLES}
    return layers, transitions, assignment


def _build(layers, transitions):
    builder = WorkflowBuilder("random-dag")
    for name in VARIABLES:
        builder.variable(name, False)
    for layer in layers:
        for step_id in layer:
            builder.activity(step_id, "noop", join="XOR")
    for source, target, condition in transitions:
        builder._transitions.append(Transition(source, target, condition))
    return builder.build()


def _run(layers, transitions, assignment):
    engine = WorkflowEngine("prop")
    engine.deploy(_build(layers, transitions))
    instance = engine.run("random-dag", assignment)
    return engine, instance


@settings(max_examples=60, deadline=None)
@given(workflow_graphs())
def test_every_instance_terminates_with_all_steps_terminal(graph):
    layers, transitions, assignment = graph
    _, instance = _run(layers, transitions, assignment)
    assert instance.status == INSTANCE_COMPLETED
    for state in instance.steps.values():
        assert state.status in (STEP_COMPLETED, STEP_SKIPPED)


@settings(max_examples=60, deadline=None)
@given(workflow_graphs())
def test_steps_start_only_after_their_predecessors(graph):
    layers, transitions, assignment = graph
    _, instance = _run(layers, transitions, assignment)
    position = {
        entry["step_id"]: index
        for index, entry in enumerate(instance.history)
        if entry["event"] == "step_started"
    }
    terminal = {}
    for index, entry in enumerate(instance.history):
        if entry["event"] in ("step_completed", "step_skipped"):
            terminal[entry["step_id"]] = index
    for source, target, _ in transitions:
        if target in position:
            assert source in terminal
            assert terminal[source] < position[target], (
                f"{target} started before {source} finished"
            )


@settings(max_examples=60, deadline=None)
@given(workflow_graphs())
def test_dead_path_consistency(graph):
    """XOR semantics: a step completed iff some incoming arc fired
    (source completed and condition held); skipped iff none did."""
    layers, transitions, assignment = graph
    _, instance = _run(layers, transitions, assignment)
    incoming: dict[str, list[tuple[str, str | None]]] = {}
    for source, target, condition in transitions:
        incoming.setdefault(target, []).append((source, condition))
    for layer in layers[1:]:
        for step_id in layer:
            fired = any(
                instance.step_state(source).status == STEP_COMPLETED
                and (condition is None
                     or ReferenceExpression(Expression(condition)).evaluate_bool(
                         instance.variables))
                for source, condition in incoming.get(step_id, [])
            )
            actual = instance.step_state(step_id).status
            assert actual == (STEP_COMPLETED if fired else STEP_SKIPPED), (
                f"{step_id}: fired={fired} but status={actual}"
            )


@settings(max_examples=40, deadline=None)
@given(workflow_graphs())
def test_execution_is_deterministic(graph):
    layers, transitions, assignment = graph
    _, first = _run(layers, transitions, assignment)
    _, second = _run(layers, transitions, assignment)
    strip = lambda instance: [
        (entry["event"], entry["step_id"]) for entry in instance.history
    ]
    assert strip(first) == strip(second)
    assert {s.step_id: s.status for s in first.steps.values()} == {
        s.step_id: s.status for s in second.steps.values()
    }


@settings(max_examples=30, deadline=None)
@given(workflow_graphs(), st.integers(0, 10_000))
def test_instance_survives_persistence_roundtrip(graph, seed):
    """Snapshot the database after the run; the restored instance is
    byte-identical (the Figure 4 durability contract)."""
    layers, transitions, assignment = graph
    engine, instance = _run(layers, transitions, assignment)
    restored_db = WorkflowDatabase.restore(engine.database.snapshot())
    restored = restored_db.load_instance(instance.instance_id)
    assert restored.to_dict() == instance.to_dict()
