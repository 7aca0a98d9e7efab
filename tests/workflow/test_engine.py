"""Tests for the workflow engine interpreter.

Covers the control-flow semantics the paper's arguments rest on: XOR
branching with dead-path elimination, parallel split/join, subworkflow
"return only when finished" semantics (Section 3.1), loops, waiting steps,
failure handling, and the persist-advance-persist database contract.
"""

import pytest

from repro.errors import ActivityError, InstanceError
from repro.workflow.activities import built_in_registry
from repro.workflow.definitions import WorkflowBuilder
from repro.workflow.engine import WorkflowEngine
from repro.workflow.instance import (
    INSTANCE_COMPLETED,
    INSTANCE_FAILED,
    INSTANCE_WAITING,
    STEP_COMPLETED,
    STEP_SKIPPED,
)


@pytest.fixture
def engine():
    return WorkflowEngine("test")


def _deploy(engine, builder):
    workflow = builder.build()
    engine.deploy(workflow)
    return workflow


class TestSequences:
    def test_linear_execution_order(self, engine):
        trace = []
        engine.activities.register("trace", lambda ctx: trace.append(ctx.step_id) or {})
        builder = WorkflowBuilder("wf")
        builder.activity("a", "trace").activity("b", "trace", after="a")
        builder.activity("c", "trace", after="b")
        _deploy(engine, builder)
        instance = engine.run("wf")
        assert instance.status == INSTANCE_COMPLETED
        assert trace == ["a", "b", "c"]

    def test_data_flows_through_variables(self, engine):
        builder = WorkflowBuilder("wf")
        builder.variable("x", 3)
        builder.activity("double", "set_variables", inputs={"y": "x * 2"},
                         outputs={"y": "y"})
        builder.activity("add", "set_variables", inputs={"z": "y + 1"},
                         outputs={"z": "z"}, after="double")
        _deploy(engine, builder)
        instance = engine.run("wf")
        assert instance.variables["z"] == 7

    def test_run_overrides_defaults(self, engine):
        builder = WorkflowBuilder("wf")
        builder.variable("x", 1)
        builder.activity("id", "set_variables", inputs={"out": "x"}, outputs={"out": "out"})
        _deploy(engine, builder)
        assert engine.run("wf", {"x": 42}).variables["out"] == 42

    def test_promised_output_missing_fails(self, engine):
        builder = WorkflowBuilder("wf")
        builder.activity("a", "noop", outputs={"x": "not_returned"})
        _deploy(engine, builder)
        with pytest.raises(ActivityError):
            engine.run("wf")

    def test_history_records_lifecycle(self, engine):
        builder = WorkflowBuilder("wf")
        builder.activity("a", "noop")
        _deploy(engine, builder)
        instance = engine.run("wf")
        events = [entry["event"] for entry in instance.history]
        assert events[0] == "created"
        assert "started" in events and "completed" in events
        assert "step_completed" in events


class TestBranching:
    def _approval_builder(self):
        builder = WorkflowBuilder("wf")
        builder.variable("amount", 0)
        builder.activity("start", "noop")
        builder.activity("approve", "noop")
        builder.activity("end", "noop", join="XOR")
        builder.link("start", "approve", condition="amount > 10000")
        builder.link("start", "end", otherwise=True)
        builder.link("approve", "end")
        return builder

    def test_condition_true_takes_branch(self, engine):
        _deploy(engine, self._approval_builder())
        instance = engine.run("wf", {"amount": 20000})
        assert instance.step_state("approve").status == STEP_COMPLETED

    def test_condition_false_skips_branch(self, engine):
        _deploy(engine, self._approval_builder())
        instance = engine.run("wf", {"amount": 5})
        assert instance.step_state("approve").status == STEP_SKIPPED
        assert instance.status == INSTANCE_COMPLETED

    def test_skip_is_recorded_in_history(self, engine):
        _deploy(engine, self._approval_builder())
        instance = engine.run("wf", {"amount": 5})
        assert any(e["step_id"] == "approve" for e in instance.events("step_skipped"))

    def test_multiway_xor(self, engine):
        builder = WorkflowBuilder("wf")
        builder.variable("route", "")
        builder.activity("start", "noop")
        for target in ("a", "b", "c"):
            builder.activity(target, "noop")
            builder.link("start", target, condition=f"route == '{target}'")
        builder.activity("end", "noop", join="XOR")
        for target in ("a", "b", "c"):
            builder.link(target, "end")
        _deploy(engine, builder)
        instance = engine.run("wf", {"route": "b"})
        assert instance.step_state("b").status == STEP_COMPLETED
        assert instance.step_state("a").status == STEP_SKIPPED
        assert instance.step_state("c").status == STEP_SKIPPED

    def test_dead_path_propagates_through_chains(self, engine):
        builder = WorkflowBuilder("wf")
        builder.variable("go", False)
        builder.activity("start", "noop")
        builder.activity("x1", "noop")
        builder.activity("x2", "noop", after="x1")
        builder.activity("end", "noop", join="XOR")
        builder.link("start", "x1", condition="go == True")
        builder.link("start", "end", otherwise=True)
        builder.link("x2", "end")
        _deploy(engine, builder)
        instance = engine.run("wf", {"go": False})
        assert instance.step_state("x1").status == STEP_SKIPPED
        assert instance.step_state("x2").status == STEP_SKIPPED
        assert instance.status == INSTANCE_COMPLETED


class TestParallelism:
    def test_and_split_and_join(self, engine):
        executed = []
        engine.activities.register("trace", lambda ctx: executed.append(ctx.step_id) or {})
        builder = WorkflowBuilder("wf")
        builder.activity("split", "trace")
        for branch in ("p1", "p2", "p3"):
            builder.activity(branch, "trace")
            builder.link("split", branch)
        builder.activity("join", "trace")
        for branch in ("p1", "p2", "p3"):
            builder.link(branch, "join")
        _deploy(engine, builder)
        instance = engine.run("wf")
        assert instance.status == INSTANCE_COMPLETED
        assert executed[0] == "split" and executed[-1] == "join"
        assert set(executed[1:4]) == {"p1", "p2", "p3"}

    def test_and_join_with_dead_branch_skips(self, engine):
        # AND join where one incoming arc is dead: the join cannot fire.
        builder = WorkflowBuilder("wf")
        builder.variable("go", False)
        builder.activity("start", "noop")
        builder.activity("live", "noop")
        builder.activity("guarded", "noop")
        builder.activity("join", "noop")  # AND join (default)
        builder.link("start", "live")
        builder.link("start", "guarded", condition="go == True")
        builder.link("live", "join")
        builder.link("guarded", "join")
        _deploy(engine, builder)
        instance = engine.run("wf", {"go": False})
        assert instance.step_state("join").status == STEP_SKIPPED


class TestSubworkflows:
    def test_child_outputs_mapped_to_parent(self, engine):
        child = WorkflowBuilder("child")
        child.variable("x", 0)
        child.activity("calc", "set_variables", inputs={"y": "x * 2"}, outputs={"y": "y"})
        _deploy(engine, child)
        parent = WorkflowBuilder("parent")
        parent.variable("val", 21)
        parent.subworkflow("call", "child", inputs={"x": "val"}, outputs={"res": "y"})
        _deploy(engine, parent)
        instance = engine.run("parent")
        assert instance.variables["res"] == 42

    def test_child_instance_persisted_with_parent_links(self, engine):
        child = WorkflowBuilder("child")
        child.activity("a", "noop")
        _deploy(engine, child)
        parent = WorkflowBuilder("parent")
        parent.subworkflow("call", "child")
        _deploy(engine, parent)
        parent_instance = engine.run("parent")
        child_id = parent_instance.step_state("call").child_instance_id
        child_instance = engine.get_instance(child_id)
        assert child_instance.parent_instance_id == parent_instance.instance_id
        assert child_instance.parent_step_id == "call"
        assert child_instance.status == INSTANCE_COMPLETED

    def test_parent_completed_by_the_child_hook_keeps_its_completion_time(self, engine):
        """The parent completes inside its child's completion hook; the
        step that started the child must store that completion whole."""
        child = WorkflowBuilder("child")
        child.activity("a", "noop")
        _deploy(engine, child)
        parent = WorkflowBuilder("parent")
        parent.subworkflow("call", "child")
        _deploy(engine, parent)
        instance_id = engine.run("parent").instance_id
        stored = engine.get_instance(instance_id)
        assert stored.status == INSTANCE_COMPLETED
        assert stored.completed_at is not None
        assert [entry["event"] for entry in stored.events("completed")] == ["completed"]

    def test_parent_failed_by_the_child_hook_keeps_its_error(self):
        engine = WorkflowEngine("soft", raise_on_failure=False)
        child = WorkflowBuilder("child")
        child.activity("a", "noop")
        _deploy(engine, child)
        parent = WorkflowBuilder("parent")
        parent.subworkflow("call", "child")
        parent.activity("boom", "fail", params={"message": "kaput"}, after="call")
        _deploy(engine, parent)
        instance_id = engine.run("parent").instance_id
        stored = engine.get_instance(instance_id)
        assert stored.status == INSTANCE_FAILED
        assert "kaput" in stored.error

    def test_nested_subworkflows(self, engine):
        leaf = WorkflowBuilder("leaf")
        leaf.variable("n", 0)
        leaf.activity("inc", "set_variables", inputs={"n": "n + 1"}, outputs={"n": "n"})
        _deploy(engine, leaf)
        middle = WorkflowBuilder("middle")
        middle.variable("n", 0)
        middle.subworkflow("call_leaf", "leaf", inputs={"n": "n"}, outputs={"n": "n"})
        _deploy(engine, middle)
        top = WorkflowBuilder("top")
        top.variable("n", 10)
        top.subworkflow("call_middle", "middle", inputs={"n": "n"}, outputs={"result": "n"})
        _deploy(engine, top)
        assert engine.run("top").variables["result"] == 11

    def test_subworkflow_returns_control_only_when_finished(self, engine):
        """Section 3.1: a subworkflow cannot yield control mid-way.

        The child parks on an external event; the parent's next step must
        NOT run until the child is completed — there is no 'partial
        return'.  This is the executable counter-example behind the
        paper's argument that message exchanges cannot live in
        subworkflows.
        """
        child = WorkflowBuilder("child")
        child.activity("receive", "wait_for_event", params={"wait_key": "CHILD-EVT"})
        child.activity("reply", "noop", after="receive")
        _deploy(engine, child)
        parent_trace = []
        engine.activities.register(
            "after_child", lambda ctx: parent_trace.append(ctx.now) or {}
        )
        parent = WorkflowBuilder("parent")
        parent.subworkflow("call", "child")
        parent.activity("next_step", "after_child", after="call")
        _deploy(engine, parent)

        instance_id = engine.create_instance("parent")
        engine.start(instance_id)
        # the child is parked; the parent must not have progressed
        assert parent_trace == []
        assert engine.get_instance(instance_id).status == INSTANCE_WAITING
        # only completing the child's event releases the parent
        engine.complete_waiting_step("CHILD-EVT", {})
        assert parent_trace != []
        assert engine.get_instance(instance_id).status == INSTANCE_COMPLETED


class TestLoops:
    def _counter_body(self, engine):
        body = WorkflowBuilder("body")
        body.variable("i", 0)
        body.activity("inc", "set_variables", inputs={"i": "i + 1"}, outputs={"i": "i"})
        _deploy(engine, body)

    def test_while_loop(self, engine):
        self._counter_body(engine)
        builder = WorkflowBuilder("wf")
        builder.variable("i", 0)
        builder.loop("loop", "body", condition="i < 5", inputs={"i": "i"},
                     outputs={"i": "i"})
        _deploy(engine, builder)
        instance = engine.run("wf")
        assert instance.variables["i"] == 5
        assert instance.step_state("loop").iterations == 5

    def test_while_loop_zero_iterations(self, engine):
        self._counter_body(engine)
        builder = WorkflowBuilder("wf")
        builder.variable("i", 10)
        builder.loop("loop", "body", condition="i < 5", inputs={"i": "i"},
                     outputs={"i": "i"})
        _deploy(engine, builder)
        instance = engine.run("wf")
        assert instance.step_state("loop").iterations == 0
        assert instance.status == INSTANCE_COMPLETED

    def test_until_loop_runs_at_least_once(self, engine):
        self._counter_body(engine)
        builder = WorkflowBuilder("wf")
        builder.variable("i", 10)
        builder.loop("loop", "body", condition="i > 10", mode="until",
                     inputs={"i": "i"}, outputs={"i": "i"})
        _deploy(engine, builder)
        instance = engine.run("wf")
        assert instance.step_state("loop").iterations == 1
        assert instance.variables["i"] == 11

    def test_runaway_loop_guarded(self, engine):
        self._counter_body(engine)
        builder = WorkflowBuilder("wf")
        builder.variable("i", 0)
        builder.loop("loop", "body", condition="True", max_iterations=10,
                     inputs={"i": "i"}, outputs={"i": "i"})
        _deploy(engine, builder)
        with pytest.raises(ActivityError):
            engine.run("wf")


class TestWaitingSteps:
    def test_wait_and_resume(self, engine):
        builder = WorkflowBuilder("wf")
        builder.activity("wait", "wait_for_event", params={"wait_key": "EVT"},
                         outputs={"msg": "msg"})
        builder.activity("done", "noop", after="wait")
        _deploy(engine, builder)
        instance_id = engine.create_instance("wf")
        engine.start(instance_id)
        assert engine.get_instance(instance_id).status == INSTANCE_WAITING
        assert engine.has_waiting("EVT")
        engine.complete_waiting_step("EVT", {"msg": "hello"})
        instance = engine.get_instance(instance_id)
        assert instance.status == INSTANCE_COMPLETED
        assert instance.variables["msg"] == "hello"
        assert not engine.has_waiting("EVT")

    def test_unknown_wait_key_raises(self, engine):
        with pytest.raises(InstanceError):
            engine.complete_waiting_step("GHOST", {})

    def test_duplicate_wait_key_rejected(self, engine):
        builder = WorkflowBuilder("wf")
        builder.activity("wait", "wait_for_event", params={"wait_key": "SAME"})
        _deploy(engine, builder)
        engine.start(engine.create_instance("wf"))
        with pytest.raises(ActivityError):
            engine.start(engine.create_instance("wf"))

    def test_cancel_waiting_step_fails_instance(self, engine):
        builder = WorkflowBuilder("wf")
        builder.activity("wait", "wait_for_event", params={"wait_key": "EVT"})
        _deploy(engine, builder)
        instance_id = engine.create_instance("wf")
        engine.start(instance_id)
        instance = engine.cancel_waiting_step("EVT", "reply timed out")
        assert instance.status == INSTANCE_FAILED
        assert "timed out" in instance.error

    def test_parallel_waits_resume_independently(self, engine):
        builder = WorkflowBuilder("wf")
        builder.activity("split", "noop")
        builder.activity("w1", "wait_for_event", params={"wait_key": "K1"})
        builder.activity("w2", "wait_for_event", params={"wait_key": "K2"})
        builder.activity("join", "noop")
        builder.link("split", "w1")
        builder.link("split", "w2")
        builder.link("w1", "join")
        builder.link("w2", "join")
        _deploy(engine, builder)
        instance_id = engine.create_instance("wf")
        engine.start(instance_id)
        engine.complete_waiting_step("K2", {})
        assert engine.get_instance(instance_id).status == INSTANCE_WAITING
        engine.complete_waiting_step("K1", {})
        assert engine.get_instance(instance_id).status == INSTANCE_COMPLETED


class TestFailures:
    def test_activity_failure_fails_instance_and_raises(self, engine):
        builder = WorkflowBuilder("wf")
        builder.activity("boom", "fail", params={"message": "kaput"})
        _deploy(engine, builder)
        instance_id = engine.create_instance("wf")
        with pytest.raises(ActivityError):
            engine.start(instance_id)
        instance = engine.get_instance(instance_id)
        assert instance.status == INSTANCE_FAILED
        assert "kaput" in instance.error

    def test_failure_without_raise_mode(self):
        engine = WorkflowEngine("soft", raise_on_failure=False)
        builder = WorkflowBuilder("wf")
        builder.activity("boom", "fail")
        engine.deploy(builder.build())
        instance = engine.run("wf")
        assert instance.status == INSTANCE_FAILED

    def test_steps_after_failure_do_not_run(self):
        engine = WorkflowEngine("soft", raise_on_failure=False)
        executed = []
        engine.activities.register("trace", lambda ctx: executed.append(ctx.step_id) or {})
        builder = WorkflowBuilder("wf")
        builder.activity("boom", "fail")
        builder.activity("after", "trace", after="boom")
        engine.deploy(builder.build())
        engine.run("wf")
        assert executed == []

    def test_stuck_graph_detected(self, engine):
        # "end" AND-joins two arcs, but one source is itself unreachable in
        # a way that never produces a signal: a disconnected pending step.
        builder = WorkflowBuilder("wf")
        builder.activity("a", "noop")
        builder.activity("island_target", "noop", join="XOR")
        # island_target has an incoming arc from a step that never runs
        # because it waits on an AND join of nothing... construct directly:
        builder.link("a", "island_target", condition="False")
        _deploy(engine, builder)
        # all signals arrive as False -> island skipped; completes fine.
        assert engine.run("wf").status == INSTANCE_COMPLETED

    def test_start_twice_rejected(self, engine):
        builder = WorkflowBuilder("wf")
        builder.activity("a", "noop")
        _deploy(engine, builder)
        instance_id = engine.create_instance("wf")
        engine.start(instance_id)
        with pytest.raises(InstanceError):
            engine.start(instance_id)


class TestPersistenceContract:
    def test_engine_persists_every_advance(self, engine):
        """Figure 4: retrieve -> advance -> store on every step."""
        builder = WorkflowBuilder("wf")
        builder.activity("a", "noop").activity("b", "noop", after="a")
        _deploy(engine, builder)
        loads_before = engine.database.instance_loads
        stores_before = engine.database.instance_stores
        engine.run("wf")
        # one store at creation + at least one load/store pair per step
        assert engine.database.instance_loads - loads_before >= 2
        assert engine.database.instance_stores - stores_before >= 3

    def test_instance_survives_database_snapshot(self, engine):
        builder = WorkflowBuilder("wf")
        builder.activity("wait", "wait_for_event", params={"wait_key": "EVT"})
        builder.activity("done", "noop", after="wait")
        _deploy(engine, builder)
        instance_id = engine.create_instance("wf")
        engine.start(instance_id)
        # simulate an engine restart from the persisted snapshot
        from repro.workflow.database import WorkflowDatabase

        restored_db = WorkflowDatabase.restore(engine.database.snapshot())
        fresh_engine = WorkflowEngine("fresh", database=restored_db,
                                      activities=built_in_registry())
        fresh_engine._wait_index["EVT"] = (instance_id, "wait")
        fresh_engine.complete_waiting_step("EVT", {})
        assert fresh_engine.get_instance(instance_id).status == INSTANCE_COMPLETED
