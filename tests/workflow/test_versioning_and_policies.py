"""Tests for type versioning, subworkflow late binding (Section 2.1), and
the persistence-policy ablation."""

import pytest

from repro.errors import WorkflowError
from repro.workflow.definitions import WorkflowBuilder
from repro.workflow.engine import WorkflowEngine
from repro.workflow.instance import INSTANCE_COMPLETED


def _child(version, result):
    builder = WorkflowBuilder("child", version=version)
    builder.activity(
        "calc", "set_variables", inputs={"y": f"'{result}'"}, outputs={"y": "y"}
    )
    return builder.build()


class TestVersioning:
    def test_new_instances_use_latest_version(self):
        engine = WorkflowEngine("v")
        engine.deploy(_child("1", "from-v1"))
        engine.deploy(_child("2", "from-v2"))
        instance = engine.run("child")
        assert instance.type_version == "2"
        assert instance.variables["y"] == "from-v2"

    def test_pinned_version_still_runnable(self):
        engine = WorkflowEngine("v")
        engine.deploy(_child("1", "from-v1"))
        engine.deploy(_child("2", "from-v2"))
        instance_id = engine.create_instance("child", version="1")
        engine.start(instance_id)
        assert engine.get_instance(instance_id).variables["y"] == "from-v1"

    def test_in_flight_instance_keeps_its_version(self):
        """Section 2.1: a running instance is interpreted against the type
        version it was created with, even after an upgrade."""
        engine = WorkflowEngine("v")
        builder = WorkflowBuilder("wf", version="1")
        builder.activity("wait", "wait_for_event", params={"wait_key": "K"})
        builder.activity(
            "mark", "set_variables", inputs={"v": "'one'"}, outputs={"v": "v"},
            after="wait",
        )
        engine.deploy(builder.build())
        instance_id = engine.create_instance("wf")
        engine.start(instance_id)
        # upgrade while the instance is parked
        upgraded = WorkflowBuilder("wf", version="2")
        upgraded.activity("wait", "wait_for_event", params={"wait_key": "K2"})
        upgraded.activity(
            "mark", "set_variables", inputs={"v": "'two'"}, outputs={"v": "v"},
            after="wait",
        )
        engine.deploy(upgraded.build())
        engine.complete_waiting_step("K", {})
        instance = engine.get_instance(instance_id)
        assert instance.status == INSTANCE_COMPLETED
        assert instance.type_version == "1"
        assert instance.variables["v"] == "one"


class TestLateBinding:
    """Section 2.1: with late binding, 'any change in a subworkflow
    definition will only affect those workflow instances that are newly
    started' — and a pinned reference never moves."""

    def _parent(self, pinned_version=""):
        builder = WorkflowBuilder("parent")
        builder.subworkflow(
            "call", "child", version=pinned_version, outputs={"result": "y"}
        )
        return builder.build()

    def test_late_bound_subworkflow_picks_up_upgrades(self):
        engine = WorkflowEngine("lb")
        engine.deploy(_child("1", "from-v1"))
        engine.deploy(self._parent())
        assert engine.run("parent").variables["result"] == "from-v1"
        engine.deploy(_child("2", "from-v2"))
        assert engine.run("parent").variables["result"] == "from-v2"

    def test_pinned_subworkflow_does_not_move(self):
        engine = WorkflowEngine("lb")
        engine.deploy(_child("1", "from-v1"))
        engine.deploy(self._parent(pinned_version="1"))
        engine.deploy(_child("2", "from-v2"))
        assert engine.run("parent").variables["result"] == "from-v1"


class TestPersistencePolicies:
    def _chain_engine(self, policy):
        engine = WorkflowEngine("p", persistence=policy)
        builder = WorkflowBuilder("chain")
        previous = None
        for index in range(10):
            builder.activity(f"s{index}", "noop", after=previous)
            previous = f"s{index}"
        engine.deploy(builder.build())
        return engine

    def test_unknown_policy_rejected(self):
        with pytest.raises(WorkflowError):
            WorkflowEngine("p", persistence="whenever")

    def test_both_policies_produce_identical_results(self):
        results = {}
        for policy in ("per_step", "per_quiescence"):
            engine = self._chain_engine(policy)
            instance = engine.run("chain")
            results[policy] = {
                "status": instance.status,
                "steps": {s.step_id: s.status for s in instance.steps.values()},
            }
        assert results["per_step"] == results["per_quiescence"]

    def test_per_step_persists_every_advance(self):
        engine = self._chain_engine("per_step")
        engine.run("chain")
        assert engine.database.instance_stores >= 10

    def test_per_quiescence_persists_at_boundaries_only(self):
        engine = self._chain_engine("per_quiescence")
        engine.run("chain")
        # creation + final settle (plus nothing in between)
        assert engine.database.instance_stores <= 3

    def test_per_quiescence_still_durable_at_waits(self):
        engine = WorkflowEngine("p", persistence="per_quiescence")
        builder = WorkflowBuilder("waiter")
        builder.activity("a", "noop")
        builder.activity("wait", "wait_for_event", params={"wait_key": "K"}, after="a")
        builder.activity("b", "noop", after="wait")
        engine.deploy(builder.build())
        instance_id = engine.create_instance("waiter")
        engine.start(instance_id)
        # the park point is durable: the store happened at quiescence
        persisted = engine.database.load_instance(instance_id)
        assert persisted.step_state("a").status == "completed"
        assert persisted.step_state("wait").status == "waiting"
        engine.complete_waiting_step("K", {})
        assert engine.get_instance(instance_id).status == INSTANCE_COMPLETED

    def test_crash_loses_in_flight_steps_under_lazy_policy(self):
        """The durability trade, demonstrated: a crash mid-advance loses
        everything since the last quiescence under per_quiescence, nothing
        under per_step."""
        observed = {}
        for policy in ("per_step", "per_quiescence"):
            engine = WorkflowEngine("p", persistence=policy, raise_on_failure=False)

            def crash(context):  # a hard crash, not a recorded failure
                raise KeyboardInterrupt

            engine.activities.register("crash", crash)
            builder = WorkflowBuilder("wf")
            builder.activity("a", "noop")
            builder.activity("b", "noop", after="a")
            builder.activity("boom", "crash", after="b")
            engine.deploy(builder.build())
            instance_id = engine.create_instance("wf")
            with pytest.raises(KeyboardInterrupt):
                engine.start(instance_id)
            persisted = engine.database.load_instance(instance_id)
            observed[policy] = persisted.step_state("b").status
        assert observed["per_step"] == "completed"      # survived the crash
        assert observed["per_quiescence"] == "pending"  # lost with the workspace
