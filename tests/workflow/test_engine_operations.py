"""Tests for engine operations: cancel, retry, restart recovery."""

import pytest

from repro.errors import ActivityError, InstanceError
from repro.workflow.activities import built_in_registry
from repro.workflow.database import WorkflowDatabase
from repro.workflow.definitions import WorkflowBuilder
from repro.workflow.engine import WorkflowEngine
from repro.workflow.instance import (
    INSTANCE_CANCELLED,
    INSTANCE_COMPLETED,
    INSTANCE_FAILED,
)


@pytest.fixture
def engine():
    return WorkflowEngine("ops", raise_on_failure=False)


def _deploy_waiter(engine, key="EVT"):
    builder = WorkflowBuilder("waiter")
    builder.activity("wait", "wait_for_event", params={"wait_key": key})
    builder.activity("done", "noop", after="wait")
    engine.deploy(builder.build())


class TestCancellation:
    def test_cancel_waiting_instance(self, engine):
        _deploy_waiter(engine)
        instance_id = engine.create_instance("waiter")
        engine.start(instance_id)
        instance = engine.cancel_instance(instance_id, "operator abort")
        assert instance.status == INSTANCE_CANCELLED
        assert instance.error == "operator abort"
        assert not engine.has_waiting("EVT")

    def test_cancel_releases_wait_key_for_reuse(self, engine):
        _deploy_waiter(engine)
        first = engine.create_instance("waiter")
        engine.start(first)
        engine.cancel_instance(first)
        second = engine.create_instance("waiter")
        engine.start(second)  # would raise on a duplicate wait key
        assert engine.has_waiting("EVT")

    def test_cancel_terminal_instance_rejected(self, engine):
        builder = WorkflowBuilder("quick")
        builder.activity("a", "noop")
        engine.deploy(builder.build())
        instance = engine.run("quick")
        with pytest.raises(InstanceError):
            engine.cancel_instance(instance.instance_id)

    def test_cancel_cascades_to_children(self, engine):
        child = WorkflowBuilder("child")
        child.activity("wait", "wait_for_event", params={"wait_key": "CHILD-EVT"})
        engine.deploy(child.build())
        parent = WorkflowBuilder("parent")
        parent.subworkflow("call", "child")
        engine.deploy(parent.build())
        parent_id = engine.create_instance("parent")
        engine.start(parent_id)
        engine.cancel_instance(parent_id)
        child_id = engine.get_instance(parent_id).step_state("call").child_instance_id
        assert engine.get_instance(child_id).status == INSTANCE_CANCELLED
        assert not engine.has_waiting("CHILD-EVT")

    def test_completion_of_cancelled_key_raises(self, engine):
        _deploy_waiter(engine)
        instance_id = engine.create_instance("waiter")
        engine.start(instance_id)
        engine.cancel_instance(instance_id)
        with pytest.raises(InstanceError):
            engine.complete_waiting_step("EVT", {})


class TestRetry:
    def _deploy_flaky(self, engine):
        attempts = {"count": 0}

        def flaky(context):
            attempts["count"] += 1
            if attempts["count"] == 1:
                raise ActivityError("backend unreachable")
            return {"value": attempts["count"]}

        engine.activities.register("flaky", flaky)
        builder = WorkflowBuilder("flaky-wf")
        builder.activity("try", "flaky", outputs={"value": "value"})
        builder.activity("after", "noop", after="try")
        engine.deploy(builder.build())
        return attempts

    def test_retry_after_repair_completes(self, engine):
        self._deploy_flaky(engine)
        instance = engine.run("flaky-wf")
        assert instance.status == INSTANCE_FAILED
        engine.retry_failed_step(instance.instance_id)
        retried = engine.get_instance(instance.instance_id)
        assert retried.status == INSTANCE_COMPLETED
        assert retried.variables["value"] == 2
        assert retried.step_state("after").status == "completed"

    def test_retry_records_history(self, engine):
        self._deploy_flaky(engine)
        instance = engine.run("flaky-wf")
        engine.retry_failed_step(instance.instance_id)
        retried = engine.get_instance(instance.instance_id)
        assert retried.events("retrying")
        assert retried.events("step_failed")  # the original failure stays

    def test_retry_non_failed_instance_rejected(self, engine):
        _deploy_waiter(engine)
        instance_id = engine.create_instance("waiter")
        engine.start(instance_id)
        with pytest.raises(InstanceError):
            engine.retry_failed_step(instance_id)

    def test_persistent_failure_can_retry_again(self, engine):
        engine.activities.register(
            "always-broken", lambda ctx: (_ for _ in ()).throw(ActivityError("still down"))
        )
        builder = WorkflowBuilder("broken-wf")
        builder.activity("try", "always-broken")
        engine.deploy(builder.build())
        instance = engine.run("broken-wf")
        engine.retry_failed_step(instance.instance_id)
        assert engine.get_instance(instance.instance_id).status == INSTANCE_FAILED
        # and a third attempt is still possible
        engine.retry_failed_step(instance.instance_id)
        assert engine.get_instance(instance.instance_id).status == INSTANCE_FAILED


class TestRecovery:
    def test_restart_rebuilds_wait_index(self, engine):
        _deploy_waiter(engine, key="K1")
        instance_id = engine.create_instance("waiter")
        engine.start(instance_id)
        # simulate a crash: a fresh engine over the persisted database
        snapshot = engine.database.snapshot()
        fresh = WorkflowEngine(
            "ops-restarted",
            database=WorkflowDatabase.restore(snapshot),
            activities=built_in_registry(),
        )
        assert not fresh.has_waiting("K1")
        assert fresh.recover() == 1
        assert fresh.has_waiting("K1")
        fresh.complete_waiting_step("K1", {})
        assert fresh.get_instance(instance_id).status == INSTANCE_COMPLETED

    def test_recover_on_empty_database(self, engine):
        assert engine.recover() == 0

    def test_recover_ignores_terminal_instances(self, engine):
        builder = WorkflowBuilder("quick")
        builder.activity("a", "noop")
        engine.deploy(builder.build())
        engine.run("quick")
        assert engine.recover() == 0
