"""Tests for distributed workflow management (Figures 5 and 6)."""

import pytest

from repro.errors import MigrationError
from repro.workflow.definitions import RemoteSubworkflowStep, WorkflowBuilder, WorkflowType
from repro.workflow.distributed import (
    EngineDirectory,
    migrate_instance,
    type_closure,
)
from repro.workflow.engine import WorkflowEngine
from repro.workflow.instance import INSTANCE_COMPLETED, INSTANCE_MIGRATED


def _waiting_type(name="wf", key="EVT"):
    builder = WorkflowBuilder(name, owner="alpha-corp")
    builder.activity("before", "noop")
    builder.activity("wait", "wait_for_event", params={"wait_key": key}, after="before")
    builder.activity("after", "noop", after="wait")
    return builder.build()


class TestEngineDirectory:
    def test_register_and_get(self):
        directory = EngineDirectory()
        engine = directory.register(WorkflowEngine("one"))
        assert directory.get("one") is engine
        assert engine.services["engine_directory"] is directory

    def test_duplicate_rejected(self):
        directory = EngineDirectory()
        directory.register(WorkflowEngine("one"))
        with pytest.raises(MigrationError):
            directory.register(WorkflowEngine("one"))

    def test_unknown_engine_raises(self):
        with pytest.raises(MigrationError):
            EngineDirectory().get("ghost")


class TestTypeClosure:
    def test_includes_subworkflow_types_recursively(self):
        engine = WorkflowEngine("e")
        leaf = WorkflowBuilder("leaf").activity("a", "noop").build()
        middle = WorkflowBuilder("middle")
        middle.subworkflow("call", "leaf")
        top = WorkflowBuilder("top")
        top.subworkflow("call", "middle")
        engine.deploy_all([leaf, middle.build(), top.build()])
        names = {t.name for t in type_closure(engine, "top")}
        assert names == {"top", "middle", "leaf"}

    def test_excludes_remote_subworkflows(self):
        engine = WorkflowEngine("e")
        top = WorkflowType(
            "top",
            [RemoteSubworkflowStep(step_id="r", subworkflow="foreign", engine="other")],
        )
        engine.deploy(top)
        names = {t.name for t in type_closure(engine, "top")}
        assert names == {"top"}

    def test_includes_loop_bodies(self):
        engine = WorkflowEngine("e")
        body = WorkflowBuilder("body").activity("a", "noop").build()
        top = WorkflowBuilder("top")
        top.loop("l", "body", condition="False")
        engine.deploy_all([body, top.build()])
        names = {t.name for t in type_closure(engine, "top")}
        assert names == {"top", "body"}


class TestMigration:
    def test_figure6_protocol_cold_target(self):
        """Target lacks the type: check (1) + send type (1) + instance (1)."""
        source, target = WorkflowEngine("src"), WorkflowEngine("dst")
        source.deploy(_waiting_type())
        instance_id = source.create_instance("wf")
        source.start(instance_id)
        report = migrate_instance(source, target, instance_id)
        assert report.type_checks == 1
        assert report.types_sent == 1
        assert report.instances_sent == 1
        assert report.messages_exchanged == 3

    def test_figure6_protocol_warm_target(self):
        """Target already holds the type: no type transfer."""
        source, target = WorkflowEngine("src"), WorkflowEngine("dst")
        workflow = _waiting_type()
        source.deploy(workflow)
        target.deploy(workflow)
        instance_id = source.create_instance("wf")
        source.start(instance_id)
        report = migrate_instance(source, target, instance_id)
        assert report.types_sent == 0
        assert report.messages_exchanged == 2

    def test_instance_continues_on_target(self):
        source, target = WorkflowEngine("src"), WorkflowEngine("dst")
        source.deploy(_waiting_type())
        instance_id = source.create_instance("wf")
        source.start(instance_id)
        migrate_instance(source, target, instance_id)
        target.complete_waiting_step("EVT", {})
        assert target.get_instance(instance_id).status == INSTANCE_COMPLETED

    def test_source_keeps_migrated_tombstone(self):
        source, target = WorkflowEngine("src"), WorkflowEngine("dst")
        source.deploy(_waiting_type())
        instance_id = source.create_instance("wf")
        source.start(instance_id)
        migrate_instance(source, target, instance_id)
        assert source.get_instance(instance_id).status == INSTANCE_MIGRATED
        assert not source.has_waiting("EVT")
        assert target.has_waiting("EVT")

    def test_double_migration_rejected(self):
        source, target = WorkflowEngine("src"), WorkflowEngine("dst")
        source.deploy(_waiting_type())
        instance_id = source.create_instance("wf")
        source.start(instance_id)
        migrate_instance(source, target, instance_id)
        with pytest.raises(MigrationError):
            migrate_instance(source, target, instance_id)

    def test_migration_carries_waiting_children(self):
        source, target = WorkflowEngine("src"), WorkflowEngine("dst")
        child = _waiting_type("child", key="CHILD-EVT")
        parent_builder = WorkflowBuilder("parent", owner="alpha-corp")
        parent_builder.subworkflow("call", "child")
        source.deploy_all([child, parent_builder.build()])
        parent_id = source.create_instance("parent")
        source.start(parent_id)
        report = migrate_instance(source, target, parent_id)
        assert report.instances_sent == 2  # parent + waiting child
        child_id = target.get_instance(parent_id).step_state("call").child_instance_id
        target.complete_waiting_step("CHILD-EVT", {})
        assert target.get_instance(child_id).status == INSTANCE_COMPLETED
        assert target.get_instance(parent_id).status == INSTANCE_COMPLETED

    def test_roundtrip_migration(self):
        source, target = WorkflowEngine("src"), WorkflowEngine("dst")
        builder = WorkflowBuilder("wf")
        builder.activity("w1", "wait_for_event", params={"wait_key": "K1"})
        builder.activity("w2", "wait_for_event", params={"wait_key": "K2"}, after="w1")
        source.deploy(builder.build())
        instance_id = source.create_instance("wf")
        source.start(instance_id)
        migrate_instance(source, target, instance_id)
        target.complete_waiting_step("K1", {})
        migrate_instance(target, source, instance_id)
        source.complete_waiting_step("K2", {})
        assert source.get_instance(instance_id).status == INSTANCE_COMPLETED


class TestDistribution:
    """Figure 5(b): remote subworkflows — interface crosses, definition
    does not."""

    def _pair(self):
        directory = EngineDirectory()
        master = directory.register(WorkflowEngine("master"))
        slave = directory.register(WorkflowEngine("slave"))
        return directory, master, slave

    def test_remote_subworkflow_executes_on_slave(self):
        _, master, slave = self._pair()
        child = WorkflowBuilder("child")
        child.variable("x", 0)
        child.activity("calc", "set_variables", inputs={"y": "x + 1"}, outputs={"y": "y"})
        slave.deploy(child.build())
        parent = WorkflowBuilder("parent")
        parent.variable("v", 9)
        parent._steps.append(
            RemoteSubworkflowStep(step_id="r", subworkflow="child", engine="slave",
                                  inputs={"x": "v"}, outputs={"res": "y"})
        )
        master.deploy(parent.build())
        instance = master.run("parent")
        assert instance.variables["res"] == 10
        # the child ran on the slave...
        assert slave.instances_completed == 1
        # ...and its definition never reached the master (Section 2.1).
        assert not master.database.has_type("child")

    def test_remote_child_waiting_resumes_master(self):
        _, master, slave = self._pair()
        child = _waiting_type("child", key="REMOTE-EVT")
        slave.deploy(child)
        parent = WorkflowBuilder("parent")
        parent._steps.append(
            RemoteSubworkflowStep(step_id="r", subworkflow="child", engine="slave")
        )
        parent.activity("done", "noop")
        parent._transitions.append(
            __import__("repro.workflow.definitions", fromlist=["Transition"]).Transition("r", "done")
        )
        master.deploy(parent.build())
        master_id = master.create_instance("parent")
        master.start(master_id)
        assert master.get_instance(master_id).status != INSTANCE_COMPLETED
        slave.complete_waiting_step("REMOTE-EVT", {})
        assert master.get_instance(master_id).status == INSTANCE_COMPLETED

    def test_missing_directory_service_is_an_error(self):
        lone = WorkflowEngine("lone")
        parent = WorkflowType(
            "parent",
            [RemoteSubworkflowStep(step_id="r", subworkflow="child", engine="slave")],
        )
        lone.deploy(parent)
        from repro.errors import ActivityError

        with pytest.raises(ActivityError):
            lone.run("parent")
