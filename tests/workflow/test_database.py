"""Tests for the workflow database (Figure 4) and replication."""

import dataclasses
import threading

import pytest

from repro.analysis.scenarios import build_two_enterprise_pair
from repro.core.enterprise import run_community
from repro.documents.model import Document
from repro.errors import PersistenceError
from repro.workflow.database import ReplicatedDatabase, WorkflowDatabase
from repro.workflow.definitions import Transition, WorkflowBuilder
from repro.workflow.instance import INSTANCE_COMPLETED, WorkflowInstance


def _type(name="wf", version="1"):
    return WorkflowBuilder(name, version=version).activity("a", "noop").build()


def _instance(instance_id="I1"):
    return WorkflowInstance(instance_id, "wf", "1", ["a"])


class TestTypes:
    def test_store_and_load(self):
        db = WorkflowDatabase()
        db.store_type(_type())
        loaded = db.load_type("wf", "1")
        assert loaded.name == "wf"
        assert db.type_loads == 1 and db.type_stores == 1

    def test_loaded_type_is_read_only(self):
        db = WorkflowDatabase()
        db.store_type(
            WorkflowBuilder("wf")
            .activity("a", "noop", params={"p": 1}, inputs={"x": "v"}, outputs={"v": "y"})
            .activity("b", "noop", after="a")
            .variable("v", 0)
            .meta(note="original")
            .build()
        )
        loaded = db.load_type("wf")
        with pytest.raises(TypeError):
            loaded.metadata["mutated"] = True
        with pytest.raises(TypeError):
            loaded.variables["v"] = 1
        with pytest.raises(TypeError):
            loaded.steps["c"] = loaded.steps["a"]
        with pytest.raises(AttributeError):
            loaded.transitions.append(Transition("b", "a"))
        step = loaded.steps["a"]
        for mapping in (step.params, step.inputs, step.outputs):
            with pytest.raises(TypeError):
                mapping["mutated"] = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            step.activity = "other"
        again = db.load_type("wf")
        assert dict(again.metadata) == {"note": "original"}
        assert dict(again.variables) == {"v": 0}
        assert dict(again.steps["a"].params) == {"p": 1}
        assert [(arc.source, arc.target) for arc in again.transitions] == [("a", "b")]

    def test_load_returns_one_object_until_replaced(self):
        db = WorkflowDatabase()
        db.store_type(_type())
        first = db.load_type("wf")
        assert db.load_type("wf") is first
        assert db.load_type("wf", "1") is first
        assert db.list_types() == [first]
        db.store_type(_type())
        stored_again = db.load_type("wf", "1")
        assert stored_again is not first
        assert db.load_type("wf") is stored_again
        db.store_type(_type(version="2"))
        assert db.load_type("wf").version == "2"
        assert db.load_type("wf", "1") is stored_again
        db.delete_type("wf", "1")
        db.store_type(_type())
        assert db.load_type("wf", "1") is not stored_again
        assert db.type_loads == 8

    def test_latest_version_resolution(self):
        db = WorkflowDatabase()
        db.store_type(_type(version="1"))
        db.store_type(_type(version="2"))
        db.store_type(_type(version="10"))
        assert db.load_type("wf").version == "10"  # numeric, not lexicographic

    def test_has_type(self):
        db = WorkflowDatabase()
        db.store_type(_type(version="2"))
        assert db.has_type("wf")
        assert db.has_type("wf", "2")
        assert not db.has_type("wf", "1")
        assert not db.has_type("other")

    def test_missing_type_raises(self):
        with pytest.raises(PersistenceError):
            WorkflowDatabase().load_type("ghost")

    def test_delete_type(self):
        db = WorkflowDatabase()
        db.store_type(_type())
        db.delete_type("wf", "1")
        assert not db.has_type("wf")
        with pytest.raises(PersistenceError):
            db.delete_type("wf", "1")

    def test_list_types(self):
        db = WorkflowDatabase()
        db.store_type(_type("a"))
        db.store_type(_type("b"))
        assert sorted(t.name for t in db.list_types()) == ["a", "b"]


class TestInstances:
    def test_store_and_load(self):
        db = WorkflowDatabase()
        db.store_instance(_instance())
        assert db.load_instance("I1").instance_id == "I1"
        assert db.instance_count() == 1

    def test_load_is_a_snapshot(self):
        db = WorkflowDatabase()
        db.store_instance(_instance())
        loaded = db.load_instance("I1")
        loaded.variables["leak"] = True
        assert "leak" not in db.load_instance("I1").variables

    def test_store_overwrites(self):
        db = WorkflowDatabase()
        instance = _instance()
        db.store_instance(instance)
        instance.status = INSTANCE_COMPLETED
        db.store_instance(instance)
        assert db.load_instance("I1").status == INSTANCE_COMPLETED

    def test_missing_instance_raises(self):
        with pytest.raises(PersistenceError):
            WorkflowDatabase().load_instance("ghost")

    def test_list_instances_by_status(self):
        db = WorkflowDatabase()
        first = _instance("I1")
        second = _instance("I2")
        second.status = INSTANCE_COMPLETED
        db.store_instance(first)
        db.store_instance(second)
        assert len(db.list_instances()) == 2
        assert [i.instance_id for i in db.list_instances(INSTANCE_COMPLETED)] == ["I2"]

    def test_delete_instance(self):
        db = WorkflowDatabase()
        db.store_instance(_instance())
        db.delete_instance("I1")
        assert not db.has_instance("I1")

    def test_loaded_instance_does_not_alias_the_store(self):
        db = WorkflowDatabase()
        instance = _instance()
        instance.variables["document"] = Document("normalized", "purchase_order", {"n": "PO-1"})
        instance.step_state("a").outputs["document"] = Document(
            "normalized", "purchase_order", {"n": "PO-1"}
        )
        instance.record(0.0, "created", detail="original")
        db.store_instance(instance)
        instance.variables["document"].data["n"] = "changed before load"
        snapshot = db.snapshot()

        loaded = db.load_instance("I1")
        loaded.variables["document"].data["n"] = "changed"
        loaded.step_state("a").outputs["document"].data["n"] = "changed"
        loaded.history[0]["detail"] = "changed"

        again = db.load_instance("I1")
        assert again.variables["document"].data == {"n": "PO-1"}
        assert again.step_state("a").outputs["document"].data == {"n": "PO-1"}
        assert again.history[0]["detail"] == "original"
        assert db.snapshot() == snapshot

    def test_unpicklable_value_is_a_persistence_error(self, tmp_path):
        db = WorkflowDatabase()
        db.store_instance(_instance())
        snapshot = db.snapshot()
        with open(tmp_path / "open.txt", "w") as handle:
            for value in (lambda: None, handle, threading.Lock()):
                instance = _instance()
                instance.variables["bad"] = value
                with pytest.raises(PersistenceError, match="'I1'"):
                    db.store_instance(instance)
                fresh = WorkflowInstance("I2", "wf", "1", ["a"], variables={"bad": value})
                with pytest.raises(PersistenceError, match="'I2'"):
                    db.store_instance(fresh)
        assert db.instance_stores == 1
        assert not db.has_instance("I2")
        assert db.snapshot() == snapshot


class TestDurability:
    def test_snapshot_restore_roundtrip(self):
        db = WorkflowDatabase("primary")
        db.store_type(_type())
        db.store_instance(_instance())
        restored = WorkflowDatabase.restore(db.snapshot())
        assert restored.name == "primary"
        assert restored.has_type("wf", "1")
        assert restored.load_instance("I1").instance_id == "I1"

    def test_corrupt_snapshot_rejected(self):
        with pytest.raises(PersistenceError):
            WorkflowDatabase.restore("{not json")
        with pytest.raises(PersistenceError):
            WorkflowDatabase.restore('{"missing": "keys"}')
        # instances are rebuilt at restore time, so a broken one is caught here
        unnamed = '{"instance_id": "", "type_name": "wf", "type_version": "1", "variables": {}}'
        for instance in ('{"instance_id": "I1"}', '"I1"', unnamed):
            snapshot = f'{{"name": "db", "types": [], "instances": [{instance}]}}'
            with pytest.raises(PersistenceError):
                WorkflowDatabase.restore(snapshot)


class TestReplication:
    def test_write_through(self):
        replica_a, replica_b = WorkflowDatabase("a"), WorkflowDatabase("b")
        primary = ReplicatedDatabase("primary", [replica_a, replica_b])
        primary.store_type(_type())
        primary.store_instance(_instance())
        for replica in (replica_a, replica_b):
            assert replica.has_type("wf", "1")
            assert replica.has_instance("I1")

    def test_delete_propagates(self):
        replica = WorkflowDatabase("a")
        primary = ReplicatedDatabase("primary", [replica])
        primary.store_instance(_instance())
        primary.delete_instance("I1")
        assert not replica.has_instance("I1")

    def test_delete_type_propagates(self):
        replica = WorkflowDatabase("a")
        primary = ReplicatedDatabase("primary", [replica])
        primary.store_type(_type())
        primary.delete_type("wf", "1")
        assert not primary.has_type("wf")
        assert not replica.has_type("wf")

    def test_replicas_stay_consistent_after_update(self):
        replica = WorkflowDatabase("a")
        primary = ReplicatedDatabase("primary", [replica])
        instance = _instance()
        primary.store_instance(instance)
        instance.status = INSTANCE_COMPLETED
        primary.store_instance(instance)
        assert replica.load_instance("I1").status == INSTANCE_COMPLETED


class TestFigure4Traffic:
    def test_order_exchange_counts_are_pinned(self):
        """Three orders through the Figure 14 pair: one above the buyer's
        10 000 approval threshold, none above the seller's 55 000.  Every
        retrieve, store and type lookup of the retrieve -> advance -> store
        cycle is counted, so a change to the boundary shows here."""
        pair = build_two_enterprise_pair("rosettanet", seed=5)
        for number, unit_price in enumerate((100.0, 12750.0, 100.0)):
            lines = [{"sku": "X", "quantity": 1, "unit_price": unit_price}]
            pair.buyer.submit_order("SAP", "ACME", f"PO-{number}", lines)
        run_community(pair.enterprises())
        counts = {
            enterprise.name: (
                enterprise.wfms.database.instance_loads,
                enterprise.wfms.database.instance_stores,
                enterprise.wfms.database.type_loads,
            )
            for enterprise in pair.enterprises()
        }
        assert counts == {"TP1": (40, 31, 31), "ACME": (45, 30, 30)}
