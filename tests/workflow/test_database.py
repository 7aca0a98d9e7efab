"""Tests for the workflow database (Figure 4) and replication."""

import copy
import dataclasses
import json
import pickle
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            unpicklable_document = Document("normalized", "purchase_order", {"f": handle})
            for value in (lambda: None, handle, threading.Lock(), unpicklable_document):
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


class PickleReferenceDatabase(WorkflowDatabase):
    """The instance store as it was before records: every store pickles the
    whole instance and every load unpickles a private copy.  The record
    codec must load and snapshot exactly what this reference does."""

    def store_instance(self, instance):
        self._instances[instance.instance_id] = pickle.dumps(
            instance, pickle.HIGHEST_PROTOCOL
        )

    def load_instance(self, instance_id):
        return pickle.loads(self._instances[instance_id])

    def snapshot(self):
        return json.dumps(
            {
                "name": self.name,
                "types": [],
                "instances": [
                    pickle.loads(snapshot).to_dict()
                    for _, snapshot in sorted(self._instances.items())
                ],
            }
        )


def _document_sharing(instance):
    """Which document slots hold the same object, as first-seen indexes."""
    held = list(instance.variables.values())
    for state in instance.steps.values():
        held.extend(state.outputs.values())
    first_seen = {}
    return [
        first_seen.setdefault(id(value), len(first_seen))
        for value in held
        if isinstance(value, Document)
    ]


_names = st.text("abcdefgh", min_size=1, max_size=4)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=6)
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(_names, children, max_size=3),
        st.tuples(children, children),
    ),
    max_leaves=6,
)
_documents = st.builds(
    Document,
    st.sampled_from(["normalized", "edi-x12"]),
    st.sampled_from(["purchase_order", "po_ack"]),
    st.dictionaries(_names, _values, max_size=4),
)
_record_entries = st.fixed_dictionaries(
    {
        "at": st.floats(0, 1e6),
        "event": st.sampled_from(["created", "step_completed"]),
        "step_id": st.sampled_from(["", "a", "b"]),
        "detail": st.text(max_size=6),
    }
)
_other_entries = st.one_of(
    # the record() keys with a value that is not a scalar
    _record_entries.flatmap(
        lambda entry: st.builds(lambda detail: {**entry, "detail": detail}, _values)
    ),
    # the record() keys in another order, or other keys
    _record_entries.map(lambda entry: dict(reversed(list(entry.items())))),
    st.dictionaries(_names, _values, max_size=3),
)


@st.composite
def _instances(draw):
    shared = draw(st.lists(_documents, max_size=3))
    held = st.one_of(_values, st.sampled_from(shared)) if shared else _values
    step_ids = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    instance = WorkflowInstance(
        "I1", "wf", "1", step_ids,
        variables=draw(st.dictionaries(_names, held, max_size=5)),
        created_at=draw(st.floats(0, 1e6)),
    )
    for state in instance.steps.values():
        state.status = draw(st.sampled_from(["pending", "waiting", "completed"]))
        state.outputs = draw(st.dictionaries(_names, held, max_size=3))
        state.iterations = draw(st.integers(0, 3))
        state.wait_key = draw(st.text(max_size=4))
    for source, target in draw(st.lists(st.tuples(st.sampled_from(step_ids), _names))):
        instance.set_signal(source, target, draw(st.booleans()))
    instance.history = draw(st.lists(st.one_of(_record_entries, _other_entries), max_size=6))
    instance.status = draw(st.sampled_from(["created", "waiting", "completed"]))
    instance.completed_at = draw(st.none() | st.floats(0, 1e6))
    instance.error = draw(st.text(max_size=4))
    return instance


class TestInstanceRecords:
    @settings(max_examples=150, deadline=None)
    @given(_instances())
    def test_record_loads_and_snapshots_what_pickle_does(self, instance):
        db, reference = WorkflowDatabase(), PickleReferenceDatabase()
        db.store_instance(instance)
        reference.store_instance(instance)
        expected = reference.load_instance("I1")
        for _ in range(2):
            loaded = db.load_instance("I1")
            assert _document_sharing(loaded) == _document_sharing(expected)
            assert loaded.to_dict() == expected.to_dict()
            assert db.snapshot() == reference.snapshot()
            # store the load again before any document is read: the record
            # reuses the documents' bytes and must not change
            db.store_instance(db.load_instance("I1"))

    def test_document_held_twice_loads_as_one_object(self):
        db = WorkflowDatabase()
        instance = _instance()
        document = Document("normalized", "purchase_order", {"n": "PO-1"})
        instance.variables["document"] = document
        instance.step_state("a").outputs["document"] = document
        db.store_instance(instance)
        for _ in range(2):
            loaded = db.load_instance("I1")
            assert loaded.variables["document"] is loaded.step_state("a").outputs["document"]
            db.store_instance(loaded)
        loaded.variables["document"].set("n", "changed")
        assert loaded.step_state("a").outputs["document"].get("n") == "changed"
        assert db.load_instance("I1").variables["document"].get("n") == "PO-1"


ORIGINAL = Document(
    "normalized", "purchase_order", {"n": "PO-1", "lines": [{"sku": "X", "quantity": 2}]}
)


def _stored():
    """A database holding one instance with a document, nested values,
    step outputs, signals and history, and that live instance."""
    db = WorkflowDatabase()
    instance = WorkflowInstance("I1", "wf", "1", ["a", "b"])
    document = ORIGINAL.copy()
    instance.variables.update(document=document, items=[1, [2]], pair=(1, [2]), flag=True)
    instance.step_state("a").outputs.update(document=document, approved=True)
    instance.set_signal("a", "b", True)
    instance.record(0.0, "created", detail="original")
    instance.history.append({"at": 1.0, "event": "noted", "step_id": "", "detail": ["original"]})
    db.store_instance(instance)
    return db, instance


def _write_nested_lists(db, live):
    variables = db.load_instance("I1").variables
    variables["items"][1].append(3)
    variables["pair"][1].append(3)


def _write_history_entries(db, live):
    history = db.load_instance("I1").history
    history[0]["detail"] = "changed"
    history[1]["detail"].append("changed")


def _write_document_before_first_read(db, live):
    db.load_instance("I1").variables["document"].set("lines[0].quantity", 99)


def _write_document_after_first_read(db, live):
    document = db.load_instance("I1").step_state("a").outputs["document"]
    assert document.get("n") == "PO-1"
    document.data["lines"].append({"sku": "Y"})


def _write_live_instance_after_store(db, live):
    live.variables["document"].data["n"] = "changed"
    live.variables["items"][1].append(3)
    live.variables["pair"][1].append(3)
    live.step_state("a").outputs["approved"] = False
    live.history[0]["detail"] = "changed"


def _store_undecoded_document_again_then_write(db, live):
    loaded = db.load_instance("I1")
    document = loaded.variables["document"]
    assert type(document) is not Document  # not read yet: the store reuses its bytes
    db.store_instance(loaded)
    document.data["n"] = "changed"


MUTATIONS = {
    "variables": lambda db, live: db.load_instance("I1").variables.update(leak=True),
    "nested-lists": _write_nested_lists,
    "step-outputs": lambda db, live: db.load_instance("I1").step_state("a").outputs.clear(),
    "signals": lambda db, live: db.load_instance("I1").set_signal("a", "b", False),
    "history-entries": _write_history_entries,
    "document-before-first-read": _write_document_before_first_read,
    "document-after-first-read": _write_document_after_first_read,
    "live-instance-after-store": _write_live_instance_after_store,
    "stored-again-undecoded-document": _store_undecoded_document_again_then_write,
}


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=list(MUTATIONS))
def test_no_write_to_a_load_or_the_live_instance_reaches_the_store(mutate):
    db, live = _stored()
    expected = db.load_instance("I1").to_dict()
    snapshot = db.snapshot()
    mutate(db, live)
    assert db.load_instance("I1").to_dict() == expected
    assert db.snapshot() == snapshot


DOCUMENT_OPERATIONS = {
    "isinstance": lambda document: isinstance(document, Document),
    "eq": lambda document: (document == ORIGINAL, ORIGINAL == document),
    "get": lambda document: document.get("lines[0].sku"),
    "set": lambda document: (document.set("lines[+]", {"sku": "Y"}), document.data)[1],
    "copy": lambda document: document.copy(),
    "to_dict": lambda document: document.to_dict(),
    "content_digest": lambda document: document.content_digest(),
    "repr": repr,
}


@pytest.mark.parametrize("operation", DOCUMENT_OPERATIONS.values(), ids=list(DOCUMENT_OPERATIONS))
def test_loaded_document_behaves_as_a_document(operation):
    db, _ = _stored()
    loaded = db.load_instance("I1").variables["document"]
    assert operation(loaded) == operation(ORIGINAL.copy())


@pytest.mark.parametrize(
    "duplicate",
    [lambda document: pickle.loads(pickle.dumps(document)), copy.deepcopy, Document.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_loaded_document_copies_to_a_plain_document(duplicate):
    db, _ = _stored()
    loaded = db.load_instance("I1").variables["document"]
    duplicated = duplicate(loaded)
    assert type(duplicated) is Document
    assert duplicated == loaded == ORIGINAL
    duplicated.data["n"] = "changed"
    assert loaded.get("n") == "PO-1"


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
