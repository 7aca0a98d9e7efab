"""The workflow database of Figure 4: types and instances, persisted.

Every state advance follows the paper's cycle — "the workflow engine
retrieves the state of the workflow instance in question, advances the
workflow instance and stores the advanced state ... back into the
database".  To make that boundary real (and measurable, experiment F4),
an engine never holds live references into the database, and the
``loads``/``stores`` counters expose the persistence traffic.

The boundary is kept cheap in two ways:

* an instance is stored as an immutable record of nested tuples, and
  every load builds fresh containers from it, so each load is a private
  copy of the instance.  Scalars go into the record as they are, and so
  does a sealed document: it cannot change, so the record holds the
  object itself and every load returns that same object.  An unsealed
  document becomes its format, its doc type and the pickled bytes of its
  content, and each load decodes a private copy; any other value is
  pickled.  A loaded instance's history stays the record's entries until
  the first read of ``history``, and a store before that read reuses
  them and encodes only the entries ``record()`` appended since the
  load.  The database only ever unpickles bytes it pickled itself in
  this process; :meth:`WorkflowDatabase.snapshot` and
  :meth:`WorkflowDatabase.restore` speak JSON, so no external bytes
  reach ``pickle.loads``;
* a type is stored as its definition and built once per
  ``(name, version)``.  Every load hands out that same read-only
  :class:`~repro.workflow.definitions.WorkflowType` until the version is
  stored again or deleted.
"""

from __future__ import annotations

import copy
import json
import operator
import pickle
from itertools import chain
from typing import Any

from repro.documents.model import Document
from repro.errors import DocumentError, InstanceError, PersistenceError
from repro.workflow.definitions import WorkflowType
from repro.workflow.instance import StepState, WorkflowInstance

__all__ = ["WorkflowDatabase", "ReplicatedDatabase"]


class WorkflowDatabase:
    """In-memory workflow database with snapshot persistence semantics.

    ``instance_loads``/``instance_stores``/``type_loads`` count the
    Figure 4 traffic.
    """

    def __init__(self, name: str = "workflow-db"):
        self.name = name
        self._types: dict[tuple[str, str], dict[str, Any]] = {}
        self._built_types: dict[tuple[str, str], WorkflowType] = {}
        self._instances: dict[str, tuple] = {}
        self.type_stores = 0
        self.type_loads = 0
        self.instance_stores = 0
        self.instance_loads = 0

    # -- workflow types ----------------------------------------------------------

    def store_type(self, workflow_type: WorkflowType) -> None:
        """Persist (or overwrite) a workflow type definition."""
        key = (workflow_type.name, workflow_type.version)
        self._types[key] = workflow_type.to_dict()
        self._built_types.pop(key, None)
        self.type_stores += 1

    def has_type(self, name: str, version: str = "") -> bool:
        """True when the type (any version if ``version`` empty) is stored."""
        if version:
            return (name, version) in self._types
        return any(stored_name == name for stored_name, _ in self._types)

    def load_type(self, name: str, version: str = "") -> WorkflowType:
        """Load a type; empty ``version`` resolves to the highest version.

        Every load of one stored version returns the same read-only object.
        """
        self.type_loads += 1
        if version:
            key = (name, version)
            if key not in self._types:
                raise PersistenceError(
                    f"{self.name}: no workflow type {name!r} version {version!r}"
                )
            return self._built_type(key)
        candidates = [key for key in self._types if key[0] == name]
        if not candidates:
            raise PersistenceError(f"{self.name}: no workflow type {name!r}")
        return self._built_type(max(candidates, key=lambda key: _version_sort_key(key[1])))

    def _built_type(self, key: tuple[str, str]) -> WorkflowType:
        workflow_type = self._built_types.get(key)
        if workflow_type is None:
            # Built from a copy, so nothing reachable from the shared type
            # aliases the stored definition that snapshot() serializes.
            workflow_type = WorkflowType.from_dict(copy.deepcopy(self._types[key]))
            self._built_types[key] = workflow_type
        return workflow_type

    def delete_type(self, name: str, version: str) -> None:
        """Remove a stored type version."""
        try:
            del self._types[(name, version)]
        except KeyError:
            raise PersistenceError(
                f"{self.name}: no workflow type {name!r} version {version!r}"
            ) from None
        self._built_types.pop((name, version), None)

    def list_types(self) -> list[WorkflowType]:
        """All stored type definitions (used by the exposure metric)."""
        return [self._built_type(key) for key in self._types]

    # -- workflow instances ---------------------------------------------------------

    def store_instance(self, instance: WorkflowInstance) -> None:
        """Persist the instance as an immutable record.

        Raises :class:`PersistenceError`, storing nothing, when a value the
        instance holds cannot be pickled (a lambda, an open file).
        """
        try:
            record = _encode_instance(instance)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise PersistenceError(
                f"{self.name}: cannot persist workflow instance "
                f"{instance.instance_id!r}: {exc}"
            ) from exc
        self._instances[instance.instance_id] = record
        self.instance_stores += 1

    def has_instance(self, instance_id: str) -> bool:
        """True when an instance with this id is stored."""
        return instance_id in self._instances

    def load_instance(self, instance_id: str) -> WorkflowInstance:
        """Load a private copy of a stored instance."""
        self.instance_loads += 1
        record = self._instances.get(instance_id)
        if record is None:
            raise PersistenceError(f"{self.name}: no workflow instance {instance_id!r}")
        return _decode_instance(record)

    def delete_instance(self, instance_id: str) -> None:
        """Remove a stored instance."""
        try:
            del self._instances[instance_id]
        except KeyError:
            raise PersistenceError(
                f"{self.name}: no workflow instance {instance_id!r}"
            ) from None

    def list_instances(self, status: str | None = None) -> list[WorkflowInstance]:
        """All instances, optionally filtered by lifecycle status."""
        return [
            _decode_instance(record)
            for record in self._instances.values()
            if status is None or record[_STATUS] == status
        ]

    def instance_count(self) -> int:
        """Number of stored instances."""
        return len(self._instances)

    # -- durability --------------------------------------------------------------------

    def snapshot(self) -> str:
        """Serialize the whole database to a JSON string."""
        return json.dumps(
            {
                "name": self.name,
                "types": [
                    {"name": name, "version": version, "definition": payload}
                    for (name, version), payload in sorted(self._types.items())
                ],
                "instances": [
                    _decode_instance(record).to_dict()
                    for _, record in sorted(self._instances.items())
                ],
            }
        )

    @classmethod
    def restore(cls, snapshot: str) -> "WorkflowDatabase":
        """Rebuild a database from :meth:`snapshot` output."""
        try:
            payload = json.loads(snapshot)
            database = cls(payload["name"])
            for entry in payload["types"]:
                database._types[(entry["name"], entry["version"])] = entry["definition"]
            for entry in payload["instances"]:
                instance = WorkflowInstance.from_dict(entry)
                database._instances[instance.instance_id] = _encode_instance(instance)
        except (
            KeyError, TypeError, ValueError, AttributeError, DocumentError, InstanceError
        ) as exc:
            raise PersistenceError(f"corrupt database snapshot: {exc}") from exc
        return database


def _version_sort_key(version: str) -> tuple[int, Any]:
    """Sort numeric versions numerically, others lexicographically."""
    try:
        return (1, int(version))
    except ValueError:
        return (0, version)


# -- instance records ---------------------------------------------------------------
#
# A record is the tuple _encode_instance builds, status first.  Variables,
# step outputs and signals are stored as (pairs, keys): the (key, value)
# pairs in order, and the keys whose value is not a scalar and so is
# stored encoded.  An encoded value is a sealed document itself, an
# unsealed document as a (format, doc type, pickled content) tuple that
# every holder of that document shares, or the pickled bytes of any other
# value.  The history is a
# _StoredHistory of entries: a 4-tuple of its values when the entry is
# exactly what record() writes, and pickled bytes otherwise.

_STATUS = 0
_PROTOCOL = pickle.HIGHEST_PROTOCOL
# immutable values, kept in a record as they are
_SCALARS = frozenset((str, int, float, bool, type(None)))
_DICT = frozenset((dict,))
# the keys of a WorkflowInstance.record() history entry, in its order
_HISTORY_KEYS = ("at", "event", "step_id", "detail")
_RECORD_KEYS = frozenset((_HISTORY_KEYS,))
_RECORD_VALUES = operator.itemgetter(*_HISTORY_KEYS)
_EMPTY_MAPPING: tuple = ((), ())


class _StoredHistory(tuple):
    """A record's history entries.  A loaded instance holds them, shared
    with the record, until the first read of its ``history``."""

    __slots__ = ()

    def decode(self) -> list[dict[str, Any]]:
        """Fresh entry dicts, as ``record()`` wrote them."""
        return [
            {"at": entry[0], "event": entry[1], "step_id": entry[2], "detail": entry[3]}
            if type(entry) is tuple else pickle.loads(entry)
            for entry in self
        ]


def _encode_instance(instance: WorkflowInstance) -> tuple:
    documents: dict[int, tuple] = {}
    stored = instance._stored_history
    if stored is None:
        history = _StoredHistory(_encode_history(instance.history))
    elif instance._history:
        # history never read: only the entries record() appended are new
        history = _StoredHistory(stored + _encode_history(instance._history))
    else:
        history = stored
    return (
        instance.status,
        instance.instance_id,
        instance.type_name,
        instance.type_version,
        _encode_mapping(instance.variables, documents),
        tuple([
            (
                state.step_id,
                state.status,
                _encode_mapping(state.outputs, documents),
                state.iterations,
                state.child_instance_id,
                state.wait_key,
                state.error,
            )
            for state in instance.steps.values()
        ]),
        _encode_mapping(instance.signals, documents),
        instance.parent_instance_id,
        instance.parent_step_id,
        instance.created_at,
        instance.completed_at,
        history,
        instance.error,
    )


def _encode_mapping(mapping: dict, documents: dict[int, tuple]) -> tuple:
    if not mapping:
        return _EMPTY_MAPPING
    pairs = tuple(mapping.items())
    if _SCALARS.issuperset(map(type, mapping.values())):
        return pairs, ()
    encoded_pairs = []
    encoded_keys = []
    for key, value in pairs:
        if type(value) not in _SCALARS:
            value = _encode_value(value, documents)
            encoded_keys.append(key)
        encoded_pairs.append((key, value))
    return tuple(encoded_pairs), tuple(encoded_keys)


def _encode_value(value: Any, documents: dict[int, tuple]) -> Any:
    if type(value) is not Document:
        return pickle.dumps(value, _PROTOCOL)
    if value.sealed:
        return value
    # one entry per document object, so a document held twice loads as one
    entry = documents.get(id(value))
    if entry is None:
        entry = documents[id(value)] = (
            value.format_name, value.doc_type, pickle.dumps(value.data, _PROTOCOL)
        )
    return entry


def _encode_history(history: list) -> tuple:
    # The common case, every entry as record() wrote it, is checked in C
    # over the whole list; the per-entry loop handles any other history.
    if _DICT.issuperset(map(type, history)) and _RECORD_KEYS.issuperset(
        map(tuple, history)
    ):
        entries = tuple(map(_RECORD_VALUES, history))
        if _SCALARS.issuperset(map(type, chain.from_iterable(entries))):
            return entries
    return tuple([_encode_history_entry(entry) for entry in history])


def _encode_history_entry(entry: Any) -> Any:
    if type(entry) is dict and tuple(entry) == _HISTORY_KEYS:
        values = _RECORD_VALUES(entry)
        if _SCALARS.issuperset(map(type, values)):
            return values
    return pickle.dumps(entry, _PROTOCOL)


def _decode_instance(record: tuple) -> WorkflowInstance:
    (status, instance_id, type_name, type_version, variables, steps, signals,
     parent_instance_id, parent_step_id, created_at, completed_at, history,
     error) = record
    documents: dict[int, Document] = {}
    instance = WorkflowInstance.__new__(WorkflowInstance)
    instance.instance_id = instance_id
    instance.type_name = type_name
    instance.type_version = type_version
    instance.variables = _decode_mapping(variables, documents)
    instance.steps = {
        step_id: StepState(
            step_id, step_status, _decode_mapping(outputs, documents),
            iterations, child_instance_id, wait_key, step_error,
        )
        for (step_id, step_status, outputs, iterations, child_instance_id,
             wait_key, step_error) in steps
    }
    instance.signals = _decode_mapping(signals, documents)
    instance.status = status
    instance.parent_instance_id = parent_instance_id
    instance.parent_step_id = parent_step_id
    instance.created_at = created_at
    instance.completed_at = completed_at
    instance._history = []
    instance._stored_history = history
    instance.error = error
    return instance


def _decode_mapping(encoded: tuple, documents: dict[int, Document]) -> dict:
    pairs, keys = encoded
    mapping = dict(pairs)
    for key in keys:
        mapping[key] = _decode_value(mapping[key], documents)
    return mapping


def _decode_value(value: Any, documents: dict[int, Document]) -> Any:
    cls = type(value)
    if cls is bytes:
        return pickle.loads(value)
    if cls is Document:
        return value
    document = documents.get(id(value))
    if document is None:
        format_name, doc_type, content = value
        document = documents[id(value)] = Document(
            format_name, doc_type, pickle.loads(content)
        )
    return document


class ReplicatedDatabase(WorkflowDatabase):
    """Write-through replication across replica databases (Section 2.1's
    *workflow instance replication*: "any change in one workflow engine is
    automatically, consistently and immediately reflected in all the other
    workflow engine databases").
    """

    def __init__(self, name: str, replicas: list[WorkflowDatabase]):
        super().__init__(name)
        self.replicas = list(replicas)

    def store_type(self, workflow_type: WorkflowType) -> None:
        super().store_type(workflow_type)
        for replica in self.replicas:
            replica.store_type(workflow_type)

    def delete_type(self, name: str, version: str) -> None:
        super().delete_type(name, version)
        for replica in self.replicas:
            if replica.has_type(name, version):
                replica.delete_type(name, version)

    def store_instance(self, instance: WorkflowInstance) -> None:
        super().store_instance(instance)
        for replica in self.replicas:
            replica.store_instance(instance)

    def delete_instance(self, instance_id: str) -> None:
        super().delete_instance(instance_id)
        for replica in self.replicas:
            if replica.has_instance(instance_id):
                replica.delete_instance(instance_id)
