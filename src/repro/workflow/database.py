"""The workflow database of Figure 4: types and instances, persisted.

Every state advance follows the paper's cycle — "the workflow engine
retrieves the state of the workflow instance in question, advances the
workflow instance and stores the advanced state ... back into the
database".  To make that boundary real (and measurable, experiment F4),
an engine never holds live references into the database, and the
``loads``/``stores`` counters expose the persistence traffic.

The boundary is kept cheap in two ways:

* an instance is stored as pickled bytes and every load unpickles a
  private copy.  The database only ever unpickles bytes it pickled itself
  in this process; :meth:`WorkflowDatabase.snapshot` and
  :meth:`WorkflowDatabase.restore` speak JSON, so no external bytes reach
  ``pickle.loads``;
* a type is stored as its definition and built once per
  ``(name, version)``.  Every load hands out that same read-only
  :class:`~repro.workflow.definitions.WorkflowType` until the version is
  stored again or deleted.
"""

from __future__ import annotations

import copy
import json
import pickle
from typing import Any

from repro.errors import DocumentError, InstanceError, PersistenceError
from repro.workflow.definitions import WorkflowType
from repro.workflow.instance import WorkflowInstance

__all__ = ["WorkflowDatabase", "ReplicatedDatabase"]


class WorkflowDatabase:
    """In-memory workflow database with snapshot persistence semantics."""

    def __init__(self, name: str = "workflow-db"):
        self.name = name
        self._types: dict[tuple[str, str], dict[str, Any]] = {}
        self._built_types: dict[tuple[str, str], WorkflowType] = {}
        self._instances: dict[str, bytes] = {}
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

    def type_keys(self) -> list[tuple[str, str]]:
        """All stored (name, version) pairs."""
        return sorted(self._types)

    # -- workflow instances ---------------------------------------------------------

    def store_instance(self, instance: WorkflowInstance) -> None:
        """Persist the instance snapshot.

        Raises :class:`PersistenceError`, storing nothing, when a value the
        instance holds cannot be pickled (a lambda, an open file).
        """
        try:
            snapshot = pickle.dumps(instance, pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise PersistenceError(
                f"{self.name}: cannot persist workflow instance "
                f"{instance.instance_id!r}: {exc}"
            ) from exc
        self._instances[instance.instance_id] = snapshot
        self.instance_stores += 1

    def has_instance(self, instance_id: str) -> bool:
        """True when an instance with this id is stored."""
        return instance_id in self._instances

    def load_instance(self, instance_id: str) -> WorkflowInstance:
        """Load a private copy of an instance snapshot."""
        self.instance_loads += 1
        snapshot = self._instances.get(instance_id)
        if snapshot is None:
            raise PersistenceError(f"{self.name}: no workflow instance {instance_id!r}")
        return pickle.loads(snapshot)

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
        instances = [pickle.loads(snapshot) for snapshot in self._instances.values()]
        if status is not None:
            instances = [instance for instance in instances if instance.status == status]
        return instances

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
                    pickle.loads(snapshot).to_dict()
                    for _, snapshot in sorted(self._instances.items())
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
                database._instances[instance.instance_id] = pickle.dumps(
                    instance, pickle.HIGHEST_PROTOCOL
                )
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
