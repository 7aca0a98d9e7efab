"""Workflow instances: the runtime state the engine advances and persists.

Per Section 2.1, "at any point in time a workflow instance is either
persisted in the database or in state transition in the workflow engine".
A :class:`WorkflowInstance` is the persistable object: variables, per-step
states, lifecycle status, hierarchy links (parent instance/step for
subworkflows), and an append-only history of execution events.

An instance loaded from the workflow database holds its history as the
stored record's entries until something reads :attr:`WorkflowInstance.history`;
``record()`` appends without decoding them, so a store of an instance
whose history was never read encodes only the entries appended since
the load.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass, field
from typing import Any

from repro.errors import InstanceError

__all__ = [
    "StepState",
    "WorkflowInstance",
    # step statuses
    "STEP_PENDING",
    "STEP_READY",
    "STEP_WAITING",
    "STEP_COMPLETED",
    "STEP_SKIPPED",
    "STEP_FAILED",
    # instance statuses
    "INSTANCE_CREATED",
    "INSTANCE_RUNNING",
    "INSTANCE_WAITING",
    "INSTANCE_COMPLETED",
    "INSTANCE_FAILED",
    "INSTANCE_CANCELLED",
    "INSTANCE_MIGRATED",
]

STEP_PENDING = "pending"        # join not yet satisfied
STEP_READY = "ready"            # eligible for execution
STEP_WAITING = "waiting"        # started, parked on an external event
STEP_COMPLETED = "completed"
STEP_SKIPPED = "skipped"        # dead path (all incoming signals false)
STEP_FAILED = "failed"

TERMINAL_STEP_STATUSES = (STEP_COMPLETED, STEP_SKIPPED, STEP_FAILED)

INSTANCE_CREATED = "created"
INSTANCE_RUNNING = "running"
INSTANCE_WAITING = "waiting"
INSTANCE_COMPLETED = "completed"
INSTANCE_FAILED = "failed"
INSTANCE_CANCELLED = "cancelled"
INSTANCE_MIGRATED = "migrated"  # moved to another engine (Figure 5(a))

TERMINAL_INSTANCE_STATUSES = (
    INSTANCE_COMPLETED,
    INSTANCE_FAILED,
    INSTANCE_CANCELLED,
    INSTANCE_MIGRATED,
)


@dataclass
class StepState:
    """Runtime state of one step within one instance."""

    step_id: str
    status: str = STEP_PENDING
    outputs: dict[str, Any] = field(default_factory=dict)
    iterations: int = 0            # loop steps: completed body runs
    child_instance_id: str = ""    # subworkflow steps: the running child
    wait_key: str = ""             # waiting steps: the event key that resumes
    error: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "step_id": self.step_id,
            "status": self.status,
            # outputs may carry documents (e.g. an extracted POA)
            "outputs": _encode_variables(self.outputs),
            "iterations": self.iterations,
            "child_instance_id": self.child_instance_id,
            "wait_key": self.wait_key,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "StepState":
        payload = dict(payload)
        payload["outputs"] = _decode_variables(payload.get("outputs", {}))
        return cls(**payload)


class WorkflowInstance:
    """One execution of a workflow type.

    Transition *signals* implement dead-path elimination: every control-flow
    arc eventually carries ``True`` (taken) or ``False`` (dead); a step's
    join fires or skips once all its incoming signals are present.

    :attr:`history` reads as a plain list of entry dicts on every
    instance; on a load, the first read decodes it (see the module
    docstring).
    """

    def __init__(
        self,
        instance_id: str,
        type_name: str,
        type_version: str,
        step_ids: list[str],
        variables: dict[str, Any] | None = None,
        parent_instance_id: str = "",
        parent_step_id: str = "",
        created_at: float = 0.0,
    ):
        if not instance_id:
            raise InstanceError("instance_id must be non-empty")
        self.instance_id = instance_id
        self.type_name = type_name
        self.type_version = type_version
        self.variables: dict[str, Any] = dict(variables or {})
        self.steps: dict[str, StepState] = {
            step_id: StepState(step_id) for step_id in step_ids
        }
        self.signals: dict[tuple[str, str], bool] = {}
        self.status = INSTANCE_CREATED
        self.parent_instance_id = parent_instance_id
        self.parent_step_id = parent_step_id
        self.created_at = created_at
        self.completed_at: float | None = None
        self.history = []
        self.error: str = ""

    # -- step state access ---------------------------------------------------

    def step_state(self, step_id: str) -> StepState:
        """Return the state record for ``step_id``."""
        try:
            return self.steps[step_id]
        except KeyError:
            raise InstanceError(
                f"instance {self.instance_id} has no step {step_id!r}"
            ) from None

    def steps_in_status(self, status: str) -> list[StepState]:
        """All step states currently in ``status``."""
        return [state for state in self.steps.values() if state.status == status]

    def all_steps_terminal(self) -> bool:
        """True when every step reached a terminal status."""
        return all(
            state.status in TERMINAL_STEP_STATUSES for state in self.steps.values()
        )

    def is_terminal(self) -> bool:
        """True when the instance reached a terminal lifecycle status."""
        return self.status in TERMINAL_INSTANCE_STATUSES

    # -- signals -----------------------------------------------------------------

    def set_signal(self, source: str, target: str, value: bool) -> None:
        """Record the truth value carried by arc ``source -> target``."""
        self.signals[(source, target)] = value

    def signal(self, source: str, target: str) -> bool | None:
        """Return the arc's signal, or ``None`` when not yet determined."""
        return self.signals.get((source, target))

    # -- history -------------------------------------------------------------------
    #
    # ``_stored_history`` is None, or, on a load whose history was not read
    # yet, the stored record's entries (an object whose ``decode()`` builds
    # fresh entry dicts); ``_history`` then holds only the entries
    # record() appended since the load.

    @property
    def history(self) -> list[dict[str, Any]]:
        """The audit history, one dict per event, oldest first."""
        stored = self._stored_history
        if stored is not None:
            history = stored.decode()
            history.extend(self._history)
            self._history = history
            self._stored_history = None
        return self._history

    @history.setter
    def history(self, entries: list[dict[str, Any]]) -> None:
        self._history = entries
        self._stored_history = None

    def record(self, at: float, event: str, step_id: str = "", detail: str = "") -> None:
        """Append an execution event to the audit history."""
        self._history.append(
            {"at": at, "event": event, "step_id": step_id, "detail": detail}
        )

    def events(self, event: str) -> list[dict[str, Any]]:
        """Return history entries with the given event name."""
        return [entry for entry in self.history if entry["event"] == event]

    # -- persistence -----------------------------------------------------------------

    def take_progress(self, stored: "WorkflowInstance") -> None:
        """Adopt the steps, signals, variables, history, status, completion
        time and error of ``stored``, a later load of this instance,
        leaving its history undecoded."""
        self.steps = stored.steps
        self.signals = stored.signals
        self.variables = stored.variables
        self._history = stored._history
        self._stored_history = stored._stored_history
        self.status = stored.status
        self.completed_at = stored.completed_at
        self.error = stored.error

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible snapshot (documents in variables are enveloped)."""
        return {
            "instance_id": self.instance_id,
            "type_name": self.type_name,
            "type_version": self.type_version,
            "variables": _encode_variables(self.variables),
            "steps": [state.to_dict() for state in self.steps.values()],
            "signals": [
                {"source": source, "target": target, "value": value}
                for (source, target), value in self.signals.items()
            ],
            "status": self.status,
            "parent_instance_id": self.parent_instance_id,
            "parent_step_id": self.parent_step_id,
            "created_at": self.created_at,
            "completed_at": self.completed_at,
            "history": _copy.deepcopy(self.history),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "WorkflowInstance":
        """Rebuild an instance snapshot."""
        instance = cls(
            payload["instance_id"],
            payload["type_name"],
            payload["type_version"],
            step_ids=[],
            variables=_decode_variables(payload["variables"]),
            parent_instance_id=payload.get("parent_instance_id", ""),
            parent_step_id=payload.get("parent_step_id", ""),
            created_at=payload.get("created_at", 0.0),
        )
        instance.steps = {
            entry["step_id"]: StepState.from_dict(entry) for entry in payload["steps"]
        }
        instance.signals = {
            (entry["source"], entry["target"]): entry["value"]
            for entry in payload.get("signals", [])
        }
        instance.status = payload["status"]
        instance.completed_at = payload.get("completed_at")
        instance.history = list(payload.get("history", []))
        instance.error = payload.get("error", "")
        return instance

    def __repr__(self) -> str:
        return (
            f"WorkflowInstance({self.instance_id!r} of {self.type_name!r}, "
            f"status={self.status})"
        )


def _encode_variables(variables: dict[str, Any]) -> dict[str, Any]:
    from repro.documents.model import Document  # local import to avoid cycle

    encoded: dict[str, Any] = {}
    for name, value in variables.items():
        if isinstance(value, Document):
            encoded[name] = {"__document__": value.to_dict()}
        else:
            encoded[name] = _copy.deepcopy(value)
    return encoded


def _decode_variables(variables: dict[str, Any]) -> dict[str, Any]:
    from repro.documents.model import Document  # local import to avoid cycle

    decoded: dict[str, Any] = {}
    for name, value in variables.items():
        if isinstance(value, dict) and "__document__" in value:
            decoded[name] = Document.from_dict(value["__document__"])
        else:
            decoded[name] = _copy.deepcopy(value)
    return decoded
