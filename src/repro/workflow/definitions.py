"""Workflow types: steps, control flow, data flow, subworkflows.

A :class:`WorkflowType` is the static definition the paper's Section 2.1
describes: a directed acyclic graph of steps connected by
:class:`Transition` arcs (conditions for XOR branches, parallel fan-out via
multiple unconditioned arcs, AND/XOR joins), with instance **variables** as
the data-flow medium — activity inputs are expressions over variables,
activity outputs are written back to variables.

Step kinds:

* :class:`ActivityStep` — an elementary workflow step executing a named
  activity implementation;
* :class:`SubworkflowStep` — a workflow step that is a workflow in itself
  (the paper's subworkflow, with its strict "return control only when
  finished" semantics);
* :class:`RemoteSubworkflowStep` — a subworkflow executed on another
  engine (workflow instance *distribution*, Figure 5(b));
* :class:`LoopStep` — structured iteration over a body subworkflow
  (while/until), keeping the step graph itself acyclic.

Cycles in the transition graph are rejected at validation time; iteration
is expressed with :class:`LoopStep`.

Types and steps are read-only once built: the workflow database hands the
same :class:`WorkflowType` object to every caller, so its step, variable
and metadata mappings are read-only views and its transitions a tuple.
Values nested inside those mappings are shared too and must not be
mutated.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterable, Mapping

from repro.errors import DefinitionError
from repro.workflow.expressions import Expression

__all__ = [
    "JOIN_AND",
    "JOIN_XOR",
    "ActivityStep",
    "SubworkflowStep",
    "RemoteSubworkflowStep",
    "LoopStep",
    "Transition",
    "WorkflowType",
    "WorkflowBuilder",
]

JOIN_AND = "AND"
JOIN_XOR = "XOR"


@dataclass(frozen=True)
class _BaseStep:
    """Fields shared by every step kind."""

    step_id: str
    label: str = ""
    join: str = JOIN_AND
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Frozen fields cannot be rebound; the mappings become read-only
        # views over private copies so the caller's dicts stay theirs.
        for name in ("inputs", "outputs", "params"):
            if hasattr(self, name):
                object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    def _validate_base(self) -> None:
        if not self.step_id:
            raise DefinitionError("step_id must be non-empty")
        if self.join not in (JOIN_AND, JOIN_XOR):
            raise DefinitionError(
                f"step {self.step_id!r}: join must be AND or XOR, got {self.join!r}"
            )


@dataclass(frozen=True)
class ActivityStep(_BaseStep):
    """An elementary step executing the activity named ``activity``.

    :param inputs: activity input name -> expression over instance variables.
    :param outputs: instance variable name -> activity output key.
    :param params: static configuration passed verbatim to the activity.
    """

    activity: str = ""
    inputs: Mapping[str, str] = field(default_factory=dict)
    outputs: Mapping[str, str] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)

    kind = "activity"

    def validate(self) -> None:
        self._validate_base()
        if not self.activity:
            raise DefinitionError(f"step {self.step_id!r}: activity name missing")
        for expression_text in self.inputs.values():
            Expression.shared(expression_text)


@dataclass(frozen=True)
class SubworkflowStep(_BaseStep):
    """A step whose implementation is another workflow type.

    :param subworkflow: child workflow type name.
    :param version: child type version ("" = latest at instantiation,
        i.e. late binding; a pinned version is the paper's "fully resolved"
        alternative).
    :param inputs: child variable name -> expression over parent variables.
    :param outputs: parent variable name -> child variable name.
    """

    subworkflow: str = ""
    version: str = ""
    inputs: Mapping[str, str] = field(default_factory=dict)
    outputs: Mapping[str, str] = field(default_factory=dict)

    kind = "subworkflow"

    def validate(self) -> None:
        self._validate_base()
        if not self.subworkflow:
            raise DefinitionError(f"step {self.step_id!r}: subworkflow name missing")
        for expression_text in self.inputs.values():
            Expression.shared(expression_text)


@dataclass(frozen=True)
class RemoteSubworkflowStep(_BaseStep):
    """A subworkflow executed by a *different* engine (Figure 5(b)).

    The master engine only needs the child's interface (inputs/outputs);
    the remote engine must hold the child's definition — exactly the
    knowledge split Section 2.1 describes.
    """

    subworkflow: str = ""
    engine: str = ""
    version: str = ""
    inputs: Mapping[str, str] = field(default_factory=dict)
    outputs: Mapping[str, str] = field(default_factory=dict)

    kind = "remote_subworkflow"

    def validate(self) -> None:
        self._validate_base()
        if not self.subworkflow:
            raise DefinitionError(f"step {self.step_id!r}: subworkflow name missing")
        if not self.engine:
            raise DefinitionError(f"step {self.step_id!r}: remote engine missing")
        for expression_text in self.inputs.values():
            Expression.shared(expression_text)


@dataclass(frozen=True)
class LoopStep(_BaseStep):
    """Structured iteration over a ``body`` subworkflow.

    ``mode="while"`` evaluates ``condition`` *before* each iteration and
    runs the body while it holds; ``mode="until"`` runs the body first and
    repeats until the condition holds.  ``max_iterations`` is a mandatory
    runaway guard (endless loops are one of the change-management hazards
    Section 2.3 lists).
    """

    body: str = ""
    condition: str = "False"
    mode: str = "while"
    max_iterations: int = 100
    inputs: Mapping[str, str] = field(default_factory=dict)
    outputs: Mapping[str, str] = field(default_factory=dict)

    kind = "loop"

    def validate(self) -> None:
        self._validate_base()
        if not self.body:
            raise DefinitionError(f"step {self.step_id!r}: loop body missing")
        if self.mode not in ("while", "until"):
            raise DefinitionError(
                f"step {self.step_id!r}: mode must be 'while' or 'until'"
            )
        if self.max_iterations < 1:
            raise DefinitionError(
                f"step {self.step_id!r}: max_iterations must be >= 1"
            )
        Expression.shared(self.condition)
        for expression_text in self.inputs.values():
            Expression.shared(expression_text)


Step = ActivityStep | SubworkflowStep | RemoteSubworkflowStep | LoopStep

_STEP_CLASSES: dict[str, type] = {
    "activity": ActivityStep,
    "subworkflow": SubworkflowStep,
    "remote_subworkflow": RemoteSubworkflowStep,
    "loop": LoopStep,
}


@dataclass(frozen=True)
class Transition:
    """A control-flow arc from ``source`` to ``target``.

    ``condition`` is an expression over instance variables (``None`` means
    unconditionally true).  ``otherwise=True`` marks the default arc of an
    XOR split: it fires iff every conditioned sibling arc evaluated false.
    """

    source: str
    target: str
    condition: str | None = None
    otherwise: bool = False

    def __post_init__(self) -> None:
        if self.condition is not None and self.otherwise:
            raise DefinitionError(
                f"transition {self.source}->{self.target}: a condition and "
                "otherwise are mutually exclusive"
            )
        if self.condition is not None:
            Expression.shared(self.condition)


class WorkflowType:
    """A validated workflow definition.

    :param name: type name, unique within a workflow database.
    :param steps: the step list (ids unique).
    :param transitions: control-flow arcs between step ids.
    :param variables: instance variable defaults.
    :param version: definition version; engines resolve ("name", "version").
    :param owner: the enterprise that authored this type — the knowledge-
        exposure metric (Figure 7 experiment) counts foreign-owned types
        holding business rules.
    :param metadata: free-form annotations (e.g. ``{"private": True}``).
    """

    def __init__(
        self,
        name: str,
        steps: Iterable[Step],
        transitions: Iterable[Transition] = (),
        variables: dict[str, Any] | None = None,
        version: str = "1",
        owner: str = "",
        metadata: dict[str, Any] | None = None,
    ):
        if not name:
            raise DefinitionError("workflow type name must be non-empty")
        self.name = name
        self.version = version
        self.owner = owner
        steps_by_id: dict[str, Step] = {}
        for step in steps:
            step.validate()
            if step.step_id in steps_by_id:
                raise DefinitionError(
                    f"workflow {name!r}: duplicate step id {step.step_id!r}"
                )
            steps_by_id[step.step_id] = step
        if not steps_by_id:
            raise DefinitionError(f"workflow {name!r} has no steps")
        self.steps: Mapping[str, Step] = MappingProxyType(steps_by_id)
        self.transitions: tuple[Transition, ...] = tuple(transitions)
        self.variables: Mapping[str, Any] = MappingProxyType(dict(variables or {}))
        self.metadata: Mapping[str, Any] = MappingProxyType(dict(metadata or {}))
        self._incoming: dict[str, list[Transition]] = {sid: [] for sid in self.steps}
        self._outgoing: dict[str, list[Transition]] = {sid: [] for sid in self.steps}
        for transition in self.transitions:
            for end in (transition.source, transition.target):
                if end not in self.steps:
                    raise DefinitionError(
                        f"workflow {name!r}: transition references unknown step {end!r}"
                    )
            self._outgoing[transition.source].append(transition)
            self._incoming[transition.target].append(transition)
        self._validate_otherwise()
        self._validate_acyclic()

    # -- validation -------------------------------------------------------------

    def _validate_otherwise(self) -> None:
        for step_id, arcs in self._outgoing.items():
            otherwise_arcs = [arc for arc in arcs if arc.otherwise]
            conditioned = [arc for arc in arcs if arc.condition is not None]
            if len(otherwise_arcs) > 1:
                raise DefinitionError(
                    f"workflow {self.name!r}: step {step_id!r} has multiple "
                    "otherwise transitions"
                )
            if otherwise_arcs and not conditioned:
                raise DefinitionError(
                    f"workflow {self.name!r}: step {step_id!r} has an otherwise "
                    "transition but no conditioned siblings"
                )

    def _validate_acyclic(self) -> None:
        state: dict[str, int] = {}  # 0 = visiting, 1 = done

        def visit(step_id: str, stack: list[str]) -> None:
            marker = state.get(step_id)
            if marker == 1:
                return
            if marker == 0:
                cycle = " -> ".join([*stack, step_id])
                raise DefinitionError(
                    f"workflow {self.name!r} has a control-flow cycle: {cycle}; "
                    "use a LoopStep for iteration"
                )
            state[step_id] = 0
            for transition in self._outgoing[step_id]:
                visit(transition.target, [*stack, step_id])
            state[step_id] = 1

        for step_id in self.steps:
            visit(step_id, [])
        if not self.start_steps():
            raise DefinitionError(f"workflow {self.name!r} has no start step")

    # -- topology queries ----------------------------------------------------------

    def step(self, step_id: str) -> Step:
        """Return the step with ``step_id``."""
        try:
            return self.steps[step_id]
        except KeyError:
            raise DefinitionError(
                f"workflow {self.name!r} has no step {step_id!r}"
            ) from None

    def start_steps(self) -> list[Step]:
        """Steps with no incoming transitions (initial tokens)."""
        return [step for sid, step in self.steps.items() if not self._incoming[sid]]

    def incoming(self, step_id: str) -> list[Transition]:
        """Incoming transitions of ``step_id``."""
        return list(self._incoming[step_id])

    def outgoing(self, step_id: str) -> list[Transition]:
        """Outgoing transitions of ``step_id``."""
        return list(self._outgoing[step_id])

    # -- complexity measures (experiments F9/F10) ------------------------------------

    def step_count(self) -> int:
        """Number of steps."""
        return len(self.steps)

    def transition_count(self) -> int:
        """Number of control-flow arcs."""
        return len(self.transitions)

    def condition_count(self) -> int:
        """Number of conditioned arcs (XOR decision surface)."""
        return sum(1 for arc in self.transitions if arc.condition is not None)

    def steps_tagged(self, tag: str) -> list[Step]:
        """Steps annotated with ``tag`` (e.g. 'transformation', 'business-rule')."""
        return [step for step in self.steps.values() if tag in step.tags]

    # -- serialization (type migration, Figure 6) ------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-compatible definition for storage or migration."""
        steps = []
        for step in self.steps.values():
            entry: dict[str, Any] = {"kind": step.kind, "step_id": step.step_id,
                                     "label": step.label, "join": step.join,
                                     "tags": list(step.tags)}
            for attribute in ("activity", "subworkflow", "engine", "version",
                              "body", "condition", "mode", "max_iterations",
                              "inputs", "outputs", "params"):
                if hasattr(step, attribute):
                    entry[attribute] = _plain_copy(getattr(step, attribute))
            steps.append(entry)
        return {
            "name": self.name,
            "version": self.version,
            "owner": self.owner,
            "steps": steps,
            "transitions": [
                {
                    "source": arc.source,
                    "target": arc.target,
                    "condition": arc.condition,
                    "otherwise": arc.otherwise,
                }
                for arc in self.transitions
            ],
            "variables": _plain_copy(self.variables),
            "metadata": _plain_copy(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "WorkflowType":
        """Rebuild a type serialized with :meth:`to_dict`."""
        steps: list[Step] = []
        for entry in payload["steps"]:
            entry = dict(entry)
            kind = entry.pop("kind")
            try:
                step_class = _STEP_CLASSES[kind]
            except KeyError:
                raise DefinitionError(f"unknown step kind {kind!r}") from None
            entry["tags"] = tuple(entry.get("tags", ()))
            steps.append(step_class(**entry))
        transitions = [Transition(**entry) for entry in payload["transitions"]]
        return cls(
            payload["name"],
            steps,
            transitions,
            variables=payload.get("variables"),
            version=payload.get("version", "1"),
            owner=payload.get("owner", ""),
            metadata=payload.get("metadata"),
        )

    def __repr__(self) -> str:
        return (
            f"WorkflowType({self.name!r} v{self.version}, "
            f"{self.step_count()} steps, {self.transition_count()} transitions)"
        )


def _plain_copy(value: Any) -> Any:
    """Deep copy ``value``, turning a read-only mapping back into a dict."""
    if isinstance(value, MappingProxyType):
        value = dict(value)
    return _copy.deepcopy(value)


class WorkflowBuilder:
    """Fluent construction of workflow types.

    >>> builder = WorkflowBuilder("demo")
    >>> _ = builder.activity("a", "noop")
    >>> _ = builder.activity("b", "noop")
    >>> _ = builder.link("a", "b")
    >>> builder.build().step_count()
    2
    """

    def __init__(self, name: str, version: str = "1", owner: str = ""):
        self.name = name
        self.version = version
        self.owner = owner
        self._steps: list[Step] = []
        self._transitions: list[Transition] = []
        self._variables: dict[str, Any] = {}
        self._metadata: dict[str, Any] = {}
        self._last_step: str | None = None

    def activity(
        self,
        step_id: str,
        activity: str,
        inputs: dict[str, str] | None = None,
        outputs: dict[str, str] | None = None,
        params: dict[str, Any] | None = None,
        join: str = JOIN_AND,
        tags: Iterable[str] = (),
        label: str = "",
        after: str | None = None,
        condition: str | None = None,
    ) -> "WorkflowBuilder":
        """Add an activity step; ``after`` chains from a previous step
        (default: the previously added step when ``after`` is ``"<prev>"``)."""
        step = ActivityStep(
            step_id=step_id,
            label=label or step_id,
            join=join,
            tags=tuple(tags),
            activity=activity,
            inputs=dict(inputs or {}),
            outputs=dict(outputs or {}),
            params=dict(params or {}),
        )
        self._add_step(step, after, condition)
        return self

    def subworkflow(
        self,
        step_id: str,
        subworkflow: str,
        inputs: dict[str, str] | None = None,
        outputs: dict[str, str] | None = None,
        version: str = "",
        join: str = JOIN_AND,
        tags: Iterable[str] = (),
        after: str | None = None,
        condition: str | None = None,
    ) -> "WorkflowBuilder":
        """Add a subworkflow step."""
        step = SubworkflowStep(
            step_id=step_id,
            label=step_id,
            join=join,
            tags=tuple(tags),
            subworkflow=subworkflow,
            version=version,
            inputs=dict(inputs or {}),
            outputs=dict(outputs or {}),
        )
        self._add_step(step, after, condition)
        return self

    def loop(
        self,
        step_id: str,
        body: str,
        condition: str,
        mode: str = "while",
        max_iterations: int = 100,
        inputs: dict[str, str] | None = None,
        outputs: dict[str, str] | None = None,
        after: str | None = None,
    ) -> "WorkflowBuilder":
        """Add a loop step."""
        step = LoopStep(
            step_id=step_id,
            label=step_id,
            body=body,
            condition=condition,
            mode=mode,
            max_iterations=max_iterations,
            inputs=dict(inputs or {}),
            outputs=dict(outputs or {}),
        )
        self._add_step(step, after, None)
        return self

    def _add_step(self, step: Step, after: str | None, condition: str | None) -> None:
        self._steps.append(step)
        if after == "<prev>":
            after = self._last_step
        if after is not None:
            self._transitions.append(Transition(after, step.step_id, condition))
        self._last_step = step.step_id

    def link(
        self,
        source: str,
        target: str,
        condition: str | None = None,
        otherwise: bool = False,
    ) -> "WorkflowBuilder":
        """Add an explicit transition."""
        self._transitions.append(Transition(source, target, condition, otherwise))
        return self

    def variable(self, name: str, default: Any = None) -> "WorkflowBuilder":
        """Declare an instance variable with a default."""
        self._variables[name] = default
        return self

    def meta(self, **entries: Any) -> "WorkflowBuilder":
        """Attach metadata entries."""
        self._metadata.update(entries)
        return self

    def build(self) -> WorkflowType:
        """Validate and return the workflow type."""
        return WorkflowType(
            self.name,
            self._steps,
            self._transitions,
            variables=self._variables,
            version=self.version,
            owner=self.owner,
            metadata=self._metadata,
        )
