"""The workflow engine: the interpreter of Figure 4.

Execution follows the paper's engine/database contract: for every state
advance the engine **loads** the instance from the workflow database,
advances it by one step, and **stores** it back — the instance is never
resident in the engine between advances.  An advance task loads once per
iteration: before each step, and before settling.  Control-flow semantics:

* a step becomes *ready* when all its incoming transition signals are
  known and its join is satisfied (AND: all true; XOR: any true);
* when a step completes, each outgoing transition's condition is evaluated
  against the instance variables and the resulting truth value propagates
  (dead-path elimination: a false arc eventually *skips* downstream steps,
  and skipped steps propagate false further);
* subworkflow steps instantiate their child type and park until the child
  finishes — the child "cannot return control without being finished"
  (Section 3.1), which is precisely why subworkflows cannot encapsulate a
  receive...send message exchange;
* loop steps re-run a body subworkflow while/until a condition holds;
* activities may park their step (``Waiting``) until an external event —
  an arriving message, an approval — completes it via
  :meth:`WorkflowEngine.complete_waiting_step`.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.errors import ActivityError, DefinitionError, InstanceError, WorkflowError
from repro.messaging.envelope import IdGenerator
from repro.runtime import (
    InstanceCancelled,
    InstanceCompleted,
    InstanceCreated,
    InstanceFailed,
    InstanceStarted,
    Kernel,
    RuntimeEvent,
    StepCompleted,
    StepFailed,
    StepSkipped,
    StepStarted,
    StepWaiting,
)
from repro.sim import Clock
from repro.workflow.activities import ActivityContext, ActivityRegistry, Waiting, built_in_registry
from repro.workflow.database import WorkflowDatabase
from repro.workflow.definitions import (
    ActivityStep,
    JOIN_AND,
    LoopStep,
    RemoteSubworkflowStep,
    SubworkflowStep,
    Transition,
    WorkflowType,
)
from repro.workflow.expressions import Expression
from repro.workflow.instance import (
    INSTANCE_CANCELLED,
    INSTANCE_COMPLETED,
    INSTANCE_CREATED,
    INSTANCE_FAILED,
    INSTANCE_RUNNING,
    INSTANCE_WAITING,
    STEP_COMPLETED,
    STEP_FAILED,
    STEP_PENDING,
    STEP_READY,
    STEP_SKIPPED,
    STEP_WAITING,
    WorkflowInstance,
)

__all__ = ["WorkflowEngine"]


class WorkflowEngine:
    """A workflow engine bound to one workflow database.

    :param name: engine id (unique within an engine directory).
    :param database: the engine's workflow database (Figure 4).
    :param activities: activity implementations; defaults to the built-ins.
    :param clock: logical clock for timestamps (shared with the network
        scheduler in full-system runs).
    :param services: infrastructure injected into activity contexts.
    :param raise_on_failure: raise the underlying :class:`ActivityError`
        when a step fails (default); when False the instance is marked
        failed and execution returns normally (failure-injection tests).
    :param persistence: ``"per_step"`` (default) stores the instance after
        every advanced step — the paper's Figure 4 contract, maximally
        durable; ``"per_quiescence"`` stores only when the instance parks
        or terminates — the classic engine-implementation shortcut the
        paper alludes to ("sometimes the workflow instance carries the
        workflow type information with it avoiding repeated access"),
        faster but losing in-flight steps on a crash.  The ablation bench
        quantifies the trade.
    :param runtime: the runtime kernel this engine schedules on and emits
        lifecycle events to; engines in the same simulation share one
        kernel so all architectures produce a single event stream.  When
        omitted the engine gets a private :class:`~repro.runtime.Kernel`
        on its own clock.
    """

    PERSIST_PER_STEP = "per_step"
    PERSIST_PER_QUIESCENCE = "per_quiescence"

    def __init__(
        self,
        name: str,
        database: WorkflowDatabase | None = None,
        activities: ActivityRegistry | None = None,
        clock: Clock | None = None,
        services: dict[str, Any] | None = None,
        raise_on_failure: bool = True,
        persistence: str = PERSIST_PER_STEP,
        runtime: Kernel | None = None,
    ):
        if persistence not in (self.PERSIST_PER_STEP, self.PERSIST_PER_QUIESCENCE):
            raise WorkflowError(f"unknown persistence policy {persistence!r}")
        self.persistence = persistence
        self.name = name
        self.database = database or WorkflowDatabase(f"{name}-db")
        self.activities = activities or built_in_registry()
        if runtime is not None:
            self.runtime = runtime
            self.clock = clock or runtime.clock
        else:
            self.clock = clock or Clock()
            self.runtime = Kernel(clock=self.clock)
        self.services = dict(services or {})
        self.raise_on_failure = raise_on_failure
        self._ids = IdGenerator(f"WF-{name}")
        self._wait_index: dict[str, tuple[str, str]] = {}
        # Children started on this engine for masters elsewhere:
        # child instance id -> (master engine, parent instance, parent step).
        self._remote_parents: dict[str, tuple["WorkflowEngine", str, str]] = {}
        self._programs: dict[str, Callable[[Mapping[str, Any]], Any]] = {}

    @property
    def steps_executed(self) -> int:
        """Steps this engine executed (view over the kernel metrics)."""
        return self.runtime.metrics.count(StepStarted, source=self.name)

    @property
    def instances_completed(self) -> int:
        """Instances this engine completed (view over the kernel metrics)."""
        return self.runtime.metrics.count(InstanceCompleted, source=self.name)

    def _emit(self, event_cls: type[RuntimeEvent], **fields: Any) -> None:
        self.runtime.emit(event_cls, self.name, **fields)

    # ------------------------------------------------------------------ deploy

    def deploy(self, workflow_type: WorkflowType) -> None:
        """Store a workflow type in this engine's database."""
        self.database.store_type(workflow_type)

    def deploy_all(self, workflow_types: list[WorkflowType]) -> None:
        """Deploy several types."""
        for workflow_type in workflow_types:
            self.deploy(workflow_type)

    # ----------------------------------------------------------------- lifecycle

    def create_instance(
        self,
        type_name: str,
        version: str = "",
        variables: Mapping[str, Any] | None = None,
        parent_instance_id: str = "",
        parent_step_id: str = "",
    ) -> str:
        """Create (and persist) a new instance; returns its id."""
        workflow_type = self.database.load_type(type_name, version)
        merged = dict(workflow_type.variables)
        merged.update(variables or {})
        instance = WorkflowInstance(
            instance_id=self._ids.next(),
            type_name=workflow_type.name,
            type_version=workflow_type.version,
            step_ids=list(workflow_type.steps),
            variables=merged,
            parent_instance_id=parent_instance_id,
            parent_step_id=parent_step_id,
            created_at=self.clock.now(),
        )
        instance.record(self.clock.now(), "created")
        self.database.store_instance(instance)
        self._emit(
            InstanceCreated,
            instance_id=instance.instance_id,
            type_name=workflow_type.name,
        )
        return instance.instance_id

    def start(self, instance_id: str) -> None:
        """Mark the start steps ready and advance until quiescent."""
        instance = self.database.load_instance(instance_id)
        if instance.status != INSTANCE_CREATED:
            raise InstanceError(
                f"instance {instance_id} is {instance.status}; only created "
                "instances can be started"
            )
        workflow_type = self._type_of(instance)
        instance.status = INSTANCE_RUNNING
        for step in workflow_type.start_steps():
            instance.step_state(step.step_id).status = STEP_READY
        instance.record(self.clock.now(), "started")
        self.database.store_instance(instance)
        self._emit(
            InstanceStarted, instance_id=instance_id, type_name=instance.type_name
        )
        self._advance(instance_id)

    def run(
        self,
        type_name: str,
        variables: Mapping[str, Any] | None = None,
        version: str = "",
    ) -> WorkflowInstance:
        """Create and start an instance in one call; returns its snapshot."""
        instance_id = self.create_instance(type_name, version, variables)
        self.start(instance_id)
        return self.get_instance(instance_id)

    def get_instance(self, instance_id: str) -> WorkflowInstance:
        """Load the current snapshot of an instance."""
        return self.database.load_instance(instance_id)

    # ------------------------------------------------------------ waiting steps

    def complete_waiting_step(
        self, wait_key: str, outputs: Mapping[str, Any] | None = None
    ) -> None:
        """Complete the step parked under ``wait_key`` and advance."""
        try:
            instance_id, step_id = self._wait_index.pop(wait_key)
        except KeyError:
            raise InstanceError(f"no step waiting under key {wait_key!r}") from None
        instance = self.database.load_instance(instance_id)
        state = instance.step_state(step_id)
        if state.status != STEP_WAITING:
            raise InstanceError(
                f"step {step_id} of {instance_id} is {state.status}, not waiting"
            )
        workflow_type = self._type_of(instance)
        self._finish_step(instance, workflow_type, step_id, dict(outputs or {}))
        self.database.store_instance(instance)
        self._advance(instance_id)

    def cancel_waiting_step(self, wait_key: str, reason: str) -> WorkflowInstance:
        """Fail the step parked under ``wait_key`` (e.g. a reply timeout).

        The instance transitions to ``failed`` and the reason is recorded;
        unlike activity failures this never raises — cancellation is a
        deliberate host decision, not a bug.
        """
        try:
            instance_id, step_id = self._wait_index.pop(wait_key)
        except KeyError:
            raise InstanceError(f"no step waiting under key {wait_key!r}") from None
        instance = self.database.load_instance(instance_id)
        self._fail_step(instance, step_id, WorkflowError(reason))
        self.database.store_instance(instance)
        return instance

    # ----------------------------------------------------------- operations

    def cancel_instance(self, instance_id: str, reason: str = "") -> WorkflowInstance:
        """Cancel a non-terminal instance (and its running children).

        Parked wait keys are released; the instance transitions to
        ``cancelled`` with the reason recorded.
        """
        instance = self.database.load_instance(instance_id)
        if instance.is_terminal():
            raise InstanceError(
                f"instance {instance_id} is already {instance.status}"
            )
        for state in instance.steps.values():
            if state.status == STEP_WAITING:
                if state.wait_key:
                    self._wait_index.pop(state.wait_key, None)
                if state.child_instance_id and self.database.has_instance(
                    state.child_instance_id
                ):
                    child = self.database.load_instance(state.child_instance_id)
                    if not child.is_terminal():
                        self.cancel_instance(
                            state.child_instance_id, f"parent {instance_id} cancelled"
                        )
        instance.status = INSTANCE_CANCELLED
        instance.error = reason
        instance.record(self.clock.now(), "cancelled", detail=reason)
        self.database.store_instance(instance)
        self._emit(
            InstanceCancelled,
            instance_id=instance_id,
            type_name=instance.type_name,
            reason=reason,
        )
        return instance

    def retry_failed_step(self, instance_id: str) -> None:
        """Re-run the failed step of a failed instance.

        The step returns to ``ready``, the instance to ``running``, and
        execution advances — the standard operator recovery move after the
        underlying fault (an unreachable back end, a missing rule) has been
        repaired.
        """
        instance = self.database.load_instance(instance_id)
        if instance.status != INSTANCE_FAILED:
            raise InstanceError(
                f"instance {instance_id} is {instance.status}, not failed"
            )
        failed = instance.steps_in_status(STEP_FAILED)
        if not failed:
            raise InstanceError(f"instance {instance_id} has no failed step")
        for state in failed:
            state.status = STEP_READY
            state.error = ""
        instance.status = INSTANCE_RUNNING
        instance.error = ""
        instance.record(self.clock.now(), "retrying", failed[0].step_id)
        self.database.store_instance(instance)
        self._advance(instance_id)

    def recover(self) -> int:
        """Rebuild the in-memory wait index from the database.

        Call after an engine restart: the database survives (Figure 4),
        the engine process does not.  Returns the number of parked steps
        re-registered.
        """
        recovered = 0
        for instance in self.database.list_instances(INSTANCE_WAITING):
            for state in instance.steps.values():
                if state.status == STEP_WAITING and state.wait_key:
                    self._wait_index[state.wait_key] = (
                        instance.instance_id,
                        state.step_id,
                    )
                    recovered += 1
        return recovered

    def has_waiting(self, wait_key: str) -> bool:
        """True when a step is parked under ``wait_key``."""
        return wait_key in self._wait_index

    # -------------------------------------------------------------- the interpreter

    def _type_of(self, instance: WorkflowInstance) -> WorkflowType:
        return self.database.load_type(instance.type_name, instance.type_version)

    def _advance(self, instance_id: str) -> None:
        """Queue an advance task on the runtime kernel and drain it.

        All instance advancement — API calls, child completions, message
        deliveries — goes through the kernel's run queue, so one external
        stimulus runs every affected instance to quiescence in a single
        batch.  When called from inside a running task (a parent starting
        a child synchronously) the nested drain consumes the shared queue,
        preserving the synchronous-subtree semantics of Section 3.1.
        """
        self.runtime.submit(
            lambda: self._advance_instance(instance_id),
            label=f"{self.name}:advance:{instance_id}",
        )
        self.runtime.drain()

    def _advance_instance(self, instance_id: str) -> None:
        """Advance one instance until quiescent (runs as a kernel task).

        Under ``per_step`` persistence every iteration is a full
        load-advance-store cycle against the database (Figure 4): the
        task's first load serves its first iteration, and each store is
        followed by the load of the next.  Under ``per_quiescence`` the
        instance stays in the engine workspace and is stored only when it
        parks, terminates or fails.
        """
        per_step = self.persistence == self.PERSIST_PER_STEP
        instance = self.database.load_instance(instance_id)
        while True:
            if instance.is_terminal():
                return
            workflow_type = self._type_of(instance)
            ready = instance.steps_in_status(STEP_READY)
            if not ready:
                self._settle(instance, workflow_type)
                self.database.store_instance(instance)
                if instance.status == INSTANCE_COMPLETED:
                    self._notify_parent(instance)
                return
            state = ready[0]
            try:
                self._execute_step(instance, workflow_type, state.step_id)
            except ActivityError as exc:
                self._fail_step(instance, state.step_id, exc)
                self.database.store_instance(instance)
                if self.raise_on_failure:
                    raise
                return
            if per_step:
                self.database.store_instance(instance)
                instance = self.database.load_instance(instance_id)

    def _settle(self, instance: WorkflowInstance, workflow_type: WorkflowType) -> None:
        """Decide the lifecycle status when no step is ready."""
        if instance.steps_in_status(STEP_FAILED):
            instance.status = INSTANCE_FAILED
        elif instance.all_steps_terminal():
            instance.status = INSTANCE_COMPLETED
            instance.completed_at = self.clock.now()
            instance.record(self.clock.now(), "completed")
            self._emit(
                InstanceCompleted,
                instance_id=instance.instance_id,
                type_name=instance.type_name,
                duration=instance.completed_at - instance.created_at,
            )
        elif instance.steps_in_status(STEP_WAITING):
            instance.status = INSTANCE_WAITING
        else:
            pending = [state.step_id for state in instance.steps_in_status(STEP_PENDING)]
            raise WorkflowError(
                f"instance {instance.instance_id} of {workflow_type.name!r} is "
                f"stuck: steps {pending} can never become ready "
                "(disconnected or contradictory control flow)"
            )

    # -- step execution --------------------------------------------------------

    def _execute_step(
        self, instance: WorkflowInstance, workflow_type: WorkflowType, step_id: str
    ) -> None:
        step = workflow_type.step(step_id)
        self._emit(StepStarted, instance_id=instance.instance_id, step_id=step_id)
        instance.record(self.clock.now(), "step_started", step_id)
        if isinstance(step, ActivityStep):
            self._execute_activity(instance, workflow_type, step)
        elif isinstance(step, RemoteSubworkflowStep):
            self._execute_remote_subworkflow(instance, step)
        elif isinstance(step, SubworkflowStep):
            self._execute_subworkflow(instance, step)
        elif isinstance(step, LoopStep):
            self._execute_loop(instance, step, first=True)
        else:  # pragma: no cover - definitions validates kinds
            raise DefinitionError(f"unknown step kind for {step_id!r}")

    def _execute_activity(
        self,
        instance: WorkflowInstance,
        workflow_type: WorkflowType,
        step: ActivityStep,
    ) -> None:
        inputs = self._inputs(step.inputs, instance.variables)
        context = ActivityContext(
            instance_id=instance.instance_id,
            step_id=step.step_id,
            inputs=inputs,
            params=dict(step.params),
            variables=dict(instance.variables),
            services=self.services,
            now=self.clock.now(),
            engine_name=self.name,
        )
        result = self.activities.invoke(step.activity, context)
        if isinstance(result, Waiting):
            wait_key = result.wait_key or context.default_wait_key()
            if wait_key in self._wait_index:
                raise ActivityError(
                    f"wait key {wait_key!r} already in use by "
                    f"{self._wait_index[wait_key]}"
                )
            state = instance.step_state(step.step_id)
            state.status = STEP_WAITING
            state.wait_key = wait_key
            self._wait_index[wait_key] = (instance.instance_id, step.step_id)
            instance.record(self.clock.now(), "step_waiting", step.step_id, wait_key)
            self._emit(
                StepWaiting,
                instance_id=instance.instance_id,
                step_id=step.step_id,
                wait_key=wait_key,
            )
            return
        self._finish_step(instance, workflow_type, step.step_id, dict(result))

    def _execute_subworkflow(
        self, instance: WorkflowInstance, step: SubworkflowStep
    ) -> None:
        child_variables = self._inputs(step.inputs, instance.variables)
        child_id = self.create_instance(
            step.subworkflow,
            step.version,
            child_variables,
            parent_instance_id=instance.instance_id,
            parent_step_id=step.step_id,
        )
        state = instance.step_state(step.step_id)
        state.status = STEP_WAITING
        state.child_instance_id = child_id
        instance.record(self.clock.now(), "subworkflow_started", step.step_id, child_id)
        # Persist the parent before the child runs: the child may complete
        # synchronously and its completion hook reloads the parent.
        self.database.store_instance(instance)
        self.start(child_id)
        # Reflect any parent progress made by the completion hook.
        instance.take_progress(self.database.load_instance(instance.instance_id))

    def _execute_remote_subworkflow(
        self, instance: WorkflowInstance, step: RemoteSubworkflowStep
    ) -> None:
        directory = self.services.get("engine_directory")
        if directory is None:
            raise ActivityError(
                f"step {step.step_id!r} needs the 'engine_directory' service "
                "for remote subworkflow execution"
            )
        remote = directory.get(step.engine)
        child_variables = self._inputs(step.inputs, instance.variables)
        state = instance.step_state(step.step_id)
        state.status = STEP_WAITING
        self.database.store_instance(instance)
        child_id = remote.create_instance(step.subworkflow, step.version, child_variables)
        state.child_instance_id = child_id
        instance.record(
            self.clock.now(), "remote_subworkflow_started", step.step_id,
            f"{step.engine}:{child_id}",
        )
        self.database.store_instance(instance)
        remote._remote_parents[child_id] = (self, instance.instance_id, step.step_id)
        remote.start(child_id)
        instance.take_progress(self.database.load_instance(instance.instance_id))

    def _execute_loop(
        self, instance: WorkflowInstance, step: LoopStep, first: bool
    ) -> None:
        state = instance.step_state(step.step_id)
        if step.mode == "while" and not self._loop_condition(instance, step):
            self._finish_step(instance, self._type_of(instance), step.step_id, {})
            return
        if state.iterations >= step.max_iterations:
            raise ActivityError(
                f"loop {step.step_id!r} exceeded max_iterations="
                f"{step.max_iterations}"
            )
        child_variables = self._inputs(step.inputs, instance.variables)
        child_id = self.create_instance(
            step.body,
            variables=child_variables,
            parent_instance_id=instance.instance_id,
            parent_step_id=step.step_id,
        )
        state.status = STEP_WAITING
        state.child_instance_id = child_id
        instance.record(
            self.clock.now(), "loop_iteration_started", step.step_id,
            f"iteration {state.iterations + 1}",
        )
        self.database.store_instance(instance)
        self.start(child_id)
        instance.take_progress(self.database.load_instance(instance.instance_id))

    def _loop_condition(self, instance: WorkflowInstance, step: LoopStep) -> bool:
        return bool(self._program(step.condition)(instance.variables))

    # -- child completion -----------------------------------------------------------

    def _notify_parent(self, child: WorkflowInstance) -> None:
        """Route a completed child's outputs to its parent step."""
        remote = self._remote_parents.pop(child.instance_id, None)
        if remote is not None:
            master_engine, parent_instance_id, parent_step_id = remote
            master_engine._on_child_completed(parent_instance_id, parent_step_id, child)
            return
        if child.parent_instance_id:
            self._on_child_completed(
                child.parent_instance_id, child.parent_step_id, child
            )

    def _on_child_completed(
        self, parent_instance_id: str, parent_step_id: str, child: WorkflowInstance
    ) -> None:
        parent = self.database.load_instance(parent_instance_id)
        workflow_type = self._type_of(parent)
        step = workflow_type.step(parent_step_id)
        state = parent.step_state(parent_step_id)
        if state.status != STEP_WAITING or state.child_instance_id != child.instance_id:
            raise InstanceError(
                f"child {child.instance_id} completed but parent step "
                f"{parent_step_id} of {parent_instance_id} is not waiting on it"
            )
        outputs = {
            parent_variable: child.variables.get(child_variable)
            for parent_variable, child_variable in step.outputs.items()
        }
        if isinstance(step, LoopStep):
            self._continue_loop(parent, workflow_type, step, outputs)
        else:
            self._finish_step(parent, workflow_type, parent_step_id, outputs)
        self.database.store_instance(parent)
        self._advance(parent_instance_id)

    def _continue_loop(
        self,
        parent: WorkflowInstance,
        workflow_type: WorkflowType,
        step: LoopStep,
        outputs: dict[str, Any],
    ) -> None:
        state = parent.step_state(step.step_id)
        state.iterations += 1
        state.child_instance_id = ""
        parent.variables.update(outputs)
        condition = self._loop_condition(parent, step)
        repeat = condition if step.mode == "while" else not condition
        if repeat:
            self._execute_loop(parent, step, first=False)
        else:
            self._finish_step(parent, workflow_type, step.step_id, {})

    # -- completion & propagation -------------------------------------------------------

    def _finish_step(
        self,
        instance: WorkflowInstance,
        workflow_type: WorkflowType,
        step_id: str,
        outputs: dict[str, Any],
    ) -> None:
        step = workflow_type.step(step_id)
        state = instance.step_state(step_id)
        state.status = STEP_COMPLETED
        state.outputs = outputs
        state.wait_key = ""
        if isinstance(step, ActivityStep):
            for variable, output_key in step.outputs.items():
                if output_key not in outputs:
                    raise ActivityError(
                        f"step {step_id!r} promised output {output_key!r} "
                        f"but the activity returned {sorted(outputs)}"
                    )
                instance.variables[variable] = outputs[output_key]
        else:
            instance.variables.update(outputs)
        instance.record(self.clock.now(), "step_completed", step_id)
        self._emit(StepCompleted, instance_id=instance.instance_id, step_id=step_id)
        self._propagate(instance, workflow_type, step_id, completed=True)

    def _fail_step(
        self, instance: WorkflowInstance, step_id: str, error: Exception
    ) -> None:
        state = instance.step_state(step_id)
        state.status = STEP_FAILED
        state.error = str(error)
        instance.status = INSTANCE_FAILED
        instance.error = str(error)
        instance.record(self.clock.now(), "step_failed", step_id, str(error))
        self._emit(
            StepFailed,
            instance_id=instance.instance_id,
            step_id=step_id,
            error=str(error),
        )
        self._emit(
            InstanceFailed,
            instance_id=instance.instance_id,
            type_name=instance.type_name,
            error=str(error),
        )

    def _propagate(
        self,
        instance: WorkflowInstance,
        workflow_type: WorkflowType,
        step_id: str,
        completed: bool,
    ) -> None:
        """Evaluate outgoing arcs and wake/skip downstream steps."""
        arcs = workflow_type.outgoing(step_id)
        values = self._arc_values(instance, arcs, completed)
        for arc, value in values:
            instance.set_signal(arc.source, arc.target, value)
        for arc, _ in values:
            self._maybe_ready(instance, workflow_type, arc.target)

    def _arc_values(
        self,
        instance: WorkflowInstance,
        arcs: list[Transition],
        completed: bool,
    ) -> list[tuple[Transition, bool]]:
        if not completed:
            return [(arc, False) for arc in arcs]
        values: list[tuple[Transition, bool]] = []
        any_condition_true = False
        for arc in arcs:
            if arc.condition is None and not arc.otherwise:
                values.append((arc, True))
            elif arc.condition is not None:
                truth = bool(self._program(arc.condition)(instance.variables))
                any_condition_true = any_condition_true or truth
                values.append((arc, truth))
        for arc in arcs:
            if arc.otherwise:
                values.append((arc, not any_condition_true))
        return values

    def _maybe_ready(
        self, instance: WorkflowInstance, workflow_type: WorkflowType, step_id: str
    ) -> None:
        state = instance.step_state(step_id)
        if state.status != STEP_PENDING:
            return
        incoming = workflow_type.incoming(step_id)
        signals = [instance.signal(arc.source, arc.target) for arc in incoming]
        if any(signal is None for signal in signals):
            return
        step = workflow_type.step(step_id)
        if step.join == JOIN_AND:
            fire = all(signals)
        else:  # XOR
            fire = any(signals)
        if fire:
            state.status = STEP_READY
        else:
            state.status = STEP_SKIPPED
            instance.record(self.clock.now(), "step_skipped", step_id)
            self._emit(StepSkipped, instance_id=instance.instance_id, step_id=step_id)
            self._propagate(instance, workflow_type, step_id, completed=False)

    # -- helpers ---------------------------------------------------------------------

    def _program(self, text: str) -> Callable[[Mapping[str, Any]], Any]:
        """The compiled ``variables -> value`` callable for ``text``.

        Every expression the engine evaluates (transition and loop
        conditions, step inputs) runs through :meth:`Expression.compile`'s
        closure tree, cached per text.  ``Expression.shared`` reuses the
        instance definitions already validated (and parsed) at deployment.
        """
        program = self._programs.get(text)
        if program is None:
            program = self._programs[text] = Expression.shared(text).compile()
        return program

    def _inputs(
        self, inputs: Mapping[str, str], variables: Mapping[str, Any]
    ) -> dict[str, Any]:
        """A step's input expressions evaluated against ``variables``."""
        return {name: self._program(text)(variables) for name, text in inputs.items()}
