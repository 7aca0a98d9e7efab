"""Typed lifecycle events carried on the runtime kernel's event bus.

Every architecture in the repro (the three baselines and the advanced
:class:`~repro.core.integration.B2BEngine`) runs on the same
:class:`~repro.runtime.kernel.Kernel`, and the kernel's only public record
of what happened is this event stream.  Observers — trace recorders,
metrics counters, test assertions — subscribe to the bus and receive the
frozen dataclasses below.

Events fall into four families:

* **workflow** — instance/step lifecycle emitted by
  :class:`~repro.workflow.engine.WorkflowEngine`
* **messaging** — wire-level send/deliver/drop/retry emitted by
  :class:`~repro.messaging.network.SimulatedNetwork` and
  :class:`~repro.messaging.reliable.ReliableEndpoint`
* **conversation** — B2B-protocol-level document and conversation
  lifecycle emitted by :class:`~repro.core.integration.B2BEngine`
* **kernel** — scheduler-level signals emitted by the kernel itself:
  abandoned batches on drain failure

Each event carries ``at`` (simulated clock time) and ``source`` (the name
of the emitting component: an engine name, an endpoint address, or
``"network"``).  The ``type`` class attribute is a stable snake_case
string used for filtering and for counting in the metrics observer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = [
    "RuntimeEvent",
    # workflow lifecycle
    "InstanceCreated",
    "InstanceStarted",
    "InstanceCompleted",
    "InstanceFailed",
    "InstanceCancelled",
    "StepStarted",
    "StepCompleted",
    "StepSkipped",
    "StepWaiting",
    "StepFailed",
    # messaging
    "MessageSent",
    "MessageDelivered",
    "MessageDropped",
    "RetryScheduled",
    "DeliveryFailed",
    # B2B conversations
    "ConversationStarted",
    "ConversationCompleted",
    "ConversationFailed",
    "DocumentSent",
    "DocumentReceived",
    # kernel / scheduler
    "BatchAbandoned",
    "WORKFLOW_EVENTS",
    "MESSAGING_EVENTS",
    "CONVERSATION_EVENTS",
    "KERNEL_EVENTS",
    "ALL_EVENT_TYPES",
]


@dataclass(frozen=True)
class RuntimeEvent:
    """Base class for every kernel event.

    :param at: simulated clock time the event happened at
    :param source: name of the emitting component (engine name, endpoint
        address, or ``"network"``)
    """

    at: float
    source: str

    type = "runtime_event"

    def describe(self) -> str:
        """One fixed-width human-readable line (used by the trace renderer)."""
        details = " ".join(
            f"{field.name}={getattr(self, field.name)}"
            for field in fields(self)
            if field.name not in ("at", "source")
        )
        return f"t={self.at:>10.4f}  {self.source:<20} {self.type:<22} {details}"


# --------------------------------------------------------------------------
# workflow lifecycle
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceCreated(RuntimeEvent):
    """A workflow instance was instantiated from its type (not yet started)."""

    instance_id: str
    type_name: str

    type = "instance_created"


@dataclass(frozen=True)
class InstanceStarted(RuntimeEvent):
    """A created instance began executing."""

    instance_id: str
    type_name: str

    type = "instance_started"


@dataclass(frozen=True)
class InstanceCompleted(RuntimeEvent):
    """Every step of the instance reached a terminal status.

    :param duration: simulated time from instance creation to completion;
        feeds the metrics observer's duration histogram.
    """

    instance_id: str
    type_name: str
    duration: float

    type = "instance_completed"


@dataclass(frozen=True)
class InstanceFailed(RuntimeEvent):
    """A step failure marked the whole instance failed."""

    instance_id: str
    type_name: str
    error: str

    type = "instance_failed"


@dataclass(frozen=True)
class InstanceCancelled(RuntimeEvent):
    """The instance was cancelled by an external request."""

    instance_id: str
    type_name: str
    reason: str

    type = "instance_cancelled"


@dataclass(frozen=True)
class StepStarted(RuntimeEvent):
    """A ready step's activity began executing."""

    instance_id: str
    step_id: str

    type = "step_started"


@dataclass(frozen=True)
class StepCompleted(RuntimeEvent):
    """A step finished and signalled its outgoing arcs."""

    instance_id: str
    step_id: str

    type = "step_completed"


@dataclass(frozen=True)
class StepSkipped(RuntimeEvent):
    """Dead-path elimination skipped a step whose join could not fire."""

    instance_id: str
    step_id: str

    type = "step_skipped"


@dataclass(frozen=True)
class StepWaiting(RuntimeEvent):
    """An activity parked its step on an external wait key."""

    instance_id: str
    step_id: str
    wait_key: str

    type = "step_waiting"


@dataclass(frozen=True)
class StepFailed(RuntimeEvent):
    """An activity raised and the step was marked failed."""

    instance_id: str
    step_id: str
    error: str

    type = "step_failed"


# --------------------------------------------------------------------------
# messaging
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MessageSent(RuntimeEvent):
    """An endpoint handed a message to the simulated network."""

    message_id: str
    sender: str
    receiver: str
    kind: str
    protocol: str
    doc_type: str

    type = "message_sent"


@dataclass(frozen=True)
class MessageDelivered(RuntimeEvent):
    """The network delivered a message to its receiving endpoint."""

    message_id: str
    sender: str
    receiver: str
    kind: str

    type = "message_delivered"


@dataclass(frozen=True)
class MessageDropped(RuntimeEvent):
    """The network dropped a message (loss, partition, or no receiver)."""

    message_id: str
    sender: str
    receiver: str
    reason: str

    type = "message_dropped"


@dataclass(frozen=True)
class RetryScheduled(RuntimeEvent):
    """A reliable endpoint's ack timer expired and the message was re-sent."""

    message_id: str
    receiver: str
    attempt: int
    timeout: float

    type = "retry_scheduled"


@dataclass(frozen=True)
class DeliveryFailed(RuntimeEvent):
    """A reliable endpoint exhausted its retries for a message."""

    message_id: str
    receiver: str
    attempts: int

    type = "delivery_failed"


# --------------------------------------------------------------------------
# B2B conversations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConversationStarted(RuntimeEvent):
    """A B2B engine opened a conversation with a partner."""

    conversation_id: str
    protocol: str
    partner_id: str
    role: str

    type = "conversation_started"


@dataclass(frozen=True)
class ConversationCompleted(RuntimeEvent):
    """A conversation's public process ran to completion."""

    conversation_id: str
    protocol: str
    partner_id: str

    type = "conversation_completed"


@dataclass(frozen=True)
class ConversationFailed(RuntimeEvent):
    """A conversation was abandoned (delivery failure, closed broadcast, ...)."""

    conversation_id: str
    protocol: str
    partner_id: str
    reason: str

    type = "conversation_failed"


@dataclass(frozen=True)
class DocumentSent(RuntimeEvent):
    """A B2B engine transmitted a business document on a conversation."""

    conversation_id: str
    doc_type: str
    partner_id: str

    type = "document_sent"


@dataclass(frozen=True)
class DocumentReceived(RuntimeEvent):
    """A B2B engine accepted an inbound business document."""

    conversation_id: str
    doc_type: str
    partner_id: str

    type = "document_received"


# --------------------------------------------------------------------------
# kernel / scheduler
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchAbandoned(RuntimeEvent):
    """A drain failed and the rest of the batch was dropped.

    Emitted at the outermost drain level when a task raises: the queue is
    cleared so the next stimulus starts clean, and this event is the
    observers' only record of how many queued tasks never ran.
    """

    abandoned: int
    error: str

    type = "batch_abandoned"


WORKFLOW_EVENTS: tuple[type[RuntimeEvent], ...] = (
    InstanceCreated,
    InstanceStarted,
    InstanceCompleted,
    InstanceFailed,
    InstanceCancelled,
    StepStarted,
    StepCompleted,
    StepSkipped,
    StepWaiting,
    StepFailed,
)

MESSAGING_EVENTS: tuple[type[RuntimeEvent], ...] = (
    MessageSent,
    MessageDelivered,
    MessageDropped,
    RetryScheduled,
    DeliveryFailed,
)

CONVERSATION_EVENTS: tuple[type[RuntimeEvent], ...] = (
    ConversationStarted,
    ConversationCompleted,
    ConversationFailed,
    DocumentSent,
    DocumentReceived,
)

KERNEL_EVENTS: tuple[type[RuntimeEvent], ...] = (BatchAbandoned,)

ALL_EVENT_TYPES: frozenset[str] = frozenset(
    cls.type
    for cls in (
        *WORKFLOW_EVENTS,
        *MESSAGING_EVENTS,
        *CONVERSATION_EVENTS,
        *KERNEL_EVENTS,
    )
)
