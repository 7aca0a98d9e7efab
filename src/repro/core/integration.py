"""The integration model and the B2B engine runtime.

:class:`IntegrationModel` is the *deployed configuration* of one
enterprise: protocols, public processes, bindings, private processes,
rules, partners, applications and the mapping catalog.  It is a pure
description — the change-management experiments (Section 4.5) diff its
:meth:`~IntegrationModel.element_index` before and after edits, and the
complexity experiments (Section 4.6) count its elements.

:class:`B2BEngine` executes that model: inbound wire messages drive public
process instances, bindings normalize documents and hand them to private
workflow instances on the enterprise WFMS, and private connection
activities push replies back out — the full runtime of Figure 14.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.b2b.protocol import B2BProtocol

from repro.core.binding import Binding, make_application_binding, make_protocol_binding
from repro.core.public_process import PublicProcessDefinition, PublicProcessInstance
from repro.core.rules import RuleEngine
from repro.documents.model import Document
from repro.errors import (
    ActivityError,
    AgreementError,
    BindingError,
    DocumentError,
    IntegrationError,
    PartnerError,
    ProtocolError,
    RetryExhaustedError,
    TransformError,
    WireFormatError,
)
from repro.messaging.disciplines import (
    TRANSPORT_PLAIN,
    TRANSPORT_RELIABLE,
    TRANSPORT_VAN,
)
from repro.messaging.envelope import IdGenerator, KIND_BUSINESS, Message
from repro.partners.directory import PartnerDirectory
from repro.runtime import (
    ConversationCompleted,
    ConversationFailed,
    ConversationStarted,
    DocumentReceived,
    DocumentSent,
    RuntimeEvent,
)
from repro.transform.transformer import TransformationRegistry
from repro.workflow.definitions import WorkflowType
from repro.workflow.engine import WorkflowEngine
from repro.workflow.instance import INSTANCE_WAITING

__all__ = ["Route", "IntegrationModel", "Conversation", "B2BEngine"]


@dataclass(frozen=True)
class Route:
    """How one (protocol, role) pair reaches a private process."""

    protocol: str
    role: str
    public_process: str
    binding: str
    private_process: str


class IntegrationModel:
    """The static integration configuration of one enterprise."""

    def __init__(
        self,
        name: str,
        transforms: TransformationRegistry | None = None,
        rules: RuleEngine | None = None,
        partners: PartnerDirectory | None = None,
    ):
        if not name:
            raise IntegrationError("integration model needs an enterprise name")
        self.name = name
        self.transforms = transforms or TransformationRegistry()
        self.rules = rules or RuleEngine()
        self.partners = partners or PartnerDirectory()
        self.protocols: dict[str, B2BProtocol] = {}
        self.public_processes: dict[str, PublicProcessDefinition] = {}
        self.bindings: dict[str, Binding] = {}
        self.private_processes: dict[str, WorkflowType] = {}
        self.applications: dict[str, str] = {}   # app name -> native format
        self._routes: dict[tuple[str, str], Route] = {}
        self._app_bindings: dict[str, Binding] = {}

    # -- assembly -----------------------------------------------------------------

    def add_private_process(self, workflow_type: WorkflowType) -> WorkflowType:
        """Register a private process definition."""
        if workflow_type.name in self.private_processes:
            raise IntegrationError(
                f"private process {workflow_type.name!r} already registered"
            )
        self.private_processes[workflow_type.name] = workflow_type
        return workflow_type

    def add_protocol(self, protocol: B2BProtocol, private_process: str) -> None:
        """Deploy a B2B protocol: both public processes, both bindings,
        and the routes into ``private_process``.

        This is the entire model change for "adding a new B2B protocol
        standard" (Section 4.6) — the private process is untouched.
        """
        if protocol.name in self.protocols:
            raise IntegrationError(f"protocol {protocol.name!r} already deployed")
        if private_process not in self.private_processes:
            raise IntegrationError(
                f"cannot deploy {protocol.name!r}: private process "
                f"{private_process!r} is not registered"
            )
        # A protocol whose two roles cannot collaborate must never deploy:
        # the Section 3 sequencing check, run statically.
        from repro.core.public_process import check_complementary

        problems = check_complementary(
            protocol.public_process("buyer"), protocol.public_process("seller")
        )
        if problems:
            raise ProtocolError(
                f"protocol {protocol.name!r} public processes are not "
                f"complementary: {'; '.join(problems)}"
            )
        self.protocols[protocol.name] = protocol
        for role in ("buyer", "seller"):
            definition = protocol.public_process(role)
            self.public_processes[definition.name] = definition
            binding = make_protocol_binding(
                name=f"{protocol.name}/{role}-binding",
                public_process=definition.name,
                private_process=private_process,
                wire_format=protocol.wire_format,
            )
            self.bindings[binding.name] = binding
            self._routes[(protocol.name, role)] = Route(
                protocol.name, role, definition.name, binding.name, private_process
            )

    def remove_protocol(self, protocol_name: str) -> None:
        """Off-board a protocol (inverse of :meth:`add_protocol`)."""
        if protocol_name not in self.protocols:
            raise IntegrationError(f"protocol {protocol_name!r} is not deployed")
        del self.protocols[protocol_name]
        for role in ("buyer", "seller"):
            route = self._routes.pop((protocol_name, role), None)
            if route is not None:
                self.public_processes.pop(route.public_process, None)
                self.bindings.pop(route.binding, None)

    def add_application(
        self, name: str, native_format: str, private_process: str
    ) -> Binding:
        """Deploy a back-end application and its binding (Section 4.6:
        "adding new back end application system is analogous to adding a
        new B2B protocol standard")."""
        if name in self.applications:
            raise IntegrationError(f"application {name!r} already registered")
        if private_process not in self.private_processes:
            raise IntegrationError(
                f"cannot add application {name!r}: private process "
                f"{private_process!r} is not registered"
            )
        self.applications[name] = native_format
        binding = make_application_binding(
            name=f"app/{name}-binding",
            application=name,
            private_process=private_process,
            native_format=native_format,
        )
        self.bindings[binding.name] = binding
        self._app_bindings[name] = binding
        return binding

    # -- lookup --------------------------------------------------------------------

    def route(self, protocol: str, role: str) -> Route:
        """Return the deployment route for (protocol, role)."""
        try:
            return self._routes[(protocol, role)]
        except KeyError:
            raise IntegrationError(
                f"{self.name}: no route for protocol {protocol!r} role {role!r} "
                "(protocol not deployed?)"
            ) from None

    def responder_route(self, protocol: str) -> Route:
        """Return the route whose public process *reacts* to inbound
        requests under ``protocol`` (the non-initiating side).

        For the request/reply protocols this is the seller; for one-way
        dispatch exchanges like ``oagis-fulfillment`` it is the buyer.
        """
        for role in ("seller", "buyer"):
            route = self._routes.get((protocol, role))
            if route is None:
                continue
            if not self.public_processes[route.public_process].initiating():
                return route
        raise IntegrationError(
            f"{self.name}: no responding public process for protocol "
            f"{protocol!r} (protocol not deployed, or we only initiate it)"
        )

    def app_binding(self, application: str) -> Binding:
        """Return the application binding for ``application``."""
        try:
            return self._app_bindings[application]
        except KeyError:
            raise IntegrationError(
                f"{self.name}: no application binding for {application!r}"
            ) from None

    def app_bindings(self) -> dict[str, Binding]:
        """Application name -> binding map (activity service)."""
        return dict(self._app_bindings)

    # -- change detection & metrics ----------------------------------------------------

    def element_index(self) -> dict[str, str]:
        """Return every model element keyed by kind/name with a stable
        fingerprint — the substrate of the Section 4.5 change experiments.
        """
        index: dict[str, str] = {}
        for mapping in self.transforms.mappings():
            index[f"mapping:{mapping.name}"] = (
                f"{mapping.source_format}->{mapping.target_format}"
                f"/{mapping.doc_type}#{mapping.rule_count()}"
            )
        for name, definition in self.public_processes.items():
            index[f"public:{name}"] = json.dumps(definition.to_dict(), sort_keys=True)
        for name, binding in self.bindings.items():
            index[f"binding:{name}"] = json.dumps(binding.to_dict(), sort_keys=True)
        for name, workflow_type in self.private_processes.items():
            index[f"private:{name}"] = json.dumps(workflow_type.to_dict(), sort_keys=True)
        for rule_set in self.rules.sets():
            for rule in rule_set.rules:
                index[f"rule:{rule_set.function}:{rule.name}"] = rule.fingerprint()
        for partner in self.partners.partners():
            index[f"partner:{partner.partner_id}"] = (
                f"{partner.name}|{partner.address}|{sorted(partner.protocols)}"
            )
        for agreement in self.partners.agreements():
            index[f"agreement:{':'.join(agreement.key())}"] = (
                f"{agreement.status}|{sorted(agreement.doc_types)}"
            )
        for name, native_format in self.applications.items():
            index[f"application:{name}"] = native_format
        return index

    def verification_digest(self, **verify_options) -> str:
        """Content digest of everything verification of this model depends
        on — element fingerprints plus the verify options (see
        :mod:`repro.verify.incremental`).  Equal digests mean a previously
        cached verification verdict may be reused verbatim.
        """
        from repro.verify.incremental import verification_digest

        return verification_digest(self, verify_options)[0]

    def verify(
        self,
        strict: bool = False,
        deep: bool = False,
        dataflow: bool = False,
        queue_bound: int | None = None,
        max_states: int | None = None,
        time_budget: float | None = None,
        reduce: bool = True,
        stats: dict | None = None,
    ) -> list:
        """Statically lint this model (see :mod:`repro.verify`).

        Returns the list of :class:`~repro.verify.Diagnostic` records.
        With ``strict=True``, raises :class:`VerificationError` if any
        error-severity diagnostic is present — the deployment-time gate.
        With ``deep=True``, additionally explores every protocol's
        buyer/seller conversation product automaton (B2B5xx) and runs the
        AND-parallel race analysis over every private process (B2B6xx);
        ``queue_bound``, ``max_states`` and ``time_budget`` bound that
        exploration (``None`` keeps the statespace defaults),
        ``reduce=False`` disables partial-order reduction, and a ``stats``
        dict is filled with timing and explored/pruned state counts.
        With ``dataflow=True``, the schema dataflow pass (B2B7xx) pushes
        abstract documents through every mapping and binding-chain route
        and checks them against their downstream consumers.
        """
        from repro.errors import VerificationError
        from repro.verify import SEVERITY_ERROR, at_or_above, verify_model

        diagnostics = verify_model(
            self,
            deep=deep,
            dataflow=dataflow,
            queue_bound=queue_bound,
            max_states=max_states,
            time_budget=time_budget,
            reduce=reduce,
            stats=stats,
        )
        if strict:
            errors = at_or_above(diagnostics, SEVERITY_ERROR)
            if errors:
                rendered = "; ".join(d.render() for d in errors[:5])
                suffix = "" if len(errors) <= 5 else f" (+{len(errors) - 5} more)"
                raise VerificationError(
                    f"model {self.name!r} failed static verification with "
                    f"{len(errors)} error(s): {rendered}{suffix}",
                    diagnostics=errors,
                )
        return diagnostics


@dataclass
class Conversation:
    """One business exchange (e.g. one PO-POA round trip) in flight."""

    conversation_id: str
    protocol: str
    partner_id: str
    role: str
    public: PublicProcessInstance
    private_instance_id: str = ""
    status: str = "open"      # open / completed / failed
    fault: str = ""
    documents: list[str] = field(default_factory=list)
    # the last business document received on the wire — the input to
    # public-level receipt-acknowledgment steps (auto_ack sends)
    last_received_wire: Document | None = None
    # non-empty when this conversation belongs to a broadcast batch: its
    # replies are collected by the batch instead of a per-conversation wait
    batch_id: str = ""

    def is_open(self) -> bool:
        return self.status == "open"


@dataclass
class Broadcast:
    """One broadcast batch: N conversations sharing a reply collector.

    The paper names "broadcast messages" among the patterns the concepts
    must support (Section 1); an RFQ fanned out to several sellers is the
    canonical case (Section 2.3).
    """

    batch_id: str
    wait_key: str
    pending: set[str] = field(default_factory=set)       # conversation ids
    collected: list[dict[str, Any]] = field(default_factory=list)
    closed: bool = False

    @property
    def expected(self) -> int:
        return len(self.pending) + len(self.collected)


class B2BEngine:
    """The runtime wiring public processes, bindings and private processes.

    :param model: the integration model to execute.
    :param wfms: the enterprise's workflow engine (private processes).
    :param backends: application name -> ERP simulator.
    :param transports: transport name -> transport object; expected keys
        are ``reliable`` (a ReliableEndpoint), ``van`` (a
        ValueAddedNetwork) and ``plain`` (a raw Endpoint) — only those the
        deployed protocols need.
    :param reply_timeout: optional deadline for the reply of an initiated
        conversation; on expiry the conversation fails and the private
        process's parked step is cancelled.
    """

    def __init__(
        self,
        model: IntegrationModel,
        wfms: WorkflowEngine,
        backends: dict[str, Any] | None = None,
        transports: dict[str, Any] | None = None,
        reply_timeout: float | None = None,
    ):
        self.model = model
        self.wfms = wfms
        # Keep the caller's dict by reference: back ends registered after
        # construction (Enterprise.add_backend) must stay visible here and
        # in the activity service view.
        self.backends = backends if backends is not None else {}
        self.transports = dict(transports or {})
        self.reply_timeout = reply_timeout
        self.conversations: dict[str, Conversation] = {}
        # The open subset of ``conversations``, in opening order: status
        # re-checks after back-end events visit only these.
        self._open: dict[str, Conversation] = {}
        self.broadcasts: dict[str, Broadcast] = {}
        self.faults: list[dict[str, str]] = []
        # append-only audit journal of every business message in/out:
        # {at, direction, partner, protocol, doc_type, conversation, bytes}
        self.journal: list[dict[str, Any]] = []
        self._conversation_ids = IdGenerator(f"CONV-{model.name}")
        self._broadcast_ids = IdGenerator(f"BCAST-{model.name}")
        self._message_ids = IdGenerator(f"B2B-{model.name}")
        # The B2B engine shares the WFMS's runtime kernel: conversation and
        # document events interleave with workflow events on one bus.
        self.runtime = wfms.runtime
        # Make the engine and its collaborators reachable from activities.
        wfms.services.setdefault("b2b", self)
        wfms.services.setdefault("rules", model.rules)
        wfms.services.setdefault("transforms", model.transforms)
        wfms.services.setdefault("backends", self.backends)
        wfms.services.setdefault("app_bindings", model.app_bindings())

    @property
    def messages_sent(self) -> int:
        """Business documents transmitted (view over the kernel metrics)."""
        return self.runtime.metrics.count(DocumentSent, source=self.model.name)

    @property
    def messages_received(self) -> int:
        """Business documents accepted inbound (view over the kernel metrics)."""
        return self.runtime.metrics.count(DocumentReceived, source=self.model.name)

    def _emit(self, event_cls: type[RuntimeEvent], **fields: Any) -> None:
        self.runtime.emit(event_cls, self.model.name, **fields)

    # -- clock / scheduler access -----------------------------------------------------

    @property
    def _clock(self):
        return self.wfms.clock

    def _scheduler(self):
        reliable = self.transports.get(TRANSPORT_RELIABLE)
        if reliable is not None:
            return reliable.scheduler
        plain = self.transports.get(TRANSPORT_PLAIN)
        if plain is not None:
            return plain.network.scheduler
        return None

    # -- outbound (buyer) ----------------------------------------------------------------

    def start_conversation(
        self,
        partner_id: str,
        document: Document,
        our_role: str = "buyer",
        protocol: str | None = None,
    ) -> str:
        """Open a conversation: agreement lookup, public process creation,
        binding outbound, first send.  Returns the conversation id.

        ``our_role`` is the agreement role we play; the conversation may be
        initiated by either side depending on the exchange (buyers initiate
        purchase orders, sellers initiate fulfillment dispatches).
        ``protocol`` disambiguates when several agreements with the partner
        could carry the document.
        """
        agreement = self.model.partners.find_agreement(
            partner_id,
            protocol=protocol,
            our_role=our_role,
            doc_type=document.doc_type,
        )
        route = self.model.route(agreement.protocol, our_role)
        definition = self.model.public_processes[route.public_process]
        if not definition.initiating():
            raise ProtocolError(
                f"{self.model.name}: public process {definition.name!r} does "
                "not initiate — this side only responds under "
                f"{agreement.protocol!r}"
            )
        conversation = Conversation(
            conversation_id=self._conversation_ids.next(),
            protocol=agreement.protocol,
            partner_id=partner_id,
            role=our_role,
            public=PublicProcessInstance(
                definition,
                "",  # set below once the id exists
                partner_id,
            ),
        )
        conversation.public.conversation_id = conversation.conversation_id
        self._register(conversation)
        self._emit(
            ConversationStarted,
            conversation_id=conversation.conversation_id,
            protocol=conversation.protocol,
            partner_id=partner_id,
            role=our_role,
        )
        self._push_outbound(conversation, route, document)
        return conversation.conversation_id

    def broadcast(
        self,
        partner_ids: list[str],
        document: Document,
        our_role: str = "buyer",
        deadline: float | None = None,
        seller_id_path: str = "header.seller_id",
    ) -> str:
        """Fan one document out to several partners (Section 1's broadcast
        pattern); returns the batch id.

        A per-partner copy is sent (with ``seller_id_path`` re-addressed),
        each opening an ordinary conversation; replies accumulate in the
        batch and the step parked on ``broadcast:<batch_id>`` completes
        when every partner answered — or at ``deadline`` with whatever
        arrived (the RFQ's respond-by semantics).
        """
        if not partner_ids:
            raise IntegrationError("broadcast needs at least one partner")
        batch = Broadcast(
            batch_id=self._broadcast_ids.next(),
            wait_key="",
        )
        batch.wait_key = f"broadcast:{batch.batch_id}"
        self.broadcasts[batch.batch_id] = batch
        for partner_id in partner_ids:
            copy = document.copy()
            copy.set(seller_id_path, partner_id)
            conversation_id = self.start_conversation(partner_id, copy, our_role)
            self.conversations[conversation_id].batch_id = batch.batch_id
            batch.pending.add(conversation_id)
        if deadline is not None:
            scheduler = self._scheduler()
            if scheduler is not None:
                scheduler.after(
                    deadline,
                    lambda: self.close_broadcast(batch.batch_id),
                    label=f"broadcast deadline {batch.batch_id}",
                )
        return batch.batch_id

    def close_broadcast(self, batch_id: str) -> None:
        """Close a batch with whatever replies arrived (deadline expiry).

        Conversations still pending are marked failed; the parked
        collector step completes with the partial result.
        """
        batch = self.broadcasts.get(batch_id)
        if batch is None or batch.closed:
            return
        batch.closed = True
        for conversation_id in sorted(batch.pending):
            conversation = self.conversations.get(conversation_id)
            if conversation is not None and conversation.is_open():
                self._fail(conversation, "no reply before the broadcast deadline")
        batch.pending.clear()
        if self.wfms.has_waiting(batch.wait_key):
            self.wfms.complete_waiting_step(
                batch.wait_key, {"documents": list(batch.collected)}
            )

    def _collect_broadcast_reply(
        self, conversation: Conversation, normalized: Document
    ) -> None:
        batch = self.broadcasts.get(conversation.batch_id)
        if batch is None or batch.closed:
            return
        batch.pending.discard(conversation.conversation_id)
        batch.collected.append(
            {"partner_id": conversation.partner_id, "document": normalized}
        )
        if not batch.pending:
            batch.closed = True
            if self.wfms.has_waiting(batch.wait_key):
                self.wfms.complete_waiting_step(
                    batch.wait_key, {"documents": list(batch.collected)}
                )

    def dispatch_outbound(self, conversation_id: str, document: Document) -> None:
        """Connection step from a private process: send ``document`` out
        through the conversation's binding and public process."""
        conversation = self._conversation(conversation_id)
        route = self.model.route(conversation.protocol, conversation.role)
        self._push_outbound(conversation, route, document)

    def _push_outbound(
        self, conversation: Conversation, route: Route, document: Document
    ) -> None:
        public = conversation.public
        public.expect("from_binding", document.doc_type)
        public.complete_current(document.doc_type)
        binding = self.model.bindings[route.binding]
        partner = self.model.partners.get_partner(conversation.partner_id)
        wire_document = binding.apply_outbound(
            document,
            self.model.transforms,
            {
                "now": self._clock.now(),
                "sender_id": self.model.name,
                "receiver_id": partner.partner_id,
            },
        )
        if wire_document is None:
            raise BindingError(
                f"binding {binding.name!r} consumed an outbound document"
            )
        send_step = public.expect("send", wire_document.doc_type)
        self._transmit(conversation, wire_document)
        public.complete_current(send_step.doc_type)
        conversation.documents.append(f"sent:{wire_document.doc_type}")
        self._drive_auto(conversation)
        self._after_advance(conversation)

    def _transmit(self, conversation: Conversation, wire_document: Document) -> None:
        protocol = self.model.protocols[conversation.protocol]
        partner = self.model.partners.get_partner(conversation.partner_id)
        body = protocol.codec.to_wire(wire_document)
        message = Message(
            message_id=self._message_ids.next(),
            sender=self.model.name,
            receiver=partner.address,
            kind=KIND_BUSINESS,
            protocol=protocol.name,
            doc_type=wire_document.doc_type,
            body=body,
            conversation_id=conversation.conversation_id,
            sent_at=self._clock.now(),
        )
        self._emit(
            DocumentSent,
            conversation_id=conversation.conversation_id,
            doc_type=wire_document.doc_type,
            partner_id=conversation.partner_id,
        )
        self._journal("out", conversation, wire_document.doc_type, len(body))
        if protocol.transport == TRANSPORT_RELIABLE:
            reliable = self._transport(TRANSPORT_RELIABLE, protocol.name)
            reliable.send_reliable(
                message,
                on_failed=lambda failed, error: self._delivery_failed(
                    conversation.conversation_id, error
                ),
            )
        elif protocol.transport == TRANSPORT_VAN:
            van = self._transport(TRANSPORT_VAN, protocol.name)
            van.post(message)
        else:
            endpoint = self._transport(TRANSPORT_PLAIN, protocol.name)
            endpoint.send(message)

    def _transport(self, kind: str, protocol_name: str) -> Any:
        transport = self.transports.get(kind)
        if transport is None:
            raise ProtocolError(
                f"{self.model.name}: protocol {protocol_name!r} needs the "
                f"{kind!r} transport, which is not wired"
            )
        return transport

    # -- inbound ------------------------------------------------------------------------

    def receive(self, message: Message) -> None:
        """Shard-aware inbound entry: queue :meth:`handle_message` keyed by
        the sending partner's address and run to quiescence.

        On the single-queue kernel this is equivalent to calling
        :meth:`handle_message` directly; on a
        :class:`~repro.runtime.sharding.ShardedKernel` it routes each
        partner's inbound traffic to that partner's shard.
        """
        self.runtime.submit(
            lambda: self.handle_message(message),
            label=f"{self.model.name}:receive:{message.message_id}",
            partner_key=message.sender,
        )
        self.runtime.drain()

    def handle_message(self, message: Message) -> None:
        """Entry point for every inbound business message (push from the
        reliable endpoint, or pull from a VAN poll)."""
        if message.kind != KIND_BUSINESS:
            return
        self._emit(
            DocumentReceived,
            conversation_id=message.conversation_id,
            doc_type=message.doc_type,
            partner_id=message.sender,
        )
        try:
            partner = self.model.partners.partner_by_address(message.sender)
            protocol = self.model.protocols.get(message.protocol)
            if protocol is None:
                raise ProtocolError(
                    f"no protocol {message.protocol!r} deployed at {self.model.name}"
                )
            wire_document = protocol.codec.from_wire(message.body)
        except (PartnerError, ProtocolError, WireFormatError) as exc:
            self._record_fault(message.conversation_id, message.message_id, exc)
            return
        conversation = self.conversations.get(message.conversation_id)
        try:
            if conversation is not None:
                self._handle_reply(conversation, wire_document)
            else:
                self._handle_request(message, partner.partner_id, wire_document)
        except (AgreementError, ProtocolError, IntegrationError) as exc:
            self._record_fault(message.conversation_id, message.message_id, exc)
        except (ActivityError, DocumentError, TransformError) as exc:
            # The binding or a private-process activity rejected the
            # document (say, a PO that fails the normalized schema, or one
            # the back end already booked): the conversation can never
            # complete, so it fails here instead of staying open.
            self._record_fault(message.conversation_id, message.message_id, exc)
            failed = self.conversations.get(message.conversation_id)
            if failed is not None and failed.is_open():
                self._fail(failed, str(exc))

    def _handle_request(
        self, message: Message, partner_id: str, wire_document: Document
    ) -> None:
        """A new conversation initiated by a partner (we respond)."""
        route = self.model.responder_route(message.protocol)
        self.model.partners.find_agreement(
            partner_id,
            protocol=message.protocol,
            our_role=route.role,
            doc_type=wire_document.doc_type,
        )
        conversation = Conversation(
            conversation_id=message.conversation_id,
            protocol=message.protocol,
            partner_id=partner_id,
            role=route.role,
            public=PublicProcessInstance(
                self.model.public_processes[route.public_process],
                message.conversation_id,
                partner_id,
            ),
        )
        self._register(conversation)
        self._emit(
            ConversationStarted,
            conversation_id=conversation.conversation_id,
            protocol=conversation.protocol,
            partner_id=partner_id,
            role=route.role,
        )
        self._accept_wire(conversation, route, wire_document, is_new=True)

    def _handle_reply(self, conversation: Conversation, wire_document: Document) -> None:
        """A further message on a conversation already in flight."""
        if not conversation.is_open():
            # Late duplicate after completion/failure: drop quietly — the
            # reliable layer usually suppresses these, but a VAN replay or
            # a post-timeout reply can still surface here.
            return
        route = self.model.route(conversation.protocol, conversation.role)
        self._accept_wire(conversation, route, wire_document, is_new=False)

    def _accept_wire(
        self,
        conversation: Conversation,
        route: Route,
        wire_document: Document,
        is_new: bool,
    ) -> None:
        """Consume an inbound wire document through the public process.

        Sequence: expect/complete the receive step; emit any public-level
        receipt acknowledgments (``auto_ack`` send steps); then, when the
        public process reaches a connection step, pass the document through
        the binding to the private process — either starting a fresh
        instance (a new request) or resuming the step parked on the reply.

        Receipt acknowledgments themselves never reach a binding: their
        receive step is followed by another receive (or the end), so the
        ``to_binding`` branch below does not fire for them — exactly the
        Section 4.5 claim that acknowledgment modeling stays inside the
        public process.
        """
        public = conversation.public
        public.expect("receive", wire_document.doc_type)
        public.complete_current(wire_document.doc_type)
        conversation.documents.append(f"received:{wire_document.doc_type}")
        conversation.last_received_wire = wire_document
        self._journal("in", conversation, wire_document.doc_type)
        self._drive_auto(conversation)
        if not public.completed and public.current_step().kind == "to_binding":
            normalized = self._binding_inbound(conversation, route, wire_document)
            self._drive_auto(conversation)
            if normalized is not None:
                self._deliver_to_private(conversation, route, normalized, is_new)
        self._after_advance(conversation)

    def _deliver_to_private(
        self,
        conversation: Conversation,
        route: Route,
        normalized: Document,
        is_new: bool,
    ) -> None:
        if is_new:
            instance_id = self.wfms.create_instance(
                route.private_process,
                variables={
                    "document": normalized,
                    "source": conversation.partner_id,
                    "conversation_id": conversation.conversation_id,
                },
            )
            conversation.private_instance_id = instance_id
            self.wfms.start(instance_id)
        elif conversation.batch_id:
            self._collect_broadcast_reply(conversation, normalized)
        else:
            wait_key = f"conv:{conversation.conversation_id}:reply"
            if self.wfms.has_waiting(wait_key):
                self.wfms.complete_waiting_step(wait_key, {"document": normalized})

    def _drive_auto(self, conversation: Conversation) -> None:
        """Execute public-level automatic steps (receipt acknowledgments).

        A ``send`` step flagged ``auto_ack`` is satisfied by the engine
        itself: the protocol's receipt builder turns the last received
        business document into the acknowledgment, which is transmitted
        without any binding or private-process involvement.
        """
        public = conversation.public
        protocol = self.model.protocols[conversation.protocol]
        while not public.completed:
            step = public.current_step()
            if step.kind != "send" or not step.params.get("auto_ack"):
                return
            if protocol.receipt_builder is None:
                raise ProtocolError(
                    f"public process {public.definition.name!r} has an "
                    f"auto_ack step but protocol {protocol.name!r} defines "
                    "no receipt builder"
                )
            if conversation.last_received_wire is None:
                raise ProtocolError(
                    f"conversation {conversation.conversation_id}: auto_ack "
                    "step with nothing received to acknowledge"
                )
            receipt = protocol.receipt_builder(
                conversation.last_received_wire, self._clock.now()
            )
            self._transmit(conversation, receipt)
            public.complete_current("auto receipt")
            conversation.documents.append(f"sent:{receipt.doc_type}")

    def _binding_inbound(
        self, conversation: Conversation, route: Route, wire_document: Document
    ) -> Document | None:
        public = conversation.public
        public.expect("to_binding", wire_document.doc_type)
        binding = self.model.bindings[route.binding]
        normalized = binding.apply_inbound(
            wire_document,
            self.model.transforms,
            {"now": self._clock.now(), "sender_id": conversation.partner_id},
        )
        public.complete_current(wire_document.doc_type)
        return normalized

    # -- back-end and failure hooks --------------------------------------------------------

    def backend_ready(self, application: str, native_document: Document) -> None:
        """Callback when an ERP queues an outbound document: resume the
        private-process step parked on its extraction, if any."""
        backend = self.backends.get(application)
        if backend is None:
            return
        po_number = backend._document_po_number(native_document)
        wait_key = f"erp:{application}:{po_number}:{native_document.doc_type}"
        if not self.wfms.has_waiting(wait_key):
            return
        extracted = backend.extract_document_for(po_number, native_document.doc_type)
        if extracted is None:
            return
        binding = self.model.app_binding(application)
        normalized = binding.apply_inbound(
            extracted, self.model.transforms, {"now": self._clock.now()}
        )
        self.wfms.complete_waiting_step(wait_key, {"document": normalized})
        for conversation in list(self._open.values()):
            self._after_advance(conversation)

    def _delivery_failed(self, conversation_id: str, error: RetryExhaustedError) -> None:
        conversation = self.conversations.get(conversation_id)
        if conversation is None or not conversation.is_open():
            return
        self._fail(conversation, str(error))
        self.faults.append(
            {"conversation": conversation_id, "message": "", "error": str(error)}
        )
        wait_key = f"conv:{conversation_id}:reply"
        if self.wfms.has_waiting(wait_key):
            self.wfms.cancel_waiting_step(wait_key, f"delivery failed: {error}")

    def _journal(
        self,
        direction: str,
        conversation: Conversation,
        doc_type: str,
        size: int = 0,
    ) -> None:
        self.journal.append(
            {
                "at": self._clock.now(),
                "direction": direction,
                "partner": conversation.partner_id,
                "protocol": conversation.protocol,
                "doc_type": doc_type,
                "conversation": conversation.conversation_id,
                "bytes": size,
            }
        )

    def journal_for(
        self, partner_id: str | None = None, doc_type: str | None = None
    ) -> list[dict[str, Any]]:
        """Query the audit journal (the compliance view of what crossed
        the enterprise boundary, and when)."""
        return [
            entry
            for entry in self.journal
            if (partner_id is None or entry["partner"] == partner_id)
            and (doc_type is None or entry["doc_type"] == doc_type)
        ]

    def _record_fault(self, conversation_id: str, message_id: str, error: Exception) -> None:
        self.faults.append(
            {"conversation": conversation_id, "message": message_id, "error": str(error)}
        )

    # -- status ------------------------------------------------------------------------------

    def _register(self, conversation: Conversation) -> None:
        self.conversations[conversation.conversation_id] = conversation
        self._open[conversation.conversation_id] = conversation

    def _fail(self, conversation: Conversation, reason: str) -> None:
        conversation.status = "failed"
        conversation.fault = reason
        del self._open[conversation.conversation_id]
        self._emit(
            ConversationFailed,
            conversation_id=conversation.conversation_id,
            protocol=conversation.protocol,
            partner_id=conversation.partner_id,
            reason=reason,
        )

    def _after_advance(self, conversation: Conversation) -> None:
        if not conversation.is_open():
            return
        if not conversation.public.completed:
            return
        if conversation.private_instance_id:
            instance = self.wfms.get_instance(conversation.private_instance_id)
            if instance.status == INSTANCE_WAITING or not instance.is_terminal():
                return
        conversation.status = "completed"
        del self._open[conversation.conversation_id]
        self._emit(
            ConversationCompleted,
            conversation_id=conversation.conversation_id,
            protocol=conversation.protocol,
            partner_id=conversation.partner_id,
        )

    def _conversation(self, conversation_id: str) -> Conversation:
        try:
            return self.conversations[conversation_id]
        except KeyError:
            raise IntegrationError(
                f"{self.model.name}: unknown conversation {conversation_id!r}"
            ) from None

    def refresh_conversations(self) -> None:
        """Re-derive conversation statuses (call after out-of-band progress
        such as a manual approval completing a private instance).

        Only open conversations can change status, so only they are
        visited, in opening order; the snapshot lets a visit close one.
        """
        for conversation in list(self._open.values()):
            self._after_advance(conversation)

    def open_conversations(self) -> list[Conversation]:
        """Conversations still in flight, in opening order."""
        return list(self._open.values())

    def conversation(self, conversation_id: str) -> Conversation:
        """Public accessor for a conversation record."""
        return self._conversation(conversation_id)
