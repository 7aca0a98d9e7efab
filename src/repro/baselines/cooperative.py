"""Cooperative inter-organizational workflows (Section 3, Figure 8).

Each enterprise runs one *local* workflow; only messages are shared.  This
fixes the knowledge-exposure problem of Section 2 — but message exchange
sequencing, transformations and business rules are still coded inside the
workflow types, so the baseline exhibits exactly the remaining problems of
Sections 3.1-3.3: a per-protocol, per-back-end, per-partner workflow type
whose conditions embed thresholds and whose steps embed formats.

:class:`CooperativeCommunity` wires a buyer and a seller enterprise with
these workflow types over the simulated network and runs the Figure 8
round trip end to end.
"""

from __future__ import annotations

from typing import Any

from repro.b2b.protocol import get_protocol
from repro.baselines.activities import register_naive_activities
from repro.backend.base import ERPSimulator
from repro.core.private_process import register_private_activities
from repro.errors import IntegrationError
from repro.messaging.envelope import Message
from repro.messaging.network import SimulatedNetwork
from repro.messaging.transport import Endpoint
from repro.transform.catalog import build_standard_registry
from repro.workflow.activities import built_in_registry
from repro.workflow.definitions import WorkflowBuilder, WorkflowType
from repro.workflow.engine import WorkflowEngine
from repro.workflow.instance import WorkflowInstance
from repro.workflow.worklist import Worklist

__all__ = [
    "build_cooperative_buyer_type",
    "build_cooperative_seller_type",
    "CooperativeCommunity",
]


def build_cooperative_buyer_type(
    protocol_name: str,
    application: str,
    native_format: str,
    approval_threshold: float,
    name: str = "coop-buyer",
) -> WorkflowType:
    """Figure 8's left workflow: extract PO -> transform -> (approve) ->
    send PO -> receive POA -> transform POA -> store POA.

    Note everything the paper criticizes is present: the wire format, the
    protocol, the back end and the approval threshold are all baked into
    the type.  Instance variables supplied at creation: ``po_number``,
    ``amount``, ``destination``, ``conversation_id``.
    """
    wire_format = get_protocol(protocol_name).wire_format
    builder = WorkflowBuilder(name, owner="buyer")
    builder.variable("po_number", "").variable("amount", 0.0)
    builder.variable("destination", "").variable("conversation_id", "")
    builder.variable("document").variable("wire_text", "").variable("approved", False)

    builder.activity(
        "extract_po",
        "extract_backend",
        params={"application": application, "doc_type": "purchase_order"},
        inputs={"po_number": "po_number"},
        outputs={"document": "document"},
        tags=("backend",),
        label="Extract PO",
    )
    builder.activity(
        "approve_po",
        "request_approval",
        inputs={"document": "document"},
        outputs={"approved": "approved"},
        tags=("business-rule", "approval"),
        label="Approve PO",
    )
    builder.activity(
        "transform_po",
        "transform_document",
        params={"target_format": wire_format},
        inputs={"document": "document"},
        outputs={"document": "document"},
        join="XOR",
        tags=("transformation",),
        label="Transform PO",
    )
    builder.activity(
        "encode_po",
        "encode_wire",
        params={"protocol": protocol_name},
        inputs={"document": "document"},
        outputs={"wire_text": "wire_text"},
        label="Encode PO",
        after="transform_po",
    )
    builder.activity(
        "send_po",
        "send_wire",
        params={"protocol": protocol_name},
        inputs={
            "wire_text": "wire_text",
            "destination": "destination",
            "conversation_id": "conversation_id",
        },
        tags=("send",),
        label="Send PO",
        after="encode_po",
    )
    # The split-induced extra control flow the paper calls out: receive
    # must be ordered after send explicitly once the round trip is split.
    builder.activity(
        "receive_poa",
        "receive_wire",
        inputs={"conversation_id": "conversation_id"},
        outputs={"wire_text": "wire_text"},
        tags=("receive",),
        label="Receive POA",
        after="send_po",
    )
    builder.activity(
        "decode_poa",
        "decode_wire",
        params={"protocol": protocol_name},
        inputs={"wire_text": "wire_text"},
        outputs={"document": "document"},
        label="Decode POA",
        after="receive_poa",
    )
    builder.activity(
        "transform_poa",
        "transform_document",
        params={"target_format": native_format},
        inputs={"document": "document"},
        outputs={"document": "document"},
        tags=("transformation",),
        label="Transform POA",
        after="decode_poa",
    )
    builder.activity(
        "store_poa",
        "store_backend",
        params={"application": application},
        inputs={"document": "document"},
        tags=("backend",),
        label="Store POA",
        after="transform_poa",
    )
    builder.link("extract_po", "approve_po", condition=f"amount > {approval_threshold}")
    builder.link("extract_po", "transform_po", otherwise=True)
    builder.link("approve_po", "transform_po")
    builder.meta(cooperative=True)
    return builder.build()


def build_cooperative_seller_type(
    protocol_name: str,
    application: str,
    native_format: str,
    thresholds: dict[str, float],
    name: str = "coop-seller",
) -> WorkflowType:
    """Figure 8's right workflow: receive PO -> transform -> (approve) ->
    store PO -> extract POA -> transform POA -> send POA.

    Instance variables supplied at creation: ``wire_text``, ``source``,
    ``conversation_id``.
    """
    wire_format = get_protocol(protocol_name).wire_format
    builder = WorkflowBuilder(name, owner="seller")
    builder.variable("wire_text", "").variable("source", "")
    builder.variable("conversation_id", "")
    builder.variable("document").variable("po_number", "").variable("amount", 0.0)
    builder.variable("approved", False)

    builder.activity(
        "receive_po",
        "noop",
        tags=("receive",),
        label="Receive PO",
    )
    builder.activity(
        "decode_po",
        "decode_wire",
        params={"protocol": protocol_name},
        inputs={"wire_text": "wire_text"},
        outputs={"document": "document"},
        label="Decode PO",
        after="receive_po",
    )
    builder.activity(
        "transform_po",
        "transform_document",
        params={"target_format": native_format},
        inputs={"document": "document", "sender_id": "source"},
        outputs={"document": "document"},
        tags=("transformation",),
        label="Transform PO",
        after="decode_po",
    )
    builder.activity(
        "store_po",
        "store_backend",
        params={"application": application},
        inputs={"document": "document"},
        outputs={"po_number": "po_number", "amount": "amount"},
        tags=("backend",),
        label="Store PO",
        after="transform_po",
    )
    builder.activity(
        "approve_po",
        "request_approval",
        inputs={"document": "document"},
        outputs={"approved": "approved"},
        tags=("business-rule", "approval"),
        label="Approve PO",
    )
    builder.activity(
        "extract_poa",
        "extract_backend",
        params={"application": application, "doc_type": "po_ack"},
        inputs={"po_number": "po_number"},
        outputs={"document": "document"},
        join="XOR",
        tags=("backend",),
        label="Extract POA",
    )
    builder.activity(
        "transform_poa",
        "transform_document",
        params={"target_format": wire_format},
        inputs={"document": "document"},
        outputs={"document": "document"},
        tags=("transformation",),
        label="Transform POA",
        after="extract_poa",
    )
    builder.activity(
        "encode_poa",
        "encode_wire",
        params={"protocol": protocol_name},
        inputs={"document": "document"},
        outputs={"wire_text": "wire_text"},
        label="Encode POA",
        after="transform_poa",
    )
    builder.activity(
        "send_poa",
        "send_wire",
        params={"protocol": protocol_name},
        inputs={
            "wire_text": "wire_text",
            "destination": "source",
            "conversation_id": "conversation_id",
        },
        tags=("send",),
        label="Send POA",
        after="encode_poa",
    )
    # The inline partner-specific rule of Figure 8 (right side).
    condition = " or ".join(
        f"amount > {threshold} and source == '{partner}'"
        for partner, threshold in sorted(thresholds.items())
    ) or "False"
    builder.link("store_po", "approve_po", condition=condition)
    builder.link("store_po", "extract_poa", otherwise=True)
    builder.link("approve_po", "extract_poa")
    builder.meta(cooperative=True)
    return builder.build()


class _CooperativeNode:
    """One enterprise in the cooperative community."""

    def __init__(self, name: str, network: SimulatedNetwork, backend: ERPSimulator):
        self.name = name
        self.endpoint = Endpoint(name, network)
        self.backend = backend
        self.worklist = Worklist(name)
        self.worklist.set_auto_policy(lambda item: {"approved": True})
        activities = register_naive_activities(built_in_registry())
        register_private_activities(activities)
        self.engine = WorkflowEngine(
            f"{name}-wfms",
            activities=activities,
            clock=network.scheduler.clock,
            services={
                "transforms": build_standard_registry(),
                "backends": {backend.name: backend},
                "worklist": self.worklist,
                "naive_sender": self._send,
            },
            runtime=network.runtime,
        )
        backend.on_document_ready(self._backend_ready)

    def _send(self, protocol: str, destination: str, wire_text: str, conversation_id: str) -> None:
        doc_type = "purchase_order" if self.name_is_buyer else "po_ack"
        self.endpoint.send(
            Message(
                message_id=self.endpoint.next_message_id(),
                sender=self.name,
                receiver=destination,
                protocol=protocol,
                doc_type=doc_type,
                body=wire_text,
                conversation_id=conversation_id,
            )
        )

    name_is_buyer = False

    def _backend_ready(self, application: str, document) -> None:
        po_number = self.backend._document_po_number(document)
        wait_key = f"erp:{application}:{po_number}:{document.doc_type}"
        if not self.engine.has_waiting(wait_key):
            return
        extracted = self.backend.extract_document_for(po_number, document.doc_type)
        if extracted is not None:
            self.engine.complete_waiting_step(wait_key, {"document": extracted})


class CooperativeCommunity:
    """A buyer and a seller running Figure 8's cooperative workflows.

    :param protocol_name: the single protocol both types hardcode.
    :param buyer_backend / seller_backend: the ERP simulators.
    :param buyer_threshold: the buyer's inline approval amount (Figure 1
        uses 10 000).
    :param seller_thresholds: partner -> amount (Figure 1 uses 550 000).
    """

    def __init__(
        self,
        network: SimulatedNetwork,
        buyer_name: str,
        seller_name: str,
        buyer_backend: ERPSimulator,
        seller_backend: ERPSimulator,
        protocol_name: str = "edi-van",
        buyer_threshold: float = 10000,
        seller_thresholds: dict[str, float] | None = None,
    ):
        self.network = network
        self.protocol_name = protocol_name
        self.buyer = _CooperativeNode(buyer_name, network, buyer_backend)
        self.buyer.name_is_buyer = True
        self.seller = _CooperativeNode(seller_name, network, seller_backend)
        self.buyer_type = build_cooperative_buyer_type(
            protocol_name,
            buyer_backend.name,
            buyer_backend.format_name,
            buyer_threshold,
        )
        self.seller_type = build_cooperative_seller_type(
            protocol_name,
            seller_backend.name,
            seller_backend.format_name,
            seller_thresholds or {buyer_name: 550000},
        )
        self.buyer.engine.deploy(self.buyer_type)
        self.seller.engine.deploy(self.seller_type)
        self.buyer.endpoint.on_message(self._buyer_receives)
        self.seller.endpoint.on_message(self._seller_receives)
        self._conversation_count = 0
        self.buyer_instances: dict[str, str] = {}   # conversation -> instance
        self.seller_instances: dict[str, str] = {}

    # -- traffic ------------------------------------------------------------------

    def _buyer_receives(self, message: Message) -> None:
        wait_key = f"naive:{message.conversation_id}:reply"
        if self.buyer.engine.has_waiting(wait_key):
            self.buyer.engine.complete_waiting_step(wait_key, {"wire_text": message.body})

    def _seller_receives(self, message: Message) -> None:
        self.seller.engine.runtime.submit(
            lambda: self._seller_handles(message),
            label=f"{self.seller.name}:ingress:{message.message_id}",
        )
        self.seller.engine.runtime.drain()

    def _seller_handles(self, message: Message) -> None:
        instance_id = self.seller.engine.create_instance(
            self.seller_type.name,
            variables={
                "wire_text": message.body,
                "source": message.sender,
                "conversation_id": message.conversation_id,
            },
        )
        self.seller_instances[message.conversation_id] = instance_id
        self.seller.engine.start(instance_id)

    # -- driving -------------------------------------------------------------------

    def submit_order(self, po_number: str, lines: list[dict[str, Any]]) -> str:
        """Enter an order at the buyer and start its local workflow.
        Returns the conversation id."""
        self._conversation_count += 1
        conversation_id = f"COOP-{self._conversation_count:04d}"
        order = self.buyer.backend.enter_order(
            po_number, self.buyer.name, self.seller.name, lines
        )
        po_number_str, amount, _ = self.buyer.backend._po_fields(order)
        instance_id = self.buyer.engine.create_instance(
            self.buyer_type.name,
            variables={
                "po_number": po_number_str,
                "amount": amount,
                "destination": self.seller.name,
                "conversation_id": conversation_id,
            },
        )
        self.buyer_instances[conversation_id] = instance_id
        self.buyer.engine.start(instance_id)
        return conversation_id

    def run(self, max_events: int = 100_000) -> None:
        """Drain the network until quiescent."""
        self.network.scheduler.run_until_idle(max_events)

    def buyer_instance(self, conversation_id: str) -> WorkflowInstance:
        """The buyer's local instance for a conversation."""
        try:
            return self.buyer.engine.get_instance(self.buyer_instances[conversation_id])
        except KeyError:
            raise IntegrationError(f"unknown conversation {conversation_id!r}") from None

    def seller_instance(self, conversation_id: str) -> WorkflowInstance:
        """The seller's local instance for a conversation."""
        try:
            return self.seller.engine.get_instance(self.seller_instances[conversation_id])
        except KeyError:
            raise IntegrationError(f"unknown conversation {conversation_id!r}") from None
