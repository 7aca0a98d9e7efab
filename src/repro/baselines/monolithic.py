"""The naive monolithic workflow type of Figures 9 and 10, generated.

Section 3's verdict: "in the worst case all combinations of trading
partner, message exchange protocol and back end application integration
have to be explicitly modeled in every workflow type".
:func:`build_naive_seller_type` *constructs* that workflow type for any
topology, so the combinatorial growth is measurable rather than asserted:

* one decode branch per protocol;
* one inline transformation step per (protocol x back end) in each
  direction — ``2 * P * B`` transformation steps;
* the routing table hardcoded in a 'Target' step;
* the approval business rule duplicated on every back-end path, with one
  ``amount >= threshold and source == 'TPx'`` term pair per partner —
  exactly the conditional expressions printed in Figures 9/10.

The generated type is *runnable* for real protocols (see
:class:`NaiveSellerRuntime`), which keeps the baseline honest: the same
topology that the metrics sweep counts also executes a PO round trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.b2b.protocol import get_protocol
from repro.errors import ConfigurationError
from repro.workflow.definitions import WorkflowBuilder, WorkflowType

__all__ = [
    "NaiveTopology",
    "build_naive_seller_type",
    "naive_element_index",
]


@dataclass
class NaiveTopology:
    """One (protocols x partners x back ends) deployment to generate for.

    :param protocols: protocol name -> wire format.  Real protocol names
        (``edi-van`` ...) make the type runnable; synthetic names
        (``proto-4`` ...) are fine for pure size sweeps.
    :param backends: application name -> native format.
    :param partner_protocol: partner -> the protocol that partner speaks.
    :param thresholds: partner -> approval threshold (the Figure 9 amounts).
    :param routing: partner -> target application.
    """

    protocols: dict[str, str] = field(default_factory=dict)
    backends: dict[str, str] = field(default_factory=dict)
    partner_protocol: dict[str, str] = field(default_factory=dict)
    thresholds: dict[str, float] = field(default_factory=dict)
    routing: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.protocols or not self.backends or not self.partner_protocol:
            raise ConfigurationError(
                "a naive topology needs at least one protocol, back end and partner"
            )
        for partner, protocol in self.partner_protocol.items():
            if protocol not in self.protocols:
                raise ConfigurationError(
                    f"partner {partner!r} speaks unknown protocol {protocol!r}"
                )
        for partner, application in self.routing.items():
            if application not in self.backends:
                raise ConfigurationError(
                    f"routing for {partner!r} targets unknown back end {application!r}"
                )

    @classmethod
    def figure9(cls) -> "NaiveTopology":
        """The exact Figure 9 topology: EDI + RosettaNet, TP1 + TP2,
        SAP + Oracle, thresholds 55 000 / 40 000."""
        return cls(
            protocols={"edi-van": "edi-x12", "rosettanet": "rosettanet-xml"},
            backends={"SAP": "sap-idoc", "Oracle": "oracle-oif"},
            partner_protocol={"TP1": "edi-van", "TP2": "rosettanet"},
            thresholds={"TP1": 55000, "TP2": 40000},
            routing={"TP1": "SAP", "TP2": "Oracle"},
        )

    @classmethod
    def figure10(cls) -> "NaiveTopology":
        """Figure 10: Figure 9 plus TP3 on OAGIS with threshold 10 000."""
        topology = cls.figure9()
        topology.protocols["oagis-http"] = "oagis-bod"
        topology.partner_protocol["TP3"] = "oagis-http"
        topology.thresholds["TP3"] = 10000
        topology.routing["TP3"] = "SAP"
        return topology

    @classmethod
    def synthetic(cls, protocol_count: int, partner_count: int, backend_count: int) -> "NaiveTopology":
        """A synthetic topology for size sweeps (not runnable)."""
        protocols = {f"proto-{i}": f"wire-{i}" for i in range(1, protocol_count + 1)}
        backends = {f"app-{i}": f"native-{i}" for i in range(1, backend_count + 1)}
        protocol_names = list(protocols)
        backend_names = list(backends)
        partner_protocol = {
            f"TP{i}": protocol_names[(i - 1) % protocol_count]
            for i in range(1, partner_count + 1)
        }
        return cls(
            protocols=protocols,
            backends=backends,
            partner_protocol=partner_protocol,
            thresholds={f"TP{i}": 10000.0 * i for i in range(1, partner_count + 1)},
            routing={
                f"TP{i}": backend_names[(i - 1) % backend_count]
                for i in range(1, partner_count + 1)
            },
        )


def _approval_condition(topology: NaiveTopology) -> str:
    """The inline conditional of Figures 9/10, duplicated per back-end path:
    ``amount >= 55000 and source == 'TP1' or amount >= 40000 and ...``."""
    terms = [
        f"amount >= {threshold} and source == '{partner}'"
        for partner, threshold in sorted(topology.thresholds.items())
    ]
    return " or ".join(terms) if terms else "False"


def build_naive_seller_type(
    topology: NaiveTopology, name: str = "naive-seller"
) -> WorkflowType:
    """Generate the Figure 9/10 workflow type for ``topology``.

    Instance variables supplied at creation: ``wire_text``, ``protocol``,
    ``source`` (partner id), ``conversation_id``.
    """
    builder = WorkflowBuilder(name, owner="naive")
    builder.variable("wire_text", "").variable("protocol", "")
    builder.variable("source", "").variable("conversation_id", "")
    builder.variable("document").variable("target", "")
    builder.variable("po_number", "").variable("amount", 0.0)

    builder.activity("receive", "noop", tags=("receive",), label="Receive message")

    # One decode branch per protocol.
    for protocol in topology.protocols:
        builder.activity(
            f"decode_{protocol}",
            "decode_wire",
            params={"protocol": protocol},
            inputs={"wire_text": "wire_text"},
            outputs={"document": "document"},
            tags=("decode",),
            label=f"Decode {protocol}",
        )
        builder.link("receive", f"decode_{protocol}", condition=f"protocol == '{protocol}'")

    # The hardcoded routing table ('Target' in Figure 9).
    builder.activity(
        "determine_target",
        "naive_determine_target",
        params={"routing": dict(topology.routing)},
        inputs={"source": "source"},
        outputs={"target": "target"},
        join="XOR",
        tags=("routing",),
        label="Target",
    )
    for protocol in topology.protocols:
        builder.link(f"decode_{protocol}", "determine_target")

    # Inbound transformations: one step per (protocol x back end).
    for protocol in topology.protocols:
        for application, native_format in topology.backends.items():
            step_id = f"transform_{protocol}_to_{application}"
            builder.activity(
                step_id,
                "transform_document",
                params={"target_format": native_format},
                inputs={"document": "document", "sender_id": "source"},
                outputs={"document": "document"},
                tags=("transformation",),
                label=f"Transform {protocol} to {application} PO",
            )
            builder.link(
                "determine_target",
                step_id,
                condition=f"protocol == '{protocol}' and target == '{application}'",
            )

    # Store / approval / extract per back end, with the business rule
    # duplicated inline on every back-end path.
    approval = _approval_condition(topology)
    for application in topology.backends:
        builder.activity(
            f"store_{application}",
            "store_backend",
            params={"application": application},
            inputs={"document": "document"},
            outputs={"po_number": "po_number", "amount": "amount"},
            join="XOR",
            tags=("backend",),
            label=f"Store {application} PO",
        )
        for protocol in topology.protocols:
            builder.link(f"transform_{protocol}_to_{application}", f"store_{application}")
        builder.activity(
            f"approve_{application}",
            "request_approval",
            inputs={"document": "document"},
            outputs={"approved": "approved"},
            tags=("business-rule", "approval"),
            label=f"Approve PO ({application})",
        )
        builder.activity(
            f"extract_{application}_poa",
            "extract_backend",
            params={"application": application, "doc_type": "po_ack"},
            inputs={"po_number": "po_number"},
            outputs={"document": "document"},
            join="XOR",
            tags=("backend",),
            label=f"Extract {application} POA",
        )
        builder.link(f"store_{application}", f"approve_{application}", condition=approval)
        builder.link(f"store_{application}", f"extract_{application}_poa", otherwise=True)
        builder.link(f"approve_{application}", f"extract_{application}_poa")

    # Outbound transformations: one step per (back end x protocol).
    for application in topology.backends:
        for protocol, wire_format in topology.protocols.items():
            step_id = f"transform_{application}_poa_to_{protocol}"
            builder.activity(
                step_id,
                "transform_document",
                params={"target_format": wire_format},
                inputs={"document": "document"},
                outputs={"document": "document"},
                tags=("transformation",),
                label=f"Transform {application} to {protocol} POA",
            )
            builder.link(
                f"extract_{application}_poa",
                step_id,
                condition=f"protocol == '{protocol}'",
            )

    # Encode and send per protocol.
    for protocol in topology.protocols:
        builder.activity(
            f"encode_{protocol}",
            "encode_wire",
            params={"protocol": protocol},
            inputs={"document": "document"},
            outputs={"wire_text": "wire_text"},
            join="XOR",
            tags=("encode",),
            label=f"Encode {protocol}",
        )
        for application in topology.backends:
            builder.link(f"transform_{application}_poa_to_{protocol}", f"encode_{protocol}")
        builder.activity(
            f"send_{protocol}",
            "send_wire",
            params={"protocol": protocol},
            inputs={
                "wire_text": "wire_text",
                "destination": "source",
                "conversation_id": "conversation_id",
            },
            tags=("send",),
            label=f"Send {protocol} POA",
            after=f"encode_{protocol}",
        )

    builder.meta(naive=True, topology={
        "protocols": sorted(topology.protocols),
        "partners": sorted(topology.partner_protocol),
        "backends": sorted(topology.backends),
    })
    return builder.build()


def naive_element_index(workflow_type: WorkflowType) -> dict[str, str]:
    """Per-step/per-transition fingerprints of a naive workflow type.

    The advanced model diffs whole separated elements; the naive model has
    only one element (the workflow type), so change impact is measured at
    step/transition granularity to stay comparable.
    """
    payload = workflow_type.to_dict()
    index: dict[str, str] = {}
    for step in payload["steps"]:
        index[f"step:{step['step_id']}"] = json.dumps(step, sort_keys=True)
    for transition in payload["transitions"]:
        key = f"transition:{transition['source']}->{transition['target']}"
        index[key] = f"{transition['condition']}|{transition['otherwise']}"
    return index


# get_protocol is imported for callers that want to check a topology is
# runnable; re-exported here for convenience.
def topology_is_runnable(topology: NaiveTopology) -> bool:
    """True when every protocol in the topology is a real deployed standard."""
    try:
        for protocol in topology.protocols:
            get_protocol(protocol)
    except Exception:
        return False
    return True


class NaiveSellerRuntime:
    """Host for a runnable naive seller type: endpoint, WFMS, back ends.

    Inbound messages create instances of the monolithic type directly —
    there is no public process, binding, or external rule set, which is
    the point of the baseline.
    """

    def __init__(self, name, network, workflow_type: WorkflowType, backends: dict):
        from repro.messaging.transport import Endpoint
        from repro.transform.catalog import build_standard_registry
        from repro.workflow.activities import built_in_registry
        from repro.workflow.engine import WorkflowEngine
        from repro.workflow.worklist import Worklist
        from repro.baselines.activities import register_naive_activities

        self.name = name
        self.network = network
        self.endpoint = Endpoint(name, network)
        self.worklist = Worklist(name)
        self.worklist.set_auto_policy(lambda item: {"approved": True})
        self.backends = dict(backends)
        activities = register_naive_activities(built_in_registry())
        from repro.core.private_process import register_private_activities

        register_private_activities(activities)  # request_approval reuse
        self.engine = WorkflowEngine(
            f"{name}-wfms",
            activities=activities,
            clock=network.scheduler.clock,
            services={
                "transforms": build_standard_registry(),
                "backends": self.backends,
                "worklist": self.worklist,
                "naive_sender": self._send,
            },
            runtime=network.runtime,
        )
        self.engine.deploy(workflow_type)
        self.workflow_type = workflow_type
        self.instances: list[str] = []
        self.endpoint.on_message(self._on_message)
        for backend in self.backends.values():
            backend.on_document_ready(self._backend_ready)

    def _on_message(self, message) -> None:
        self.engine.runtime.submit(
            lambda: self._handle_message(message),
            label=f"{self.name}:ingress:{message.message_id}",
        )
        self.engine.runtime.drain()

    def _handle_message(self, message) -> None:
        instance_id = self.engine.create_instance(
            self.workflow_type.name,
            variables={
                "wire_text": message.body,
                "protocol": message.protocol,
                "source": message.sender,
                "conversation_id": message.conversation_id,
            },
        )
        self.instances.append(instance_id)
        self.engine.start(instance_id)

    def _backend_ready(self, application: str, document) -> None:
        backend = self.backends[application]
        po_number = backend._document_po_number(document)
        wait_key = f"erp:{application}:{po_number}:{document.doc_type}"
        if not self.engine.has_waiting(wait_key):
            return
        extracted = backend.extract_document_for(po_number, document.doc_type)
        if extracted is not None:
            self.engine.complete_waiting_step(wait_key, {"document": extracted})

    def _send(self, protocol: str, destination: str, wire_text: str, conversation_id: str) -> None:
        from repro.messaging.envelope import Message

        self.endpoint.send(
            Message(
                message_id=self.endpoint.next_message_id(),
                sender=self.name,
                receiver=destination,
                protocol=protocol,
                doc_type="po_ack",
                body=wire_text,
                conversation_id=conversation_id,
            )
        )


class NaiveClient:
    """Minimal counterparty for exercising a naive seller: sends one wire
    PO and records whatever comes back."""

    def __init__(self, name: str, network):
        from repro.messaging.transport import Endpoint

        self.name = name
        self.endpoint = Endpoint(name, network)
        self.replies: list = []
        self.endpoint.on_message(self.replies.append)

    def send_po(self, seller_address: str, protocol_name: str, wire_text: str, conversation_id: str):
        from repro.messaging.envelope import Message

        self.endpoint.send(
            Message(
                message_id=self.endpoint.next_message_id(),
                sender=self.name,
                receiver=seller_address,
                protocol=protocol_name,
                doc_type="purchase_order",
                body=wire_text,
                conversation_id=conversation_id,
            )
        )
