"""An enterprise node: everything one organization runs, wired together.

An :class:`Enterprise` owns its network endpoint (raw + RNIF-style
reliable wrapper), an optional VAN mailbox, its private WFMS with the
connection activities registered, a work list, its back-end application
simulators, and its :class:`~repro.core.integration.IntegrationModel` +
:class:`~repro.core.integration.B2BEngine`.

Crucially for the paper's thesis, **nothing of another enterprise is
reachable from here**: enterprises share only the messages on the network
(Section 3, "business data are communicated, not data about workflow
instances, their state or their type").  The knowledge-exposure experiment
(F7) verifies this by inspecting workflow databases.

:func:`run_community` is the simulation driver: it alternates event
delivery and VAN polling until the whole multi-enterprise system is
quiescent.
"""

from __future__ import annotations

from typing import Any, Iterable

from typing import TYPE_CHECKING

from repro.backend.base import ERPSimulator
from repro.core.integration import B2BEngine, IntegrationModel
from repro.core.private_process import register_private_activities
from repro.core.rules import RuleEngine, RuleSet
from repro.documents.model import Document
from repro.errors import ConfigurationError, IntegrationError
from repro.messaging.disciplines import (
    TRANSPORT_PLAIN,
    TRANSPORT_RELIABLE,
    TRANSPORT_VAN,
)
from repro.messaging.network import SimulatedNetwork
from repro.messaging.reliable import ReliableEndpoint, RetryPolicy
from repro.messaging.transport import Endpoint, ValueAddedNetwork
from repro.partners.agreement import TradingPartnerAgreement
from repro.partners.profile import TradingPartner
from repro.transform.catalog import build_standard_registry
from repro.workflow.activities import built_in_registry
from repro.workflow.definitions import WorkflowType
from repro.workflow.engine import WorkflowEngine
from repro.workflow.instance import WorkflowInstance
from repro.workflow.worklist import Worklist

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.b2b.protocol import B2BProtocol

__all__ = ["DocumentArchive", "Enterprise", "run_community"]


class DocumentArchive:
    """A simple keyed store for normalized business documents.

    Private processes file documents here through the ``archive_document``
    activity — goods receipts, posted invoices — keyed by
    ``<doc_type>:<po_number>`` so later steps (e.g. the invoice-match rule)
    can look them up.
    """

    def __init__(self):
        self._documents: dict[str, Document] = {}

    @staticmethod
    def key_for(document: Document) -> str:
        reference = document.get("header.po_number", default="")
        if not reference:
            reference = document.get("header.document_id", default="?")
        return f"{document.doc_type}:{reference}"

    def store(self, document: Document) -> str:
        """File ``document``, or a private copy of it when it is not
        sealed; returns its archive key."""
        key = self.key_for(document)
        self._documents[key] = document if document.sealed else document.copy()
        return key

    def get(self, doc_type: str, reference: str) -> Document:
        """Return the archived document, or raise."""
        key = f"{doc_type}:{reference}"
        try:
            return self._documents[key]
        except KeyError:
            raise IntegrationError(f"nothing archived under {key!r}") from None

    def has(self, doc_type: str, reference: str) -> bool:
        """True when a document is filed under the key."""
        return f"{doc_type}:{reference}" in self._documents

    def count(self, doc_type: str | None = None) -> int:
        """Number of archived documents (optionally of one kind)."""
        if doc_type is None:
            return len(self._documents)
        return sum(1 for key in self._documents if key.startswith(f"{doc_type}:"))


class Enterprise:
    """One organization participating in B2B integration.

    :param name: enterprise id; also its network address and envelope id.
    :param network: the shared simulated network.
    :param van: the shared Value Added Network (needed for ``edi-van``).
    :param retry_policy: reliable-messaging knobs for RNIF-style protocols.
    """

    def __init__(
        self,
        name: str,
        network: SimulatedNetwork,
        van: ValueAddedNetwork | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        self.name = name
        self.network = network
        self.scheduler = network.scheduler
        # All enterprises on one network share its runtime kernel, so the
        # whole community emits a single lifecycle event stream.
        self.runtime = network.runtime
        self.endpoint = Endpoint(name, network)
        self.reliable = ReliableEndpoint(self.endpoint, retry_policy)
        self.van = van
        if van is not None:
            van.subscribe(name)

        self.worklist = Worklist(name)
        self.archive = DocumentArchive()
        activities = built_in_registry()
        register_private_activities(activities)
        self.wfms = WorkflowEngine(
            f"{name}-wfms",
            activities=activities,
            clock=self.scheduler.clock,
            services={"worklist": self.worklist, "archive": self.archive},
            runtime=self.runtime,
        )
        self.model = IntegrationModel(name)
        self.model.transforms = build_standard_registry()
        self.backends: dict[str, ERPSimulator] = {}
        transports: dict[str, Any] = {
            TRANSPORT_RELIABLE: self.reliable,
            TRANSPORT_PLAIN: self.endpoint,
        }
        if van is not None:
            transports[TRANSPORT_VAN] = van
        self.b2b = B2BEngine(
            self.model,
            self.wfms,
            backends=self.backends,
            transports=transports,
        )
        self.reliable.on_message(self.b2b.receive)

    # -- configuration ---------------------------------------------------------------

    def deploy_private_process(self, workflow_type: WorkflowType) -> None:
        """Register a private process in the model and the WFMS."""
        self.model.add_private_process(workflow_type)
        self.wfms.deploy(workflow_type)

    def deploy_protocol(self, protocol: B2BProtocol, private_process: str) -> None:
        """Deploy a B2B protocol end to end."""
        if protocol.transport == TRANSPORT_VAN and self.van is None:
            raise ConfigurationError(
                f"{self.name}: protocol {protocol.name!r} needs a VAN connection"
            )
        self.model.add_protocol(protocol, private_process)

    def add_backend(self, backend: ERPSimulator, private_process: str) -> None:
        """Attach a back-end application simulator and its binding."""
        self.model.add_application(backend.name, backend.format_name, private_process)
        self.backends[backend.name] = backend
        # Keep the activity service view current.
        self.wfms.services["app_bindings"] = self.model.app_bindings()
        backend.on_document_ready(
            lambda application, document: self.b2b.backend_ready(application, document)
        )

    def add_partner(
        self, partner: TradingPartner, agreements: Iterable[TradingPartnerAgreement] = ()
    ) -> None:
        """Register a trading partner and its agreements."""
        self.model.partners.add_partner(partner)
        for agreement in agreements:
            self.model.partners.add_agreement(agreement)

    def add_rule_set(self, rule_set: RuleSet) -> None:
        """Register an external business-rule set."""
        self.model.rules.register(rule_set)

    @property
    def rules(self) -> RuleEngine:
        """The enterprise rule engine."""
        return self.model.rules

    # -- business operations -----------------------------------------------------------

    def submit_order(
        self,
        application: str,
        partner_id: str,
        po_number: str,
        lines: list[dict[str, Any]],
        private_process: str = "private-po-buyer",
        currency: str = "USD",
        protocol: str | None = None,
    ) -> str:
        """Enter an order in a back end and start the buyer private process.

        Returns the private workflow instance id; the PO travels to the
        partner once the process passes its approval rule.  ``protocol``
        disambiguates when several agreements with the partner could carry
        a purchase order.
        """
        backend = self._backend(application)
        backend.enter_order(po_number, self.name, partner_id, lines, currency=currency)
        instance_id = self.wfms.create_instance(
            private_process,
            variables={
                "application": application,
                "po_number": po_number,
                "partner_id": partner_id,
                "po_protocol": protocol,
            },
        )
        self.wfms.start(instance_id)
        return instance_id

    def submit_shipment(
        self,
        application: str,
        partner_id: str,
        po_number: str,
        private_process: str = "private-fulfillment-seller",
    ) -> str:
        """Start the order-to-cash dispatch for a booked order.

        The fulfillment private process builds a ship notice and an
        invoice from the order in ``application`` and sends both to the
        partner over the one-way dispatch exchange.  Returns the private
        workflow instance id.
        """
        backend = self._backend(application)
        if not backend.has_order(po_number):
            raise IntegrationError(
                f"{self.name}: no order {po_number!r} booked in {application!r}"
            )
        instance_id = self.wfms.create_instance(
            private_process,
            variables={
                "application": application,
                "po_number": po_number,
                "partner_id": partner_id,
            },
        )
        self.wfms.start(instance_id)
        return instance_id

    def submit_rfq(
        self,
        partner_ids: list[str],
        rfq_number: str,
        lines: list[dict[str, Any]],
        respond_by_delay: float | None = None,
        private_process: str = "private-sourcing",
    ) -> str:
        """Broadcast a request for quotation to several partners.

        The sourcing private process fans the RFQ out, awaits the quotes
        (or the deadline), and selects the winner through the private
        scoring rule.  Returns the private workflow instance id.
        """
        instance_id = self.wfms.create_instance(
            private_process,
            variables={
                "rfq_number": rfq_number,
                "buyer_id": self.name,
                "lines": lines,
                "partners": list(partner_ids),
                "respond_by_delay": respond_by_delay,
            },
        )
        self.wfms.start(instance_id)
        return instance_id

    def complete_work_item(self, item_id: str, approved: bool, user: str = "manager") -> None:
        """Decide a pending approval and resume the parked private process."""
        self.worklist.complete(item_id, {"approved": approved}, completed_by=user)
        wait_key = f"worklist:{item_id}"
        if self.wfms.has_waiting(wait_key):
            self.wfms.complete_waiting_step(wait_key, {"approved": approved})
        self.b2b.refresh_conversations()

    def poll_van(self) -> int:
        """Pick up waiting VAN interchanges; returns how many were handled."""
        if self.van is None:
            return 0
        batch = self.van.pick_up(self.name)
        for message in batch:
            self.b2b.receive(message)
        return len(batch)

    # -- inspection ----------------------------------------------------------------------

    def instance(self, instance_id: str) -> WorkflowInstance:
        """Load a private workflow instance snapshot."""
        return self.wfms.get_instance(instance_id)

    def _backend(self, application: str) -> ERPSimulator:
        try:
            return self.backends[application]
        except KeyError:
            raise IntegrationError(
                f"{self.name}: no back-end application {application!r}"
            ) from None

    def __repr__(self) -> str:
        return f"Enterprise({self.name!r})"


def run_community(
    enterprises: list[Enterprise],
    max_rounds: int = 100,
) -> int:
    """Drive the whole multi-enterprise simulation to quiescence.

    Alternates (a) draining the shared event scheduler — network
    deliveries, retry timers, ERP processing delays — and (b) polling every
    enterprise's VAN mailbox, until neither produces work.  Returns the
    number of rounds taken.
    """
    if not enterprises:
        return 0
    scheduler = enterprises[0].scheduler
    for round_number in range(1, max_rounds + 1):
        fired = scheduler.run_until_idle()
        picked_up = sum(enterprise.poll_van() for enterprise in enterprises)
        for enterprise in enterprises:
            enterprise.b2b.refresh_conversations()
        if fired == 0 and picked_up == 0:
            return round_number
    raise IntegrationError(
        f"community did not quiesce within {max_rounds} rounds; "
        "probable protocol livelock"
    )
