"""ERP simulator base: order store, acceptance policies, outbound queue.

An ERP simulator consumes and produces documents exclusively in its *native*
format (IDoc for the SAP-like system, OIF records for the Oracle-like one).
The application bindings of Section 4.4 are responsible for all translation
— a simulator raises on any other format, which is exactly the constraint
that forces the "Transform to SAP PO"/"Transform to normalized POA" steps
of Figure 14 to exist.

Acceptance policies stand in for the ERP's internal order logic: given the
order's key figures they decide the acknowledgment status and per-line
statuses.  ``processing_delay`` (with a shared scheduler) models the
asynchronous "once the PO is processed within the ERP" step of the paper's
running example.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.documents.model import Document
from repro.errors import BackendError
from repro.sim import EventScheduler

__all__ = [
    "OrderRecord",
    "AcceptancePolicy",
    "ERPSimulator",
    "accept_all",
    "reject_over",
    "partial_backorder",
]

# policy(po_number, total_amount, lines) -> (status, {line_no: line_status})
# statuses use the normalized vocabulary; subclasses translate to native codes.
AcceptancePolicy = Callable[[str, float, list[dict[str, Any]]], tuple[str, dict[int, str]]]

ReadyCallback = Callable[[str, Document], None]


def accept_all(po_number: str, total: float, lines: list[dict[str, Any]]) -> tuple[str, dict[int, str]]:
    """Accept every order in full (the default policy)."""
    return "accepted", {}


def reject_over(limit: float) -> AcceptancePolicy:
    """Reject orders whose total exceeds ``limit`` (credit-limit policy)."""

    def policy(po_number: str, total: float, lines: list[dict[str, Any]]) -> tuple[str, dict[int, str]]:
        if total > limit:
            return "rejected", {}
        return "accepted", {}

    return policy


def partial_backorder(out_of_stock: set[str]) -> AcceptancePolicy:
    """Backorder lines whose sku is out of stock; accept the rest."""

    def policy(po_number: str, total: float, lines: list[dict[str, Any]]) -> tuple[str, dict[int, str]]:
        line_statuses = {
            line["line_no"]: "backordered"
            for line in lines
            if line["sku"] in out_of_stock
        }
        if not line_statuses:
            return "accepted", {}
        if len(line_statuses) == len(lines):
            return "rejected", {line["line_no"]: "rejected" for line in lines}
        return "partial", line_statuses

    return policy


@dataclass
class OrderRecord:
    """One order as the ERP knows it."""

    po_number: str
    total_amount: float
    status: str                       # accepted / rejected / partial
    document: Document                # the native PO as received
    line_statuses: dict[int, str] = field(default_factory=dict)
    received_at: float = 0.0
    acknowledged_at: float | None = None


class ERPSimulator:
    """Base class for back-end application simulators.

    Subclasses define the native format and three hooks:
    :meth:`_po_fields`, :meth:`_build_ack` and :meth:`_ack_po_number`.

    :param name: application id (e.g. ``"SAP"``), used in rules and bindings.
    :param acceptance_policy: how incoming POs are acknowledged.
    :param scheduler: shared event scheduler; with ``processing_delay > 0``
        acknowledgments appear asynchronously.
    :param processing_delay: logical time between storing a PO and its
        acknowledgment becoming extractable.
    """

    format_name = ""  # subclasses set their native format

    def __init__(
        self,
        name: str,
        acceptance_policy: AcceptancePolicy | None = None,
        scheduler: EventScheduler | None = None,
        processing_delay: float = 0.0,
    ):
        if not self.format_name:
            raise BackendError("ERPSimulator subclasses must set format_name")
        self.name = name
        self.acceptance_policy = acceptance_policy or accept_all
        self.scheduler = scheduler
        self.processing_delay = processing_delay
        if processing_delay > 0 and scheduler is None:
            raise BackendError("processing_delay needs a scheduler")
        self.orders: dict[str, OrderRecord] = {}
        self.stored_acks: dict[str, Document] = {}
        self.outbound: deque[Document] = deque()
        self._ready_callbacks: list[ReadyCallback] = []
        self.stored_count = 0
        self.extracted_count = 0

    # -- integration-facing API ---------------------------------------------------

    def store_document(self, document: Document) -> None:
        """Accept a native-format document (the binding's 'Store' step).

        The ERP keeps a sealed document as it is and a private copy of an
        unsealed one.  ``stored_count`` counts the documents it accepted.
        """
        if document.format_name != self.format_name:
            raise BackendError(
                f"{self.name} only accepts {self.format_name!r} documents, "
                f"got {document.format_name!r} — a binding transformation is missing"
            )
        if not document.sealed:
            document = document.copy()
        if document.doc_type == "purchase_order":
            self._process_purchase_order(document)
        elif document.doc_type == "po_ack":
            self._store_ack(document)
        else:
            raise BackendError(
                f"{self.name} cannot process doc_type {document.doc_type!r}"
            )

    def extract_documents(self, doc_type: str | None = None) -> list[Document]:
        """Drain the outbound queue (the binding's 'Extract' step)."""
        drained: list[Document] = []
        remaining: deque[Document] = deque()
        while self.outbound:
            document = self.outbound.popleft()
            if doc_type is None or document.doc_type == doc_type:
                drained.append(document)
            else:
                remaining.append(document)
        self.outbound = remaining
        self.extracted_count += len(drained)
        return drained

    def extract_document_for(self, po_number: str, doc_type: str) -> Document | None:
        """Extract the queued document of ``doc_type`` for ``po_number``."""
        for index, document in enumerate(self.outbound):
            if document.doc_type == doc_type and self._document_po_number(document) == po_number:
                del self.outbound[index]
                self.extracted_count += 1
                return document
        return None

    def _document_po_number(self, document: Document) -> str:
        if document.doc_type == "po_ack":
            return self._ack_po_number(document)
        po_number, _, _ = self._po_fields(document)
        return po_number

    def on_document_ready(self, callback: ReadyCallback) -> None:
        """Register a callback fired when an outbound document appears."""
        self._ready_callbacks.append(callback)

    def pending_outbound(self) -> int:
        """Number of documents waiting to be extracted."""
        return len(self.outbound)

    # -- order book queries ----------------------------------------------------------

    def order(self, po_number: str) -> OrderRecord:
        """Return the order record for ``po_number``."""
        try:
            return self.orders[po_number]
        except KeyError:
            raise BackendError(f"{self.name} has no order {po_number!r}") from None

    def has_order(self, po_number: str) -> bool:
        """True when the ERP holds an order with this number."""
        return po_number in self.orders

    def order_count(self) -> int:
        """Number of orders in the book."""
        return len(self.orders)

    # -- processing -----------------------------------------------------------------

    def _process_purchase_order(self, document: Document) -> None:
        po_number, total, lines = self._po_fields(document)
        if po_number in self.orders:
            raise BackendError(
                f"{self.name} already has order {po_number!r} "
                "(duplicate suppression belongs to the messaging layer)"
            )
        status, line_statuses = self.acceptance_policy(po_number, total, lines)
        self.stored_count += 1
        now = self.scheduler.clock.now() if self.scheduler else 0.0
        record = OrderRecord(
            po_number=po_number,
            total_amount=total,
            status=status,
            document=document,
            line_statuses=line_statuses,
            received_at=now,
        )
        self.orders[po_number] = record
        if self.processing_delay > 0 and self.scheduler is not None:
            self.scheduler.after(
                self.processing_delay,
                lambda: self._emit_ack(record),
                label=f"{self.name} acknowledge {po_number}",
            )
        else:
            self._emit_ack(record)

    def _emit_ack(self, record: OrderRecord) -> None:
        now = self.scheduler.clock.now() if self.scheduler else 0.0
        record.acknowledged_at = now
        self._queue_outbound(self._build_ack(record, now))

    def _queue_outbound(self, document: Document) -> Document:
        """Seal ``document``, queue it for extraction and announce it."""
        self.outbound.append(document.seal())
        for callback in self._ready_callbacks:
            callback(self.name, document)
        return document

    def _store_ack(self, document: Document) -> None:
        po_number = self._ack_po_number(document)
        self.stored_acks[po_number] = document
        self.stored_count += 1

    # -- subclass hooks ----------------------------------------------------------------

    def _po_fields(self, document: Document) -> tuple[str, float, list[dict[str, Any]]]:
        """Return (po_number, total_amount, lines) from a native PO.

        Lines use normalized keys: line_no, sku, quantity, unit_price.
        """
        raise NotImplementedError

    def _build_ack(self, record: OrderRecord, now: float) -> Document:
        """Build the native acknowledgment for a processed order."""
        raise NotImplementedError

    def _ack_po_number(self, document: Document) -> str:
        """Return the PO number a native acknowledgment answers."""
        raise NotImplementedError


def accepted_amount(lines: list[dict[str, Any]], line_statuses: dict[int, str], default_status: str) -> float:
    """Sum quantity x price over lines whose effective status is accepted."""
    total = 0.0
    for line in lines:
        status = line_statuses.get(line["line_no"], _default_line_status(default_status))
        if status == "accepted":
            total += line["quantity"] * line["unit_price"]
    return round(total, 2)


def _default_line_status(header_status: str) -> str:
    return "accepted" if header_status in ("accepted", "partial") else "rejected"
