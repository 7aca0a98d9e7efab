"""Bindings: the processes connecting public and private processes (§4.2).

A :class:`Binding` owns two step chains:

* the **inbound** chain carries a document *from* the public (or
  application) side *to* the private process — typically a single
  transformation to the normalized format;
* the **outbound** chain carries a document from the private process back
  out — typically a transformation to the wire (or back-end) format.

Besides transformations, chains may **consume** a document (take it from
the public process and not pass it on, e.g. a protocol-level receipt the
private process never sees) or **produce** one (create a document the
private process does not supply) — the compensation mechanisms Section
4.2.1 calls out.

The same class binds private processes to back-end applications
(``application`` set instead of ``public_process``): Figure 14's right-hand
bindings with "Transform to SAP PO" / "Transform to normalized POA".

Each transform step asks the registry for ``registry.transform(document,
target, context)``; the registry memoizes one compiled executor per
route, so a chain edit or a newly registered mapping takes effect on the
next message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.documents.model import Document
from repro.errors import BindingError
from repro.transform.transformer import TransformationRegistry

__all__ = [
    "BindingStep",
    "Binding",
    "make_protocol_binding",
    "make_application_binding",
]

KIND_TRANSFORM = "transform"
KIND_CONSUME = "consume"
KIND_PRODUCE = "produce"

_KINDS = (KIND_TRANSFORM, KIND_CONSUME, KIND_PRODUCE)

Producer = Callable[[Mapping[str, Any]], Document]


@dataclass(frozen=True)
class BindingStep:
    """One step of a binding chain.

    * ``transform`` needs ``target_format``;
    * ``consume`` drops the document (the chain yields nothing);
    * ``produce`` needs a ``producer`` callable ``context -> Document``
      and replaces the current document with the produced one.
    """

    step_id: str
    kind: str
    target_format: str = ""
    producer: Producer | None = None

    def __post_init__(self) -> None:
        if not self.step_id:
            raise BindingError("binding step needs a step_id")
        if self.kind not in _KINDS:
            raise BindingError(f"unknown binding step kind {self.kind!r}")
        if self.kind == KIND_TRANSFORM and not self.target_format:
            raise BindingError(
                f"binding step {self.step_id!r}: transform needs target_format"
            )
        if self.kind == KIND_PRODUCE and self.producer is None:
            raise BindingError(
                f"binding step {self.step_id!r}: produce needs a producer"
            )

    def fingerprint(self) -> str:
        """Stable description for change detection."""
        producer_name = getattr(self.producer, "__name__", "") if self.producer else ""
        return f"{self.step_id}|{self.kind}|{self.target_format}|{producer_name}"


class Binding:
    """A binding between a public process (or application) and a private
    process.

    :param name: unique binding name.
    :param private_process: the private workflow type this binding serves.
    :param public_process: the public process definition name (exclusive
        with ``application``).
    :param application: the back-end application name (exclusive with
        ``public_process``).
    """

    def __init__(
        self,
        name: str,
        private_process: str,
        public_process: str = "",
        application: str = "",
        inbound: list[BindingStep] | None = None,
        outbound: list[BindingStep] | None = None,
    ):
        if not name:
            raise BindingError("binding needs a name")
        if bool(public_process) == bool(application):
            raise BindingError(
                f"binding {name!r}: exactly one of public_process or "
                "application required"
            )
        self.name = name
        self.private_process = private_process
        self.public_process = public_process
        self.application = application
        self.inbound = list(inbound or [])
        self.outbound = list(outbound or [])
        self.inbound_runs = 0
        self.outbound_runs = 0

    # -- execution -----------------------------------------------------------

    def apply_inbound(
        self,
        document: Document,
        registry: TransformationRegistry,
        context: Mapping[str, Any] | None = None,
    ) -> Document | None:
        """Run the inbound chain; ``None`` means the document was consumed."""
        self.inbound_runs += 1
        return self._run(self.inbound, document, registry, context or {})

    def apply_outbound(
        self,
        document: Document,
        registry: TransformationRegistry,
        context: Mapping[str, Any] | None = None,
    ) -> Document | None:
        """Run the outbound chain; ``None`` means the document was consumed."""
        self.outbound_runs += 1
        return self._run(self.outbound, document, registry, context or {})

    def _run(
        self,
        chain: list[BindingStep],
        document: Document | None,
        registry: TransformationRegistry,
        context: Mapping[str, Any],
    ) -> Document | None:
        for step in chain:
            if step.kind == KIND_CONSUME:
                return None
            if step.kind == KIND_PRODUCE:
                assert step.producer is not None
                document = step.producer(context)
                continue
            if document is None:
                raise BindingError(
                    f"binding {self.name!r}: step {step.step_id!r} has no "
                    "document to transform (consumed earlier in the chain?)"
                )
            document = registry.transform(document, step.target_format, context)
        return document

    # -- metrics & change detection ----------------------------------------------

    def transformation_step_count(self) -> int:
        """Transform steps across both chains (complexity metric)."""
        return sum(
            1
            for step in (*self.inbound, *self.outbound)
            if step.kind == KIND_TRANSFORM
        )

    def step_count(self) -> int:
        """All steps across both chains."""
        return len(self.inbound) + len(self.outbound)

    def to_dict(self) -> dict[str, Any]:
        """Stable description for change detection."""
        return {
            "name": self.name,
            "private_process": self.private_process,
            "public_process": self.public_process,
            "application": self.application,
            "inbound": [step.fingerprint() for step in self.inbound],
            "outbound": [step.fingerprint() for step in self.outbound],
        }

    def __repr__(self) -> str:
        side = self.public_process or self.application
        return f"Binding({self.name!r}: {side!r} <-> {self.private_process!r})"


def make_protocol_binding(
    name: str,
    public_process: str,
    private_process: str,
    wire_format: str,
    normalized_format: str = "normalized",
) -> Binding:
    """The standard protocol binding of Figure 12: transform the wire
    layout to normalized inbound, and normalized back to the wire layout
    outbound."""
    return Binding(
        name,
        private_process=private_process,
        public_process=public_process,
        inbound=[
            BindingStep("to_normalized", KIND_TRANSFORM, target_format=normalized_format)
        ],
        outbound=[BindingStep("to_wire", KIND_TRANSFORM, target_format=wire_format)],
    )


def make_application_binding(
    name: str,
    application: str,
    private_process: str,
    native_format: str,
    normalized_format: str = "normalized",
) -> Binding:
    """The back-end binding of Figure 14.

    Direction semantics match protocol bindings — *inbound* always flows
    toward the private process: documents extracted from the application
    are normalized inbound, documents the private process stores are
    transformed to the native layout outbound.
    """
    return Binding(
        name,
        private_process=private_process,
        application=application,
        inbound=[
            BindingStep("to_normalized", KIND_TRANSFORM, target_format=normalized_format)
        ],
        outbound=[BindingStep("to_native", KIND_TRANSFORM, target_format=native_format)],
    )
