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

Bindings sit on the per-message hot path, so chain execution is **planned**:
the first message through a chain resolves the transformation route (format
lookups, mapping sequence) once, compiles the mappings, and caches the plan
keyed on :meth:`Binding.fingerprint` and the registry version.  Later
messages replay the plan; editing the chain or registering a new mapping
invalidates it.  The unplanned interpreter (``_run_chain``) is kept as the
behavioural reference and cross-checked in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.documents.model import Document
from repro.errors import BindingError
from repro.transform.transformer import RouteExecutor, TransformationRegistry

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

#: distinguishes "route not memoized yet" from a memoized identity route
#: (``None``) in a chain plan's route table.
_UNSET: Any = object()


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


class _ChainPlan:
    """A cached execution plan for one binding chain.

    ``routes`` memoizes, per (step index, incoming format, doc type), the
    registry :class:`RouteExecutor` that transform step applies (``None``
    for the identity route).  Route entries are filled lazily because a
    ``produce`` step makes the mid-chain document format a runtime
    property.
    """

    __slots__ = ("steps", "snapshot", "registry_id", "registry_version", "routes")

    def __init__(
        self,
        steps: tuple["BindingStep", ...],
        registry: TransformationRegistry,
    ):
        self.steps = steps
        self.snapshot = steps
        self.registry_id = id(registry)
        self.registry_version = registry.version
        self.routes: dict[tuple[int, str, str], RouteExecutor | None] = {}

    def valid_for(
        self, chain: tuple["BindingStep", ...], registry: TransformationRegistry
    ) -> bool:
        return (
            self.registry_id == id(registry)
            and self.registry_version == registry.version
            and self.snapshot == chain
        )


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
        # direction -> active plan; (direction, fingerprint, registry id,
        # registry version) -> built plan, so a structure flipped back to a
        # previously-seen shape reuses its resolved routes.
        self._active_plans: dict[str, _ChainPlan] = {}
        self._plan_cache: dict[tuple[str, str, int, int], _ChainPlan] = {}

    # -- execution -----------------------------------------------------------

    def apply_inbound(
        self,
        document: Document,
        registry: TransformationRegistry,
        context: Mapping[str, Any] | None = None,
    ) -> Document | None:
        """Run the inbound chain; ``None`` means the document was consumed."""
        self.inbound_runs += 1
        return self._run_planned("in", self.inbound, document, registry, context or {})

    def apply_outbound(
        self,
        document: Document,
        registry: TransformationRegistry,
        context: Mapping[str, Any] | None = None,
    ) -> Document | None:
        """Run the outbound chain; ``None`` means the document was consumed."""
        self.outbound_runs += 1
        return self._run_planned("out", self.outbound, document, registry, context or {})

    # -- planned execution (hot path) ------------------------------------------

    def invalidate_plans(self) -> None:
        """Drop every cached execution plan (model-change hook)."""
        self._active_plans.clear()
        self._plan_cache.clear()

    def _plan(
        self,
        direction: str,
        chain: list[BindingStep],
        registry: TransformationRegistry,
    ) -> _ChainPlan:
        snapshot = tuple(chain)
        plan = self._active_plans.get(direction)
        if plan is not None and plan.valid_for(snapshot, registry):
            return plan
        key = (direction, self.fingerprint(), id(registry), registry.version)
        plan = self._plan_cache.get(key)
        if plan is None or not plan.valid_for(snapshot, registry):
            plan = _ChainPlan(snapshot, registry)
            self._plan_cache[key] = plan
        self._active_plans[direction] = plan
        return plan

    def _run_planned(
        self,
        direction: str,
        chain: list[BindingStep],
        document: Document | None,
        registry: TransformationRegistry,
        context: Mapping[str, Any],
    ) -> Document | None:
        plan = self._plan(direction, chain, registry)
        routes = plan.routes
        for index, step in enumerate(plan.steps):
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
            route_key = (index, document.format_name, document.doc_type)
            executor = routes.get(route_key, _UNSET)
            if executor is _UNSET:
                executor = registry.executor(
                    document.format_name, step.target_format, document.doc_type
                )
                routes[route_key] = executor
            if executor is not None:
                document = executor.apply(document, context)
        return document

    def _run_chain(
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

    def fingerprint(self) -> str:
        """A short stable digest of the binding's structure.

        Derived from :meth:`to_dict` only — runtime counters do not
        affect it — so two structurally identical bindings share a
        fingerprint and any structural edit (renamed step, reordered
        chain, different endpoint) changes it.
        """
        import hashlib
        import json

        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

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
