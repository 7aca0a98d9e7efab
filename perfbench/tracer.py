"""Spans around calls into the hub's layers, recorded from outside the hub.

The benchmark does not change the program to trace it.  :class:`Tracer`
replaces each layer's public functions (``LAYER_FUNCTIONS``) with a
wrapper that opens a span, calls the original and closes the span.  A
span records its name, start, end, parent span and the order or burst it
belongs to; self time is its duration minus the time its child spans
cover.  Spans stay in memory and are written out once, when the run ends.

Wrappers stay installed for the life of the process and cost one flag
test while the tracer is inactive.  They must be installed before any
B2B protocol is built: a ``WireCodec`` captures the codec functions when
its protocol is constructed, so a codec wrapped later would silently
count nothing.  :meth:`Tracer.install` checks this.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator

__all__ = ["LAYER_FUNCTIONS", "LayerFunction", "Tracer"]


@dataclass(frozen=True)
class LayerFunction:
    """One wrapped function: metric name, owner (module or class), attribute."""

    name: str
    module: str
    owner: str  # class name inside ``module``; "" for a module function
    attribute: str


def _layer(name: str, target: str) -> LayerFunction:
    path, attribute = target.rsplit(".", 1)
    module, _, owner = path.partition(":")
    return LayerFunction(name, module, owner, attribute)


# Metric name -> "<module>[:<Class>].<attribute>".  Names follow the
# hub's module layout so a later change can cite them.
LAYER_FUNCTIONS: tuple[LayerFunction, ...] = (
    _layer("workflow.database.store_instance",
           "repro.workflow.database:WorkflowDatabase.store_instance"),
    _layer("workflow.database.load_instance",
           "repro.workflow.database:WorkflowDatabase.load_instance"),
    _layer("workflow.database.load_type",
           "repro.workflow.database:WorkflowDatabase.load_type"),
    _layer("workflow.engine.create_instance",
           "repro.workflow.engine:WorkflowEngine.create_instance"),
    _layer("workflow.engine.start", "repro.workflow.engine:WorkflowEngine.start"),
    _layer("workflow.engine.complete_waiting_step",
           "repro.workflow.engine:WorkflowEngine.complete_waiting_step"),
    _layer("workflow.engine.get_instance",
           "repro.workflow.engine:WorkflowEngine.get_instance"),
    _layer("documents.rosettanet.to_wire", "repro.documents.rosettanet.to_wire"),
    _layer("documents.rosettanet.from_wire", "repro.documents.rosettanet.from_wire"),
    _layer("documents.edi.to_wire", "repro.documents.edi.to_wire"),
    _layer("documents.edi.from_wire", "repro.documents.edi.from_wire"),
    _layer("documents.oagis.to_wire", "repro.documents.oagis.to_wire"),
    _layer("documents.oagis.from_wire", "repro.documents.oagis.from_wire"),
    _layer("transform.RouteExecutor.apply",
           "repro.transform.transformer:RouteExecutor.apply"),
    _layer("core.binding.apply_inbound", "repro.core.binding:Binding.apply_inbound"),
    _layer("core.binding.apply_outbound", "repro.core.binding:Binding.apply_outbound"),
    _layer("core.integration.handle_message",
           "repro.core.integration:B2BEngine.handle_message"),
    _layer("core.integration.start_conversation",
           "repro.core.integration:B2BEngine.start_conversation"),
    _layer("core.integration.dispatch_outbound",
           "repro.core.integration:B2BEngine.dispatch_outbound"),
    _layer("core.integration.backend_ready",
           "repro.core.integration:B2BEngine.backend_ready"),
    _layer("core.integration.refresh_conversations",
           "repro.core.integration:B2BEngine.refresh_conversations"),
    _layer("core.rules.evaluate", "repro.core.rules:RuleEngine.evaluate"),
    _layer("partners.find_agreement",
           "repro.partners.directory:PartnerDirectory.find_agreement"),
    _layer("partners.partner_by_address",
           "repro.partners.directory:PartnerDirectory.partner_by_address"),
    _layer("backend.store_document", "repro.backend.base:ERPSimulator.store_document"),
    _layer("backend.extract_document_for",
           "repro.backend.base:ERPSimulator.extract_document_for"),
    # enter_order is defined per simulator; both count as one function
    _layer("backend.enter_order", "repro.backend.sap_sim:SapSimulator.enter_order"),
    _layer("backend.enter_order", "repro.backend.oracle_sim:OracleSimulator.enter_order"),
    _layer("messaging.network.send", "repro.messaging.network:SimulatedNetwork.send"),
    _layer("messaging.reliable.send_reliable",
           "repro.messaging.reliable:ReliableEndpoint.send_reliable"),
    _layer("messaging.van.post", "repro.messaging.transport:ValueAddedNetwork.post"),
    _layer("messaging.van.pick_up", "repro.messaging.transport:ValueAddedNetwork.pick_up"),
    _layer("sim.run_until_idle", "repro.sim:EventScheduler.run_until_idle"),
)

# The journal's write-ahead hook is an instance attribute, so each round
# wraps it on its own kernel (workloads._drive), not at install time.
JOURNAL_WRITE = "runtime.journal.write"

CODEC_PROTOCOLS = {
    "rosettanet": "repro.documents.rosettanet",
    "edi-van": "repro.documents.edi",
    "oagis-http": "repro.documents.oagis",
}


class Tracer:
    """In-memory span recorder with per-name call counts and self time.

    Create one per process and :meth:`install` it before anything builds
    a protocol.  Spans are recorded only while :attr:`active` is true.
    """

    def __init__(self) -> None:
        self.active = False
        self.group = ""
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        # (span id, parent id or -1, name, start ns, end ns, group)
        self.spans: list[tuple[int, int, str, int, int, str]] = []
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> list[Any]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else -1
        frame = [name, span_id, parent, 0, perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list[Any]) -> None:
        end = perf_counter_ns()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, span_id, parent, child_ns, start = frame
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((span_id, parent, name, start, end, self.group))

    @contextmanager
    def span(self, name: str, group: str) -> Iterator[None]:
        """A root span (one order or one burst) while the tracer is active."""
        if not self.active:
            yield
            return
        self.group = group
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with a span named ``name`` around every call."""
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return function(*args, **kwargs)
            frame = tracer._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(frame)

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every function in ``LAYER_FUNCTIONS`` (once per process)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for spec in LAYER_FUNCTIONS:
            module = importlib.import_module(spec.module)
            owner = getattr(module, spec.owner) if spec.owner else module
            original = vars(owner)[spec.attribute]
            wrapped = self.wrap(spec.name, original)
            setattr(owner, spec.attribute, wrapped)
            self._installed.append((owner, spec.attribute, original))
        from repro.b2b.protocol import get_protocol

        for protocol_name, module_name in CODEC_PROTOCOLS.items():
            codec = get_protocol(protocol_name).codec
            module = importlib.import_module(module_name)
            if codec.to_wire is not module.to_wire or codec.from_wire is not module.from_wire:
                raise RuntimeError(
                    f"protocol {protocol_name!r} was built before the codec "
                    "wrappers were installed; its codec calls would read zero"
                )

    def uninstall(self) -> None:
        """Restore the original functions (built protocols keep the
        dormant codec wrappers)."""
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    # -- results ------------------------------------------------------------

    def reset(self) -> None:
        """Forget every recorded span and counter."""
        if self._stack:
            raise RuntimeError("cannot reset with spans open")
        self.calls.clear()
        self.self_ns.clear()
        self.spans.clear()
        self._next_id = 0

    def write_spans(self, path: Path) -> int:
        """Write the recorded spans as JSON lines; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, group in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end, "group": group}
                    )
                )
                handle.write("\n")
        return len(self.spans)
