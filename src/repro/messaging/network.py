"""Deterministic simulated network between enterprises.

The Internet of Figure 1, reduced to what the reproduction needs: messages
sent between registered addresses experience configurable **loss**,
**duplication**, **corruption** and **latency** (variable latency yields
reordering).  Everything is driven by the shared
:class:`~repro.sim.EventScheduler` and a seeded RNG, so a run is a pure
function of (topology, workload, conditions, seed) — which is what lets the
reliability benchmarks sweep loss rates reproducibly.

Per-link condition overrides support asymmetric experiments (e.g. only the
seller's inbound link is lossy), and :meth:`SimulatedNetwork.partition`
models a partner being unreachable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.errors import EndpointError, MessagingError
from repro.messaging.envelope import Message
from repro.runtime import Kernel, MessageDelivered, MessageDropped, MessageSent
from repro.sim import EventScheduler

__all__ = ["NetworkConditions", "NetworkStats", "SimulatedNetwork"]

Handler = Callable[[Message], None]


@dataclass(frozen=True)
class NetworkConditions:
    """Link behaviour knobs.

    :param loss_rate: probability a transmission is silently dropped.
    :param duplicate_rate: probability a delivered message arrives twice.
    :param corrupt_rate: probability the body is damaged in flight.
    :param min_latency / max_latency: uniform delivery-delay bounds;
        overlapping windows of consecutive sends produce reordering.
    """

    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    min_latency: float = 0.01
    max_latency: float = 0.05

    def __post_init__(self) -> None:
        for name in ("loss_rate", "duplicate_rate", "corrupt_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise MessagingError(f"{name} must be in [0, 1], got {value}")
        if self.min_latency < 0 or self.max_latency < self.min_latency:
            raise MessagingError(
                f"invalid latency window [{self.min_latency}, {self.max_latency}]"
            )

    @classmethod
    def perfect(cls) -> "NetworkConditions":
        """A loss-free, constant-latency link (unit and baseline tests)."""
        return cls(min_latency=0.01, max_latency=0.01)


@dataclass
class NetworkStats:
    """Counters the reliability experiments report."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
        }


class SimulatedNetwork:
    """The event-scheduled network connecting enterprise endpoints.

    The network owns (or is handed) the simulation's runtime kernel: every
    component sharing this network — engines, B2B engines, reliable
    endpoints — reaches the kernel through ``network.runtime``, so one
    event stream covers the whole community.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        conditions: NetworkConditions | None = None,
        seed: int = 7,
        runtime: Kernel | None = None,
    ):
        self.scheduler = scheduler
        self.conditions = conditions or NetworkConditions.perfect()
        self.runtime = runtime or Kernel(clock=scheduler.clock)
        self._rng = random.Random(seed)
        self._handlers: dict[str, Handler] = {}
        self._link_conditions: dict[tuple[str, str], NetworkConditions] = {}
        self._partitioned: set[str] = set()
        self.stats = NetworkStats()
        self.link_stats: dict[tuple[str, str], NetworkStats] = {}

    def _link(self, message: Message) -> NetworkStats:
        key = (message.sender, message.receiver)
        stats = self.link_stats.get(key)
        if stats is None:
            stats = self.link_stats[key] = NetworkStats()
        return stats

    def _emit_drop(self, message: Message, reason: str) -> None:
        self.stats.dropped += 1
        self._link(message).dropped += 1
        self.runtime.emit(
            MessageDropped,
            "network",
            message_id=message.message_id,
            sender=message.sender,
            receiver=message.receiver,
            reason=reason,
        )

    # -- topology -------------------------------------------------------------

    def register(self, address: str, handler: Handler) -> None:
        """Attach ``handler`` as the receiver for ``address``."""
        if not address:
            raise EndpointError("address must be non-empty")
        if address in self._handlers:
            raise EndpointError(f"address {address!r} already registered")
        self._handlers[address] = handler

    def unregister(self, address: str) -> None:
        """Detach ``address`` (subsequent sends to it are dropped)."""
        self._handlers.pop(address, None)

    def is_registered(self, address: str) -> bool:
        """Return True when ``address`` has a receiver."""
        return address in self._handlers

    def set_link_conditions(
        self, sender: str, receiver: str, conditions: NetworkConditions
    ) -> None:
        """Override conditions for the directed link ``sender -> receiver``."""
        self._link_conditions[(sender, receiver)] = conditions

    def partition(self, address: str) -> None:
        """Make ``address`` unreachable (all traffic to it is dropped)."""
        self._partitioned.add(address)

    def heal(self, address: str) -> None:
        """Reconnect a partitioned ``address``."""
        self._partitioned.discard(address)

    # -- traffic ----------------------------------------------------------------

    def stats_for(self, sender: str, receiver: str) -> NetworkStats:
        """Counters for the directed link ``sender -> receiver``.

        Returns a zeroed (unattached) record for links that never carried
        traffic, so callers can read without guards.
        """
        return self.link_stats.get((sender, receiver), NetworkStats())

    def link_report(self) -> dict[str, dict[str, int]]:
        """All per-link counters, keyed ``"<sender>-><receiver>"``."""
        return {
            f"{sender}->{receiver}": stats.as_dict()
            for (sender, receiver), stats in sorted(self.link_stats.items())
        }

    def send(self, message: Message) -> None:
        """Transmit ``message``; delivery (if any) happens via the scheduler."""
        self.stats.sent += 1
        self._link(message).sent += 1
        self.runtime.emit(
            MessageSent,
            "network",
            message_id=message.message_id,
            sender=message.sender,
            receiver=message.receiver,
            kind=message.kind,
            protocol=message.protocol,
            doc_type=message.doc_type,
        )
        conditions = self._link_conditions.get(
            (message.sender, message.receiver), self.conditions
        )
        if message.receiver in self._partitioned:
            self._emit_drop(message, "partitioned")
            return
        if self._rng.random() < conditions.loss_rate:
            self._emit_drop(message, "lost")
            return
        copies = 1
        if self._rng.random() < conditions.duplicate_rate:
            copies = 2
            self.stats.duplicated += 1
            self._link(message).duplicated += 1
        for _ in range(copies):
            delivered = message
            if self._rng.random() < conditions.corrupt_rate:
                delivered = self._corrupt(message)
                self.stats.corrupted += 1
                self._link(message).corrupted += 1
            latency = self._rng.uniform(conditions.min_latency, conditions.max_latency)
            self.scheduler.after(
                latency,
                lambda msg=delivered: self._deliver(msg),
                label=f"deliver {message.message_id} to {message.receiver}",
            )

    def _corrupt(self, message: Message) -> Message:
        """Damage the body so wire-format parsers reject it downstream.

        Corruption is modelled as a cut transmission (the body truncated at
        a random point) because truncation is *detectable* by every parser;
        a flipped character inside a free-text field would be silently
        accepted, which is realistic but useless for fault-path tests.
        """
        body = message.body
        if not body:
            return message
        position = self._rng.randrange(len(body))
        return message.with_body(body[:position] + "\x00GARBLED")

    def _deliver(self, message: Message) -> None:
        handler = self._handlers.get(message.receiver)
        if handler is None or message.receiver in self._partitioned:
            self._emit_drop(message, "unreachable")
            return
        self.stats.delivered += 1
        self._link(message).delivered += 1
        self.runtime.emit(
            MessageDelivered,
            "network",
            message_id=message.message_id,
            sender=message.sender,
            receiver=message.receiver,
            kind=message.kind,
        )
        handler(message)
