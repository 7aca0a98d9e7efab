"""Sharded multi-tenant kernel: partner-partitioned run queues.

The paper's §4.6 scalability argument is that a *hub* absorbs partner
growth.  :class:`ShardedKernel` makes that concrete: it implements the
same :class:`~repro.runtime.kernel.Runtime` protocol as the single-queue
:class:`~repro.runtime.kernel.Kernel`, but partitions work across N
**shards**.  Each shard owns its own task queue, bounded inter-shard
inbox, event-bus segment, metrics observer, and read-only clock view.

Routing
    ``submit(..., partner_key=...)`` routes through a pluggable
    :class:`ShardRouter` (default: stable CRC-32 hash of the partner id),
    so every task for one partner lands on one shard.  Tasks submitted
    *while executing on a shard* without a key stay on that shard;
    ingress tasks without a key go to shard 0.

Cross-shard traffic
    A task executing on shard A that targets shard B never touches B's
    queue directly: it travels as an explicit inter-shard message into
    B's bounded inbox (per-link counters in ``link_counters``), or — when
    a :class:`~repro.messaging.network.SimulatedNetwork` transport plane
    is attached via :meth:`ShardedKernel.attach_network` — as a real wire
    message between ``shard:<i>`` addresses, subject to the network's
    loss/latency model and visible in its per-link stats.

Backpressure
    When a shard's combined queue+inbox load crosses its watermark the
    kernel emits :class:`~repro.runtime.events.ShardSaturated`; when the
    load falls back under half the watermark it emits
    :class:`~repro.runtime.events.ShardDrained` (hysteresis, so the pair
    brackets each overload episode instead of toggling per task).

Drain order
    The drain executes tasks in **global submission order**: every task
    carries a monotonically increasing sequence number and the
    single-threaded drain repeatedly pops the smallest head across all
    shard queues and inboxes.  A k-way merge of per-shard FIFOs ordered
    by a global sequence *is* the single FIFO, so traces and metrics are
    identical for every shard count — including 1, where they are
    byte-identical to the plain ``Kernel``.  Each shard publishes on its
    own bus segment (which is what lets
    :class:`~repro.runtime.journal.ShardedJournal` keep one log per
    shard), and every segment forwards onto the kernel bus, which
    therefore carries the same totally ordered stream a ``Kernel`` bus
    would.
"""

from __future__ import annotations

import itertools
import zlib
from collections import Counter, deque
from typing import Any, Callable, Iterable, Protocol, runtime_checkable

from repro.runtime.bus import EventBus, Subscription
from repro.runtime.events import (
    BatchAbandoned,
    RuntimeEvent,
    ShardDrained,
    ShardSaturated,
)
from repro.runtime.kernel import Task
from repro.runtime.observers import Histogram, MetricsObserver, TraceRecorder
from repro.sim import Clock

__all__ = [
    "HashShardRouter",
    "Shard",
    "ShardClockView",
    "ShardRouter",
    "ShardedKernel",
]


@runtime_checkable
class ShardRouter(Protocol):
    """Maps a partner key to a shard index; must be stable across calls."""

    def route(self, partner_key: str, shard_count: int) -> int:
        """Return the owning shard index in ``[0, shard_count)``."""
        ...


class HashShardRouter:
    """Stable CRC-32 partitioning: same key -> same shard, forever."""

    def route(self, partner_key: str, shard_count: int) -> int:
        return zlib.crc32(partner_key.encode("utf-8")) % shard_count


class ShardClockView:
    """A shard's read-only view of the shared kernel clock."""

    def __init__(self, clock: Clock, shard: int) -> None:
        self._clock = clock
        self.shard = shard

    def now(self) -> float:
        return self._clock.now()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ShardClockView(shard={self.shard}, t={self.now():.6f})"


class Shard:
    """One partition: task queue + bounded inbox + bus segment + metrics.

    Tasks submitted from another shard arrive through the inbox, never
    directly on the task queue.
    """

    def __init__(
        self,
        index: int,
        clock: Clock,
        inbox_capacity: int,
        watermark: int,
    ) -> None:
        self.index = index
        self.clock = ShardClockView(clock, index)
        self.bus = EventBus()
        self.metrics = MetricsObserver()
        self.bus.subscribe(self.metrics)
        self.tasks: deque[tuple[int, Task]] = deque()
        self.inbox: deque[tuple[int, Task]] = deque()
        self.inbox_capacity = inbox_capacity
        self.watermark = watermark
        self.saturated = False
        self.tasks_executed = 0
        self.inbox_received = 0

    def load(self) -> int:
        """Combined queue + inbox depth (the backpressure signal)."""
        return len(self.tasks) + len(self.inbox)


class _AggregateMetrics:
    """Read-only merge of the per-shard metrics observers.

    Mirrors the :class:`~repro.runtime.observers.MetricsObserver` query
    API so engine counters (views over ``runtime.metrics``) work
    unchanged; with one shard every value is byte-identical to a single
    observer's.
    """

    def __init__(self, shards: list[Shard]) -> None:
        self._shards = shards

    def count(
        self, event_type: str | type[RuntimeEvent], source: str | None = None
    ) -> int:
        return sum(shard.metrics.count(event_type, source) for shard in self._shards)

    def sources(self, event_type: str | type[RuntimeEvent]) -> dict[str, int]:
        merged: Counter[str] = Counter()
        for shard in self._shards:
            merged.update(shard.metrics.sources(event_type))
        return dict(sorted(merged.items()))

    @property
    def counters(self) -> Counter[str]:
        merged: Counter[str] = Counter()
        for shard in self._shards:
            merged.update(shard.metrics.counters)
        return merged

    @property
    def instance_durations(self) -> Histogram:
        first = self._shards[0].metrics.instance_durations
        merged = Histogram(bounds=first.bounds)
        for shard in self._shards:
            histogram = shard.metrics.instance_durations
            merged.count += histogram.count
            merged.total += histogram.total
            merged.min = min(merged.min, histogram.min)
            merged.max = max(merged.max, histogram.max)
            for index, value in enumerate(histogram.buckets):
                merged.buckets[index] += value
        return merged

    def as_dict(self) -> dict[str, Any]:
        return {
            "events": dict(sorted(self.counters.items())),
            "instance_durations": self.instance_durations.as_dict(),
        }


class _AggregateRunQueue:
    """Read-only run-queue statistics across shards (reporting surface)."""

    def __init__(self, kernel: "ShardedKernel") -> None:
        self._kernel = kernel

    @property
    def batches(self) -> int:
        return self._kernel._batches

    @property
    def tasks_executed(self) -> int:
        return sum(shard.tasks_executed for shard in self._kernel.shards)

    @property
    def abandoned(self) -> int:
        return self._kernel._abandoned

    @property
    def depth(self) -> int:
        return self._kernel._depth

    @property
    def max_tasks_per_batch(self) -> int:
        return self._kernel.max_tasks_per_batch

    def pending(self) -> int:
        return sum(shard.load() for shard in self._kernel.shards) + len(
            self._kernel._in_flight
        )


class ShardedKernel:
    """N-shard implementation of the :class:`~repro.runtime.kernel.Runtime`
    protocol.

    :param shards: number of partitions (>= 1).
    :param clock: shared logical clock (each shard gets a read-only view).
    :param router: partner-key partitioner; defaults to
        :class:`HashShardRouter`.
    :param inbox_capacity: bound on each shard's inter-shard inbox.
    :param saturation_watermark: queue+inbox load that triggers a
        :class:`~repro.runtime.events.ShardSaturated` event.
    :param max_tasks_per_batch: runaway-submit guard, as on
        :class:`~repro.runtime.kernel.RunQueue`.
    """

    def __init__(
        self,
        shards: int = 1,
        clock: Clock | None = None,
        router: ShardRouter | None = None,
        inbox_capacity: int = 100_000,
        saturation_watermark: int = 50_000,
        max_tasks_per_batch: int = 1_000_000,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.clock = clock or Clock()
        self.shard_count = shards
        self.router = router or HashShardRouter()
        self.max_tasks_per_batch = max_tasks_per_batch
        self.bus = EventBus()
        self.shards = [
            Shard(index, self.clock, inbox_capacity, saturation_watermark)
            for index in range(shards)
        ]
        self.metrics = _AggregateMetrics(self.shards)
        self.run_queue = _AggregateRunQueue(self)
        self.trace: TraceRecorder | None = None
        self.link_counters: Counter[tuple[int, int]] = Counter()
        self._seq = itertools.count()
        #: index of the shard whose task is running; None outside a drain.
        self.current_shard: int | None = None
        self._batches = 0
        self._depth = 0
        self._batch_budget = 0
        self._abandoned = 0
        self._network = None
        self._in_flight: dict[str, tuple[int, Task]] = {}
        # Forward every segment onto the kernel bus: the drain publishes
        # in global order, so the kernel bus carries the same totally
        # ordered stream a plain Kernel's bus would.
        for shard in self.shards:
            shard.bus.subscribe(self.bus.publish)

    # -- routing -----------------------------------------------------------

    def shard_for(self, partner_key: str) -> int:
        """The shard that owns ``partner_key`` under the current router."""
        return self.router.route(partner_key, self.shard_count)

    def submit(
        self,
        action: Callable[[], None],
        label: str = "",
        partner_key: str | None = None,
    ) -> None:
        """Queue a task on its owning shard.

        Keyed tasks go to ``router.route(partner_key)``; unkeyed tasks
        stay on the submitting shard (or shard 0 from outside a drain).
        A cross-shard submit becomes an explicit inter-shard message.
        """
        seq = next(self._seq)
        current = self.current_shard
        if partner_key is not None:
            target = self.router.route(partner_key, self.shard_count)
        elif current is not None:
            target = current
        else:
            target = 0
        task = Task(action, label)
        if current is None or current == target:
            shard = self.shards[target]
            shard.tasks.append((seq, task))
            self._check_watermark(shard)
        else:
            self._send_cross_shard(current, target, seq, task)

    def _send_cross_shard(
        self, sender: int, target_index: int, seq: int, task: Task
    ) -> None:
        self.link_counters[(sender, target_index)] += 1
        if self._network is not None:
            self._send_over_network(sender, target_index, seq, task)
            return
        target = self.shards[target_index]
        if len(target.inbox) >= target.inbox_capacity:
            raise RuntimeError(
                f"shard {target_index} inbox overflow "
                f"(capacity={target.inbox_capacity})"
            )
        target.inbox.append((seq, task))
        target.inbox_received += 1
        self._check_watermark(target)

    def _check_watermark(self, shard: Shard) -> None:
        load = shard.load()
        if not shard.saturated and load > shard.watermark:
            shard.saturated = True
            self.emit(
                ShardSaturated,
                "kernel",
                shard=shard.index,
                pending=load,
                watermark=shard.watermark,
            )
        elif shard.saturated and load <= shard.watermark // 2:
            shard.saturated = False
            self.emit(ShardDrained, "kernel", shard=shard.index, pending=load)

    # -- inter-shard transport over SimulatedNetwork -----------------------

    def attach_network(self, network) -> None:
        """Route cross-shard tasks over a ``SimulatedNetwork`` transport.

        Each shard registers a ``shard:<i>`` address; cross-shard submits
        then travel as wire messages subject to the network's conditions
        and counted in its per-link stats.  Use a dedicated transport
        network (its own runtime kernel) so transport-plane events don't
        interleave with the workload's own trace.
        """
        self._network = network
        for shard in self.shards:
            address = f"shard:{shard.index}"
            if not network.is_registered(address):
                network.register(address, self._receive_inter_shard)

    def _send_over_network(
        self, sender: int, target_index: int, seq: int, task: Task
    ) -> None:
        from repro.messaging.envelope import KIND_BUSINESS, Message

        message_id = f"ishard-{seq:010d}"
        self._in_flight[message_id] = (seq, task)
        self._network.send(
            Message(
                message_id=message_id,
                sender=f"shard:{sender}",
                receiver=f"shard:{target_index}",
                kind=KIND_BUSINESS,
                protocol="inter-shard",
                doc_type="task",
                body=task.label or "task",
                sent_at=self.clock.now(),
            )
        )

    def _receive_inter_shard(self, message) -> None:
        entry = self._in_flight.pop(message.message_id, None)
        if entry is None:  # duplicate delivery; first copy won
            return
        seq, task = entry
        target = self.shards[int(message.receiver.split(":", 1)[1])]
        target.inbox.append((seq, task))
        target.inbox_received += 1
        self._check_watermark(target)

    # -- draining ----------------------------------------------------------

    def _next_head(self) -> tuple[Shard, deque] | None:
        """The (shard, deque) holding the globally smallest sequence head."""
        best_seq = None
        best: tuple[Shard, deque] | None = None
        for shard in self.shards:
            for queue in (shard.tasks, shard.inbox):
                if queue and (best_seq is None or queue[0][0] < best_seq):
                    best_seq = queue[0][0]
                    best = (shard, queue)
        return best

    def drain(self) -> int:
        """Run every queued task to quiescence, in global submission
        order; returns tasks executed."""
        if self._depth == 0:
            self._batches += 1
            self._batch_budget = self.max_tasks_per_batch
        self._depth += 1
        previous = self.current_shard
        executed = 0
        try:
            while True:
                head = self._next_head()
                if head is None:
                    if self._in_flight and self._network is not None:
                        self._network.scheduler.run_until_idle()
                        if any(shard.load() for shard in self.shards):
                            continue
                        if self._in_flight:
                            # transport dropped them; nothing will arrive
                            lost = len(self._in_flight)
                            self._in_flight.clear()
                            self._abandoned += lost
                    break
                if self._batch_budget <= 0:
                    raise RuntimeError(
                        "ShardedKernel exceeded max_tasks_per_batch="
                        f"{self.max_tasks_per_batch}; likely a submit loop"
                    )
                self._batch_budget -= 1
                shard, queue = head
                task = queue.popleft()[1]
                shard.tasks_executed += 1
                executed += 1
                self.current_shard = shard.index
                task.action()
                if shard.saturated:
                    self._check_watermark(shard)
        except BaseException as error:
            if self._depth == 1:
                self._abandon_all(error)
            raise
        finally:
            self._depth -= 1
            self.current_shard = previous
        return executed

    def _abandon_all(self, error: BaseException) -> None:
        dropped = sum(shard.load() for shard in self.shards) + len(self._in_flight)
        for shard in self.shards:
            shard.tasks.clear()
            shard.inbox.clear()
        self._in_flight.clear()
        if dropped:
            self._abandoned += dropped
            self.emit(BatchAbandoned, "kernel", abandoned=dropped, error=str(error))

    # -- observation -------------------------------------------------------

    def _segment(self) -> Shard:
        current = self.current_shard
        return self.shards[current if current is not None else 0]

    def subscribe(
        self,
        observer: Callable[[RuntimeEvent], None],
        events: Iterable[type[RuntimeEvent] | str] | None = None,
    ) -> Subscription:
        return self.bus.subscribe(observer, events)

    def publish(self, event: RuntimeEvent) -> None:
        self._segment().bus.publish(event)

    def emit(self, event_cls: type[RuntimeEvent], source: str, **fields: Any) -> None:
        self.publish(event_cls(at=self.clock.now(), source=source, **fields))

    def enable_trace(self, capacity: int = 10_000) -> TraceRecorder:
        """Attach (or return) the trace; same contract as ``Kernel``."""
        if self.trace is not None:
            if self.trace.capacity != capacity:
                raise ValueError(
                    f"trace already attached with capacity={self.trace.capacity}; "
                    f"cannot re-enable with capacity={capacity}"
                )
            return self.trace
        self.trace = TraceRecorder(capacity)
        self.bus.subscribe(self.trace)
        return self.trace

    # -- reporting ---------------------------------------------------------

    def link_report(self) -> dict[str, int]:
        """Inter-shard traffic counts keyed ``"<from>-><to>"``."""
        return {
            f"{sender}->{receiver}": count
            for (sender, receiver), count in sorted(self.link_counters.items())
        }
