"""The runtime kernel: run-queue scheduler + event bus + observer API.

Every architecture in the repro — the monolithic, cooperative, and
distributed-interorg baselines as well as the advanced
:class:`~repro.core.integration.B2BEngine` — advances its workflow and
public-process instances through one :class:`Kernel`.  Components submit
*advance tasks* to the kernel's :class:`RunQueue`; ``drain()`` executes
them in FIFO order until the queue is empty, so each externally triggered
stimulus (a message delivery, a timer, an API call) runs the affected
instances to quiescence in a single batch rather than one step per call.

``drain()`` is **reentrant**: when a task itself submits work and drains
(a parent workflow starting a child synchronously), the nested drain
consumes the same shared queue.  This preserves the engines' synchronous
subtree semantics — a child failure still propagates as an exception
through the parent's activity frame — while keeping every instance
advancement routed through, and observable at, the kernel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.runtime.bus import EventBus, Subscription
from repro.runtime.events import BatchAbandoned, RuntimeEvent
from repro.runtime.observers import MetricsObserver, TraceRecorder
from repro.sim import Clock

__all__ = ["Kernel", "RunQueue", "Task"]


@dataclass
class Task:
    """A unit of work on the run queue (usually: advance one instance):
    a plain thunk plus a label for diagnostics."""

    action: Callable[[], None]
    label: str = ""


class RunQueue:
    """FIFO scheduler that runs submitted tasks to quiescence in batches.

    :param max_tasks_per_batch: runaway guard — a single outermost
        ``drain()`` refusing to execute more than this many tasks turns an
        accidental infinite submit loop into a loud error.
    """

    def __init__(
        self,
        max_tasks_per_batch: int = 1_000_000,
        on_abandoned: Callable[[int, BaseException], None] | None = None,
    ) -> None:
        self._queue: deque[Task] = deque()
        self.max_tasks_per_batch = max_tasks_per_batch
        self.depth = 0
        self.batches = 0
        self.tasks_executed = 0
        self.abandoned = 0
        self.on_abandoned = on_abandoned
        self._batch_budget = 0

    def submit(self, action: Callable[[], None], label: str = "") -> None:
        """Queue a task; it runs on the next (or the enclosing) ``drain()``."""
        self._queue.append(Task(action, label))

    def pending(self) -> int:
        return len(self._queue)

    def drain(self) -> int:
        """Run queued tasks FIFO until none remain; returns tasks executed.

        Reentrant: a nested call keeps consuming the shared queue, so work
        submitted by a running task executes before the outer drain
        resumes.  If a task raises at the outermost level, the remaining
        queue is abandoned: it is cleared, ``abandoned`` counts the dropped
        tasks, the ``on_abandoned`` hook (if set) fires with the count and
        the error, and the exception propagates to the caller.
        """
        if self.depth == 0:
            self.batches += 1
            self._batch_budget = self.max_tasks_per_batch
        self.depth += 1
        executed = 0
        try:
            while self._queue:
                if self._batch_budget <= 0:
                    raise RuntimeError(
                        "RunQueue exceeded max_tasks_per_batch="
                        f"{self.max_tasks_per_batch}; likely a submit loop"
                    )
                self._batch_budget -= 1
                task = self._queue.popleft()
                self.tasks_executed += 1
                executed += 1
                task.action()
        except BaseException as error:
            if self.depth == 1:
                dropped = len(self._queue)
                self._queue.clear()
                if dropped:
                    self.abandoned += dropped
                    if self.on_abandoned is not None:
                        self.on_abandoned(dropped, error)
            raise
        finally:
            self.depth -= 1
        return executed


@dataclass
class Kernel:
    """The shared runtime: clock + run queue + event bus + shipped observers.

    A :class:`~repro.runtime.observers.MetricsObserver` is always attached
    (architecture counters are views over it); a
    :class:`~repro.runtime.observers.TraceRecorder` attaches on demand via
    :meth:`enable_trace`.
    """

    clock: Clock = field(default_factory=Clock)
    bus: EventBus = field(default_factory=EventBus)
    run_queue: RunQueue = field(default_factory=RunQueue)

    def __post_init__(self) -> None:
        self.metrics = MetricsObserver()
        self.bus.subscribe(self.metrics)
        self.trace: TraceRecorder | None = None
        if self.run_queue.on_abandoned is None:
            self.run_queue.on_abandoned = self._on_batch_abandoned

    def _on_batch_abandoned(self, dropped: int, error: BaseException) -> None:
        self.emit(BatchAbandoned, "kernel", abandoned=dropped, error=str(error))

    # -- scheduling --------------------------------------------------------

    def submit(self, action: Callable[[], None], label: str = "") -> None:
        """Queue an advance task for the next drain."""
        self.run_queue.submit(action, label)

    def drain(self) -> int:
        return self.run_queue.drain()

    # -- observation -------------------------------------------------------

    def subscribe(
        self,
        observer: Callable[[RuntimeEvent], None],
        events: Iterable[type[RuntimeEvent] | str] | None = None,
    ) -> Subscription:
        return self.bus.subscribe(observer, events)

    def publish(self, event: RuntimeEvent) -> None:
        self.bus.publish(event)

    def emit(self, event_cls: type[RuntimeEvent], source: str, **fields: Any) -> None:
        self.publish(event_cls(at=self.clock.now(), source=source, **fields))

    def enable_trace(self, capacity: int = 10_000) -> TraceRecorder:
        """Attach (or return the already-attached) ring-buffered trace.

        Raises ``ValueError`` if a trace is already attached with a
        different capacity — silently returning the old recorder would
        make the caller's capacity request a no-op.
        """
        if self.trace is None:
            self.trace = TraceRecorder(capacity)
            self.bus.subscribe(self.trace)
        elif self.trace.capacity != capacity:
            raise ValueError(
                f"trace already attached with capacity={self.trace.capacity}; "
                f"cannot re-enable with capacity={capacity}"
            )
        return self.trace
