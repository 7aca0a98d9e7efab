"""Unit tests for the runtime kernel: run queue, event bus, observers."""

import pytest

from repro.runtime import (
    ALL_EVENT_TYPES,
    EventBus,
    Histogram,
    InstanceCompleted,
    Kernel,
    MetricsObserver,
    RunQueue,
    StepStarted,
    TraceRecorder,
)
from repro.sim import Clock


def _step(at=0.0, source="engine", instance_id="I-1", step_id="a"):
    return StepStarted(at=at, source=source, instance_id=instance_id, step_id=step_id)


def _completed(at=1.0, source="engine", instance_id="I-1", duration=1.0):
    return InstanceCompleted(
        at=at, source=source, instance_id=instance_id, type_name="t", duration=duration
    )


class TestRunQueue:
    def test_fifo_order(self):
        queue = RunQueue()
        order = []
        queue.submit(lambda: order.append("a"))
        queue.submit(lambda: order.append("b"))
        queue.submit(lambda: order.append("c"))
        assert queue.drain() == 3
        assert order == ["a", "b", "c"]

    def test_tasks_submitted_during_drain_run_in_same_batch(self):
        queue = RunQueue()
        order = []

        def first():
            order.append("first")
            queue.submit(lambda: order.append("child"))

        queue.submit(first)
        queue.submit(lambda: order.append("second"))
        executed = queue.drain()
        assert executed == 3
        assert order == ["first", "second", "child"]
        assert queue.batches == 1

    def test_nested_drain_consumes_shared_queue(self):
        queue = RunQueue()
        order = []

        def parent():
            order.append("parent-pre")
            queue.submit(lambda: order.append("child"))
            queue.drain()  # synchronous subtree: child runs before we return
            order.append("parent-post")

        queue.submit(parent)
        queue.drain()
        assert order == ["parent-pre", "child", "parent-post"]
        assert queue.batches == 1  # nested drain is not a new batch
        assert queue.depth == 0

    def test_exception_at_outermost_level_clears_queue(self):
        queue = RunQueue()
        ran = []

        def boom():
            raise ValueError("boom")

        queue.submit(boom)
        queue.submit(lambda: ran.append("after"))
        with pytest.raises(ValueError):
            queue.drain()
        assert queue.pending() == 0
        assert ran == []
        assert queue.depth == 0

    def test_runaway_submit_loop_raises(self):
        queue = RunQueue(max_tasks_per_batch=50)

        def resubmit():
            queue.submit(resubmit)

        queue.submit(resubmit)
        with pytest.raises(RuntimeError, match="max_tasks_per_batch"):
            queue.drain()

    def test_reentrant_drain_shares_one_batch_budget(self):
        """A nested drain consumes the *outer* batch's budget, so the
        runaway guard cannot be dodged by splitting the loop over
        nested drains."""
        queue = RunQueue(max_tasks_per_batch=10)

        def resubmit_nested():
            queue.submit(resubmit_nested)
            queue.drain()

        queue.submit(resubmit_nested)
        with pytest.raises(RuntimeError, match="max_tasks_per_batch"):
            queue.drain()
        assert queue.tasks_executed == 10
        assert queue.batches == 1

    def test_depth_resets_after_nested_failure(self):
        queue = RunQueue()

        def parent():
            queue.submit(boom)
            queue.drain()  # nested drain raises through the parent frame

        def boom():
            raise ValueError("nested boom")

        queue.submit(parent)
        with pytest.raises(ValueError, match="nested boom"):
            queue.drain()
        assert queue.depth == 0
        assert queue.pending() == 0
        # And the queue is immediately usable again.
        ran = []
        queue.submit(lambda: ran.append("ok"))
        queue.drain()
        assert ran == ["ok"]

    def test_budget_exhaustion_inside_nested_drain(self):
        """Hitting max_tasks_per_batch inside a nested drain abandons the
        whole batch at the outermost level, not just the subtree."""
        queue = RunQueue(max_tasks_per_batch=3)
        ran = []

        def parent():
            ran.append("parent")
            for index in range(5):
                queue.submit(lambda index=index: ran.append(f"child-{index}"))
            queue.drain()

        queue.submit(parent)
        with pytest.raises(RuntimeError, match="max_tasks_per_batch"):
            queue.drain()
        # Budget 3 covers parent + two children; the rest are abandoned.
        assert ran == ["parent", "child-0", "child-1"]
        assert queue.depth == 0
        assert queue.pending() == 0
        assert queue.abandoned == 3

    def test_abandoned_tasks_are_counted_and_hook_fires(self):
        observed = []
        queue = RunQueue(
            on_abandoned=lambda dropped, error: observed.append((dropped, str(error)))
        )

        def boom():
            raise ValueError("boom")

        queue.submit(boom)
        queue.submit(lambda: None)
        queue.submit(lambda: None)
        with pytest.raises(ValueError):
            queue.drain()
        assert queue.abandoned == 2
        assert observed == [(2, "boom")]
        # A clean failure with nothing queued behind it abandons nothing.
        queue.submit(boom)
        with pytest.raises(ValueError):
            queue.drain()
        assert queue.abandoned == 2
        assert len(observed) == 1


class TestEventBus:
    def test_subscribe_receives_all_events(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish(_step())
        bus.publish(_completed())
        assert [event.type for event in seen] == ["step_started", "instance_completed"]
        assert bus.published == 2

    def test_filter_by_class_and_string(self):
        bus = EventBus()
        by_class, by_string = [], []
        bus.subscribe(by_class.append, events=[StepStarted])
        bus.subscribe(by_string.append, events=["instance_completed"])
        bus.publish(_step())
        bus.publish(_completed())
        assert [event.type for event in by_class] == ["step_started"]
        assert [event.type for event in by_string] == ["instance_completed"]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        subscription = bus.subscribe(seen.append)
        bus.publish(_step())
        subscription.unsubscribe()
        subscription.unsubscribe()  # idempotent
        bus.publish(_step())
        assert len(seen) == 1
        assert bus.subscriber_count() == 0


class TestTraceRecorder:
    def test_ring_buffer_caps_retention(self):
        trace = TraceRecorder(capacity=3)
        for index in range(5):
            trace(_step(at=float(index), step_id=f"s{index}"))
        assert len(trace) == 3
        assert trace.recorded == 5
        assert [event.step_id for event in trace.events()] == ["s2", "s3", "s4"]

    def test_query_by_type_source_and_instance(self):
        trace = TraceRecorder()
        trace(_step(source="left", instance_id="I-1"))
        trace(_step(source="right", instance_id="I-2"))
        trace(_completed(source="left", instance_id="I-1"))
        assert len(trace.events(type=StepStarted)) == 2
        assert len(trace.events(type="step_started", source="left")) == 1
        assert len(trace.events(instance_id="I-2")) == 1
        assert trace.last().type == "instance_completed"
        assert trace.last(type=StepStarted).source == "right"
        assert trace.event_types() == {"step_started", "instance_completed"}

    def test_render_is_one_line_per_event(self):
        trace = TraceRecorder()
        trace(_step())
        trace(_completed())
        lines = trace.render().splitlines()
        assert len(lines) == 2
        assert "step_started" in lines[0]
        assert "instance_completed" in lines[1]
        assert trace.render(limit=1).splitlines() == [lines[1]]


class TestMetricsObserver:
    def test_counts_by_type_and_source(self):
        metrics = MetricsObserver()
        metrics(_step(source="left"))
        metrics(_step(source="left"))
        metrics(_step(source="right"))
        assert metrics.count(StepStarted) == 3
        assert metrics.count("step_started", source="left") == 2
        assert metrics.count(StepStarted, source="nobody") == 0
        assert metrics.sources(StepStarted) == {"left": 2, "right": 1}

    def test_instance_durations_feed_histogram(self):
        metrics = MetricsObserver()
        metrics(_completed(duration=0.05))
        metrics(_completed(duration=2.0))
        histogram = metrics.instance_durations
        assert histogram.count == 2
        assert histogram.mean == pytest.approx(1.025)
        assert histogram.min == pytest.approx(0.05)
        assert histogram.max == pytest.approx(2.0)

    def test_as_dict_shape(self):
        metrics = MetricsObserver()
        metrics(_step())
        snapshot = metrics.as_dict()
        assert snapshot["events"] == {"step_started": 1}
        assert snapshot["instance_durations"]["count"] == 0


class TestHistogram:
    def test_bucket_boundaries(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            histogram.observe(value)
        assert histogram.as_dict()["buckets"] == {"<=1": 2, "<=10": 1, ">10": 1}


class TestKernel:
    def test_emit_stamps_clock_time(self):
        clock = Clock(start=3.5)
        kernel = Kernel(clock=clock)
        seen = []
        kernel.subscribe(seen.append)
        kernel.emit(StepStarted, "engine", instance_id="I-1", step_id="a")
        assert seen[0].at == 3.5
        assert seen[0].source == "engine"

    def test_metrics_always_attached(self):
        kernel = Kernel()
        kernel.emit(StepStarted, "engine", instance_id="I-1", step_id="a")
        assert kernel.metrics.count(StepStarted) == 1

    def test_enable_trace_is_idempotent(self):
        kernel = Kernel()
        trace = kernel.enable_trace()
        assert kernel.enable_trace() is trace
        kernel.emit(StepStarted, "engine", instance_id="I-1", step_id="a")
        assert len(trace.events()) == 1

    def test_enable_trace_rejects_capacity_mismatch(self):
        kernel = Kernel()
        trace = kernel.enable_trace(capacity=100)
        assert kernel.enable_trace(capacity=100) is trace
        with pytest.raises(ValueError, match="capacity=100"):
            kernel.enable_trace(capacity=5)

    def test_drain_failure_emits_batch_abandoned_event(self):
        kernel = Kernel()
        trace = kernel.enable_trace()

        def boom():
            raise ValueError("boom")

        kernel.submit(boom)
        kernel.submit(lambda: None)
        with pytest.raises(ValueError):
            kernel.drain()
        assert kernel.run_queue.abandoned == 1
        event = trace.last(type="batch_abandoned")
        assert event is not None
        assert event.abandoned == 1
        assert event.error == "boom"
        assert kernel.metrics.count("batch_abandoned") == 1

    def test_event_type_taxonomy_is_consistent(self):
        assert "instance_started" in ALL_EVENT_TYPES
        assert "message_delivered" in ALL_EVENT_TYPES
        assert "conversation_completed" in ALL_EVENT_TYPES
        assert "batch_abandoned" in ALL_EVENT_TYPES
        assert len(ALL_EVENT_TYPES) == 21
