"""ShardedKernel: routing, drain order, backpressure, inter-shard wiring."""

import pytest

from repro.messaging.network import NetworkConditions, SimulatedNetwork
from repro.runtime import HashShardRouter, ShardedKernel
from repro.runtime.sharding import ShardClockView
from repro.sim import Clock, EventScheduler


class MapRouter:
    """Explicit partner->shard map, for tests that pin placement."""

    def __init__(self, mapping):
        self.mapping = mapping

    def route(self, partner_key, shard_count):
        return self.mapping[partner_key] % shard_count


class TestRouting:
    def test_hash_router_is_stable_and_in_range(self):
        router = HashShardRouter()
        for key in ("TP1", "ACME", "partner-042", ""):
            for shards in (1, 2, 4, 8):
                first = router.route(key, shards)
                assert 0 <= first < shards
                assert router.route(key, shards) == first

    def test_keyed_tasks_land_on_their_partner_shard(self):
        kernel = ShardedKernel(
            shards=3, router=MapRouter({"a": 0, "b": 1, "c": 2})
        )
        seen = []
        for key in ("a", "b", "c", "b"):
            kernel.submit(lambda key=key: seen.append(key), partner_key=key)
        assert [len(shard.tasks) for shard in kernel.shards] == [1, 2, 1]
        assert kernel.drain() == 4
        assert sorted(seen) == ["a", "b", "b", "c"]

    def test_unkeyed_ingress_goes_to_shard_zero(self):
        kernel = ShardedKernel(shards=4)
        kernel.submit(lambda: None)
        assert len(kernel.shards[0].tasks) == 1

    def test_unkeyed_task_submitted_during_execution_stays_on_shard(self):
        kernel = ShardedKernel(shards=2, router=MapRouter({"b": 1}))
        ran_on = []

        def follow_up():
            ran_on.append(kernel.current_shard)

        kernel.submit(lambda: kernel.submit(follow_up), partner_key="b")
        kernel.drain()
        assert ran_on == [1]

    def test_constructor_validates_arguments(self):
        with pytest.raises(ValueError):
            ShardedKernel(shards=0)

    def test_shard_clock_views_share_the_kernel_clock(self):
        clock = Clock(start=7.5)
        kernel = ShardedKernel(shards=2, clock=clock)
        assert all(shard.clock.now() == 7.5 for shard in kernel.shards)
        assert isinstance(kernel.shards[1].clock, ShardClockView)


def _keyed_workload(kernel, messages=120, partners=6, cross_every=10):
    """Submit a deterministic keyed workload; returns the execution log."""
    log = []

    def handle(partner, sequence):
        log.append((partner, sequence))
        if sequence % cross_every == 0:
            sibling = f"p{(sequence + 1) % partners}"
            kernel.submit(
                lambda: log.append((f"notify-{sibling}", sequence)),
                partner_key=sibling,
            )

    for sequence in range(messages):
        partner = f"p{sequence % partners}"
        kernel.submit(
            lambda partner=partner, sequence=sequence: handle(partner, sequence),
            partner_key=partner,
        )
    return log


class TestDeterministicDrain:
    def test_execution_order_is_invariant_across_shard_counts(self):
        logs = {}
        for shards in (1, 2, 3, 4, 8):
            kernel = ShardedKernel(shards=shards)
            log = _keyed_workload(kernel)
            kernel.drain()
            logs[shards] = log
        reference = logs[1]
        assert all(log == reference for log in logs.values())

    def test_event_trace_is_invariant_across_shard_counts(self):
        renders = set()
        for shards in (1, 2, 4):
            kernel = ShardedKernel(shards=shards)
            trace = kernel.enable_trace()

            def ping(kernel=kernel, shards=shards):
                from repro.runtime.events import DocumentReceived

                kernel.emit(
                    DocumentReceived,
                    "hub",
                    conversation_id="C1",
                    doc_type="purchase_order",
                    partner_id="TP1",
                )

            for index in range(20):
                kernel.submit(ping, partner_key=f"p{index % 5}")
            kernel.drain()
            renders.add(trace.render())
        assert len(renders) == 1

    def test_nested_drain_shares_the_batch_budget(self):
        kernel = ShardedKernel(shards=2, max_tasks_per_batch=5)

        def spin():
            kernel.submit(spin)
            kernel.drain()

        kernel.submit(spin, partner_key="a")
        with pytest.raises(RuntimeError, match="max_tasks_per_batch"):
            kernel.drain()
        assert kernel.run_queue.batches == 1
        assert kernel.run_queue.depth == 0

    def test_failure_abandons_queued_work_and_emits_event(self):
        kernel = ShardedKernel(shards=2, router=MapRouter({"a": 0, "b": 1}))
        events = []
        kernel.subscribe(events.append, events=["batch_abandoned"])

        def boom():
            raise ValueError("handler failed")

        kernel.submit(boom, partner_key="a")
        kernel.submit(lambda: None, partner_key="b")
        kernel.submit(lambda: None, partner_key="b")
        with pytest.raises(ValueError):
            kernel.drain()
        assert kernel.run_queue.abandoned == 2
        assert kernel.run_queue.pending() == 0
        assert len(events) == 1 and events[0].abandoned == 2

    def test_trace_capacity_mismatch_is_rejected(self):
        kernel = ShardedKernel(shards=2)
        kernel.enable_trace(capacity=100)
        with pytest.raises(ValueError, match="capacity=100"):
            kernel.enable_trace(capacity=200)


class TestBackpressure:
    def test_saturation_and_drain_events_bracket_an_overload(self):
        kernel = ShardedKernel(shards=1, saturation_watermark=5)
        events = []
        kernel.subscribe(events.append, events=["shard_saturated", "shard_drained"])
        for _ in range(10):
            kernel.submit(lambda: None, partner_key="a")
        # Hysteresis: one saturation event despite five over-watermark submits.
        assert [event.type for event in events] == ["shard_saturated"]
        assert events[0].pending == 6 and events[0].watermark == 5
        kernel.drain()
        assert [event.type for event in events] == [
            "shard_saturated",
            "shard_drained",
        ]

    def test_deterministic_inbox_overflow_raises(self):
        kernel = ShardedKernel(
            shards=2, router=MapRouter({"a": 0, "b": 1}), inbox_capacity=1
        )

        def flood():
            kernel.submit(lambda: None, partner_key="b")
            kernel.submit(lambda: None, partner_key="b")

        kernel.submit(flood, partner_key="a")
        with pytest.raises(RuntimeError, match="inbox overflow"):
            kernel.drain()
        assert kernel.run_queue.abandoned >= 1

    def test_cross_shard_traffic_is_counted_per_link(self):
        kernel = ShardedKernel(shards=2, router=MapRouter({"a": 0, "b": 1}))
        kernel.submit(
            lambda: kernel.submit(lambda: None, partner_key="b"), partner_key="a"
        )
        kernel.drain()
        assert kernel.link_report() == {"0->1": 1}
        assert kernel.shards[1].inbox_received == 1


class TestInterShardNetwork:
    def _kernel(self, conditions, seed=5):
        scheduler = EventScheduler()
        transport = SimulatedNetwork(scheduler, conditions, seed=seed)
        kernel = ShardedKernel(
            shards=2,
            clock=scheduler.clock,
            router=MapRouter({"a": 0, "b": 1}),
        )
        kernel.attach_network(transport)
        return kernel, transport

    def test_cross_shard_tasks_travel_as_wire_messages(self):
        kernel, transport = self._kernel(NetworkConditions.perfect())
        delivered = []
        kernel.submit(
            lambda: kernel.submit(lambda: delivered.append("b"), partner_key="b"),
            partner_key="a",
        )
        kernel.drain()
        assert delivered == ["b"]
        report = transport.link_report()
        assert report["shard:0->shard:1"]["delivered"] == 1
        assert kernel.run_queue.pending() == 0

    def test_lost_inter_shard_messages_are_abandoned_not_hung(self):
        kernel, _transport = self._kernel(NetworkConditions(loss_rate=1.0))
        kernel.submit(
            lambda: kernel.submit(lambda: None, partner_key="b"), partner_key="a"
        )
        kernel.drain()
        assert kernel.run_queue.abandoned == 1
        assert kernel.run_queue.pending() == 0

    def test_duplicate_delivery_executes_once(self):
        kernel, transport = self._kernel(
            NetworkConditions(duplicate_rate=1.0, min_latency=0.01, max_latency=0.01)
        )
        ran = []
        kernel.submit(
            lambda: kernel.submit(lambda: ran.append("b"), partner_key="b"),
            partner_key="a",
        )
        kernel.drain()
        assert ran == ["b"]
        assert transport.link_report()["shard:0->shard:1"]["duplicated"] == 1

