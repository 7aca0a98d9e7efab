"""Acceptance test: all four architectures run on the shared kernel.

The same business scenario — one purchase-order round trip — executes on
the monolithic, cooperative, and distributed-interorg baselines and on the
advanced B2B engine.  Each run must (a) schedule through the shared
``Kernel``/``RunQueue`` and (b) emit the same core lifecycle event
types, so the paper's per-architecture comparisons measure the models, not
runtime differences.
"""

from repro.analysis.scenarios import build_two_enterprise_pair
from repro.backend import OracleSimulator, SapSimulator
from repro.baselines.cooperative import CooperativeCommunity
from repro.baselines.distributed_interorg import (
    build_interorg_roundtrip_types,
    make_participant_engine,
    run_distributed_roundtrip,
)
from repro.baselines.monolithic import (
    NaiveClient,
    NaiveSellerRuntime,
    NaiveTopology,
    build_naive_seller_type,
)
from repro.core.enterprise import run_community
from repro.documents import edi
from repro.documents.normalized import make_purchase_order
from repro.messaging.network import NetworkConditions, SimulatedNetwork
from repro.runtime import ALL_EVENT_TYPES, Kernel
from repro.sim import EventScheduler
from repro.transform.catalog import build_standard_registry

LINES = [{"sku": "X", "quantity": 2, "unit_price": 100.0}]

# Every architecture must emit at least this workflow-lifecycle core.
CORE_WORKFLOW_EVENTS = {
    "instance_created",
    "instance_started",
    "step_started",
    "step_completed",
    "instance_completed",
}

# The three networked architectures must additionally emit wire events.
CORE_NETWORK_EVENTS = {"message_sent", "message_delivered"}


def _run_monolithic():
    scheduler = EventScheduler()
    network = SimulatedNetwork(scheduler, NetworkConditions.perfect(), seed=3)
    kernel = network.runtime
    trace = kernel.enable_trace()
    runtime = NaiveSellerRuntime(
        "ACME",
        network,
        build_naive_seller_type(NaiveTopology.figure9()),
        {"SAP": SapSimulator("SAP", scheduler=scheduler),
         "Oracle": OracleSimulator("Oracle", scheduler=scheduler)},
    )
    client = NaiveClient("TP1", network)
    registry = build_standard_registry()
    po = make_purchase_order("PO-X1", "TP1", "ACME", LINES)
    client.send_po("ACME", "edi-van", edi.to_wire(registry.transform(po, edi.EDI_X12)), "C1")
    scheduler.run_until_idle()
    assert runtime.backends["SAP"].has_order("PO-X1")
    return kernel, trace


def _run_cooperative():
    scheduler = EventScheduler()
    network = SimulatedNetwork(scheduler, NetworkConditions.perfect(), seed=11)
    kernel = network.runtime
    trace = kernel.enable_trace()
    community = CooperativeCommunity(
        network,
        "TP1",
        "ACME",
        SapSimulator("SAP", scheduler=scheduler),
        OracleSimulator("Oracle", scheduler=scheduler),
        protocol_name="edi-van",
        buyer_threshold=10000,
        seller_thresholds={"TP1": 550000},
    )
    conversation_id = community.submit_order("PO-X1", LINES)
    community.run()
    assert community.buyer_instance(conversation_id).status == "completed"
    return kernel, trace


def _run_distributed():
    kernel = Kernel()
    trace = kernel.enable_trace()
    left_erp = SapSimulator("SAP")
    right_erp = OracleSimulator("Oracle")
    left = make_participant_engine("left", left_erp, runtime=kernel)
    right = make_participant_engine("right", right_erp, runtime=kernel)
    left_erp.enter_order("PO-X1", "BuyerCo", "SellerCo", LINES)
    types = build_interorg_roundtrip_types(
        "BuyerCo", "SellerCo",
        "SAP", "sap-idoc", "Oracle", "oracle-oif",
        left_threshold=10000,
        right_thresholds={"BuyerCo": 550000},
        distributed=True,
        remote_engine="right-wfms",
    )
    result = run_distributed_roundtrip(left, right, types, "PO-X1", 200.0, "BuyerCo")
    assert result.instance.status == "completed"
    return kernel, trace


def _run_advanced():
    pair = build_two_enterprise_pair("rosettanet", seller_delay=0.0)
    kernel = pair.runtime
    trace = kernel.enable_trace()
    instance_id = pair.buyer.submit_order("SAP", "ACME", "PO-X1", LINES)
    run_community(pair.enterprises())
    assert pair.buyer.instance(instance_id).status == "completed"
    return kernel, trace


ARCHITECTURES = {
    "monolithic": (_run_monolithic, True),
    "cooperative": (_run_cooperative, True),
    "distributed": (_run_distributed, False),  # in-process hand-over, no wire
    "advanced": (_run_advanced, True),
}


class TestSharedKernelAcrossArchitectures:
    def _streams(self):
        return {
            name: (runner(), networked)
            for name, (runner, networked) in ARCHITECTURES.items()
        }

    def test_all_architectures_schedule_through_the_run_queue(self):
        for name, ((kernel, _), _networked) in self._streams().items():
            assert kernel.run_queue.batches > 0, name
            assert kernel.run_queue.tasks_executed > 0, name
            assert kernel.run_queue.pending() == 0, name

    def test_same_scenario_emits_comparable_event_streams(self):
        streams = self._streams()
        for name, ((_, trace), networked) in streams.items():
            types = trace.event_types()
            missing = CORE_WORKFLOW_EVENTS - types
            assert not missing, f"{name} missing workflow events: {missing}"
            if networked:
                missing = CORE_NETWORK_EVENTS - types
                assert not missing, f"{name} missing network events: {missing}"
            unknown = types - ALL_EVENT_TYPES
            assert not unknown, f"{name} emitted unknown event types: {unknown}"
        # The shared core is identical across all four: the intersection of
        # every architecture's stream still contains the full workflow core.
        common = set(ALL_EVENT_TYPES)
        for (_, trace), _networked in streams.values():
            common &= trace.event_types()
        assert CORE_WORKFLOW_EVENTS <= common

    def test_metrics_observer_counts_completions_everywhere(self):
        for name, ((kernel, _), _networked) in self._streams().items():
            assert kernel.metrics.count("instance_completed") >= 1, name
            assert kernel.metrics.instance_durations.count >= 1, name

    def test_every_instance_lifecycle_is_well_formed(self):
        """Per instance: created first, started before any step event."""
        for name, ((_, trace), _networked) in self._streams().items():
            by_instance = {}
            for event in trace.events():
                instance_id = getattr(event, "instance_id", None)
                if instance_id is not None:
                    by_instance.setdefault(instance_id, []).append(event.type)
            assert by_instance, name
            for instance_id, types in by_instance.items():
                assert types[0] == "instance_created", (name, instance_id)
                if "step_started" in types:
                    assert types.index("instance_started") < types.index(
                        "step_started"
                    ), (name, instance_id)

