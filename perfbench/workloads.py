"""The three traffic mixes and one measured round of each.

A round builds fresh enterprises (set-up, timed on its own), pushes one
seeded batch of orders through them (the timed region), then checks the
outputs and, on the journaled workload, recovers the journal.  Every
round runs a batch of its own, so the latency percentiles are drawn from
thousands of distinct orders.  The first ``BATCHES`` batches run in
every run, and per-order counts and logical-clock cycle times come from
them only, so those stay fixed for a seed.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.analysis.scenarios import build_fig15_community, build_two_enterprise_pair
from repro.core.enterprise import Enterprise, run_community
from repro.messaging.network import NetworkConditions
from repro.messaging.reliable import RetryPolicy
from repro.runtime import (
    ConversationCompleted,
    ConversationFailed,
    ConversationStarted,
    attach_journal,
    recover,
)

from perfbench.hostspeed import Calibration
from perfbench.tracer import JOURNAL_WRITE, Tracer
from perfbench.traffic import Traffic, generate

__all__ = ["BATCHES", "WORKLOADS", "Hub", "RoundResult", "Workload", "measure", "run_round"]

# No loss, duplication or corruption; latency jitters in [0.01, 0.05] so the
# logical cycle time depends on the seed instead of being one constant.
CLEAN = NetworkConditions(min_latency=0.01, max_latency=0.05)
# Loss and duplication on every transmission (acks included), and a
# latency window wide enough to reorder retransmissions and duplicates.
# At 2% loss about one order in thirteen needs a retransmission and one in
# two hundred needs two, so the cycle-time p99 sits inside the one-retry
# mode instead of on the edge between two modes.
LOSSY = NetworkConditions(
    loss_rate=0.02, duplicate_rate=0.05, min_latency=0.01, max_latency=0.4
)
# Nine transmissions: a message fails only if all nine lose it or its ack
# (p ~ 0.04 ** 9 < 1e-12), so every order completes at this loss rate.
LOSSY_RETRIES = RetryPolicy(ack_timeout=1.0, max_retries=8, backoff=1.5)


@dataclass
class Hub:
    """The assembled enterprises of one round."""

    enterprises: list[Enterprise]
    seller: Enterprise
    buyers: dict[str, Enterprise]
    scheduler: Any
    network: Any
    van: Any
    journal: Any = None
    journal_dir: Path | None = None

    @property
    def runtime(self):
        return self.network.runtime


def _build_pair(traffic: Traffic, conditions: NetworkConditions,
                retry_policy: RetryPolicy | None = None) -> Hub:
    pair = build_two_enterprise_pair(
        "rosettanet", conditions=conditions, seed=traffic.network_seed,
        retry_policy=retry_policy,
    )
    return Hub(pair.enterprises(), pair.seller, {pair.buyer.name: pair.buyer},
               pair.scheduler, pair.network, pair.van)


def build_steady_rn(traffic: Traffic, workdir: Path) -> Hub:
    return _build_pair(traffic, CLEAN)


def build_burst_mixed(traffic: Traffic, workdir: Path) -> Hub:
    community = build_fig15_community(seed=traffic.network_seed, conditions=CLEAN)
    return Hub(community.enterprises(), community.seller, dict(community.buyers),
               community.scheduler, community.network, community.van)


def build_lossy_journaled(traffic: Traffic, workdir: Path) -> Hub:
    hub = _build_pair(traffic, LOSSY, LOSSY_RETRIES)
    workdir.mkdir(parents=True, exist_ok=True)
    hub.journal_dir = Path(tempfile.mkdtemp(prefix="journal-", dir=workdir))
    hub.journal = attach_journal(hub.runtime, hub.journal_dir)
    return hub


@dataclass(frozen=True)
class Workload:
    """One traffic mix: who trades, over what network, in what rhythm."""

    name: str
    why: str
    orders_per_round: int
    buyers: tuple[str, ...]
    bursty: bool
    build: Callable[[Traffic, Path], Hub]
    # per-layer metrics (name prefixes) this mix does not exercise; they
    # read exactly 0 on it
    idle: tuple[str, ...] = ()

    def traffic(self, seed: int, batch: int) -> Traffic:
        return generate(seed, batch, self.orders_per_round, self.buyers, self.bursty)


# batches every run measures; counts and cycle times come from these
BATCHES = 4
# orders in the untimed warm-up round
WARMUP_ORDERS = 24
# Per-layer metrics a mix cannot reach: journal and recovery without a
# journal, retries on a loss-free network, the EDI and OAGIS codecs and
# VAN posts on the RosettaNet pair.  A traced result must still carry
# every per-layer metric, so these read 0 instead of being left out.
NO_JOURNAL = ("runtime.",)
NO_LOSS = ("messaging.reliable.retries", "messaging.reliable.duplicates_suppressed")
ROSETTANET_ONLY = ("documents.edi.", "documents.oagis.", "messaging.van.post.",
                   "messaging.van.mailbox_depth_peak")


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "steady_rn",
            "Fig 14 pair over RosettaNet, closed loop, loss-free: the headline path "
            "(workflow DB, engine, XML codec, transforms); orders of 1-12 lines plus "
            "a chosen 10% tail of 13-60 lines",
            orders_per_round=200, buyers=("TP1",), bursty=False,
            build=build_steady_rn, idle=NO_JOURNAL + NO_LOSS + ROSETTANET_ONLY,
        ),
        Workload(
            "burst_mixed",
            "Fig 15 hub, EDI-VAN/RosettaNet/OAGIS buyers in Poisson bursts of 12 on "
            "average: all codecs, VAN polls, SAP/Oracle routing, many open "
            "conversations; same 1-12 lines plus 10% tail",
            orders_per_round=240, buyers=("TP1", "TP2", "TP3"), bursty=True,
            build=build_burst_mixed, idle=NO_JOURNAL + NO_LOSS,
        ),
        Workload(
            "lossy_journaled",
            "RosettaNet pair on a lossy, duplicating, reordering network with the "
            "journal on: retransmits, duplicate suppression, journal writes, "
            "recovery; same 1-12 lines plus 10% tail",
            orders_per_round=160, buyers=("TP1",), bursty=False,
            build=build_lossy_journaled, idle=ROSETTANET_ONLY,
        ),
    )
}


# calibration units run right before and after set-up and recovery
SETUP_CALIBRATION_UNITS = 8


@dataclass
class RoundResult:
    """What one round measured and found.

    Wall times are raw; multiply by ``host_factor`` (see
    :mod:`perfbench.hostspeed`) to report them.
    """

    traced: bool
    host_factor: float
    calibration_unit_ms: float
    setup_s: float
    wall_s: float
    attempted: int
    completed: int
    latencies_ms: list[float]
    cycle_times_s: list[float]
    problems: list[str]
    failed: int
    recovery_s: float
    recovery_events: int
    # per-round totals for the per-layer report; the layer dicts are empty
    # in untraced rounds
    counts: dict[str, float]
    layer_calls: dict[str, int]
    layer_self_ns: dict[str, int]


class _Completions:
    """Stamps buyer-side conversation completions (wall and logical)."""

    def __init__(self, hub: Hub) -> None:
        self.buyers = frozenset(hub.buyers)
        self.clock = hub.scheduler.clock
        self.stamps: list[tuple[float, float]] = []

    def __call__(self, event) -> None:
        if event.source in self.buyers:
            self.stamps.append((perf_counter(), self.clock.now()))


class _MailboxDepth:
    """Peak number of messages one VAN pick-up drains: a pick-up empties
    the mailbox, so its batch is the depth the mailbox had reached."""

    def __init__(self, van) -> None:
        self.pick_up = van.pick_up
        self.peak = 0

    def __call__(self, *args, **kwargs):
        batch = self.pick_up(*args, **kwargs)
        self.peak = max(self.peak, len(batch))
        return batch


class _OpenConversations:
    """Peak number of conversations open at once at the seller (hub)."""

    def __init__(self, seller: str) -> None:
        self.seller = seller
        self.open = 0
        self.peak = 0

    def __call__(self, event) -> None:
        if event.source != self.seller:
            return
        if isinstance(event, ConversationStarted):
            self.open += 1
            self.peak = max(self.peak, self.open)
        else:
            self.open -= 1


def _program_counters(hub: Hub) -> dict[str, int]:
    """The hub's own counters, read before and after a round."""
    counters = {
        "workflow.database.load_instance": 0,
        "workflow.database.store_instance": 0,
        "workflow.database.load_type": 0,
        "messaging.reliable.send_reliable": 0,
        "documents.to_wire": 0,
        "core.integration.handle_message": 0,
        "messaging.reliable.retries": 0,
        "messaging.reliable.duplicates_suppressed": 0,
        "messaging.network.send": hub.network.stats.sent,
        "messaging.network.link_sent": sum(
            link["sent"] for link in hub.network.link_report().values()
        ),
        "messaging.van.post": hub.van.posted_count,
        "sim.events_fired": hub.scheduler.fired,
    }
    for enterprise in hub.enterprises:
        database = enterprise.wfms.database
        counters["workflow.database.load_instance"] += database.instance_loads
        counters["workflow.database.store_instance"] += database.instance_stores
        counters["workflow.database.load_type"] += database.type_loads
        stats = enterprise.reliable.stats
        counters["messaging.reliable.send_reliable"] += stats.business_sent
        counters["messaging.reliable.retries"] += stats.retries
        counters["messaging.reliable.duplicates_suppressed"] += stats.duplicates_suppressed
        counters["documents.to_wire"] += enterprise.b2b.messages_sent
        counters["core.integration.handle_message"] += enterprise.b2b.messages_received
    return counters


def counter_mismatches(program: dict[str, int], calls: dict[str, int]) -> list[str]:
    """Where the wrapper counts of one round disagree with the program's.

    ``program`` holds the deltas of :func:`_program_counters` over the
    round; ``calls`` the tracer's call counts over the same round.
    """
    wire = sum(count for name, count in calls.items()
               if name.startswith("documents.") and name.endswith(".to_wire"))
    parsed = sum(count for name, count in calls.items()
                 if name.startswith("documents.") and name.endswith(".from_wire"))
    # program counter -> wrapper count that must equal it
    expected = {
        name: calls.get(name, 0)
        for name in ("workflow.database.load_instance", "workflow.database.store_instance",
                     "workflow.database.load_type", "messaging.reliable.send_reliable",
                     "messaging.network.send", "messaging.van.post",
                     "core.integration.handle_message")
    }
    expected["messaging.network.link_sent"] = calls.get("messaging.network.send", 0)
    expected["documents.to_wire"] = wire
    problems = [
        f"{name}: wrapper counted {count}, program counted {program[name]}"
        for name, count in expected.items()
        if program[name] != count
    ]
    # every received business message is parsed exactly once
    if parsed != program["core.integration.handle_message"]:
        problems.append(
            f"documents.from_wire: wrapper counted {parsed}, program received "
            f"{program['core.integration.handle_message']}"
        )
    return problems


def check_outputs(hub: Hub, traffic: Traffic) -> tuple[int, list[str]]:
    """Verify the business outcome of a round.

    Returns (orders failed, problems).  Every submitted PO must be booked
    exactly once in the seller's ERPs, exactly one POA must be stored per
    PO in its buyer's ERP, the buyer's private instance must complete,
    and every conversation on both sides must complete with no fault.
    """
    problems: list[str] = []
    orders = traffic.orders
    seller_backends = list(hub.seller.backends.values())
    booked_total = sum(backend.order_count() for backend in seller_backends)
    if booked_total != len(orders):
        problems.append(f"seller booked {booked_total} orders, {len(orders)} submitted")
    completed_buyer_pos: set[str] = set()
    for buyer in hub.buyers.values():
        for instance in buyer.wfms.database.list_instances():
            if instance.status == "completed":
                completed_buyer_pos.add(instance.variables.get("po_number", ""))
    stored_per_buyer: dict[str, int] = {}
    failed = 0
    for order in orders:
        ok = True
        bookings = sum(1 for backend in seller_backends if backend.has_order(order.po_number))
        if bookings != 1:
            problems.append(f"{order.po_number} booked {bookings} times by the seller")
            ok = False
        erp = hub.buyers[order.buyer].backends["SAP"]
        stored_per_buyer[order.buyer] = stored_per_buyer.get(order.buyer, 0) + 1
        if order.po_number not in erp.stored_acks:
            problems.append(f"{order.po_number}: no POA stored in {order.buyer}'s ERP")
            ok = False
        if order.po_number not in completed_buyer_pos:
            problems.append(f"{order.po_number}: buyer private instance not completed")
            ok = False
        failed += not ok
    for buyer_name, expected in stored_per_buyer.items():
        stored = hub.buyers[buyer_name].backends["SAP"].stored_count
        if stored != expected:
            problems.append(f"{buyer_name}'s ERP stored {stored} POAs for {expected} POs")
    for enterprise in hub.enterprises:
        conversations = enterprise.b2b.conversations.values()
        expected = len(orders) if enterprise is hub.seller else stored_per_buyer.get(
            enterprise.name, 0)
        if len(conversations) != expected:
            problems.append(
                f"{enterprise.name}: {len(conversations)} conversations for "
                f"{expected} orders"
            )
        open_or_failed = [c.conversation_id for c in conversations if c.status != "completed"]
        if open_or_failed:
            problems.append(f"{enterprise.name}: conversations not completed: "
                            f"{open_or_failed[:3]}")
        if enterprise.b2b.faults:
            problems.append(f"{enterprise.name}: hub faults {enterprise.b2b.faults[:2]}")
            failed = max(failed, 1)
    return failed, problems


def check_recovery(hub: Hub, projector) -> list[str]:
    """The recovered projection must agree with the live run, instance by
    instance and conversation by conversation."""
    problems: list[str] = []
    live: dict[str, str] = {}
    for enterprise in hub.enterprises:
        for instance in enterprise.wfms.database.list_instances():
            live[instance.instance_id] = instance.status
    recovered = {iid: entry.get("status") for iid, entry in projector.workflows.items()}
    if recovered != live:
        differing = sorted(
            iid for iid in set(live) | set(recovered) if live.get(iid) != recovered.get(iid)
        )
        problems.append(f"recovered instance status differs from live for {differing[:3]}")
    for enterprise in hub.enterprises:
        for conversation in enterprise.b2b.conversations.values():
            key = f"{enterprise.name}:{conversation.conversation_id}"
            entry = projector.conversations.get(key, {})
            if entry.get("status") != conversation.status:
                problems.append(f"recovered conversation {key} is {entry.get('status')}, "
                                f"live {conversation.status}")
                break
    return problems


def run_round(workload: Workload, traffic: Traffic, workdir: Path,
              tracer: Tracer | None = None) -> RoundResult:
    """Set up, drive ``traffic`` through fresh enterprises, check, recover."""
    gc.collect()
    calibration = Calibration()
    calibration.run(SETUP_CALIBRATION_UNITS)
    started = perf_counter()
    hub = workload.build(traffic, workdir)
    setup_s = perf_counter() - started
    calibration.run(SETUP_CALIBRATION_UNITS)
    try:
        return _drive(workload, traffic, hub, setup_s, tracer, calibration)
    finally:
        if hub.journal is not None:
            hub.journal.close()
        if hub.journal_dir is not None:
            shutil.rmtree(hub.journal_dir, ignore_errors=True)


def _drive(workload: Workload, traffic: Traffic, hub: Hub, setup_s: float,
           tracer: Tracer | None, calibration: Calibration) -> RoundResult:
    completions = _Completions(hub)
    hub.runtime.subscribe(completions, events=[ConversationCompleted])
    open_conversations = _OpenConversations(hub.seller.name)
    mailbox_depth = _MailboxDepth(hub.van)
    journal_hook = None
    if tracer is not None:
        hub.runtime.subscribe(
            open_conversations,
            events=[ConversationStarted, ConversationCompleted, ConversationFailed],
        )
        hub.van.pick_up = mailbox_depth
        if hub.journal is not None:
            journal_hook = hub.runtime.bus.write_ahead
            hub.runtime.bus.write_ahead = tracer.wrap(JOURNAL_WRITE, journal_hook)
        calls_before = dict(tracer.calls)
        self_before = dict(tracer.self_ns)
    before = _program_counters(hub)
    latencies_ms: list[float] = []
    cycle_times_s: list[float] = []
    root = "burst" if workload.bursty else "order"
    clock = hub.scheduler.clock
    # the timed region: the bursts themselves, not the calibration between them
    wall_s = 0.0
    try:
        for index, burst in enumerate(traffic.bursts):
            if tracer is not None:
                tracer.active = True
            due = perf_counter()
            due_logical = clock.now()
            mark = len(completions.stamps)
            with tracer.span(root, f"{root}-{index}") if tracer else nullcontext():
                for order in burst:
                    hub.buyers[order.buyer].submit_order(
                        "SAP", hub.seller.name, order.po_number, order.line_dicts()
                    )
                run_community(hub.enterprises)
            wall_s += perf_counter() - due
            if tracer is not None:
                tracer.active = False
            for wall, logical in completions.stamps[mark:]:
                latencies_ms.append((wall - due) * 1000.0)
                cycle_times_s.append(logical - due_logical)
            # outside the timed region: one calibration unit per order
            calibration.run(len(burst))
    finally:
        if tracer is not None:
            tracer.active = False
        if journal_hook is not None:
            hub.runtime.bus.write_ahead = journal_hook
        vars(hub.van).pop("pick_up", None)
    after = _program_counters(hub)
    delta = {name: after[name] - before[name] for name in after}

    failed, problems = check_outputs(hub, traffic)
    counts = {
        "messaging.reliable.retries": delta["messaging.reliable.retries"],
        "messaging.reliable.duplicates_suppressed":
            delta["messaging.reliable.duplicates_suppressed"],
        "sim.events_fired": delta["sim.events_fired"],
        "documents.wire_bytes": sum(
            entry["bytes"] for enterprise in hub.enterprises
            for entry in enterprise.b2b.journal if entry["direction"] == "out"
        ),
        "core.integration.open_conversations_peak": open_conversations.peak,
        "messaging.van.mailbox_depth_peak": mailbox_depth.peak,
    }
    layer_calls: dict[str, int] = {}
    layer_self_ns: dict[str, int] = {}
    if tracer is not None:
        layer_calls = {name: count - calls_before.get(name, 0)
                       for name, count in tracer.calls.items()}
        layer_self_ns = {name: ns - self_before.get(name, 0)
                         for name, ns in tracer.self_ns.items()}
        problems.extend(counter_mismatches(delta, layer_calls))
    recovery_s = 0.0
    recovery_events = 0
    if hub.journal is not None:
        hub.journal.close()
        counts["runtime.journal.bytes"] = hub.journal.writer.bytes_written
        calibration.run(SETUP_CALIBRATION_UNITS)
        started = perf_counter()
        recovered = recover(hub.journal_dir)
        recovery_s = perf_counter() - started
        calibration.run(SETUP_CALIBRATION_UNITS)
        recovery_events = recovered.projector.events_applied
        problems.extend(check_recovery(hub, recovered.projector))
    return RoundResult(
        traced=tracer is not None,
        host_factor=calibration.factor(),
        calibration_unit_ms=calibration.unit_ms(),
        setup_s=setup_s,
        wall_s=wall_s,
        attempted=len(traffic.orders),
        completed=len(latencies_ms),
        latencies_ms=latencies_ms,
        cycle_times_s=cycle_times_s,
        problems=problems,
        failed=failed,
        recovery_s=recovery_s,
        recovery_events=recovery_events,
        counts=counts,
        layer_calls=layer_calls,
        layer_self_ns=layer_self_ns,
    )


def measure(workload: Workload, seed: int, seconds: float, workdir: Path,
            tracer: Tracer | None = None) -> list[RoundResult]:
    """Warm up, then run rounds for ``seconds``.

    Round ``i`` runs batch ``i`` of the seed, and at least ``BATCHES``
    batches run.  With a tracer, each batch runs twice in a row, traced
    then untraced, so the two halves see the same orders.
    """
    # fill the process-wide caches (compiled mappings and expressions,
    # protocol descriptors) with a short untimed round
    warm_up = generate(seed, -1, WARMUP_ORDERS, workload.buyers, workload.bursty)
    run_round(workload, warm_up, workdir)
    repeats = 2 if tracer is not None else 1
    rounds: list[RoundResult] = []
    deadline = perf_counter() + seconds
    while len(rounds) < BATCHES * repeats or perf_counter() < deadline:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 0
        traffic = workload.traffic(seed, index // repeats)
        rounds.append(run_round(workload, traffic, workdir, tracer if traced else None))
    return rounds
