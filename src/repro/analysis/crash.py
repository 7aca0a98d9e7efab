"""Crash/recovery harness: kill the hub mid-RNIF-exchange, recover, prove
exactly-once.

The acceptance experiment for the durability layer
(:mod:`repro.runtime.journal` / :mod:`repro.runtime.recovery`).  For each
of the four architectures, and for the hub pair on a lossy, duplicating
network (``advanced-lossy``, where retransmissions and duplicate
suppression run across the crash):

1. **Reference run** — drive N purchase orders end to end with a
   write-ahead journal attached (every order is a ``log_command`` record
   written *before* it executes; every lifecycle event is journaled
   before observers apply it), taking one mid-run snapshot.  Because the
   whole simulation is deterministic, the reference journal bytes *are*
   the ground truth for an uncrashed run.
2. **Crash** — copy the journal directory and damage it the way a kill
   at a chosen moment would: truncate cleanly before a command record
   (``pre-journal``), cleanly after any record (``post-append``), tear a
   record mid-frame (``mid-append``, caught by the CRC), corrupt the
   snapshot file (``mid-snapshot``), or cut at a randomized journal
   offset (``random``).  Snapshots "from the future" of the cut are
   removed, since a real crash at that moment could not have written
   them.
3. **Recover + resume** — :func:`repro.runtime.recovery.recover` rebuilds
   the projection, then a fresh world re-executes the journaled command
   WAL in order (using only the recovered payloads, never the original
   script) and finally the *client retries its entire script*, the way a
   real partner re-submits after a hub outage.  Retries of journaled
   commands are suppressed by command id; the rest execute for the first
   time.

Exactly-once then has a concrete meaning checked per run: every PO
appears in exactly one ERP order book exactly once (the ERP simulators
raise on duplicate POs, so a duplicate cannot pass silently), the
resumed journal is **byte-identical** to the uncrashed reference journal,
and so is the rendered kernel trace.  The suppressed-retry count must
equal the replayed-command count — the two sets partition the script.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.messaging.network import NetworkConditions
from repro.messaging.reliable import RetryPolicy
from repro.runtime import Kernel
from repro.runtime.journal import (
    JournalRecord,
    attach_journal,
    read_segment_dir,
    segment_files,
)
from repro.runtime.recovery import RecoveredState, recover

__all__ = [
    "ARCHITECTURES",
    "CRASH_POINTS",
    "CrashReport",
    "run_crash_case",
    "run_crash_matrix",
    "render_reports",
]

ARCHITECTURES = ("advanced", "advanced-lossy", "monolithic", "cooperative", "distributed")
CRASH_POINTS = ("pre-journal", "mid-append", "post-append", "mid-snapshot", "random")

LINES = [{"sku": "X", "quantity": 2, "unit_price": 100.0}]
TRACE_CAPACITY = 65_536


class CrashHarnessError(AssertionError):
    """A crash case violated the exactly-once contract."""


# ---------------------------------------------------------------------------
# Scenario drivers: one order end-to-end, repeatable, per architecture
# ---------------------------------------------------------------------------


class _AdvancedDriver:
    """The paper's hub architecture: two enterprises over RNIF-reliable
    messaging (this is the literal mid-RNIF-exchange crash target)."""

    name = "advanced"
    conditions: NetworkConditions | None = None
    retry_policy: RetryPolicy | None = None
    network_seed = 7

    def __init__(self) -> None:
        from repro.analysis.scenarios import build_two_enterprise_pair
        from repro.core.enterprise import run_community

        self._run_community = run_community
        self.pair = build_two_enterprise_pair(
            "rosettanet",
            conditions=self.conditions,
            seed=self.network_seed,
            seller_delay=0.0,
            retry_policy=self.retry_policy,
        )
        self.runtime = self.pair.runtime
        self.trace = self.runtime.enable_trace(TRACE_CAPACITY)

    def execute(self, po_number: str, lines: list[dict[str, Any]]) -> None:
        instance_id = self.pair.buyer.submit_order("SAP", "ACME", po_number, lines)
        self._run_community(self.pair.enterprises())
        status = self.pair.buyer.instance(instance_id).status
        if status != "completed":
            raise CrashHarnessError(f"order {po_number} ended {status!r}")

    def ledger(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for backend in self.pair.seller.backends.values():
            for po_number in backend.orders:
                counts[po_number] = counts.get(po_number, 0) + 1
        return counts

    def dedup_uncovered(self, recovered: RecoveredState) -> int:
        """Journaled delivered-message ids the resumed endpoints forgot.

        Deterministic re-execution regenerates the same message ids, so a
        correctly resumed world already remembers every id the journal
        proves was delivered pre-crash — ``restore_dedup`` must find
        nothing new, meaning any partner retransmission from before the
        crash stays suppressed.
        """
        uncovered = 0
        for enterprise in (self.pair.buyer, self.pair.seller):
            endpoint = enterprise.reliable
            uncovered += endpoint.restore_dedup(
                recovered.projector.dedup_ids(endpoint.address)
            )
        return uncovered


class _AdvancedLossyDriver(_AdvancedDriver):
    """The hub pair on the ``lossy_journaled`` benchmark network: 2% loss
    and 5% duplication on every transmission, acks included, and a
    latency window wide enough to reorder.  With this seed the reference
    run retransmits and suppresses duplicates, so the crash lands among
    RNIF retries and the resumed dedup window is put to work."""

    name = "advanced-lossy"
    conditions = NetworkConditions(
        loss_rate=0.02, duplicate_rate=0.05, min_latency=0.01, max_latency=0.4
    )
    retry_policy = RetryPolicy(ack_timeout=1.0, max_retries=8, backoff=1.5)
    network_seed = 6


class _MonolithicDriver:
    """Figure 9 baseline: naive seller runtime fed EDI over the VAN."""

    name = "monolithic"

    def __init__(self) -> None:
        from repro.backend import OracleSimulator, SapSimulator
        from repro.baselines.monolithic import (
            NaiveClient,
            NaiveSellerRuntime,
            NaiveTopology,
            build_naive_seller_type,
        )
        from repro.documents import edi
        from repro.documents.normalized import make_purchase_order
        from repro.messaging.network import SimulatedNetwork
        from repro.sim import EventScheduler
        from repro.transform.catalog import build_standard_registry

        self._edi = edi
        self._make_po = make_purchase_order
        self._registry = build_standard_registry()
        self.scheduler = EventScheduler()
        network = SimulatedNetwork(self.scheduler, NetworkConditions.perfect(), seed=3)
        self.runtime = network.runtime
        self.trace = self.runtime.enable_trace(TRACE_CAPACITY)
        self.seller = NaiveSellerRuntime(
            "ACME",
            network,
            build_naive_seller_type(NaiveTopology.figure9()),
            {
                "SAP": SapSimulator("SAP", scheduler=self.scheduler),
                "Oracle": OracleSimulator("Oracle", scheduler=self.scheduler),
            },
        )
        self.client = NaiveClient("TP1", network)

    def execute(self, po_number: str, lines: list[dict[str, Any]]) -> None:
        po = self._make_po(po_number, "TP1", "ACME", lines)
        wire = self._edi.to_wire(self._registry.transform(po, self._edi.EDI_X12))
        self.client.send_po("ACME", "edi-van", wire, f"conv-{po_number}")
        self.scheduler.run_until_idle()
        if not any(
            backend.has_order(po_number) for backend in self.seller.backends.values()
        ):
            raise CrashHarnessError(f"order {po_number} never reached a backend")

    def ledger(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for backend in self.seller.backends.values():
            for po_number in backend.orders:
                counts[po_number] = counts.get(po_number, 0) + 1
        return counts

    def dedup_uncovered(self, recovered: RecoveredState) -> int:
        return 0  # the naive baseline has no reliable-messaging layer


class _CooperativeDriver:
    """Figure 8 baseline: buyer/seller cooperative workflow community."""

    name = "cooperative"

    def __init__(self) -> None:
        from repro.backend import OracleSimulator, SapSimulator
        from repro.baselines.cooperative import CooperativeCommunity
        from repro.messaging.network import SimulatedNetwork
        from repro.sim import EventScheduler

        self.scheduler = EventScheduler()
        network = SimulatedNetwork(self.scheduler, NetworkConditions.perfect(), seed=11)
        self.runtime = network.runtime
        self.trace = self.runtime.enable_trace(TRACE_CAPACITY)
        self.community = CooperativeCommunity(
            network,
            "TP1",
            "ACME",
            SapSimulator("SAP", scheduler=self.scheduler),
            OracleSimulator("Oracle", scheduler=self.scheduler),
            protocol_name="edi-van",
            buyer_threshold=10000,
            seller_thresholds={"TP1": 550000},
        )

    def execute(self, po_number: str, lines: list[dict[str, Any]]) -> None:
        conversation_id = self.community.submit_order(po_number, lines)
        self.community.run()
        status = self.community.buyer_instance(conversation_id).status
        if status != "completed":
            raise CrashHarnessError(f"order {po_number} ended {status!r}")

    def ledger(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for po_number in self.community.seller.backend.orders:
            counts[po_number] = counts.get(po_number, 0) + 1
        return counts

    def dedup_uncovered(self, recovered: RecoveredState) -> int:
        return 0  # raw endpoints; dedup lives in the advanced layer only


class _DistributedDriver:
    """Figure 5(b) baseline: remote-subworkflow hand-over between two WFMSs.

    ``run_distributed_roundtrip`` deploys its workflow types, so each
    order gets fresh participant engines — all sharing the one kernel
    under test, exactly like a WFMS pool on a single hub.
    """

    name = "distributed"

    def __init__(self) -> None:
        self.runtime = Kernel()
        self.trace = self.runtime.enable_trace(TRACE_CAPACITY)
        self._order_books: list[dict[str, Any]] = []

    def execute(self, po_number: str, lines: list[dict[str, Any]]) -> None:
        from repro.backend import OracleSimulator, SapSimulator
        from repro.baselines.distributed_interorg import (
            build_interorg_roundtrip_types,
            make_participant_engine,
            run_distributed_roundtrip,
        )

        left_erp = SapSimulator("SAP")
        right_erp = OracleSimulator("Oracle")
        left = make_participant_engine("left", left_erp, runtime=self.runtime)
        right = make_participant_engine("right", right_erp, runtime=self.runtime)
        left_erp.enter_order(po_number, "BuyerCo", "SellerCo", lines)
        types = build_interorg_roundtrip_types(
            "BuyerCo",
            "SellerCo",
            "SAP",
            "sap-idoc",
            "Oracle",
            "oracle-oif",
            left_threshold=10000,
            right_thresholds={"BuyerCo": 550000},
            distributed=True,
            remote_engine="right-wfms",
        )
        total = sum(line["quantity"] * line["unit_price"] for line in lines)
        result = run_distributed_roundtrip(
            left, right, types, po_number, total, "BuyerCo"
        )
        if result.instance.status != "completed":
            raise CrashHarnessError(
                f"order {po_number} ended {result.instance.status!r}"
            )
        self._order_books.append(right_erp.orders)

    def ledger(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for book in self._order_books:
            for po_number in book:
                counts[po_number] = counts.get(po_number, 0) + 1
        return counts

    def dedup_uncovered(self, recovered: RecoveredState) -> int:
        return 0  # in-process hand-over, no wire retransmissions


_DRIVERS = {
    "advanced": _AdvancedDriver,
    "advanced-lossy": _AdvancedLossyDriver,
    "monolithic": _MonolithicDriver,
    "cooperative": _CooperativeDriver,
    "distributed": _DistributedDriver,
}


def _make_driver(architecture: str):
    if architecture not in _DRIVERS:
        raise ValueError(f"unknown architecture {architecture!r}")
    return _DRIVERS[architecture]()


# ---------------------------------------------------------------------------
# Reference run and crash simulation
# ---------------------------------------------------------------------------


def _script(orders: int) -> list[dict[str, Any]]:
    return [
        {
            "id": f"cmd-{index:04d}",
            "op": "submit_order",
            "args": {"po_number": f"PO-{index:04d}", "lines": LINES},
        }
        for index in range(orders)
    ]


def _run_reference(
    architecture: str,
    journal_dir: Path,
    script: list[dict[str, Any]],
    snapshot_after: int,
):
    driver = _make_driver(architecture)
    journal = attach_journal(driver.runtime, journal_dir, flush_interval=1)
    for index, command in enumerate(script):
        journal.log_command(command["id"], command["op"], command["args"])
        driver.execute(**command["args"])
        if index + 1 == snapshot_after:
            journal.snapshot()
    journal.close()
    return driver


def _all_records(directory: Path) -> list[JournalRecord]:
    records, truncations = read_segment_dir(directory)
    if truncations:
        raise CrashHarnessError(f"reference journal corrupt: {truncations}")
    return records


def _journal_bytes(directory: Path) -> bytes:
    return b"".join(path.read_bytes() for path in segment_files(directory))


def _truncate_dir_at(directory: Path, cut_seq: int, tear: bool) -> None:
    """Damage one journal as a kill at sequence ``cut_seq`` would.

    The journal keeps exactly its records with ``seq < cut_seq``; with
    ``tear``, it additionally keeps half of record ``cut_seq``'s frame (a
    torn in-progress append).
    """
    drop_rest = False
    for segment in segment_files(directory):
        if drop_rest:
            segment.unlink()
            continue
        records, _ = read_segment_dir_single(segment)
        cut_at: int | None = None
        for record in records:
            if record.seq >= cut_seq:
                cut_at = record.offset
                if tear and record.seq == cut_seq:
                    cut_at = record.offset + max(
                        1, (record.end_offset - record.offset) // 2
                    )
                break
        if cut_at is not None:
            with segment.open("rb+") as handle:
                handle.truncate(cut_at)
            if cut_at == 0:
                segment.unlink()
            drop_rest = True
    # A snapshot taken at or past the cut cannot exist at crash time.
    for snapshot in directory.glob("snapshot-*.json"):
        if int(snapshot.name[len("snapshot-") : -len(".json")]) >= cut_seq:
            snapshot.unlink()


def read_segment_dir_single(segment: Path) -> tuple[list[JournalRecord], list]:
    """Read one segment file's whole records (offsets are file-local)."""
    records: list[JournalRecord] = []
    offset = 0
    from repro.runtime.journal import _parse_line  # framing internals

    with segment.open("rb") as handle:
        for line in handle:
            parsed = _parse_line(line)
            if isinstance(parsed, str):
                return records, [parsed]
            seq, kind, payload = parsed
            end = offset + len(line)
            records.append(JournalRecord(seq, kind, payload, segment.name, offset, end))
            offset = end
    return records, []


def simulate_crash(
    reference_dir: Path, crashed_dir: Path, crash_point: str, rng: random.Random
) -> int:
    """Copy the reference journal and damage it per ``crash_point``.

    Returns the cut sequence (records with ``seq >= cut`` are gone,
    modulo the torn half-frame of ``mid-append``).
    """
    shutil.copytree(reference_dir, crashed_dir)
    records = _all_records(crashed_dir)
    if not records:
        raise CrashHarnessError("reference journal is empty")
    snapshots = sorted(crashed_dir.glob("snapshot-*.json"))

    if crash_point == "pre-journal":
        commands = [record for record in records if record.kind == "command"]
        cut = rng.choice(commands).seq
        _truncate_dir_at(crashed_dir, cut, tear=False)
    elif crash_point == "post-append":
        cut = rng.choice(records).seq + 1
        _truncate_dir_at(crashed_dir, cut, tear=False)
    elif crash_point == "mid-append":
        cut = rng.choice(records).seq
        _truncate_dir_at(crashed_dir, cut, tear=True)
    elif crash_point == "mid-snapshot":
        if not snapshots:
            raise CrashHarnessError("mid-snapshot case needs a snapshot")
        latest = snapshots[-1]
        snapshot_seq = int(latest.name[len("snapshot-") : -len(".json")])
        cut = rng.choice([r.seq for r in records if r.seq > snapshot_seq] or [snapshot_seq + 1])
        _truncate_dir_at(crashed_dir, cut, tear=False)
        # ... and the snapshot write itself was torn by the same kill.
        blob = latest.read_bytes()
        latest.write_bytes(blob[: max(1, len(blob) // 2)])
    elif crash_point == "random":
        cut = rng.randrange(0, records[-1].seq + 2)
        _truncate_dir_at(crashed_dir, cut, tear=rng.random() < 0.5)
    else:
        raise ValueError(f"unknown crash point {crash_point!r}")
    return cut


# ---------------------------------------------------------------------------
# Recover + resume
# ---------------------------------------------------------------------------


@dataclass
class CrashReport:
    """Outcome of one (architecture, crash point) crash case."""

    architecture: str
    crash_point: str
    seed: int
    orders: int
    cut_seq: int = -1
    reference_records: int = 0
    recovered_records: int = 0
    truncations: list[str] = field(default_factory=list)
    snapshot_seq: int = -1
    commands_replayed: int = 0
    commands_retried: int = 0
    retries_suppressed: int = 0
    orders_lost: list[str] = field(default_factory=list)
    orders_duplicated: list[str] = field(default_factory=list)
    dedup_uncovered: int = 0
    journal_identical: bool = False
    trace_identical: bool = False
    ok: bool = False

    def as_dict(self) -> dict[str, Any]:
        return dict(self.__dict__)

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"{status:4} {self.architecture:<14} "
            f"{self.crash_point:<13} cut@{self.cut_seq:<5} "
            f"recovered {self.recovered_records}/{self.reference_records:<5} "
            f"replayed {self.commands_replayed} retried {self.commands_retried} "
            f"suppressed {self.retries_suppressed}"
        )


def run_crash_case(
    architecture: str,
    crash_point: str,
    orders: int = 6,
    seed: int = 0,
    workdir: str | Path | None = None,
) -> CrashReport:
    """Run one full reference/crash/recover/resume cycle and verify it."""
    report = CrashReport(architecture, crash_point, seed, orders)
    cell = f"{architecture}/{crash_point}".encode()
    rng = random.Random(zlib.crc32(cell) ^ seed)
    base = Path(workdir) if workdir is not None else Path(tempfile.mkdtemp(prefix="repro-crash-"))
    base.mkdir(parents=True, exist_ok=True)
    reference_dir = base / "reference"
    crashed_dir = base / "crashed"
    resumed_dir = base / "resumed"
    script = _script(orders)

    reference_driver = _run_reference(
        architecture, reference_dir, script, snapshot_after=orders // 2
    )
    report.reference_records = len(_all_records(reference_dir))
    report.cut_seq = simulate_crash(reference_dir, crashed_dir, crash_point, rng)

    recovered = recover(crashed_dir)
    report.recovered_records = len(recovered.records)
    report.truncations = [
        f"{t.segment}@{t.offset}: {t.reason}" for t in recovered.truncations
    ]
    report.snapshot_seq = recovered.snapshot_seq

    resumed_driver = _make_driver(architecture)
    journal = attach_journal(resumed_driver.runtime, resumed_dir, flush_interval=1)
    executed: set[str] = set()
    # Phase A: deterministic replay of the recovered command WAL — args come
    # from the journal, not the script; the journal alone must suffice.
    for command_id in recovered.projector.command_order:
        entry = recovered.projector.commands[command_id]
        journal.log_command(command_id, entry["op"], entry["args"])
        resumed_driver.execute(**entry["args"])
        executed.add(command_id)
        report.commands_replayed += 1
    # Phase B: the client re-submits its whole script (it cannot know how
    # far the hub got); journaled commands are suppressed by id.
    for command in script:
        if command["id"] in executed:
            report.retries_suppressed += 1
            continue
        journal.log_command(command["id"], command["op"], command["args"])
        resumed_driver.execute(**command["args"])
        executed.add(command["id"])
        report.commands_retried += 1
    journal.close()

    report.dedup_uncovered = resumed_driver.dedup_uncovered(recovered)

    ledger = resumed_driver.ledger()
    expected = [command["args"]["po_number"] for command in script]
    report.orders_lost = [po for po in expected if ledger.get(po, 0) == 0]
    report.orders_duplicated = sorted(
        po for po, count in ledger.items() if count > 1 or po not in expected
    )
    report.journal_identical = _journal_bytes(resumed_dir) == _journal_bytes(
        reference_dir
    )
    report.trace_identical = (
        resumed_driver.trace.render() == reference_driver.trace.render()
    )
    report.ok = (
        not report.orders_lost
        and not report.orders_duplicated
        and report.journal_identical
        and report.trace_identical
        and report.retries_suppressed == report.commands_replayed
        and report.commands_replayed + report.commands_retried == orders
        and report.dedup_uncovered == 0
    )
    if workdir is None:
        shutil.rmtree(base, ignore_errors=True)
    return report


def run_crash_matrix(
    architectures: tuple[str, ...] = ARCHITECTURES,
    crash_points: tuple[str, ...] = CRASH_POINTS,
    orders: int = 6,
    seed: int = 0,
) -> list[CrashReport]:
    """Run the full crash matrix; returns one report per cell."""
    return [
        run_crash_case(architecture, crash_point, orders, seed)
        for architecture in architectures
        for crash_point in crash_points
    ]


def render_reports(reports: list[CrashReport]) -> str:
    lines = [report.describe() for report in reports]
    failed = [report for report in reports if not report.ok]
    lines.append(
        f"{len(reports) - len(failed)}/{len(reports)} crash cases passed"
        + (f" — {len(failed)} FAILED" if failed else "")
    )
    return "\n".join(lines)


def reports_json(reports: list[CrashReport]) -> str:
    return json.dumps(
        {
            "schema": "repro-crash/1",
            "cases": [report.as_dict() for report in reports],
            "passed": sum(1 for report in reports if report.ok),
            "failed": sum(1 for report in reports if not report.ok),
        },
        indent=2,
        sort_keys=True,
    )
