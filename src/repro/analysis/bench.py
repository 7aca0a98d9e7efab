"""The benchmark registry: every timed gate measured once, every bound declared once.

The gates guard the paper's scaling claims: per-message cost stays flat
as partners, protocols and back ends grow, and per-partner verification
stays tractable (§4 Figures 11-15, §4.5-4.6).  ``repro bench`` is the one
entry point; it runs the registry's three parts and checks them:

* ``BENCHMARKS`` — seven timed operations, each a factory returning a
  zero-arg "one operation":

  * ``expression_eval_compiled`` — the Figure 9 approval condition
    evaluated against a normalized purchase order by its compiled
    closure tree;
  * ``mapping_apply_compiled`` — the normalized -> EDI X12
    purchase-order mapping's compiled program applied to a document;
  * ``fig14_roundtrip`` — one order through the full advanced
    integration: public process -> binding -> private process ->
    application binding -> ERP and back, on a pair built once (building
    it is what perfbench's ``setup_s`` measures);
  * ``add_partner_*`` — onboarding a trading partner: the advanced model
    adds a partner, an agreement and three rules (then offboards); the
    naive baseline must regenerate the whole monolithic workflow type;
  * ``statespace_explore`` — the deployment-time conversation model
    check (``repro lint --deep``) of the receipt-acknowledged RosettaNet
    pair, the largest shipped conversation;
  * ``registry_sweep`` — one deep lint (``model.verify(deep=True)``)
    of a synthetic 250-agreement partner registry.

* ``GATES`` — four workloads that return their own metrics: the journal
  (write overhead and recovery throughput, see
  :mod:`repro.analysis.journal_bench`), full-search explorer throughput
  on a bursty pair, a deep lint of a 1,000-agreement registry, and
  schema-dataflow routes verified per second over the example fleet.

* ``BOUNDS`` — the floor or ceiling of every gated metric, plus
  ``TOLERANCE``: each ``TRACKED`` benchmark may fall at most that far
  below its normalized baseline.

Deterministic properties (one exploration per protocol in a registry
lint, the partial-order-reduction ratio) are not timings; tier-1 tests
assert them exactly.

Results are machine-readable (``--json``).  Because absolute
ops/sec are machine-bound, every timing is interleaved with a fixed
pure-Python calibration loop and also reported as ``normalized =
ops_per_sec / calibration_ops_per_sec``; the baseline comparison uses
normalized values, so CI hardware drift does not trip it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import sys
import time
from typing import Any, Callable, Iterable, NamedTuple

__all__ = [
    "BENCHMARKS",
    "GATES",
    "BOUNDS",
    "TRACKED",
    "TOLERANCE",
    "bursty_pair",
    "dataflow_fleet",
    "run_benchmarks",
    "bound_verdicts",
    "check_against_baseline",
    "run",
]

# Benchmarks compared against the baseline (normalized ops/sec).
TRACKED = (
    "expression_eval_compiled",
    "mapping_apply_compiled",
    "fig14_roundtrip",
    "add_partner_advanced",
    "statespace_explore",
    "registry_sweep",
)

# Allowed fractional drop of a TRACKED benchmark below its baseline.
TOLERANCE = 0.25


class Bound(NamedTuple):
    """A gated metric stays at or above (``floor``) or at or below ``limit``."""

    limit: float
    unit: str
    floor: bool = True

    def show(self, value: float) -> str:
        return f"{value:,.6g}{self.unit}"


BOUNDS = {
    # Full-search explorer throughput on the burst-8 pair, calibrated.
    "statespace_normalized_states_per_sec": Bound(8.0, " normalized states/s"),
    # A deep lint of 1,000 agreements within 5 seconds.
    "registry_lint_cold_sweep_sec": Bound(5.0, " s", floor=False),
    # ~4x headroom under the measured ~900 routes/s.
    "dataflow_routes_per_sec": Bound(200.0, " routes/s"),
    # Journaling may cost at most 15% of the calibrated hub workload.
    "journal_write_overhead": Bound(0.15, " of hub time", floor=False),
    "recovery_events_per_sec": Bound(50_000.0, " events/s"),
}

# Gate workload sizes (tier-1 tests shrink them).
JOURNAL_MESSAGES = 20_000
RECOVERY_EVENTS = 50_000
REGISTRY_AGREEMENTS = 1_000
STATESPACE_BURST = 8

_LINES = [
    {"sku": "LAPTOP-15", "quantity": 10, "unit_price": 1200.0},
    {"sku": "DOCK-1", "quantity": 5, "unit_price": 150.0},
]

_FIG9_CONDITION = (
    "PO.amount >= 55000 and source == 'TP1' "
    "or PO.amount >= 40000 and source == 'TP2'"
)


# ---------------------------------------------------------------------------
# Benchmark definitions: name -> builder returning a zero-arg "one operation"
# ---------------------------------------------------------------------------


def _bench_expression_compiled() -> Callable[[], Any]:
    from repro.documents.normalized import make_purchase_order
    from repro.workflow.expressions import Expression

    program = Expression(_FIG9_CONDITION).compile()
    po = make_purchase_order("P1", "TP1", "ACME", _LINES)
    variables = {"PO": po, "source": "TP1"}
    return lambda: program(variables)


def _bench_mapping_compiled() -> Callable[[], Any]:
    from repro.documents.normalized import make_purchase_order
    from repro.transform.catalog import standard_mappings

    mapping = next(
        m
        for m in standard_mappings()
        if m.source_format == "normalized"
        and m.target_format == "edi-x12"
        and m.doc_type == "purchase_order"
    )
    compiled = mapping.compile()
    document = make_purchase_order("P1", "TP1", "ACME", _LINES)
    context = {"sender_id": "ACME", "receiver_id": "TP1", "now": 1.0}
    return lambda: compiled.apply(document, context)


def _bench_fig14_roundtrip() -> Callable[[], Any]:
    from repro.analysis.scenarios import build_two_enterprise_pair
    from repro.core.enterprise import run_community

    # Built once: an order through a warm pair costs the same over
    # thousands of orders, and construction is what perfbench's setup_s
    # measures.
    pair = build_two_enterprise_pair("rosettanet", seller_delay=0.5)
    po_numbers = itertools.count(1)

    def one_order() -> None:
        instance_id = pair.buyer.submit_order(
            "SAP", "ACME", f"PO-BENCH-{next(po_numbers)}", _LINES
        )
        run_community(pair.enterprises())
        if pair.buyer.instance(instance_id).status != "completed":
            raise RuntimeError("fig14 order did not complete")

    return one_order


def _bench_add_partner_naive() -> Callable[[], Any]:
    from repro.baselines.monolithic import NaiveTopology, build_naive_seller_type

    def add_partner() -> None:
        # The naive architecture embeds partners in the monolithic type, so
        # onboarding means regenerating the whole workflow type.
        topology = NaiveTopology.figure9()
        topology.partner_protocol["TP-NEW"] = "rosettanet"
        topology.thresholds["TP-NEW"] = 25000
        topology.routing["TP-NEW"] = "SAP"
        build_naive_seller_type(topology)

    return add_partner


def _bench_add_partner_advanced() -> Callable[[], Any]:
    from repro.analysis.change_impact import build_fig14_model
    from repro.core.rules import BusinessRule
    from repro.partners.agreement import TradingPartnerAgreement
    from repro.partners.profile import TradingPartner

    model = build_fig14_model()
    approval = model.rules.get("check_need_for_approval")
    routing = model.rules.get("select_target_application")

    def add_partner() -> None:
        # Onboard then offboard so the op is repeatable on one model; the
        # advanced model's delta is partner + agreement + three rules — the
        # private process and all mappings are untouched.
        model.partners.add_partner(TradingPartner("TP-NEW", protocols=("rosettanet",)))
        model.partners.add_agreement(
            TradingPartnerAgreement("TP-NEW", "rosettanet", "seller")
        )
        approval.add(
            BusinessRule("TP-NEW via SAP", source="TP-NEW", target="SAP",
                         expression="document.amount >= 25000")
        )
        approval.add(
            BusinessRule("TP-NEW via Oracle", source="TP-NEW", target="Oracle",
                         expression="document.amount >= 25000")
        )
        routing.add(BusinessRule("route TP-NEW", source="TP-NEW", expression="'SAP'"))
        routing.remove("route TP-NEW")
        approval.remove("TP-NEW via Oracle")
        approval.remove("TP-NEW via SAP")
        model.partners.remove_partner("TP-NEW")

    return add_partner


def _statespace_pair():
    from repro.b2b.protocol import get_protocol

    protocol = get_protocol("rosettanet-ra")
    return protocol.buyer_process(), protocol.seller_process()


def _bench_statespace_explore() -> Callable[[], Any]:
    from repro.verify.statespace import explore_pair

    buyer, seller = _statespace_pair()

    def explore() -> None:
        if not explore_pair(buyer, seller).clean:
            raise RuntimeError("rosettanet-ra conversation is not clean")

    return explore


def _bench_registry_sweep() -> Callable[[], Any]:
    from repro.analysis.scenarios import build_registry_model

    model = build_registry_model(250)

    def sweep() -> None:
        if model.verify(deep=True):
            raise RuntimeError("registry lint reported diagnostics")

    return sweep


BENCHMARKS: dict[str, Callable[[], Callable[[], Any]]] = {
    "expression_eval_compiled": _bench_expression_compiled,
    "mapping_apply_compiled": _bench_mapping_compiled,
    "fig14_roundtrip": _bench_fig14_roundtrip,
    "add_partner_naive": _bench_add_partner_naive,
    "add_partner_advanced": _bench_add_partner_advanced,
    "statespace_explore": _bench_statespace_explore,
    "registry_sweep": _bench_registry_sweep,
}


# ---------------------------------------------------------------------------
# Gates: name -> function of ``min_time`` returning its metrics
# ---------------------------------------------------------------------------


def bursty_pair(burst: int):
    """Two public processes that each fire ``burst`` sends before draining
    the other side's burst — the worst interleaving blow-up a queue bound
    of ``burst`` allows, and the shape partial-order reduction targets."""
    from repro.core.public_process import PublicProcessDefinition, PublicStep

    buyer = PublicProcessDefinition(
        "bench/bursty-buyer", "bench-bursty", "buyer", "fmt",
        [PublicStep(f"send_{index}", "send", f"doc_{index}")
         for index in range(burst)]
        + [PublicStep(f"recv_{index}", "receive", f"ret_{index}")
           for index in range(burst)],
    )
    seller = PublicProcessDefinition(
        "bench/bursty-seller", "bench-bursty", "seller", "fmt",
        [PublicStep(f"send_{index}", "send", f"ret_{index}")
         for index in range(burst)]
        + [PublicStep(f"recv_{index}", "receive", f"doc_{index}")
           for index in range(burst)],
    )
    return buyer, seller


def dataflow_fleet() -> list[tuple[Any, int]]:
    """Every example lint unit that owns binding routes, with its route count."""
    from repro.verify.dataflow import iter_binding_routes
    from repro.verify.targets import lint_units

    fleet = []
    for unit in lint_units(None).values():
        if not hasattr(unit, "transforms"):
            continue
        routes = len(list(iter_binding_routes(unit)))
        if routes:
            fleet.append((unit, routes))
    return fleet


def _gate_journal(min_time: float) -> dict[str, float]:
    """Journal write overhead and recovery throughput; fixed-size runs, so
    ``min_time`` does not apply."""
    from repro.analysis.journal_bench import run_journal_benchmark

    result = run_journal_benchmark(
        messages=JOURNAL_MESSAGES, recovery_events=RECOVERY_EVENTS
    )
    return {
        metric: value for metric, value in result.items()
        if not isinstance(value, dict)
    }


def _gate_statespace(min_time: float) -> dict[str, float]:
    """Full-search (unreduced) explorer throughput on the bursty pair."""
    from repro.verify.statespace import explore_pair

    buyer, seller = bursty_pair(STATESPACE_BURST)

    def explore():
        return explore_pair(buyer, seller, queue_bound=STATESPACE_BURST, reduce=False)

    result = explore()
    if not result.clean:
        raise RuntimeError("bursty benchmark pair is not clean")
    _ops, normalized, _runs = _time_ops_per_sec(explore, min_time)
    return {
        "statespace_normalized_states_per_sec": round(
            normalized * result.states_explored, 2
        ),
    }


def _gate_registry_lint(min_time: float) -> dict[str, float]:
    """One deep lint of the generated registry, timed once."""
    from repro.analysis.scenarios import build_registry_model

    stats: dict[str, Any] = {}
    model = build_registry_model(REGISTRY_AGREEMENTS)
    if model.verify(deep=True, stats=stats):
        raise RuntimeError("registry lint reported diagnostics")
    return {"registry_lint_cold_sweep_sec": round(stats["duration"], 4)}


def _gate_dataflow(min_time: float) -> dict[str, float]:
    """Binding routes verified per second across the example fleet.

    One operation verifies one model, round robin over the fleet: a whole
    pass (~0.2 s) would outlast the slices ``min_time`` asks for.
    """
    from repro.verify.dataflow import verify_dataflow

    fleet = dataflow_fleet()
    units = itertools.cycle([unit for unit, _routes in fleet])
    ops, _normalized, _runs = _time_ops_per_sec(
        lambda: verify_dataflow(next(units)), min_time
    )
    routes_per_unit = sum(count for _unit, count in fleet) / len(fleet)
    return {"dataflow_routes_per_sec": round(ops * routes_per_unit, 1)}


GATES: dict[str, Callable[[float], dict[str, float]]] = {
    "journal": _gate_journal,
    "statespace": _gate_statespace,
    "registry_lint": _gate_registry_lint,
    "dataflow": _gate_dataflow,
}


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------


def _calibration_spin() -> int:
    """The fixed pure-Python workload used to normalize across machines."""
    total = 0
    for value in range(2000):
        total += value * value % 7
    return total


def _spin_ops(operation: Callable[[], Any], slice_time: float, min_runs: int = 3) -> tuple[float, int]:
    runs = 0
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < slice_time or runs < min_runs:
        operation()
        runs += 1
        elapsed = time.perf_counter() - start
    return runs / elapsed, runs


def _time_ops_per_sec(
    operation: Callable[[], Any],
    min_time: float,
    repeats: int = 5,
) -> tuple[float, float, int]:
    """Time ``operation`` against the calibration workload, interleaved.

    Returns ``(ops_per_sec, normalized, total_runs)``.  Each repeat times a
    calibration slice immediately followed by an operation slice and records
    the ratio; the reported values are medians across repeats.  Interleaving
    matters on shared machines: a host-level slowdown burst hits the
    adjacent calibration slice too, so the *ratio* stays stable even when
    absolute rates swing.
    """
    operation()  # warm-up: lazy imports, compiled mappings and executors
    slice_time = min_time / repeats
    rates: list[float] = []
    ratios: list[float] = []
    total_runs = 0
    for _ in range(repeats):
        calibration_ops, _ = _spin_ops(_calibration_spin, slice_time / 2)
        ops, runs = _spin_ops(operation, slice_time)
        rates.append(ops)
        ratios.append(ops / calibration_ops)
        total_runs += runs
    rates.sort()
    ratios.sort()
    middle = repeats // 2
    return rates[middle], ratios[middle], total_runs


def run_benchmarks(
    names: Iterable[str] | None = None,
    min_time: float = 0.2,
) -> dict[str, Any]:
    """Run the selected benchmarks and gates (all when ``names`` is None)."""
    selected = list(names) if names is not None else [*BENCHMARKS, *GATES]
    unknown = [name for name in selected if name not in BENCHMARKS and name not in GATES]
    if unknown:
        raise KeyError(
            f"unknown benchmark(s): {unknown}; have {sorted([*BENCHMARKS, *GATES])}"
        )
    calibration, _ = _spin_ops(_calibration_spin, min_time / 2)
    results: dict[str, Any] = {}
    for name in selected:
        if name in BENCHMARKS:
            ops, normalized, runs = _time_ops_per_sec(BENCHMARKS[name](), min_time)
            results[name] = {
                "ops_per_sec": round(ops, 2),
                "normalized": round(normalized, 6),
                "runs": runs,
            }
    derived: dict[str, float] = {}
    if {"add_partner_advanced", "add_partner_naive"} <= results.keys():
        derived["add_partner_advantage"] = round(
            results["add_partner_advanced"]["ops_per_sec"]
            / results["add_partner_naive"]["ops_per_sec"],
            2,
        )
    if "statespace_explore" in results:
        from repro.verify.statespace import explore_pair

        states = explore_pair(*_statespace_pair()).states_explored
        derived["statespace_states_per_sec"] = round(
            results["statespace_explore"]["ops_per_sec"] * states, 1
        )
    for name in selected:
        if name in GATES:
            derived.update(GATES[name](min_time))
    return {
        "schema": "repro-bench/1",
        "python": platform.python_version(),
        "calibration_ops_per_sec": round(calibration, 2),
        "benchmarks": results,
        "derived": derived,
    }


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


def bound_verdicts(
    current: dict[str, Any],
    baseline: dict[str, Any],
    complete: bool = False,
) -> list[tuple[bool, str]]:
    """One ``(held, line)`` per bound, in its own unit.

    Tracked benchmarks are compared on *normalized* ops/sec (machine
    drift cancels out), derived metrics against ``BOUNDS``.  A bound whose
    metric is absent is skipped for a partial (filtered) run; when
    ``complete``, it fails and is named.
    """
    verdicts: list[tuple[bool, str]] = []
    baseline_benchmarks = baseline.get("benchmarks", {})
    current_benchmarks = current.get("benchmarks", {})
    for name in TRACKED:
        base = baseline_benchmarks.get(name)
        now = current_benchmarks.get(name)
        if base is None or now is None:
            if complete:
                where = "in the baseline" if now is not None else "in this run"
                verdicts.append((False, f"{name}: not measured {where}"))
            continue
        floor = base["normalized"] * (1.0 - TOLERANCE)
        held = now["normalized"] >= floor
        relation = "at or above" if held else "is below"
        verdicts.append((held, (
            f"{name}: normalized {now['normalized']:.4f} {relation} "
            f"{floor:.4f} (baseline {base['normalized']:.4f} - {TOLERANCE:.0%})"
        )))
    derived = current.get("derived", {})
    for metric, bound in BOUNDS.items():
        value = derived.get(metric)
        if value is None:
            if complete:
                verdicts.append((False, f"{metric}: not measured in this run"))
            continue
        if bound.floor:
            held = value >= bound.limit
            relation = "at or above the" if held else "is below the"
        else:
            held = value <= bound.limit
            relation = "at or below the" if held else "is above the"
        kind = "floor" if bound.floor else "ceiling"
        verdicts.append((held, (
            f"{metric}: {bound.show(value)} {relation} "
            f"{bound.show(bound.limit)} {kind}"
        )))
    return verdicts


def check_against_baseline(current: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """Return the messages of the bounds that fail (empty when all hold)."""
    return [line for held, line in bound_verdicts(current, baseline) if not held]


# ---------------------------------------------------------------------------
# ``repro bench``
# ---------------------------------------------------------------------------


def run(args: argparse.Namespace) -> int:
    """Execute ``repro bench`` for parsed ``args``; returns the exit code."""
    names = [*BENCHMARKS, *GATES]
    if args.filter:
        names = [name for name in names if args.filter in name]
        if not names:
            print(f"no benchmark matches filter {args.filter!r}", file=sys.stderr)
            return 2
    payload = run_benchmarks(names, min_time=args.min_time)

    for name, entry in payload["benchmarks"].items():
        print(
            f"{name:38s} {entry['ops_per_sec']:>14,.1f} ops/s   "
            f"(normalized {entry['normalized']:.4f}, {entry['runs']} runs)"
        )
    for metric, value in payload["derived"].items():
        print(f"{metric:38s} {value:>14,.6g}")

    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.json}")

    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            baseline = json.load(handle)
        verdicts = bound_verdicts(payload, baseline, complete=not args.filter)
        print(f"\nbounds (baseline {args.check}):")
        for held, line in verdicts:
            print(f"  {'ok  ' if held else 'FAIL'} {line}")
        failed = [line for held, line in verdicts if not held]
        if failed:
            print("\nREGRESSION GATE FAILED:", file=sys.stderr)
            for line in failed:
                print(f"  - {line}", file=sys.stderr)
            return 1
        print(f"\nregression gate OK against {args.check}")
    return 0
