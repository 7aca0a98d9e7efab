"""Hot-path benchmark driver: the repository's performance trajectory.

Six hot paths are tracked, chosen for the paper's scaling claim (public/
private process management must stay cheap per message as partners,
protocols and back ends grow, §4 Figures 11-15):

* ``expression_eval_*`` — the Figure 9 approval condition evaluated against
  a normalized purchase order (interpreted vs compiled closure tree);
* ``mapping_apply_*`` — the normalized -> EDI X12 purchase-order mapping
  applied to a document (interpreted vs compiled accessor chains);
* ``fig14_roundtrip`` — the full advanced integration end to end: public
  process -> binding -> private process -> application binding -> ERP and
  back;
* ``add_partner_*`` — onboarding a trading partner: the advanced model adds
  a partner, an agreement and three rules (then offboards); the naive
  baseline must regenerate the whole monolithic workflow type.
* ``statespace_explore`` — the deployment-time conversation model check
  (``repro lint --deep``): the product-state-space exploration of the
  receipt-acknowledged RosettaNet pair, the largest shipped conversation.
  The derived ``statespace_states_per_sec`` tracks explorer throughput,
  and ``statespace_reduction_ratio`` tracks how many states partial-order
  reduction prunes on a burst-heavy synthetic pair (gated >= 5x).
* ``registry_sweep`` — registry-scale lint: one cold deep sweep over a
  synthetic 250-agreement partner registry (shared per-protocol
  explorations).  The derived ``registry_lint_cache_hit_rate`` re-sweeps
  with a warm digest cache and must stay >= 0.9.

Results are machine-readable (``BENCH_PR3.json``).  Because absolute ops/sec
are machine-bound, every run also times a fixed pure-Python calibration loop
and reports ``normalized = ops_per_sec / calibration_ops_per_sec`` — the
regression gate compares normalized values, so CI hardware drift does not
trip it.  Run via ``python benchmarks/run_bench.py`` or ``repro bench``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Any, Callable, Iterable

__all__ = [
    "BENCHMARKS",
    "TRACKED",
    "SPEEDUP_FLOORS",
    "CEILINGS",
    "run_benchmarks",
    "check_against_baseline",
    "main",
]

# Benchmarks the CI regression gate watches (normalized ops/sec).
TRACKED = (
    "expression_eval_compiled",
    "mapping_apply_compiled",
    "fig14_roundtrip",
    "add_partner_advanced",
    "statespace_explore",
    "registry_sweep",
)

# Acceptance floors for dimensionless (machine-independent) derived
# metrics: compiled expressions must be >=2x interpreted, compiled
# mappings >=1.5x, partial-order reduction must prune the bursty pair's
# interleaving space >=5x, and a warm registry re-sweep must serve >=90%
# of agreements from the digest cache.  Floors are only checked when the
# metric is present in the payload, so partial runs (e.g. without
# ``--journal``) skip the absent gates.  The standalone gate scripts
# (benchmarks/bench_journal.py, bench_dataflow.py, bench_statespace.py,
# bench_registry_lint.py) read their bounds from here.
SPEEDUP_FLOORS = {
    "expression_compile_speedup": 2.0,
    "mapping_compile_speedup": 1.5,
    "statespace_reduction_ratio": 5.0,
    "registry_lint_cache_hit_rate": 0.9,
    # Recovery must replay >=50k events/sec.
    "recovery_events_per_sec": 50_000.0,
    # The B2B7xx schema dataflow pass must verify >=200 binding routes/sec
    # across the example fleet (~5x headroom under the measured ~1.1k/s)
    # and a warm registry re-sweep must serve >=90% of route verdicts from
    # the chain-fingerprint cache.
    "dataflow_routes_per_sec": 200.0,
    "dataflow_route_cache_hit_rate": 0.9,
}

# Acceptance ceilings: derived metrics that must stay *below* a bound.
# Write-ahead journaling may cost at most 15% of the deterministic hub
# workload's wall time (see repro.analysis.journal_bench).
CEILINGS = {
    "journal_write_overhead": 0.15,
}

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


def _bench_expression_interpreted() -> Callable[[], Any]:
    from repro.documents.normalized import make_purchase_order
    from repro.workflow.expressions import Expression

    expression = Expression(_FIG9_CONDITION)
    po = make_purchase_order("P1", "TP1", "ACME", _LINES)
    variables = {"PO": po, "source": "TP1"}
    return lambda: expression.evaluate(variables)


def _bench_expression_compiled() -> Callable[[], Any]:
    from repro.documents.normalized import make_purchase_order
    from repro.workflow.expressions import Expression

    program = Expression(_FIG9_CONDITION).compile()
    po = make_purchase_order("P1", "TP1", "ACME", _LINES)
    variables = {"PO": po, "source": "TP1"}
    return lambda: program(variables)


def _mapping_fixture():
    from repro.documents.normalized import make_purchase_order
    from repro.transform.catalog import standard_mappings

    mapping = next(
        m
        for m in standard_mappings()
        if m.source_format == "normalized"
        and m.target_format == "edi-x12"
        and m.doc_type == "purchase_order"
    )
    document = make_purchase_order("P1", "TP1", "ACME", _LINES)
    context = {"sender_id": "ACME", "receiver_id": "TP1", "now": 1.0}
    return mapping, document, context


def _bench_mapping_interpreted() -> Callable[[], Any]:
    mapping, document, context = _mapping_fixture()
    return lambda: mapping.apply(document, context)


def _bench_mapping_compiled() -> Callable[[], Any]:
    mapping, document, context = _mapping_fixture()
    compiled = mapping.compile()
    return lambda: compiled.apply(document, context)


def _bench_fig14_roundtrip() -> Callable[[], Any]:
    from repro.analysis.scenarios import build_two_enterprise_pair
    from repro.core.enterprise import run_community

    def one_roundtrip() -> None:
        pair = build_two_enterprise_pair("rosettanet", seller_delay=0.5)
        instance_id = pair.buyer.submit_order("SAP", "ACME", "PO-BENCH", _LINES)
        run_community(pair.enterprises())
        if pair.buyer.instance(instance_id).status != "completed":
            raise RuntimeError("fig14 roundtrip did not complete")

    return one_roundtrip


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


def _statespace_states_per_run() -> int:
    from repro.verify.statespace import explore_pair

    buyer, seller = _statespace_pair()
    return explore_pair(buyer, seller).states_explored


def _bench_statespace_explore() -> Callable[[], Any]:
    from repro.verify.statespace import explore_pair

    buyer, seller = _statespace_pair()

    def explore() -> None:
        if not explore_pair(buyer, seller).clean:
            raise RuntimeError("rosettanet-ra conversation is not clean")

    return explore


def _bursty_pair(burst: int):
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


def _statespace_reduction_ratio(burst: int = 8) -> float:
    """Full-BFS states over reduced states on the bursty pair (gated >=5x)."""
    from repro.verify.statespace import explore_pair

    buyer, seller = _bursty_pair(burst)
    full = explore_pair(buyer, seller, queue_bound=burst, reduce=False)
    reduced = explore_pair(buyer, seller, queue_bound=burst, reduce=True)
    if not (full.clean and reduced.clean):
        raise RuntimeError("bursty benchmark pair is not clean")
    return round(full.states_explored / reduced.states_explored, 2)


def _registry_model(agreements: int = 250):
    from repro.analysis.scenarios import build_registry_model

    return build_registry_model(agreements)


def _bench_registry_sweep() -> Callable[[], Any]:
    from repro.verify.registry import sweep_registry

    model = _registry_model()

    def sweep() -> None:
        report = sweep_registry(model, deep=True)
        if report.diagnostics:
            raise RuntimeError("registry sweep reported diagnostics")

    return sweep


def _registry_cache_hit_rate(agreements: int = 250) -> float:
    """Warm re-sweep hit rate with an in-memory digest cache (gated >=0.9)."""
    from repro.verify.incremental import VerificationCache
    from repro.verify.registry import sweep_registry

    model = _registry_model(agreements)
    cache = VerificationCache()
    sweep_registry(model, deep=True, cache=cache)
    warm = sweep_registry(model, deep=True, cache=cache)
    return round(warm.cache_hit_rate, 4)


def _dataflow_metrics(agreements: int = 250) -> dict[str, float]:
    """Derived metrics for the B2B7xx schema dataflow pass.

    ``dataflow_routes_per_sec`` times :func:`verify_dataflow` over every
    example model that owns binding routes; ``dataflow_route_cache_hit_rate``
    re-sweeps a registry with a warm digest cache and reports the share of
    route verdicts served by chain-fingerprint hits.
    """
    from repro.verify.dataflow import iter_binding_routes, verify_dataflow
    from repro.verify.incremental import VerificationCache
    from repro.verify.registry import sweep_registry
    from repro.verify.targets import lint_units

    models = []
    for unit in lint_units(None).values():
        if not hasattr(unit, "transforms"):
            continue
        routes = len(list(iter_binding_routes(unit)))
        if routes:
            models.append((unit, routes))

    def one_pass() -> None:
        for unit, _count in models:
            verify_dataflow(unit)

    routes_per_pass = sum(count for _unit, count in models)
    ops, _normalized, _runs = _time_ops_per_sec(one_pass, min_time=0.5)

    registry = _registry_model(agreements)
    cache = VerificationCache()
    sweep_registry(registry, deep=False, dataflow=True, cache=cache)
    warm = sweep_registry(registry, deep=False, dataflow=True, cache=cache)
    return {
        "dataflow_routes_per_sec": round(ops * routes_per_pass, 1),
        "dataflow_route_cache_hit_rate": round(warm.route_cache_hit_rate, 4),
    }


BENCHMARKS: dict[str, Callable[[], Callable[[], Any]]] = {
    "expression_eval_interpreted": _bench_expression_interpreted,
    "expression_eval_compiled": _bench_expression_compiled,
    "mapping_apply_interpreted": _bench_mapping_interpreted,
    "mapping_apply_compiled": _bench_mapping_compiled,
    "fig14_roundtrip": _bench_fig14_roundtrip,
    "add_partner_naive": _bench_add_partner_naive,
    "add_partner_advanced": _bench_add_partner_advanced,
    "statespace_explore": _bench_statespace_explore,
    "registry_sweep": _bench_registry_sweep,
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
    operation()  # warm-up: caches, lazy imports, plan building
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
    label: str = "PR3",
    journal: bool = False,
    journal_messages: int = 20_000,
    dataflow: bool = False,
) -> dict[str, Any]:
    """Run the selected benchmarks and return the result payload."""
    selected = list(names) if names is not None else list(BENCHMARKS)
    unknown = [name for name in selected if name not in BENCHMARKS]
    if unknown:
        raise KeyError(f"unknown benchmark(s): {unknown}; have {sorted(BENCHMARKS)}")
    calibration, _ = _spin_ops(_calibration_spin, min_time / 2)
    results: dict[str, Any] = {}
    for name in selected:
        operation = BENCHMARKS[name]()
        ops, normalized, runs = _time_ops_per_sec(operation, min_time)
        results[name] = {
            "ops_per_sec": round(ops, 2),
            "normalized": round(normalized, 6),
            "runs": runs,
        }
    payload: dict[str, Any] = {
        "schema": "repro-bench/1",
        "label": label,
        "python": platform.python_version(),
        "calibration_ops_per_sec": round(calibration, 2),
        "benchmarks": results,
        "derived": {},
    }
    derived = payload["derived"]
    if {"expression_eval_interpreted", "expression_eval_compiled"} <= results.keys():
        derived["expression_compile_speedup"] = round(
            results["expression_eval_compiled"]["ops_per_sec"]
            / results["expression_eval_interpreted"]["ops_per_sec"],
            2,
        )
    if {"mapping_apply_interpreted", "mapping_apply_compiled"} <= results.keys():
        derived["mapping_compile_speedup"] = round(
            results["mapping_apply_compiled"]["ops_per_sec"]
            / results["mapping_apply_interpreted"]["ops_per_sec"],
            2,
        )
    if {"add_partner_naive", "add_partner_advanced"} <= results.keys():
        derived["add_partner_advantage"] = round(
            results["add_partner_advanced"]["ops_per_sec"]
            / results["add_partner_naive"]["ops_per_sec"],
            2,
        )
    if "statespace_explore" in results:
        derived["statespace_states_per_sec"] = round(
            results["statespace_explore"]["ops_per_sec"]
            * _statespace_states_per_run(),
            1,
        )
        derived["statespace_reduction_ratio"] = _statespace_reduction_ratio()
    if "registry_sweep" in results:
        derived["registry_lint_cache_hit_rate"] = _registry_cache_hit_rate()
    if journal:
        from repro.analysis.journal_bench import run_journal_benchmark

        journal_payload = run_journal_benchmark(messages=journal_messages)
        payload["journal"] = journal_payload
        derived["journal_write_overhead"] = journal_payload[
            "journal_write_overhead"
        ]
        derived["recovery_events_per_sec"] = journal_payload[
            "recovery_events_per_sec"
        ]
        derived["recovery_time_per_1k_events_ms"] = journal_payload[
            "recovery_time_per_1k_events_ms"
        ]
    if dataflow:
        derived.update(_dataflow_metrics())
    return payload


# ---------------------------------------------------------------------------
# Regression gate
# ---------------------------------------------------------------------------


def check_against_baseline(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = 0.25,
) -> list[str]:
    """Return regression messages (empty when the gate passes).

    Tracked hot paths are compared on *normalized* ops/sec (machine
    drift cancels out); derived speedups are compared against their
    acceptance floors.
    """
    problems: list[str] = []
    baseline_benchmarks = baseline.get("benchmarks", {})
    current_benchmarks = current.get("benchmarks", {})
    for name in TRACKED:
        base = baseline_benchmarks.get(name)
        now = current_benchmarks.get(name)
        if base is None or now is None:
            continue
        floor = base["normalized"] * (1.0 - tolerance)
        if now["normalized"] < floor:
            problems.append(
                f"{name}: normalized {now['normalized']:.4f} is below "
                f"{floor:.4f} (baseline {base['normalized']:.4f} "
                f"- {tolerance:.0%} tolerance)"
            )
    for metric, floor in SPEEDUP_FLOORS.items():
        value = current.get("derived", {}).get(metric)
        if value is not None and value < floor:
            problems.append(f"{metric}: {value:.2f}x is below the {floor:.1f}x floor")
    for metric, ceiling in CEILINGS.items():
        value = current.get("derived", {}).get(metric)
        if value is not None and value > ceiling:
            problems.append(
                f"{metric}: {value:.4f} is above the {ceiling:.2f} ceiling"
            )
    return problems


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the driver's options (shared by run_bench.py and repro bench)."""
    parser.add_argument(
        "--filter",
        help="run only benchmarks whose name contains this substring",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the machine-readable results to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a committed baseline JSON and exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional drop per tracked benchmark (default: 0.25)",
    )
    parser.add_argument(
        "--min-time", type=float, default=0.2,
        help="minimum seconds to spend per benchmark (default: 0.2)",
    )
    parser.add_argument(
        "--label", default="PR3", help="label recorded in the output payload"
    )
    parser.add_argument(
        "--journal", action="store_true",
        help="also run the durability benchmarks (journal write overhead "
        "on the hub workload and recovery replay throughput)",
    )
    parser.add_argument(
        "--journal-messages", type=int, default=20_000, metavar="N",
        help="hub messages per journal-overhead run (default: 20000)",
    )
    parser.add_argument(
        "--dataflow", action="store_true",
        help="also derive the B2B7xx schema dataflow metrics (binding "
        "routes verified per second across the example fleet and the warm "
        "registry route-verdict cache hit rate)",
    )


def run(args: argparse.Namespace) -> int:
    """Execute the driver for parsed ``args``; returns the exit code."""
    names = list(BENCHMARKS)
    if args.filter:
        names = [name for name in names if args.filter in name]
        # With --journal or --dataflow an empty micro-benchmark selection
        # is fine: e.g. ``--journal --filter journal`` runs only the
        # durability benchmarks.
        if not names and not (args.journal or args.dataflow):
            print(f"no benchmark matches filter {args.filter!r}", file=sys.stderr)
            return 2
    payload = run_benchmarks(
        names,
        min_time=args.min_time,
        label=args.label,
        journal=args.journal,
        journal_messages=args.journal_messages,
        dataflow=args.dataflow,
    )

    rows = [
        f"{name:32s} {entry['ops_per_sec']:>14,.1f} ops/s   "
        f"(normalized {entry['normalized']:.4f}, {entry['runs']} runs)"
        for name, entry in payload["benchmarks"].items()
    ]
    print("\n".join(rows))
    for metric, value in payload["derived"].items():
        unit = "" if metric.endswith(("_per_sec", "_ms", "_overhead")) else "x"
        print(f"{metric:32s} {value:>10.2f}{unit}")
    if "journal" in payload:
        entry = payload["journal"]
        write = entry["write"]
        recovery = entry["recovery"]
        print("\ndurability (journal + recovery):")
        print(
            f"  write overhead {write['journal_write_overhead']:>8.2%} of the "
            f"hub workload ({write['journal_cost_per_event_us']:.2f}us/event, "
            f"{write['records_journaled']} records)"
        )
        print(
            f"  recovery       {recovery['recovery_events_per_sec']:>10,.0f} "
            f"events/s ({recovery['recovery_time_per_1k_events_ms']:.1f} ms "
            f"per 1k events)"
        )

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
        problems = check_against_baseline(payload, baseline, tolerance=args.tolerance)
        if problems:
            print("\nREGRESSION GATE FAILED:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(f"\nregression gate OK against {args.check}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python benchmarks/run_bench.py``)."""
    parser = argparse.ArgumentParser(
        description="Benchmark the per-message hot paths and gate regressions"
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))
