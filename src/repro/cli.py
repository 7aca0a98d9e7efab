"""Command-line interface: run the paper's scenarios from a shell.

::

    python -m repro demo            # the Figure 1 round trip, narrated
    python -m repro report          # Figure 15 community + seller report
    python -m repro growth          # the Figure 9/10 growth tables
    python -m repro changes         # the Section 4.5 change-impact table
    python -m repro patterns        # Section 1's four exchange patterns
    python -m repro lint            # statically verify all example models
    python -m repro bench           # the benchmark registry and its bounds

Installed as the ``repro-b2b`` console script.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable

__all__ = ["main"]

DEMO_LINES = [
    {"sku": "LAPTOP-15", "quantity": 10, "unit_price": 1200.0},
    {"sku": "DOCK-1", "quantity": 5, "unit_price": 150.0},
]


def _table(rows: list[dict], columns: list[str], title: str = "") -> str:
    widths = {
        column: max(len(column), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    lines = []
    if title:
        lines += [title, "-" * len(title)]
    lines.append("  ".join(column.ljust(widths[column]) for column in columns))
    for row in rows:
        lines.append(
            "  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def _print_trace(runtime, title: str) -> None:
    """Print the kernel's recorded event trace for one scenario run."""
    print()
    print(f"--- kernel trace: {title} ---")
    print(runtime.trace.render())


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.analysis.scenarios import build_two_enterprise_pair
    from repro.core.enterprise import run_community

    pair = build_two_enterprise_pair(args.protocol, seller_delay=0.5)
    if args.trace:
        pair.runtime.enable_trace()
    instance_id = pair.buyer.submit_order("SAP", "ACME", "PO-1001", DEMO_LINES)
    rounds = run_community(pair.enterprises())
    instance = pair.buyer.instance(instance_id)
    print(f"protocol        : {args.protocol}")
    print(f"buyer instance  : {instance.status} after {rounds} community round(s)")
    print(f"seller order    : "
          f"{pair.seller.backends['Oracle'].order('PO-1001').status}")
    print(f"buyer stored ack: {'PO-1001' in pair.buyer.backends['SAP'].stored_acks}")
    trace = next(iter(pair.buyer.b2b.conversations.values())).documents
    print(f"exchange trace  : {' -> '.join(trace)}")
    if args.trace:
        _print_trace(pair.runtime, f"demo ({args.protocol})")
    return 0 if instance.status == "completed" else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.scenarios import build_fig15_community
    from repro.core.enterprise import run_community
    from repro.core.reporting import render_report

    community = build_fig15_community(seller_delay=0.2)
    if args.trace:
        community.runtime.enable_trace()
    for partner_id, buyer in community.buyers.items():
        buyer.submit_order("SAP", "ACME", f"PO-{partner_id}", DEMO_LINES)
    run_community(community.enterprises())
    print(render_report(community.seller))
    if args.trace:
        _print_trace(community.runtime, "fig15 community")
    return 0


def _cmd_growth(args: argparse.Namespace) -> int:
    from repro.analysis.complexity import growth_rows

    rows: list[dict] = []
    for dimension, values in (
        ("protocols", args.values or [1, 2, 3, 4, 6]),
        ("partners", args.values or [2, 4, 8, 16]),
        ("backends", args.values or [1, 2, 4, 8]),
    ):
        if args.dimension in (None, dimension):
            rows += growth_rows(dimension, values)
    print(_table(
        rows,
        ["dimension", "value", "topology", "naive_total", "advanced_total"],
        "Total authored model elements: naive vs advanced (Figures 9/10, Sec 4.6)",
    ))
    return 0


def _cmd_changes(args: argparse.Namespace) -> int:
    from repro.analysis.change_impact import change_table

    rows = [
        {
            "scenario": row["scenario"],
            "advanced_impact": row["advanced_impact"],
            "advanced_modified": row["advanced_modified"],
            "advanced_locality": row["advanced_locality"],
            "naive_impact": row["naive_impact"],
            "naive_modified": row["naive_modified"],
        }
        for row in change_table()
    ]
    print(_table(
        rows,
        ["scenario", "advanced_impact", "advanced_modified",
         "advanced_locality", "naive_impact", "naive_modified"],
        "Change impact per scenario (Section 4.5)",
    ))
    return 0


def _cmd_patterns(args: argparse.Namespace) -> int:
    from repro.analysis.scenarios import (
        build_order_to_cash_pair,
        build_sourcing_community,
        build_two_enterprise_pair,
    )
    from repro.core.enterprise import run_community

    rows = []
    for protocol, label in (("rosettanet", "request/reply"),
                            ("rosettanet-ra", "acknowledged request/reply")):
        pair = build_two_enterprise_pair(protocol, seller_delay=0.2)
        if args.trace:
            pair.runtime.enable_trace()
        pair.buyer.submit_order("SAP", "ACME", "PO-P", DEMO_LINES)
        run_community(pair.enterprises())
        conversation = next(iter(pair.buyer.b2b.conversations.values()))
        rows.append({"pattern": label, "initiator": "buyer",
                     "trace": " -> ".join(conversation.documents)})
        if args.trace:
            _print_trace(pair.runtime, label)

    pair = build_order_to_cash_pair(seller_delay=0.2)
    if args.trace:
        pair.runtime.enable_trace()
    pair.buyer.submit_order("SAP", "ACME", "PO-P", DEMO_LINES)
    run_community(pair.enterprises())
    pair.seller.submit_shipment("Oracle", "TP1", "PO-P")
    run_community(pair.enterprises())
    conversation = next(
        c for c in pair.seller.b2b.conversations.values()
        if c.protocol == "oagis-fulfillment"
    )
    rows.append({"pattern": "one-way multi-step", "initiator": "seller",
                 "trace": " -> ".join(conversation.documents)})
    if args.trace:
        _print_trace(pair.runtime, "one-way multi-step")

    community = build_sourcing_community(
        {"ACME": {"GPU": 1500.0}, "GLOBEX": {"GPU": 1450.0}}
    )
    if args.trace:
        community.runtime.enable_trace()
    instance_id = community.buyer.submit_rfq(
        ["ACME", "GLOBEX"], "RFQ-P", [{"sku": "GPU", "quantity": 5}]
    )
    run_community(community.enterprises())
    instance = community.buyer.instance(instance_id)
    rows.append({
        "pattern": "broadcast RFQ",
        "initiator": "buyer",
        "trace": f"2x RFQ out -> {len(instance.variables['quotes'])}x quote in "
                 f"-> winner {instance.variables['chosen_partner']}",
    })
    if args.trace:
        _print_trace(community.runtime, "broadcast RFQ")
    print(_table(rows, ["pattern", "initiator", "trace"],
                 "Exchange patterns on one architecture (Section 1)"))
    return 0


LINT_SCHEMA_VERSION = 7
"""Version of the ``repro lint --format json`` payload shape.

Version 2 wrapped the per-label results under a ``"models"`` key.
Version 3 added per-model ``duration_ms``/``states`` (explored and pruned
counts, so a statespace regression is attributable to the model that
caused it), a ``totals`` summary, and the ``registry`` section emitted by
``--registry`` sweeps.  Version 4 added per-model ``dataflow_routes``
counts and the ``registry.dataflow`` section for the B2B7xx schema
dataflow pass.  Version 5 dropped the verdict-cache fields: per-model
``cached``, ``totals.cache_hits``/``cache_misses`` and the registry
section's ``verified``, ``cache_hits``, ``cache_hit_rate``,
``fabric_cached`` and dataflow route-cache counts.  Version 6 added
``registry.dataflow.diagnostics``, the B2B7xx findings of a
``--registry --dataflow`` sweep.  Version 7 dropped the ``registry``
section: ``--registry N`` reports its model under ``models["registry-N"]``.
"""


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.verify import at_or_above, count_by_severity, render_text
    from repro.verify.targets import (
        build_broken_model,
        build_dataflow_broken_model,
        build_deadlock_model,
        lint_all,
        verify_unit,
    )

    verify_options = {
        "deep": args.deep,
        "dataflow": args.dataflow,
        "queue_bound": args.queue_bound,
        "max_states": args.max_states,
        "time_budget": args.time_budget,
        "reduce": not args.no_reduce,
    }

    reports: dict = {}
    if args.registry is not None:
        from repro.analysis.scenarios import build_registry_model

        model = build_registry_model(args.registry)
        reports[model.name] = verify_unit(model.name, model, verify_options)
    elif args.demo_broken:
        reports["broken-demo"] = verify_unit(
            "broken-demo", build_broken_model(), verify_options
        )
        if args.deep:
            # the conversation defects only exist in the deadlock demo
            reports["deadlock-demo"] = verify_unit(
                "deadlock-demo", build_deadlock_model(), verify_options
            )
        if args.dataflow:
            # the schema-dataflow defects only exist in the mis-typed demo
            reports["dataflow-broken-demo"] = verify_unit(
                "dataflow-broken-demo",
                build_dataflow_broken_model(),
                verify_options,
            )
    else:
        try:
            lint_all(only=args.model, reports=reports, **verify_options)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2

    failing = sum(
        len(at_or_above(report.diagnostics, args.fail_on))
        for report in reports.values()
    )

    if args.format == "json":
        payload = {
            "schema_version": LINT_SCHEMA_VERSION,
            "models": {
                label: {
                    "counts": count_by_severity(report.diagnostics),
                    "diagnostics": [d.to_dict() for d in report.diagnostics],
                    "duration_ms": round(report.duration * 1000, 3),
                    "states": {
                        "explored": report.states_explored,
                        "pruned": report.states_pruned,
                    },
                    "dataflow_routes": report.dataflow_routes,
                }
                for label, report in sorted(reports.items())
            },
            "totals": {
                "models": len(reports),
                "duration_ms": round(
                    sum(r.duration for r in reports.values()) * 1000, 3
                ),
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for label, report in sorted(reports.items()):
            print(render_text(report.diagnostics, title=label))
        if args.stats:
            print()
            print(_stats_table(reports))
        print()
        verdict = "FAIL" if failing else "OK"
        print(
            f"{verdict}: {len(reports)} model(s) linted, "
            f"{failing} diagnostic(s) at or above {args.fail_on!r}"
        )
    return 1 if failing else 0


def _stats_table(reports: dict) -> str:
    """Per-model timing and state-count table for ``lint --stats``."""
    rows = [
        {
            "model": label,
            "ms": f"{report.duration * 1000:.1f}",
            "explored": report.states_explored,
            "pruned": report.states_pruned,
            "routes": report.dataflow_routes,
        }
        for label, report in sorted(reports.items())
    ]
    return _table(
        rows, ["model", "ms", "explored", "pruned", "routes"],
        "Per-model verification stats",
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis import bench

    return bench.run(args)


def _cmd_crash(args: argparse.Namespace) -> int:
    from repro.analysis import crash

    architectures = tuple(args.arch) if args.arch else crash.ARCHITECTURES
    crash_points = (
        tuple(args.crash_point) if args.crash_point else crash.CRASH_POINTS
    )
    reports = crash.run_crash_matrix(
        architectures=architectures,
        crash_points=crash_points,
        orders=args.orders,
        seed=args.seed,
    )
    if args.json:
        print(crash.reports_json(reports))
    else:
        print(crash.render_reports(reports))
    return 0 if all(report.ok for report in reports) else 1


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be a number > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-b2b",
        description="Semantic B2B integration (Bussler reproduction) scenarios",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    trace_help = "print the runtime kernel's lifecycle event trace after the run"

    demo = subparsers.add_parser("demo", help="run the Figure 1 PO-POA round trip")
    demo.add_argument("--protocol", default="rosettanet",
                      choices=["edi-van", "rosettanet", "oagis-http", "rosettanet-ra"])
    demo.add_argument("--trace", action="store_true", help=trace_help)
    demo.set_defaults(handler=_cmd_demo)

    report = subparsers.add_parser(
        "report", help="run the Figure 15 community and print the seller report"
    )
    report.add_argument("--trace", action="store_true", help=trace_help)
    report.set_defaults(handler=_cmd_report)

    growth = subparsers.add_parser("growth", help="print the growth tables")
    growth.add_argument("--dimension",
                        choices=["protocols", "partners", "backends"])
    growth.add_argument("--values", type=int, nargs="+")
    growth.set_defaults(handler=_cmd_growth)

    changes = subparsers.add_parser(
        "changes", help="print the Section 4.5 change-impact table"
    )
    changes.set_defaults(handler=_cmd_changes)

    patterns = subparsers.add_parser(
        "patterns", help="run the four exchange patterns"
    )
    patterns.add_argument("--trace", action="store_true", help=trace_help)
    patterns.set_defaults(handler=_cmd_patterns)

    lint = subparsers.add_parser(
        "lint", help="statically verify the example integration models"
    )
    lint.add_argument(
        "--model",
        help="lint only this named target (e.g. fig14, fig15, sourcing)",
    )
    lint.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="output format (default: text)",
    )
    lint.add_argument(
        "--fail-on", default="error", choices=["error", "warning"],
        help="exit nonzero when diagnostics at/above this severity exist "
        "(default: error)",
    )
    lint.add_argument(
        "--demo-broken", action="store_true",
        help="lint a deliberately broken model instead (demonstrates the "
        "diagnostic families; with --deep also lints a deadlocking "
        "agreement to demonstrate B2B5xx counterexamples)",
    )
    lint.add_argument(
        "--deep", action="store_true",
        help="also explore every protocol's buyer/seller conversation "
        "product automaton (B2B5xx: deadlock, unspecified reception, "
        "queue overflow, orphan messages) and run the AND-parallel race "
        "analysis (B2B6xx) over every private process",
    )
    lint.add_argument(
        "--dataflow", action="store_true",
        help="also run the schema dataflow pass (B2B7xx): lower every "
        "document schema into a field-type lattice, push abstract "
        "documents through every mapping and binding-chain route, and "
        "check the inferred output against each downstream consumer",
    )
    lint.add_argument(
        "--queue-bound", type=_positive_int, default=None, metavar="N",
        help="bound on each direction's in-flight message queue during "
        "--deep exploration (default: 2); sends beyond the bound block, "
        "and a globally blocked full queue reports B2B503",
    )
    lint.add_argument(
        "--max-states", type=_positive_int, default=None, metavar="N",
        help="state budget for --deep exploration (default: 4096); when "
        "exhausted the exploration stops and reports B2B505 (truncated, "
        "results incomplete)",
    )
    lint.add_argument(
        "--time-budget", type=_positive_float, default=None, metavar="SECONDS",
        help="wall-clock budget for --deep exploration per conversation "
        "pair (default: none); exceeding it reports B2B505",
    )
    lint.add_argument(
        "--stats", action="store_true",
        help="print per-model timing and explored/pruned state counts "
        "(text format; the json format always includes them)",
    )
    lint.add_argument(
        "--registry", type=_positive_int, default=None, metavar="N",
        help="instead of the example models, lint a generated registry "
        "of N trading-partner agreements (explorations are shared per "
        "protocol)",
    )
    lint.add_argument(
        "--no-reduce", action="store_true",
        help="disable partial-order reduction in --deep exploration "
        "(debugging aid; verdicts are identical, exploration is slower)",
    )
    lint.set_defaults(handler=_cmd_lint)

    from repro.analysis.crash import ARCHITECTURES, CRASH_POINTS

    crash = subparsers.add_parser(
        "crash",
        help="kill/recover the hub at journal offsets and prove exactly-once",
    )
    crash.add_argument(
        "--arch",
        action="append",
        choices=ARCHITECTURES,
        help="architecture(s) to test (default: all)",
    )
    crash.add_argument(
        "--crash-point",
        action="append",
        choices=CRASH_POINTS,
        help="crash point(s) to simulate (default: all)",
    )
    crash.add_argument(
        "--orders", type=int, default=6,
        help="purchase orders per scenario (default: 6)",
    )
    crash.add_argument(
        "--seed", type=int, default=0,
        help="seed for the randomized crash offsets (default: 0)",
    )
    crash.add_argument(
        "--json", action="store_true", help="emit the report matrix as JSON"
    )
    crash.set_defaults(handler=_cmd_crash)

    bench = subparsers.add_parser(
        "bench", help="run the benchmark registry and check its bounds"
    )
    bench.add_argument(
        "--filter",
        help="run only benchmarks and gates whose name contains this substring",
    )
    bench.add_argument(
        "--min-time", type=float, default=0.2,
        help="minimum seconds per timed benchmark or throughput (default: 0.2)",
    )
    bench.add_argument(
        "--json", metavar="PATH",
        help="write the machine-readable results to PATH ('-' for stdout)",
    )
    bench.add_argument(
        "--check", metavar="BASELINE",
        help="check every bound against a committed baseline JSON; exit 1 "
        "when one fails (without --filter, also when one was not measured)",
    )
    bench.set_defaults(handler=_cmd_bench)
    return parser


def main(argv: Iterable[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
