"""Run one workload of the order-exchange benchmark.

    python3 perfbench/run.py --workload steady_rn --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation loaded; ``--trace 1`` alternates traced
and untraced rounds and reports the per-layer breakdown and the tracing
overhead.  A human-readable report goes to stderr; the last line on
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when an output check fails and 2 when
the hub's sources are missing.  See README.md for what each metric
means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, unit, better, bound) of every end-to-end metric
END_TO_END = (
    ("orders_per_s", "1/s", "higher", 0.15),
    ("order_latency_p50_ms", "ms", "lower", 0.2),
    ("order_latency_p99_ms", "ms", "lower", 0.25),
    ("cycle_time_p50_s", "s", "lower", 0.1),
    ("cycle_time_p99_s", "s", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# per-layer metrics that are not a wrapped function's calls/self time
LAYER_EXTRAS = (
    ("documents.wire_bytes", "B/order", "lower"),
    ("core.integration.open_conversations_peak", "count", "lower"),
    ("messaging.reliable.retries", "count/order", "lower"),
    ("messaging.reliable.duplicates_suppressed", "count/order", "lower"),
    ("messaging.van.mailbox_depth_peak", "count", "lower"),
    ("runtime.journal.bytes", "B/order", "lower"),
    ("runtime.recovery_s", "s", "lower"),
    ("runtime.recovery.events_per_s", "1/s", "higher"),
    ("sim.events_fired", "count/order", "lower"),
    ("untraced.self_ms", "ms/order", "lower"),
    ("trace.wall_ms", "ms/order", "lower"),
    ("trace.traced_orders_per_s", "1/s", "higher"),
    ("trace.untraced_orders_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "x", "lower"),
    ("host.calibration_unit_ms", "ms", "lower"),
    ("host.raw_orders_per_s", "1/s", "higher"),
)

# the run fails when the wrapped layers leave more than this share of the
# traced wall time to the untraced remainder: the wrappers no longer
# cover the hub's work
MAX_UNTRACED = 0.05


def layer_function_names() -> list[str]:
    from perfbench.tracer import JOURNAL_WRITE, LAYER_FUNCTIONS

    names = list(dict.fromkeys(spec.name for spec in LAYER_FUNCTIONS))
    names.insert(names.index("sim.run_until_idle"), JOURNAL_WRITE)
    return names


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in layer_function_names():
        spec.append((f"{name}.calls", "calls/order", "lower"))
        spec.append((f"{name}.self_ms", "ms/order", "lower"))
    spec.extend(LAYER_EXTRAS)
    return spec


def benchmark_spec(run_seconds: int) -> dict:
    """The content of BENCHMARK.json."""
    from perfbench.workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer_spec()
        ],
    }


def _percentile(values: list[float], percent: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def _rate(result) -> float:
    """Host-normalized orders per second of one round."""
    return result.completed / (result.wall_s * result.host_factor)


def end_to_end_metrics(rounds: list, batches: int
                       ) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end values and the sample count behind each."""
    latencies = sum(len(result.latencies_ms) for result in rounds)
    # logical-clock times repeat for a seed only over the first batches
    cycle_times = [value for result in rounds[:batches] for value in result.cycle_times_s]
    # Latency percentiles are taken within each round, then the median
    # over rounds: pooled, one slow burst would fill the whole p99 tail.
    values = {
        "orders_per_s": statistics.median(_rate(result) for result in rounds),
        "order_latency_p50_ms": statistics.median(
            statistics.median(result.latencies_ms) * result.host_factor
            for result in rounds),
        "order_latency_p99_ms": statistics.median(
            _percentile(result.latencies_ms, 99) * result.host_factor
            for result in rounds),
        "cycle_time_p50_s": statistics.median(cycle_times),
        "cycle_time_p99_s": _percentile(cycle_times, 99),
        "setup_s": statistics.median(result.setup_s * result.host_factor
                                     for result in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "orders_per_s": len(rounds),
        "order_latency_p50_ms": latencies,
        "order_latency_p99_ms": latencies,
        "cycle_time_p50_s": len(cycle_times),
        "cycle_time_p99_s": len(cycle_times),
        "setup_s": len(rounds),
        "peak_rss_mb": 1,
    }
    return values, samples


def per_layer_metrics(rounds: list, batches: int) -> tuple[dict[str, float], float]:
    """Per-order layer values from the traced rounds, and the share of the
    traced wall time the spans account for.

    Counts come from the traced rounds of the first ``batches`` batches,
    so they are fixed for a seed; times come from every traced round.
    """
    traced = [result for result in rounds if result.traced]
    untraced = [result for result in rounds if not result.traced]
    orders = sum(result.completed for result in traced)
    reference = traced[:batches]
    reference_orders = sum(result.completed for result in reference)

    def self_ms(names) -> float:
        return sum(result.layer_self_ns.get(name, 0) * result.host_factor
                   for result in traced for name in names) / 1e6 / orders

    values: dict[str, float] = {}
    for name in layer_function_names():
        values[f"{name}.calls"] = sum(
            result.layer_calls.get(name, 0) for result in reference) / reference_orders
        values[f"{name}.self_ms"] = self_ms([name])
    for name in ("documents.wire_bytes", "messaging.reliable.retries",
                 "messaging.reliable.duplicates_suppressed", "runtime.journal.bytes",
                 "sim.events_fired"):
        values[name] = sum(
            result.counts.get(name, 0) for result in reference) / reference_orders
    for name in ("core.integration.open_conversations_peak",
                 "messaging.van.mailbox_depth_peak"):
        values[name] = max(result.counts[name] for result in reference)
    recovery_s = [result.recovery_s * result.host_factor for result in rounds]
    values["runtime.recovery_s"] = statistics.median(recovery_s)
    values["runtime.recovery.events_per_s"] = (
        sum(result.recovery_events for result in rounds) / sum(recovery_s)
        if sum(recovery_s) else 0.0
    )
    wall_ms = sum(result.wall_s * result.host_factor for result in traced) * 1000.0
    values["untraced.self_ms"] = self_ms(["order", "burst"])
    values["trace.wall_ms"] = wall_ms / orders
    traced_rate = statistics.median(_rate(result) for result in traced)
    untraced_rate = statistics.median(_rate(result) for result in untraced)
    values["trace.traced_orders_per_s"] = traced_rate
    values["trace.untraced_orders_per_s"] = untraced_rate
    values["trace.overhead_ratio"] = untraced_rate / traced_rate
    values["host.calibration_unit_ms"] = statistics.median(
        result.calibration_unit_ms for result in rounds
    )
    values["host.raw_orders_per_s"] = statistics.median(
        result.completed / result.wall_s for result in untraced
    )
    all_names = {name for result in traced for name in result.layer_self_ns}
    accounted = self_ms(all_names) * orders / wall_ms
    return values, accounted


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no hub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer

        # before anything builds a protocol (see Tracer.install)
        tracer = Tracer()
        tracer.install()
    from perfbench.workloads import BATCHES, WORKLOADS, measure

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench"
    rounds = measure(workload, args.seed, args.seconds, workdir / "work", tracer)

    problems = [problem for result in rounds for problem in result.problems]
    attempted = sum(result.attempted for result in rounds)
    failed = sum(result.failed for result in rounds)
    lines = [
        f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
        f"{len(rounds)} rounds of {workload.orders_per_round} orders "
        f"(counts and cycle times from the first {BATCHES} batches)",
        f"  failed_share = {failed / attempted:.6f} ({failed} of {attempted} orders)",
    ]
    if tracer is None:
        values, samples = end_to_end_metrics(rounds, BATCHES)
        units = {name: unit for name, unit, _, _ in END_TO_END}
        for name, value in values.items():
            lines.append(f"  {name} = {value:.6g} {units[name]} (n={samples[name]})")
        recovery = [result.recovery_s * result.host_factor
                    for result in rounds if result.recovery_events]
        if recovery:
            lines.append(f"  recovery_s = {statistics.median(recovery):.6g} s "
                         f"(n={len(recovery)})")
        raw_rate = statistics.median(result.completed / result.wall_s for result in rounds)
        factors = [result.host_factor for result in rounds]
        lines.append(f"  raw orders_per_s = {raw_rate:.6g} 1/s; host factor "
                     f"{min(factors):.3f}-{max(factors):.3f}")
    else:
        values, accounted = per_layer_metrics(rounds, BATCHES)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        for name, value in values.items():
            idle = " (not exercised here)" if name.startswith(workload.idle) else ""
            lines.append(f"  {name} = {value:.6g} {units[name]}{idle}")
        untraced_share = values["untraced.self_ms"] / values["trace.wall_ms"]
        lines.append(
            f"  spans: {len(tracer.spans)}; layer self time + untraced remainder = "
            f"{accounted:.2%} of traced wall time; untraced remainder "
            f"{untraced_share:.2%}; tracing overhead "
            f"{(values['trace.overhead_ratio'] - 1) * 100:.1f}% of untraced orders/s"
        )
        if untraced_share > MAX_UNTRACED:
            problems.append(f"the untraced remainder is {untraced_share:.2%} of the "
                            f"traced wall time (at most {MAX_UNTRACED:.0%})")
        # one file per workload: the latest traced run's spans
        spans_path = workdir / f"spans-{workload.name}.jsonl"
        tracer.write_spans(spans_path)
        lines.append(f"  spans written to {spans_path.relative_to(ROOT)}")
    lines.append(f"  output checks: {'passed' if not problems else 'FAILED'}")
    lines.extend(f"    {problem}" for problem in problems[:20])
    print("\n".join(lines), file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
