"""Conversation model checker: product-state-space explorer throughput.

``repro lint --deep`` explores every protocol's buyer/seller product
automaton at deployment time, so its cost is a modeling-loop latency.
These benchmarks measure explored states per second on the shipped
protocols and on a synthetic bursty pair whose interleaving space is
orders of magnitude larger than any real exchange, plus the pruning
power of partial-order reduction on that pair.

Run standalone with the performance gate::

    PYTHONPATH=src python benchmarks/bench_statespace.py --gate

The gate enforces the two registry-scale verification floors: partial-
order reduction must shrink the bursty pair's explored space >= 5x, and
calibration-normalized explorer throughput must stay above a floor set
~4x below the measured rate (machine drift cancels out in the ratio).
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from conftest import table  # noqa: E402

from repro.analysis.bench import SPEEDUP_FLOORS  # noqa: E402
from repro.b2b.protocol import extended_protocols  # noqa: E402
from repro.core.public_process import (  # noqa: E402
    PublicProcessDefinition,
    PublicStep,
)
from repro.verify.statespace import explore_pair  # noqa: E402

# Throughput floor enforced by --gate; the reduction floor is
# SPEEDUP_FLOORS["statespace_reduction_ratio"] in repro.analysis.bench.
NORMALIZED_STATES_FLOOR = 8.0


def _bursty_pair(burst: int):
    """Two sides that each fire ``burst`` sends before draining the other's
    burst — the worst interleaving blow-up a queue bound of ``burst`` allows."""
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


def bench_shipped_protocol_exploration(benchmark, report):
    """Explore every shipped protocol pair once per run; report the spaces."""
    pairs = {
        name: (protocol.buyer_process(), protocol.seller_process())
        for name, protocol in extended_protocols().items()
    }

    def explore_all():
        rows = []
        for name, (buyer, seller) in sorted(pairs.items()):
            result = explore_pair(buyer, seller)
            assert result.clean, name
            rows.append({"protocol": name, "states": result.states_explored})
        return rows

    rows = benchmark(explore_all)
    report(table(rows, ["protocol", "states"],
                 "Deep lint: conversation state spaces per shipped protocol"))


def bench_bursty_exploration_states_per_sec(benchmark, report):
    """Explorer throughput on a synthetic burst-heavy conversation."""
    burst = 6
    buyer, seller = _bursty_pair(burst)
    baseline = explore_pair(buyer, seller, queue_bound=burst)
    assert baseline.clean

    def explore():
        return explore_pair(buyer, seller, queue_bound=burst).states_explored

    states = benchmark(explore)
    stats = getattr(benchmark.stats, "stats", None)  # absent when disabled
    rate = f"{states / stats.mean:,.0f}" if stats else "n/a (--benchmark-disable)"
    report(table(
        [{"burst": burst, "states": states, "states_per_sec": rate}],
        ["burst", "states", "states_per_sec"],
        "Deep lint: explorer throughput (bursty synthetic pair)",
    ))


def bench_partial_order_reduction_ratio(benchmark, report):
    """Reduced exploration must prune the bursty space >= 5x, same verdicts."""
    burst = 8
    buyer, seller = _bursty_pair(burst)
    full = explore_pair(buyer, seller, queue_bound=burst, reduce=False)
    assert full.clean

    def reduced_explore():
        return explore_pair(buyer, seller, queue_bound=burst)

    reduced = benchmark(reduced_explore)
    assert reduced.clean
    assert reduced.states_pruned > 0
    ratio = full.states_explored / reduced.states_explored
    report(table(
        [{
            "burst": burst,
            "full_states": full.states_explored,
            "reduced_states": reduced.states_explored,
            "pruned": reduced.states_pruned,
            "ratio": f"x{ratio:.2f}",
        }],
        ["burst", "full_states", "reduced_states", "pruned", "ratio"],
        "Deep lint: partial-order reduction on the bursty pair",
    ))
    floor = SPEEDUP_FLOORS["statespace_reduction_ratio"]
    assert ratio >= floor, (
        f"partial-order reduction only x{ratio:.2f} on burst={burst} "
        f"(floor x{floor:.1f})"
    )


def bench_deadlock_counterexample(benchmark):
    """Finding the minimal deadlock trace must stay interactive-fast."""
    from repro.verify.targets import build_deadlock_model

    model = build_deadlock_model()
    buyer = model.public_processes["deadlock-buyer"]
    seller = model.public_processes["deadlock-seller"]

    def find():
        (diagnostic,) = explore_pair(buyer, seller).diagnostics
        assert diagnostic.code == "B2B501"
        return diagnostic

    benchmark(find)


def _states_per_sec(burst: int, min_time: float = 0.5) -> tuple[float, int]:
    """Raw explorer throughput: full-BFS states visited per second."""
    buyer, seller = _bursty_pair(burst)
    states = explore_pair(buyer, seller, queue_bound=burst, reduce=False)
    runs = 0
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < min_time or runs < 3:
        explore_pair(buyer, seller, queue_bound=burst, reduce=False)
        runs += 1
        elapsed = time.perf_counter() - start
    return runs * states.states_explored / elapsed, states.states_explored


def main(argv=None) -> int:
    import argparse

    from repro.analysis.bench import _calibration_spin, _spin_ops

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--burst", type=int, default=8,
        help="burst depth of the synthetic pair (default: 8)",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="enforce the reduction-ratio and normalized-throughput floors",
    )
    args = parser.parse_args(argv)

    buyer, seller = _bursty_pair(args.burst)
    full = explore_pair(buyer, seller, queue_bound=args.burst, reduce=False)
    reduced = explore_pair(buyer, seller, queue_bound=args.burst)
    if not (full.clean and reduced.clean):
        print("bursty pair is not clean", file=sys.stderr)
        return 1
    ratio = full.states_explored / reduced.states_explored

    calibration, _ = _spin_ops(_calibration_spin, 0.25)
    states_per_sec, _ = _states_per_sec(args.burst)
    normalized = states_per_sec / calibration

    print(table(
        [{
            "burst": args.burst,
            "full_states": full.states_explored,
            "reduced_states": reduced.states_explored,
            "reduction": f"x{ratio:.2f}",
            "states_per_sec": f"{states_per_sec:,.0f}",
            "normalized": f"{normalized:.2f}",
        }],
        ["burst", "full_states", "reduced_states", "reduction",
         "states_per_sec", "normalized"],
        "State-space explorer: reduction and throughput",
    ))

    if args.gate:
        reduction_floor = SPEEDUP_FLOORS["statespace_reduction_ratio"]
        problems = []
        if ratio < reduction_floor:
            problems.append(
                f"reduction ratio x{ratio:.2f} is below the "
                f"x{reduction_floor:.1f} floor"
            )
        if normalized < NORMALIZED_STATES_FLOOR:
            problems.append(
                f"normalized throughput {normalized:.2f} is below the "
                f"{NORMALIZED_STATES_FLOOR:.1f} floor"
            )
        if problems:
            print("\nSTATESPACE GATE FAILED:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(
            f"\nstatespace gate OK (reduction >= x{reduction_floor:.1f}, "
            f"normalized >= {NORMALIZED_STATES_FLOOR:.1f})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
