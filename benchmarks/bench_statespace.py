"""Conversation model checker: product-state-space explorer throughput.

``repro lint --deep`` explores every protocol's buyer/seller product
automaton at deployment time, so its cost is a modeling-loop latency.
These benchmarks time the explorer on the shipped protocols and on a
synthetic bursty pair whose interleaving space is orders of magnitude
larger than any real exchange, and report the pruning power of
partial-order reduction on that pair.

The gated normalized states/s and its floor are the ``statespace`` gate
of the benchmark registry (:mod:`repro.analysis.bench`), run by
``python -m repro bench``; the reduction ratio is an exact tier-1
assertion in ``tests/verify/test_statespace.py``.
"""

from conftest import table

from repro.analysis.bench import bursty_pair
from repro.b2b.protocol import extended_protocols
from repro.verify.statespace import explore_pair


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
    buyer, seller = bursty_pair(burst)
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
    """Reduced exploration of the bursty pair: same verdict, fewer states."""
    burst = 8
    buyer, seller = bursty_pair(burst)
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
