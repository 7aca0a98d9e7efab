"""Registry-scale lint: sweep a generated partner registry.

The paper's deployment claim (§4.5–4.6) is that per-partner verification
stays tractable as the registry grows, because explorations are shared
per protocol and verdicts are digest-cached per agreement.  These
benchmarks time a cold and a warm deep sweep of
:func:`repro.analysis.scenarios.build_registry_model`.

The cold sweep of 1,000 agreements and its time budget are the
``registry_lint`` gate of the benchmark registry
(:mod:`repro.analysis.bench`), run by ``python -m repro bench``; the
warm hit rate and the one-edit re-verify count are exact tier-1
assertions in ``tests/verify/test_registry.py``.
"""

from conftest import table

from repro.analysis.scenarios import build_registry_model
from repro.verify.incremental import VerificationCache
from repro.verify.registry import sweep_registry


def bench_registry_sweep_cold(benchmark, report):
    """Cold deep sweep (fresh cache every round) over 300 agreements."""
    model = build_registry_model(300)

    def cold_sweep():
        return sweep_registry(model, deep=True)

    result = benchmark(cold_sweep)
    assert not result.diagnostics
    assert result.verified == result.agreements == 300
    report(table(
        [{
            "agreements": result.agreements,
            "explorations": result.explorations,
            "states": result.states_explored,
            "pruned": result.states_pruned,
        }],
        ["agreements", "explorations", "states", "pruned"],
        "Registry lint: cold deep sweep (shared per-protocol explorations)",
    ))


def bench_registry_sweep_warm(benchmark, report):
    """Warm re-sweep: every agreement digest-matched from the cache."""
    model = build_registry_model(300)
    cache = VerificationCache()
    sweep_registry(model, deep=True, cache=cache)

    def warm_sweep():
        return sweep_registry(model, deep=True, cache=cache)

    result = benchmark(warm_sweep)
    assert result.explorations == 0
    report(table(
        [{
            "agreements": result.agreements,
            "cache_hits": result.cache_hits,
            "hit_rate": f"{result.cache_hit_rate:.1%}",
        }],
        ["agreements", "cache_hits", "hit_rate"],
        "Registry lint: warm re-sweep (digest cache)",
    ))
