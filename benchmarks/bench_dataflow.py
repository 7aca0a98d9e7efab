"""Schema dataflow pass: binding routes verified per second.

``repro lint --dataflow`` pushes an abstract document through every
mapping chain at deployment time (the B2B7xx family), so its cost — like
the conversation explorer's — is a modeling-loop latency.  These
benchmarks time route verification over the example fleet and a warm
registry re-sweep through the chain-fingerprint verdict cache.

The gated routes/s and its floor are the ``dataflow`` gate of the
benchmark registry (:mod:`repro.analysis.bench`), run by
``python -m repro bench``; the warm hit rate and the one-edit re-verify
count are exact tier-1 assertions in ``tests/verify/test_dataflow.py``.
"""

from conftest import table

from repro.analysis.bench import dataflow_fleet
from repro.analysis.scenarios import build_registry_model
from repro.verify.dataflow import verify_dataflow
from repro.verify.incremental import VerificationCache
from repro.verify.registry import sweep_registry


def bench_dataflow_fleet(benchmark, report):
    """Full dataflow verification of every example model with routes."""
    models = dataflow_fleet()

    def verify_fleet():
        for unit, _count in models:
            if any(
                d.severity == "error" for d in verify_dataflow(unit)
            ):
                raise RuntimeError("example fleet is not dataflow-clean")

    benchmark(verify_fleet)
    report(table(
        [{"models": len(models),
          "routes": sum(count for _unit, count in models)}],
        ["models", "routes"],
        "Dataflow: abstract interpretation over the example fleet",
    ))


def bench_dataflow_registry_warm(benchmark, report):
    """Warm registry re-sweep: route verdicts from the digest cache."""
    model = build_registry_model(250)
    cache = VerificationCache()
    sweep_registry(model, deep=False, dataflow=True, cache=cache)

    def warm_sweep():
        return sweep_registry(model, deep=False, dataflow=True, cache=cache)

    result = benchmark(warm_sweep)
    report(table(
        [{
            "routes": result.dataflow_routes,
            "hits": result.route_cache_hits,
            "hit_rate": f"{result.route_cache_hit_rate:.1%}",
        }],
        ["routes", "hits", "hit_rate"],
        "Dataflow: warm registry re-sweep (chain-fingerprint cache)",
    ))
