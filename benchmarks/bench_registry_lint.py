"""Registry-scale lint: deep-verify a generated partner registry.

The paper's deployment claim (§4.5–4.6) is that per-partner verification
stays tractable as the registry grows, because a new agreement reuses a
deployed public process: ``verify_model`` explores each protocol's
conversation once, however many agreements reference it.  This
benchmark times a deep lint of
:func:`repro.analysis.scenarios.build_registry_model`.

The lint of 1,000 agreements and its time budget are the
``registry_lint`` gate of the benchmark registry
(:mod:`repro.analysis.bench`), run by ``python -m repro bench``; the
one-exploration-per-protocol count is an exact tier-1 assertion in
``tests/verify/test_registry.py``.
"""

from conftest import table

from repro.analysis.scenarios import build_registry_model


def bench_registry_sweep(benchmark, report):
    """Deep lint of 300 agreements."""
    model = build_registry_model(300)
    stats: dict = {}

    def sweep():
        return model.verify(deep=True, stats=stats)

    assert not benchmark(sweep)
    report(table(
        [{
            "agreements": len(model.partners.agreements()),
            "explorations": len(stats["conversations"]),
            "states": stats["states_explored"],
            "pruned": stats["states_pruned"],
        }],
        ["agreements", "explorations", "states", "pruned"],
        "Registry lint: deep verify (shared per-protocol explorations)",
    ))
