"""Registry-scale lint: sweep a generated partner registry.

The paper's deployment claim (§4.5–4.6) is that per-partner verification
stays tractable as the registry grows, because explorations are shared
per protocol.  This benchmark times a deep sweep of
:func:`repro.analysis.scenarios.build_registry_model`.

The sweep of 1,000 agreements and its time budget are the
``registry_lint`` gate of the benchmark registry
(:mod:`repro.analysis.bench`), run by ``python -m repro bench``; the
one-exploration-per-protocol count is an exact tier-1 assertion in
``tests/verify/test_registry.py``.
"""

from conftest import table

from repro.analysis.scenarios import build_registry_model
from repro.verify.registry import sweep_registry


def bench_registry_sweep(benchmark, report):
    """Deep sweep over 300 agreements."""
    model = build_registry_model(300)

    def sweep():
        return sweep_registry(model, deep=True)

    result = benchmark(sweep)
    assert not result.diagnostics
    assert result.agreements == 300
    report(table(
        [{
            "agreements": result.agreements,
            "explorations": result.explorations,
            "states": result.states_explored,
            "pruned": result.states_pruned,
        }],
        ["agreements", "explorations", "states", "pruned"],
        "Registry lint: deep sweep (shared per-protocol explorations)",
    ))
