"""Schema dataflow pass: binding routes verified per second.

``repro lint --dataflow`` pushes an abstract document through every
mapping chain at deployment time (the B2B7xx family), so its cost — like
the conversation explorer's — is a modeling-loop latency.  This
benchmark times route verification over the example fleet.

The gated routes/s and its floor are the ``dataflow`` gate of the
benchmark registry (:mod:`repro.analysis.bench`), run by
``python -m repro bench``.
"""

from conftest import table

from repro.analysis.bench import dataflow_fleet
from repro.verify.dataflow import verify_dataflow


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

