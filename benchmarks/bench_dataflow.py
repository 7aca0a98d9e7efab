"""Schema dataflow pass: binding routes verified per second.

``repro lint --dataflow`` pushes an abstract document through every
mapping chain at deployment time (the B2B7xx family), so its cost — like
the conversation explorer's — is a modeling-loop latency.  These
benchmarks measure route-verification throughput over the example fleet
and the effectiveness of the chain-fingerprint verdict cache on a
registry-scale sweep.

Run standalone with the performance gate::

    PYTHONPATH=src python benchmarks/bench_dataflow.py --gate

The gate enforces the two dataflow floors declared in SPEEDUP_FLOORS of
``repro.analysis.bench``: >= 200 routes verified per second across the
example models, and >= 90% of route verdicts served from the digest
cache on a warm registry re-sweep.  It also proves the incremental
contract: editing one catalog mapping re-verifies only the routes whose
chains contain it.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from conftest import table  # noqa: E402

from repro.analysis.bench import SPEEDUP_FLOORS  # noqa: E402
from repro.analysis.scenarios import build_registry_model  # noqa: E402
from repro.transform.mapping import Const  # noqa: E402
from repro.verify.dataflow import (  # noqa: E402
    iter_binding_routes,
    verify_dataflow,
)
from repro.verify.incremental import VerificationCache  # noqa: E402
from repro.verify.registry import sweep_registry  # noqa: E402
from repro.verify.targets import lint_units  # noqa: E402



def _fleet():
    """Every example lint unit that owns binding routes, with its count."""
    models = []
    for label, unit in lint_units(None).items():
        if not hasattr(unit, "transforms"):
            continue
        routes = len(list(iter_binding_routes(unit)))
        if routes:
            models.append((label, unit, routes))
    return models


def _routes_per_sec(min_time: float = 1.0) -> tuple[float, int]:
    models = _fleet()
    per_pass = sum(count for _label, _unit, count in models)
    for _label, unit, _count in models:  # warm-up: lazy imports, lattices
        verify_dataflow(unit)
    passes = 0
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < min_time or passes < 3:
        for _label, unit, _count in models:
            verify_dataflow(unit)
        passes += 1
        elapsed = time.perf_counter() - start
    return per_pass * passes / elapsed, per_pass


def bench_dataflow_fleet(benchmark, report):
    """Full dataflow verification of every example model with routes."""
    models = _fleet()

    def verify_fleet():
        for _label, unit, _count in models:
            if any(
                d.severity == "error" for d in verify_dataflow(unit)
            ):
                raise RuntimeError("example fleet is not dataflow-clean")

    benchmark(verify_fleet)
    report(table(
        [{"models": len(models),
          "routes": sum(count for _l, _u, count in models)}],
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
    assert result.route_cache_hit_rate >= SPEEDUP_FLOORS["dataflow_route_cache_hit_rate"]
    report(table(
        [{
            "routes": result.dataflow_routes,
            "hits": result.route_cache_hits,
            "hit_rate": f"{result.route_cache_hit_rate:.1%}",
        }],
        ["routes", "hits", "hit_rate"],
        "Dataflow: warm registry re-sweep (chain-fingerprint cache)",
    ))


def main(argv=None) -> int:
    import argparse
    import json
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--agreements", type=int, default=250,
        help="registry size for the cache sweep (default: 250)",
    )
    parser.add_argument(
        "--min-time", type=float, default=1.0,
        help="minimum seconds for the throughput measurement (default: 1.0)",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="enforce the routes/sec and warm hit-rate floors (exit 1)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="also write the raw measurement payload as JSON",
    )
    args = parser.parse_args(argv)

    routes_per_sec, fleet_routes = _routes_per_sec(args.min_time)

    model = build_registry_model(args.agreements)
    cache = VerificationCache()
    cold = sweep_registry(model, deep=False, dataflow=True, cache=cache)
    warm = sweep_registry(model, deep=False, dataflow=True, cache=cache)

    # Edit one catalog mapping in place: only the routes whose chains
    # contain it may re-verify; every other verdict must stay a hit.
    edited = next(iter(model.transforms.mappings()))
    edited.rules.append(Const("trailer.note", "bench-edit"))
    after_edit = sweep_registry(model, deep=False, dataflow=True, cache=cache)

    rows = [
        {"sweep": "cold", "routes": cold.dataflow_routes,
         "verified": cold.routes_verified, "hits": cold.route_cache_hits,
         "seconds": f"{cold.duration:.3f}"},
        {"sweep": "warm", "routes": warm.dataflow_routes,
         "verified": warm.routes_verified, "hits": warm.route_cache_hits,
         "seconds": f"{warm.duration:.3f}"},
        {"sweep": "1-edit", "routes": after_edit.dataflow_routes,
         "verified": after_edit.routes_verified,
         "hits": after_edit.route_cache_hits,
         "seconds": f"{after_edit.duration:.3f}"},
    ]
    print(table(
        rows, ["sweep", "routes", "verified", "hits", "seconds"],
        f"Dataflow sweep over {args.agreements} agreements",
    ))
    print(
        f"\nfleet throughput: {routes_per_sec:,.1f} routes/s "
        f"({fleet_routes} routes per pass)"
    )
    print(f"warm route hit rate: {warm.route_cache_hit_rate:.1%}")

    payload = {
        "schema": "repro-bench/1",
        "label": "DATAFLOW",
        "fleet": {"routes": fleet_routes},
        "registry": {
            "agreements": args.agreements,
            "cold_routes_verified": cold.routes_verified,
            "warm_route_cache_hits": warm.route_cache_hits,
            "after_edit_routes_verified": after_edit.routes_verified,
        },
        "derived": {
            "dataflow_routes_per_sec": round(routes_per_sec, 1),
            "dataflow_route_cache_hit_rate": round(
                warm.route_cache_hit_rate, 4
            ),
        },
    }
    if args.json:
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\nwrote {args.json}")

    if args.gate:
        routes_floor = SPEEDUP_FLOORS["dataflow_routes_per_sec"]
        hit_floor = SPEEDUP_FLOORS["dataflow_route_cache_hit_rate"]
        problems = []
        if cold.diagnostics:
            problems.append(
                f"cold sweep reported {len(cold.diagnostics)} diagnostics"
            )
        if routes_per_sec < routes_floor:
            problems.append(
                f"fleet throughput {routes_per_sec:.1f} routes/s is below "
                f"the {routes_floor:.0f}/s floor"
            )
        if warm.route_cache_hit_rate < hit_floor:
            problems.append(
                f"warm route hit rate {warm.route_cache_hit_rate:.1%} is "
                f"below {hit_floor:.0%}"
            )
        if not 0 < after_edit.routes_verified < after_edit.dataflow_routes:
            problems.append(
                f"single-mapping edit re-verified "
                f"{after_edit.routes_verified} of "
                f"{after_edit.dataflow_routes} routes (expected a strict "
                "subset, at least one)"
            )
        if problems:
            print("\nDATAFLOW GATE FAILED:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(
            f"\ndataflow gate OK ({routes_per_sec:,.0f} routes/s >= "
            f"{routes_floor:.0f}, warm "
            f"{warm.route_cache_hit_rate:.1%} hits, 1-edit re-verified "
            f"{after_edit.routes_verified}/{after_edit.dataflow_routes})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
