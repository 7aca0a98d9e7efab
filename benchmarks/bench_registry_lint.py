"""Registry-scale lint: sweep a generated 1k-agreement partner registry.

The paper's deployment claim (§4.5–4.6) is that per-partner verification
stays tractable as the registry grows, because explorations are shared
per protocol and verdicts are digest-cached per agreement.  This bench
measures exactly that on :func:`repro.analysis.scenarios.build_registry_model`:

* cold deep sweep of N agreements must finish within the time budget;
* a warm re-sweep with the same cache must serve >= 90% of agreements
  as digest hits;
* after editing a single agreement, the re-sweep must re-verify only
  that agreement (everything else stays a hit).

Run standalone (this is the CI ``lint-incremental`` gate)::

    PYTHONPATH=src python benchmarks/bench_registry_lint.py \
        --agreements 1000 --budget 5.0
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from conftest import table  # noqa: E402

from repro.analysis.bench import SPEEDUP_FLOORS  # noqa: E402
from repro.analysis.scenarios import build_registry_model  # noqa: E402
from repro.verify.incremental import VerificationCache  # noqa: E402
from repro.verify.registry import sweep_registry  # noqa: E402


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
    assert result.cache_hit_rate >= SPEEDUP_FLOORS["registry_lint_cache_hit_rate"]
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


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--agreements", type=int, default=1000,
        help="registry size to generate (default: 1000)",
    )
    parser.add_argument(
        "--budget", type=float, default=5.0,
        help="cold-sweep wall-clock budget in seconds (default: 5.0)",
    )
    args = parser.parse_args(argv)

    model = build_registry_model(args.agreements)
    cache = VerificationCache()

    cold = sweep_registry(model, deep=True, cache=cache)
    warm = sweep_registry(model, deep=True, cache=cache)

    # Edit exactly one agreement in place; only its verdict may go stale.
    model.partners.agreements()[0].properties["priority"] = "gold"
    after_edit = sweep_registry(model, deep=True, cache=cache)

    rows = [
        {"sweep": "cold", "verified": cold.verified, "hits": cold.cache_hits,
         "explorations": cold.explorations, "seconds": f"{cold.duration:.3f}"},
        {"sweep": "warm", "verified": warm.verified, "hits": warm.cache_hits,
         "explorations": warm.explorations, "seconds": f"{warm.duration:.3f}"},
        {"sweep": "1-edit", "verified": after_edit.verified,
         "hits": after_edit.cache_hits, "explorations": after_edit.explorations,
         "seconds": f"{after_edit.duration:.3f}"},
    ]
    print(table(
        rows, ["sweep", "verified", "hits", "explorations", "seconds"],
        f"Registry lint over {args.agreements} agreements",
    ))

    hit_floor = SPEEDUP_FLOORS["registry_lint_cache_hit_rate"]
    problems = []
    if cold.diagnostics:
        problems.append(f"cold sweep reported {len(cold.diagnostics)} diagnostics")
    if cold.duration > args.budget:
        problems.append(
            f"cold sweep took {cold.duration:.3f}s "
            f"(budget {args.budget:.1f}s)"
        )
    if warm.cache_hit_rate < hit_floor:
        problems.append(
            f"warm hit rate {warm.cache_hit_rate:.1%} is below "
            f"{hit_floor:.0%}"
        )
    if after_edit.verified != 1:
        problems.append(
            f"single-agreement edit re-verified {after_edit.verified} "
            "agreements (expected exactly 1)"
        )
    if problems:
        print("\nREGISTRY LINT GATE FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(
        f"\nregistry lint gate OK (cold {cold.duration:.3f}s <= "
        f"{args.budget:.1f}s, warm {warm.cache_hit_rate:.1%} hits, "
        "1-edit re-verified exactly 1)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
