"""Transformation benchmarks: the content-addressed result cache.

B2B traffic is repetitive: the same purchase orders and acks arrive over
and over.  A content-addressed result cache memoizes whole route
applications (see :mod:`repro.analysis.transform_bench` for the workload
models).

Run standalone with the performance gate::

    PYTHONPATH=src python benchmarks/bench_transform_cache.py --gate

The gate enforces the warm cache hit rate on the Zipf request stream
(>= 0.9) plus the trace-parity invariant: a transform hub whose kernel
coalesces batchable tasks must render the exact same event trace as the
one-document-at-a-time hub at every shard count.  ``--json PATH``
additionally writes the raw measurement payload (the same sub-dict
``repro bench --transform-cache`` embeds in the BENCH envelope).
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from conftest import table  # noqa: E402

from repro.analysis.transform_bench import (  # noqa: E402
    CACHE_HIT_RATE_FLOOR,
    _document_population,
    _zipf_indexes,
    run_transform_benchmark,
)
from repro.documents.normalized import NORMALIZED  # noqa: E402
from repro.transform.catalog import build_standard_registry  # noqa: E402

_CONTEXT = {"sender_id": "ACME", "receiver_id": "TP1", "now": 1.0}


def bench_cached_zipf_stream(benchmark, report):
    """1000 Zipf-distributed transforms against a warm result cache."""
    registry = build_standard_registry()
    registry.enable_cache()
    documents = _document_population(registry, 50)
    indexes = _zipf_indexes(50, 1_000, 1.1, seed=7)
    for document in documents:  # warm: one cold pass over the population
        registry.transform(document, NORMALIZED)

    def stream() -> None:
        for index in indexes:
            registry.transform(documents[index], NORMALIZED)

    benchmark(stream)
    snapshot = registry.cache.snapshot()
    report(table(
        [{
            "hits": snapshot["hits"],
            "misses": snapshot["misses"],
            "hit_rate": f"{snapshot['hit_rate']:.4f}",
            "entries": snapshot["entries"],
        }],
        ["hits", "misses", "hit_rate", "entries"],
        "Cache counters after the benchmark run (warm population)",
    ))


def bench_per_document_inbound(benchmark, report):
    """Uncached per-document transforms of 100 distinct inbound documents."""
    registry = build_standard_registry()
    documents = _document_population(registry, 100)
    [registry.transform(document, NORMALIZED, _CONTEXT) for document in documents]

    def loop() -> None:
        for document in documents:
            registry.transform(document, NORMALIZED, _CONTEXT)

    benchmark(loop)
    report(table(
        [{"documents": len(documents), "route": "edi-x12 -> normalized"}],
        ["documents", "route"],
        "Uncached per-document transforms (no cache attached)",
    ))


def main(argv=None) -> int:
    import argparse
    import json
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--requests", type=int, default=5_000,
        help="Zipf requests for the hit-rate measurement (default: 5000)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="also write the raw measurement payload as JSON",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="enforce the hit-rate floor and hub trace parity",
    )
    args = parser.parse_args(argv)

    payload = run_transform_benchmark(requests=args.requests)
    cache = payload["cache"]
    hub = payload["hub"]

    print(table(
        [{
            "population": cache["population"],
            "requests": cache["requests"],
            "hits": cache["hits"],
            "misses": cache["misses"],
            "hit_rate": cache["transform_cache_hit_rate"],
            "speedup": f"x{cache['cache_speedup']}",
        }],
        ["population", "requests", "hits", "misses", "hit_rate", "speedup"],
        "Content-addressed cache on the Zipf stream",
    ))
    print()
    print(table(
        [{
            "shard_counts": ",".join(map(str, hub["shard_counts"])),
            "trace_parity": hub["trace_parity"],
            "batch_calls": ",".join(
                str(calls) for calls in hub["batch_calls"].values()
            ),
        }],
        ["shard_counts", "trace_parity", "batch_calls"],
        "Transform hub: batched vs per-document trace parity",
    ))

    if args.json:
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\nwrote {args.json}")

    if args.gate:
        problems = []
        hit_rate = payload["transform_cache_hit_rate"]
        if hit_rate < CACHE_HIT_RATE_FLOOR:
            problems.append(
                f"cache hit rate {hit_rate:.4f} is below the "
                f"{CACHE_HIT_RATE_FLOOR:.2f} floor"
            )
        if not hub["trace_parity"]:
            problems.append("batched hub trace differs from per-document trace")
        if problems:
            print("\nTRANSFORM GATE FAILED:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(
            f"\ntransform gate OK (hit rate >= {CACHE_HIT_RATE_FLOOR:.2f}, "
            "trace parity)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
