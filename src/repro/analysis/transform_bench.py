"""Transformation cache benchmark.

One dimensionless number gates the transformation engine in CI:

* ``transform_cache_hit_rate`` — warm hit rate of the content-addressed
  result cache (:meth:`TransformationRegistry.enable_cache`) under a
  Zipf-distributed request stream, the canonical model of repetitive B2B
  traffic: the same purchase orders and acks arrive over and over, with
  a long tail of one-off documents.  The cache capacity covers the
  document population, so after the cold pass the hot head is served
  from memoized results.  Floor: 0.9.

A trace-parity check rides along, mirroring the sharded-hub benchmark's
deterministic invariant: a transform hub draining batchable tasks (the
kernel coalesces them into one ``run_batch`` call) must render the exact
same event trace as the one-at-a-time hub, at every shard count.
Coalescing is a scheduling detail, never an observable behaviour change.
"""

from __future__ import annotations

import random
import time
from typing import Any

from repro.documents.model import Document
from repro.documents.normalized import NORMALIZED, make_purchase_order
from repro.runtime.events import DocumentReceived
from repro.runtime.sharding import DETERMINISTIC, ShardedKernel
from repro.transform.catalog import build_standard_registry
from repro.transform.transformer import TransformationRegistry

__all__ = [
    "run_transform_benchmark",
    "measure_cache_hit_rate",
    "transform_hub_trace",
    "CACHE_HIT_RATE_FLOOR",
]

# Mirrored by SPEEDUP_FLOORS in repro.analysis.bench.
CACHE_HIT_RATE_FLOOR = 0.9

_CONTEXT = {"sender_id": "ACME", "receiver_id": "TP1", "now": 1.0}


def _document_population(registry: TransformationRegistry, count: int) -> list[Document]:
    """``count`` distinct EDI X12 purchase orders (the inbound wire docs)."""
    population = []
    for index in range(count):
        po = make_purchase_order(
            f"PO-{index:05d}",
            "TP1",
            "ACME",
            [
                {"sku": f"SKU-{index % 17}", "quantity": 1 + index % 9,
                 "unit_price": 10.0 + index},
                {"sku": "DOCK-1", "quantity": 5, "unit_price": 150.0},
            ],
        )
        population.append(registry.transform(po, "edi-x12", _CONTEXT))
    return population


def _zipf_indexes(population: int, requests: int, exponent: float, seed: int) -> list[int]:
    """A Zipf(``exponent``) sample over ``range(population)``: rank r is
    drawn with probability proportional to 1/r^exponent — a hot head of
    repeated documents with a long tail, i.e. real B2B traffic."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(population)]
    return rng.choices(range(population), weights=weights, k=requests)


def measure_cache_hit_rate(
    population: int = 50,
    requests: int = 5_000,
    exponent: float = 1.1,
    capacity: int = 4_096,
    seed: int = 7,
) -> dict[str, Any]:
    """Hit rate + cached-vs-uncached wall time on the Zipf stream.

    The stream transforms inbound EDI purchase orders to the normalized
    layout — a cacheable route (no context-reading computes) — so every
    repeat of a population document after the cold pass is a cache hit.
    """
    base = build_standard_registry()
    documents = _document_population(base, population)
    indexes = _zipf_indexes(population, requests, exponent, seed)

    uncached = build_standard_registry()
    start = time.perf_counter()
    for index in indexes:
        uncached.transform(documents[index], NORMALIZED)
    uncached_sec = time.perf_counter() - start

    cached = build_standard_registry()
    cache = cached.enable_cache(capacity)
    start = time.perf_counter()
    for index in indexes:
        cached.transform(documents[index], NORMALIZED)
    cached_sec = time.perf_counter() - start

    snapshot = cache.snapshot()
    return {
        "population": population,
        "requests": requests,
        "zipf_exponent": exponent,
        "capacity": capacity,
        "hits": snapshot["hits"],
        "misses": snapshot["misses"],
        "evictions": snapshot["evictions"],
        "bypasses": snapshot["bypasses"],
        "transform_cache_hit_rate": round(snapshot["hit_rate"], 4),
        "uncached_sec": round(uncached_sec, 4),
        "cached_sec": round(cached_sec, 4),
        "cache_speedup": round(uncached_sec / cached_sec, 2) if cached_sec else None,
    }


class _TransformHubBatcher:
    """The hub's batchable-task hook: the kernel hands it a run of
    coalesced payloads; each is transformed and its lifecycle event
    emitted in payload order — the trace-parity contract."""

    def __init__(self, kernel: ShardedKernel, registry: TransformationRegistry) -> None:
        self.kernel = kernel
        self.registry = registry
        self.batch_calls = 0
        self.processed = 0

    def run_batch(self, payloads: list[tuple[str, int, Document]]) -> None:
        self.batch_calls += 1
        for partner, sequence, document in payloads:
            result = self.registry.transform(document, NORMALIZED)
            self.processed += 1
            self.kernel.emit(
                DocumentReceived,
                "transform-hub",
                conversation_id=f"C-{sequence}",
                doc_type=result.doc_type,
                partner_id=partner,
            )


def transform_hub_trace(
    shards: int,
    batched: bool,
    messages: int = 600,
    partners: int = 16,
    population: int = 40,
    chunk: int = 150,
) -> tuple[str, dict[str, int]]:
    """Rendered trace of a deterministic transform-hub run.

    Inbound wire documents are routed to their partner's shard and
    normalized there; ``batched`` switches between one plain task per
    document and batchable tasks the drain coalesces into ``run_batch``
    calls.  Returns ``(trace, stats)``.
    """
    registry = build_standard_registry()
    registry.enable_cache()
    documents = _document_population(registry, population)
    kernel = ShardedKernel(shards=shards, mode=DETERMINISTIC)
    trace = kernel.enable_trace(capacity=4 * messages)
    batcher = _TransformHubBatcher(kernel, registry)
    partner_ids = [f"partner-{index:03d}" for index in range(partners)]
    fed = 0
    while fed < messages:
        batch = min(chunk, messages - fed)
        for offset in range(batch):
            sequence = fed + offset
            partner = partner_ids[sequence % partners]
            payload = (partner, sequence, documents[sequence % population])
            if batched:
                kernel.submit_batchable(
                    batcher, payload, label=f"transform:{partner}",
                    partner_key=partner,
                )
            else:
                kernel.submit(
                    lambda payload=payload: batcher.run_batch([payload]),
                    label=f"transform:{payload[0]}",
                    partner_key=payload[0],
                )
        kernel.drain()
        fed += batch
    # Surface the cache counters through the kernel's metrics observer.
    registry.cache.publish(kernel)
    stats = {
        "processed": batcher.processed,
        "batch_calls": batcher.batch_calls,
        "cache_hits": registry.cache.hits,
        "snapshot_events": kernel.metrics.count("transform_cache_snapshot"),
    }
    return trace.render(), stats


def _hub_parity(shard_counts: tuple[int, ...] = (1, 2, 4)) -> dict[str, Any]:
    """Batched and unbatched hub traces must agree at every shard count."""
    traces: dict[str, str] = {}
    stats: dict[str, dict[str, int]] = {}
    for shards in shard_counts:
        for batched in (False, True):
            key = f"{shards}-{'batched' if batched else 'per-doc'}"
            traces[key], stats[key] = transform_hub_trace(shards, batched)
    reference = next(iter(traces.values()))
    parity = all(trace == reference for trace in traces.values())
    coalesced = {
        key: entry["batch_calls"]
        for key, entry in stats.items()
        if key.endswith("batched")
    }
    return {
        "shard_counts": list(shard_counts),
        "trace_parity": parity,
        "batch_calls": coalesced,
        "snapshot_events_seen": all(
            entry["snapshot_events"] == 1 for entry in stats.values()
        ),
    }


def run_transform_benchmark(
    population: int = 50,
    requests: int = 5_000,
) -> dict[str, Any]:
    """Both transformation measurements in one payload (feeds the BENCH
    envelope and the standalone CI gate)."""
    cache = measure_cache_hit_rate(population=population, requests=requests)
    hub = _hub_parity()
    if not hub["trace_parity"]:
        raise RuntimeError(
            "transform hub: batched trace differs from per-document trace"
        )
    return {
        "cache": cache,
        "hub": hub,
        "transform_cache_hit_rate": cache["transform_cache_hit_rate"],
    }
