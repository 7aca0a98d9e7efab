"""Structure tests for the transformation benchmark harness (small scale)."""

from repro.analysis.bench import SPEEDUP_FLOORS, run_benchmarks
from repro.analysis.transform_bench import (
    CACHE_HIT_RATE_FLOOR,
    measure_cache_hit_rate,
    transform_hub_trace,
)


class TestCacheHitRate:
    def test_zipf_stream_hits_after_cold_pass(self):
        result = measure_cache_hit_rate(population=10, requests=300, capacity=64)
        assert result["hits"] + result["misses"] == 300
        assert result["misses"] >= 10  # at least one cold miss per document
        assert result["evictions"] == 0  # capacity covers the population
        assert 0.0 < result["transform_cache_hit_rate"] < 1.0

    def test_tiny_capacity_forces_evictions(self):
        result = measure_cache_hit_rate(population=10, requests=300, capacity=2)
        assert result["evictions"] > 0
        assert result["hits"] + result["misses"] == 300


class TestTransformHub:
    def test_batched_trace_matches_per_document(self):
        per_doc, per_doc_stats = transform_hub_trace(
            2, batched=False, messages=120, partners=6, population=10, chunk=40
        )
        batched, batched_stats = transform_hub_trace(
            2, batched=True, messages=120, partners=6, population=10, chunk=40
        )
        assert batched == per_doc
        assert batched_stats["processed"] == per_doc_stats["processed"] == 120
        assert batched_stats["batch_calls"] < per_doc_stats["batch_calls"]
        assert batched_stats["cache_hits"] == per_doc_stats["cache_hits"]
        assert batched_stats["snapshot_events"] == 1

    def test_shard_count_does_not_change_the_trace(self):
        one, _ = transform_hub_trace(
            1, batched=True, messages=90, partners=6, population=10, chunk=30
        )
        four, _ = transform_hub_trace(
            4, batched=True, messages=90, partners=6, population=10, chunk=30
        )
        assert one == four


class TestBenchIntegration:
    def test_floors_are_mirrored_in_the_bench_gate(self):
        assert SPEEDUP_FLOORS["transform_cache_hit_rate"] == CACHE_HIT_RATE_FLOOR

    def test_transform_rides_the_bench_payload(self):
        payload = run_benchmarks([], min_time=0.05, transform_cache=True)
        transform = payload["transform"]
        assert transform["hub"]["trace_parity"] is True
        derived = payload["derived"]
        assert derived["transform_cache_hit_rate"] == (
            transform["transform_cache_hit_rate"]
        )
