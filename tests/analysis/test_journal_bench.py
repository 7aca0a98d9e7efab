"""The durability benchmark (:mod:`repro.analysis.journal_bench`) at small
scale: both measurements run end to end on the deterministic hub
workload and return their keys.  No bound is asserted here — a run this
small is too noisy to gate on; the ``journal`` gate of ``repro bench``
does that at full scale."""

from repro.analysis.journal_bench import measure_recovery, measure_write_overhead


def test_write_overhead_measures_a_journaled_run():
    result = measure_write_overhead(messages=2_000, repeats=1)
    assert set(result) >= {
        "messages",
        "commit_wait_sec",
        "wait_budget_sec",
        "bare_cpu_sec",
        "journaled_cpu_sec",
        "journal_write_overhead",
        "journal_write_overhead_cpu",
        "journal_cost_per_event_us",
        "records_journaled",
        "journal_bytes",
    }
    assert result["messages"] == 2_000
    assert result["records_journaled"] > 0
    assert result["journal_bytes"] > 0
    assert result["commit_wait_sec"] > 0


def test_recovery_replays_every_journaled_record():
    result = measure_recovery(events=2_000, repeats=1)
    assert set(result) >= {
        "events",
        "records_replayed",
        "recovery_sec",
        "recovery_events_per_sec",
        "recovery_time_per_1k_events_ms",
    }
    assert result["events"] > 0
    assert result["records_replayed"] == result["events"]
