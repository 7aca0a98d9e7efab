"""Durability benchmarks: journal write overhead and recovery throughput.

The write-ahead journal must stay off the hub's hot path, and recovery
must replay fast enough that a hub restart is an operational non-event.
These benchmarks time both on small slices of the deterministic hub
workload (see :mod:`repro.analysis.journal_bench`).  The gated numbers
and their bounds are the ``journal`` gate of the benchmark registry
(:mod:`repro.analysis.bench`), run by ``python -m repro bench``.
"""

import shutil
import tempfile
from pathlib import Path

from conftest import table

from repro.analysis.journal_bench import _hub_elapsed, build_recovery_journal
from repro.runtime.recovery import recover


def bench_journal_write_overhead(benchmark, report):
    """Journaled vs bare hub run on a small slice of the gated workload."""
    workdir = Path(tempfile.mkdtemp(prefix="bench-journal-"))
    runs = {"index": 0}

    def journaled_run():
        runs["index"] += 1
        return _hub_elapsed(5_000, 64, workdir / f"run-{runs['index']}")

    try:
        benchmark(journaled_run)
        bare = _hub_elapsed(5_000, 64, None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(table(
        [{"messages": 5_000, "bare_sec": f"{bare:.4f}"}],
        ["messages", "bare_sec"],
        "Journal: bare reference run (compare against timing table above)",
    ))


def bench_recovery_replay(benchmark, report):
    """Full recover() — scan, checksum, decode, fold — over a 20k journal."""
    workdir = Path(tempfile.mkdtemp(prefix="bench-recovery-"))
    journal_dir = workdir / "journal"
    events = build_recovery_journal(journal_dir, 20_000)

    try:
        recovered = benchmark(lambda: recover(journal_dir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(table(
        [{
            "events": events,
            "records": len(recovered.records),
            "replayed": recovered.replayed,
        }],
        ["events", "records", "replayed"],
        "Recovery: records replayed per invocation",
    ))
