"""Durability benchmarks: journal write overhead and recovery throughput.

The write-ahead journal must stay off the hub's hot path, and recovery
must replay fast enough that a hub restart is an operational non-event.
These benchmarks measure both on the same deterministic workloads the
crash harness uses (see :mod:`repro.analysis.journal_bench` for the
noise-control methodology: interleaved bare/journaled pairs, modeled
commit-wait budget, min-of-deltas estimator).

Run standalone with the performance gate::

    PYTHONPATH=src python benchmarks/bench_journal.py --gate

The gate enforces the two durability bounds declared in
:mod:`repro.analysis.bench`: journal write overhead on the calibrated
deterministic hub workload <= 15% (``CEILINGS``), and recovery
throughput >= 50k events replayed per second (``SPEEDUP_FLOORS``).
``--json PATH`` additionally writes the raw measurement payload (the
same sub-dict ``repro bench --journal`` embeds in the BENCH envelope).
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from conftest import table  # noqa: E402

from repro.analysis.bench import CEILINGS, SPEEDUP_FLOORS  # noqa: E402
from repro.analysis.journal_bench import (  # noqa: E402
    build_recovery_journal,
    run_journal_benchmark,
)
from repro.runtime.recovery import recover  # noqa: E402


def bench_journal_write_overhead(benchmark, report):
    """Journaled vs bare hub run on a small slice of the gated workload."""
    from repro.analysis.journal_bench import _hub_elapsed

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


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--messages", type=int, default=20_000,
        help="hub messages per overhead run (default: 20000)",
    )
    parser.add_argument(
        "--recovery-events", type=int, default=50_000,
        help="journal size for the recovery measurement (default: 50000)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="also write the raw measurement payload as JSON",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="enforce the write-overhead ceiling and recovery floor",
    )
    args = parser.parse_args(argv)

    payload = run_journal_benchmark(
        messages=args.messages, recovery_events=args.recovery_events
    )
    write = payload["write"]
    recovery = payload["recovery"]

    print(table(
        [{
            "messages": write["messages"],
            "records": write["records_journaled"],
            "overhead": f"{100 * write['journal_write_overhead']:.2f}%",
            "cpu_overhead": f"{100 * write['journal_write_overhead_cpu']:.1f}%",
            "us_per_event": write["journal_cost_per_event_us"],
            "bytes": write["journal_bytes"],
        }],
        ["messages", "records", "overhead", "cpu_overhead",
         "us_per_event", "bytes"],
        "Journal write overhead (deterministic hub workload)",
    ))
    print()
    print(table(
        [{
            "events": recovery["events"],
            "replayed": recovery["records_replayed"],
            "events_per_sec": f"{recovery['recovery_events_per_sec']:,.0f}",
            "ms_per_1k": recovery["recovery_time_per_1k_events_ms"],
        }],
        ["events", "replayed", "events_per_sec", "ms_per_1k"],
        "Recovery throughput (snapshot + journal-tail replay)",
    ))

    if args.json:
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\nwrote {args.json}")

    if args.gate:
        ceiling = CEILINGS["journal_write_overhead"]
        floor = SPEEDUP_FLOORS["recovery_events_per_sec"]
        problems = []
        overhead = payload["journal_write_overhead"]
        if overhead > ceiling:
            problems.append(
                f"journal write overhead {100 * overhead:.2f}% is above the "
                f"{100 * ceiling:.0f}% ceiling"
            )
        rate = payload["recovery_events_per_sec"]
        if rate < floor:
            problems.append(
                f"recovery throughput {rate:,.0f} events/s is below the "
                f"{floor:,.0f} floor"
            )
        if problems:
            print("\nJOURNAL GATE FAILED:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(
            f"\njournal gate OK (overhead <= {100 * ceiling:.0f}%, "
            f"recovery >= {floor:,.0f} events/s)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
