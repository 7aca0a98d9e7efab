"""Paired parent/change runs of the end-to-end benchmark, written as a BENCH record.

    python benchmarks/e2e_pairs.py --parent HEAD --out BENCH_<change>.json \\
        --change "what the change does"
    python benchmarks/e2e_pairs.py --smoke --parent <merge base>

Run from the repository root.  The parent side is the ``--parent``
revision exported with ``git archive``; the change side is a copy of the
working tree (every tracked or untracked, not ignored file).  Each side
runs from its own fresh directory, so the two never share ``src/``,
bytecode or benchmark output.  The script refuses to run when
``perfbench/`` or ``BENCHMARK.json`` differ between the sides: the
comparison would then measure the benchmark, not the hub.

Every workload of ``BENCHMARK.json`` runs 10 pairs, seeds 1-10, each
seed on both sides with the spec's command and ``run_seconds``, the
parent first on odd seeds and the change first on even seeds.  A run
counts only if it exits 0 and its result line says ``"correct": true``;
any other run stops the script, so every run in a record passed the
benchmark's output checks.  For every end-to-end metric the record
holds both sides' runs, medians and quartiles
(``statistics.quantiles(method='inclusive')``), the relative change of
the medians, the pairs the change won or tied, the parent's IQR and
whether the change stays within the metric's bound.  A traced
(``--trace 1``) pair on seed 3 adds every per-layer metric of both
sides, in calls, ms or bytes per order, whether every ``*.calls``
metric and ``documents.wire_bytes`` is identical, and the names of those
that differ.

``--smoke`` is the short check CI runs against the merge base: 3 pairs
of 10 s runs of ``steady_rn`` only, with no traced pair and no record
written.  It exits 1 when the change loses every pair by more than the
``orders_per_s`` bound of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = "BENCHMARK.json"
SEEDS = range(1, 11)
TRACE_SEED = 3
SMOKE_WORKLOAD = "steady_rn"
SMOKE_SEEDS = range(1, 4)
SMOKE_SECONDS = 10


def export_revision(revision: str, dest: Path) -> str:
    """Extract ``revision`` into ``dest`` with ``git archive``; return its commit id."""
    commit = _git("rev-parse", "--verify", f"{revision}^{{commit}}").decode().strip()
    dest.mkdir(parents=True, exist_ok=True)
    archive = _git("archive", "--format=tar", commit)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def copy_working_tree(dest: Path) -> None:
    """Copy every tracked or untracked, not ignored file of the working tree."""
    listing = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listing.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # tracked files deleted in the working tree are skipped
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def benchmark_differences(parent: Path, change: Path) -> list[str]:
    """Files of ``perfbench/`` and ``BENCHMARK.json`` that differ between the sides."""
    def files(root: Path) -> set[str]:
        found = {SPEC} if (root / SPEC).is_file() else set()
        for path in (root / "perfbench").rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                found.add(path.relative_to(root).as_posix())
        return found

    parent_files, change_files = files(parent), files(change)
    differing = sorted(parent_files ^ change_files)
    differing += sorted(
        name for name in parent_files & change_files
        if not filecmp.cmp(parent / name, change / name, shallow=False)
    )
    return differing


def run_benchmark(side: Path, command: list[str], workload: str, seed: int,
                  seconds: float, trace: int) -> dict:
    """Run one benchmark process in ``side``; return its JSON result line.

    Raises ``RuntimeError`` unless the run exits 0 and reports itself
    correct: a run that fails its output checks is not a measurement.
    """
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", f"{seconds:g}", "--trace", str(trace)]
    process = subprocess.run(argv, cwd=side, capture_output=True, text=True)
    lines = process.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if process.returncode == 0 and lines else {}
    if result.get("correct") is not True:
        tail = "\n".join(process.stderr.strip().splitlines()[-10:])
        raise RuntimeError(f"{' '.join(argv)} in {side} exited {process.returncode} "
                           f"without a correct result:\n{tail}")
    return result


def _quartiles(runs: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Summarize paired runs of one metric: both sides' runs, medians and
    quartiles, the relative change of the medians, wins, ties, the parent's
    IQR and whether the change stays within ``bound``."""
    sides = {}
    for name, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = _quartiles(runs)
        sides[name] = {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
                       "runs": [round(value, 4) for value in runs]}
    parent_median = _quartiles(parent)[1]
    change_median = _quartiles(change)[1]
    relative = change_median / parent_median - 1 if parent_median else 0.0
    higher = better == "higher"
    wins = sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p))
    q1, _, q3 = _quartiles(parent)
    return {
        **sides,
        "median_change": round(relative, 4),
        "change_wins": wins,
        "ties": sum(1 for p, c in zip(parent, change) if p == c),
        "pairs": len(parent),
        "parent_iqr": round(q3 - q1, 4),
        "within_bound": relative >= -bound if higher else relative <= bound,
    }


def host_description() -> str:
    model = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return (f"{os.cpu_count()} CPU {model}, Python {platform.python_version()}; "
            "wall times host-normalized by perfbench/hostspeed.py")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--change", default="", help="one line on what the change does")
    parser.add_argument("--out", type=Path, help="the BENCH record to write")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{len(SMOKE_SEEDS)} pairs of {SMOKE_SECONDS} s on "
                             f"{SMOKE_WORKLOAD}; exit 1 if the change loses every pair "
                             "by more than the orders_per_s bound; writes no record")
    args = parser.parse_args(argv)
    if not args.smoke and args.out is None:
        parser.error("--out is required unless --smoke is given")

    spec = json.loads((ROOT / SPEC).read_text())
    with tempfile.TemporaryDirectory(prefix="e2e-pairs-") as workdir:
        sides = {"parent": Path(workdir) / "parent", "change": Path(workdir) / "change"}
        commit = export_revision(args.parent, sides["parent"])
        copy_working_tree(sides["change"])
        differing = benchmark_differences(sides["parent"], sides["change"])
        if differing:
            print("e2e_pairs: refusing to compare; the benchmark itself differs between "
                  f"{commit[:12]} and the working tree: {', '.join(differing)}", file=sys.stderr)
            return 2
        if args.smoke:
            return smoke(spec, sides)
        record = {
            "change": args.change,
            "parent_revision": commit,
            "command": " ".join(spec["command"]) + " --workload <w> --seed <s> "
                       f"--seconds {spec['run_seconds']:g} --trace 0",
            "host": host_description(),
            "method": (
                f"{len(SEEDS)} pairs per workload, seeds {SEEDS[0]}-{SEEDS[-1]}, same seed on "
                "both sides of a pair, parent first on odd seeds and change first on even "
                "seeds; each side runs from a fresh copy (parent: git archive of the parent "
                "revision, change: the working tree), and perfbench/ and BENCHMARK.json are "
                "identical on both; every run exited 0 with correct: true (any other run "
                "stops the script); quartiles are statistics.quantiles(method='inclusive') "
                f"over the runs; a traced (--trace 1) pair on seed {TRACE_SEED} gives the "
                "per-layer numbers, in calls, ms or bytes per order"
            ),
            "workloads": {},
        }
        for workload in spec["workloads"]:
            record["workloads"][workload["name"]] = _measure_workload(
                spec, sides, workload["name"]
            )
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"e2e_pairs: wrote {args.out}", file=sys.stderr)
    return 0


def run_pairs(spec: dict, sides: dict[str, Path], workload: str, seeds: range,
              seconds: float) -> dict[str, list[dict]]:
    """Untraced runs of ``workload`` on both sides, one pair per seed, the
    parent first on odd seeds and the change first on even seeds."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            result = run_benchmark(sides[side], spec["command"], workload, seed, seconds, 0)
            runs[side].append(result)
            rate = result["metrics"]["orders_per_s"]["value"]
            print(f"e2e_pairs: {workload} seed={seed} {side}: {rate:.1f} orders/s, "
                  f"{result['failed']} failed", file=sys.stderr)
    return runs


def smoke(spec: dict, sides: dict[str, Path]) -> int:
    """The CI check: 1 when the change loses every smoke pair by more than
    the ``orders_per_s`` bound, else 0."""
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "orders_per_s")
    runs = run_pairs(spec, sides, SMOKE_WORKLOAD, SMOKE_SEEDS, SMOKE_SECONDS)
    rates = {side: [r["metrics"]["orders_per_s"]["value"] for r in runs[side]]
             for side in runs}
    lost = sum(1 for parent, change in zip(rates["parent"], rates["change"])
               if change < parent * (1 - bound))
    failed = lost == len(SMOKE_SEEDS)
    print(f"e2e_pairs: smoke check {'fails' if failed else 'passes'}: the change lost "
          f"{lost} of {len(SMOKE_SEEDS)} {SMOKE_WORKLOAD} pairs by more than the "
          f"orders_per_s bound ({bound:.0%})", file=sys.stderr)
    return 1 if failed else 0


def _measure_workload(spec: dict, sides: dict[str, Path], workload: str) -> dict:
    seconds = spec["run_seconds"]
    runs = run_pairs(spec, sides, workload, SEEDS, seconds)
    summary: dict = {
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
    }
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        summary[name] = {"unit": metric["unit"], "better": metric["better"],
                         "bound": metric["bound"],
                         **compare(values["parent"], values["change"],
                                   metric["better"], metric["bound"])}
    layers = {}
    for side in ("parent", "change"):
        result = run_benchmark(sides[side], spec["command"], workload, TRACE_SEED, seconds, 1)
        layers[side] = {name: round(entry["value"], 4)
                        for name, entry in result["metrics"].items()}
    differing = calls_or_wire_bytes_differing(layers["parent"], layers["change"])
    summary["traced_per_order"] = {f"seed{TRACE_SEED}": {
        "calls_and_wire_bytes_identical": not differing,
        "calls_or_wire_bytes_differing": differing,
        **layers,
    }}
    print(f"e2e_pairs: {workload} seed={TRACE_SEED} traced pair done", file=sys.stderr)
    return summary


def calls_or_wire_bytes_differing(parent: dict[str, float], change: dict[str, float]) -> list[str]:
    """The ``*.calls`` and ``documents.wire_bytes`` metrics of two traced
    runs whose values differ (or that only one run has), sorted by name."""
    names = {name for layers in (parent, change) for name in layers
             if name.endswith(".calls") or name == "documents.wire_bytes"}
    return sorted(name for name in names if parent.get(name) != change.get(name))


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


if __name__ == "__main__":
    sys.exit(main())
