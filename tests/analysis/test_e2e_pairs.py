"""Tests for ``benchmarks/e2e_pairs.py``, the paired parent/change benchmark runner."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("e2e_pairs", ROOT / "benchmarks" / "e2e_pairs.py")
e2e_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_pairs)


class TestCompare:
    def test_higher_is_better(self):
        summary = e2e_pairs.compare([100, 102, 98, 101], [120, 102, 119, 121], "higher", 0.15)
        assert summary["change_wins"] == 3
        assert summary["ties"] == 1
        assert summary["pairs"] == 4
        assert summary["parent"]["median"] == 100.5
        assert summary["change"]["median"] == 119.5
        assert summary["median_change"] == round(119.5 / 100.5 - 1, 4)
        assert summary["parent_iqr"] == round(101.25 - 99.5, 4)
        assert summary["within_bound"]

    def test_lower_is_better_and_bound(self):
        summary = e2e_pairs.compare([10.0, 10.0], [13.0, 12.0], "lower", 0.2)
        assert summary["change_wins"] == 0
        assert summary["median_change"] == 0.25
        assert not summary["within_bound"]


class TestTracedDifferences:
    """The traced pair names every call count and the wire bytes that differ."""

    def test_identical_runs_differ_nowhere(self):
        layers = {"workflow.database.load_instance.calls": 20.6,
                  "workflow.database.load_instance.self_ms": 0.33,
                  "documents.wire_bytes": 5714.56}
        assert e2e_pairs.calls_or_wire_bytes_differing(layers, dict(layers)) == []

    def test_counts_and_bytes_named_times_ignored(self):
        parent = {"workflow.database.load_instance.calls": 24.6,
                  "workflow.database.load_instance.self_ms": 0.41,
                  "workflow.engine.start.calls": 4.0,
                  "documents.wire_bytes": 5714.56,
                  "runtime.journal.bytes": 5700.0,
                  "documents.rosettanet.from_wire.calls": 2.0}
        change = {**parent,
                  "workflow.database.load_instance.calls": 20.6,
                  "workflow.database.load_instance.self_ms": 0.33,
                  "documents.wire_bytes": 5714.0,
                  "runtime.journal.bytes": 5600.0,
                  "core.rules.evaluate.calls": 1.0}
        assert e2e_pairs.calls_or_wire_bytes_differing(parent, change) == [
            "core.rules.evaluate.calls",
            "documents.wire_bytes",
            "workflow.database.load_instance.calls",
        ]


class TestRunBenchmark:
    """Only a run that exits 0 and reports ``"correct": true`` is a measurement."""

    @staticmethod
    def fake_benchmark(correct, exit_code):
        script = ("import json, sys; "
                  f"print(json.dumps({{'correct': {correct}, 'metrics': {{}}}})); "
                  f"sys.exit({exit_code})")
        return [sys.executable, "-c", script]

    def test_correct_run_returned(self, tmp_path):
        result = e2e_pairs.run_benchmark(tmp_path, self.fake_benchmark(True, 0),
                                         "steady_rn", 1, 30, 0)
        assert result == {"correct": True, "metrics": {}}

    @pytest.mark.parametrize("correct, exit_code", [(False, 1), (False, 0), (True, 1)])
    def test_failed_output_check_refused(self, tmp_path, correct, exit_code):
        with pytest.raises(RuntimeError, match="without a correct result"):
            e2e_pairs.run_benchmark(tmp_path, self.fake_benchmark(correct, exit_code),
                                    "steady_rn", 1, 30, 0)


class TestSmoke:
    """``--smoke`` fails only when the change loses every pair by more
    than the ``orders_per_s`` bound."""

    # a benchmark stand-in that reports the rate its side lists for the seed
    FAKE_BENCHMARK = (
        "import json, sys; "
        "rate = json.load(open('rates.json'))[sys.argv[sys.argv.index('--seed') + 1]]; "
        "print(json.dumps({'correct': True, 'failed': 0, "
        "'metrics': {'orders_per_s': {'value': rate}}}))"
    )

    @pytest.mark.parametrize("change_rates, verdict", [
        ([80, 84, 70], 1),     # every pair lost by more than 15%
        ([80, 84, 90], 0),     # one pair lost by less
        ([86, 86, 86], 0),     # every pair lost, each within the bound
        ([120, 110, 130], 0),  # every pair won
    ])
    def test_verdict(self, tmp_path, change_rates, verdict):
        sides = {}
        for side, rates in (("parent", [100, 100, 100]), ("change", change_rates)):
            sides[side] = tmp_path / side
            sides[side].mkdir()
            (sides[side] / "rates.json").write_text(
                json.dumps({str(seed): rate for seed, rate in zip(e2e_pairs.SMOKE_SEEDS, rates)})
            )
        spec = {
            "command": [sys.executable, "-c", self.FAKE_BENCHMARK],
            "end_to_end": [{"name": "orders_per_s", "bound": 0.15}],
        }
        assert e2e_pairs.smoke(spec, sides) == verdict


class TestBenchmarkDifferences:
    @pytest.fixture
    def sides(self, tmp_path):
        for side in ("parent", "change"):
            (tmp_path / side / "perfbench").mkdir(parents=True)
            (tmp_path / side / "perfbench" / "run.py").write_text("print('run')\n")
            (tmp_path / side / "BENCHMARK.json").write_text("{}\n")
            (tmp_path / side / "src").mkdir()
            (tmp_path / side / "src" / "hub.py").write_text(f"SIDE = {side!r}\n")
        return tmp_path / "parent", tmp_path / "change"

    def test_only_src_differs(self, sides):
        assert e2e_pairs.benchmark_differences(*sides) == []

    def test_changed_spec_refused(self, sides):
        parent, change = sides
        (change / "BENCHMARK.json").write_text('{"run_seconds": 1}\n')
        assert e2e_pairs.benchmark_differences(parent, change) == ["BENCHMARK.json"]

    def test_changed_added_or_removed_benchmark_file_refused(self, sides):
        parent, change = sides
        (change / "perfbench" / "run.py").write_text("print('faster')\n")
        (change / "perfbench" / "extra.py").write_text("\n")
        (parent / "perfbench" / "gone.py").write_text("\n")
        assert e2e_pairs.benchmark_differences(parent, change) == [
            "perfbench/extra.py", "perfbench/gone.py", "perfbench/run.py",
        ]

    def test_bytecode_ignored(self, sides):
        parent, change = sides
        (change / "perfbench" / "__pycache__").mkdir()
        (change / "perfbench" / "__pycache__" / "run.cpython.pyc").write_bytes(b"\0")
        assert e2e_pairs.benchmark_differences(parent, change) == []


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs a git checkout")
def test_sides_are_fresh_copies(tmp_path):
    commit = e2e_pairs.export_revision("HEAD", tmp_path / "parent")
    e2e_pairs.copy_working_tree(tmp_path / "change")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()
    assert commit == head
    for side in ("parent", "change"):
        assert (tmp_path / side / "perfbench" / "run.py").is_file()
        assert (tmp_path / side / "src" / "repro" / "__init__.py").is_file()
    assert (tmp_path / "change" / "benchmarks" / "e2e_pairs.py").is_file()
