"""Tests for the benchmark registry and the ``repro bench`` CLI.

Timings here use tiny ``min_time`` values and shrunken gate workloads —
the tests verify the registry's mechanics (selection, JSON shape, the
bounds' verdicts), not the performance numbers themselves.  The verdict
tests read payloads of fixed numbers; the bounds are enforced by
``repro bench --check`` in CI.
"""

import copy
import json

import pytest

from repro.analysis import bench
from repro.analysis.bench import (
    BENCHMARKS,
    BOUNDS,
    TRACKED,
    check_against_baseline,
    run_benchmarks,
)
from repro.cli import main


def _fixed_payload():
    """A payload of fixed numbers, so no verdict hinges on a timing draw."""
    return {
        "schema": "repro-bench/1",
        "python": "3",
        "calibration_ops_per_sec": 1000.0,
        "benchmarks": {
            "expression_eval_compiled": {
                "ops_per_sec": 500.0, "normalized": 0.5, "runs": 10,
            },
        },
        "derived": {"dataflow_routes_per_sec": 900.0},
    }


class TestDriver:
    def test_tracked_benchmarks_exist(self):
        assert set(TRACKED) <= set(BENCHMARKS)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            run_benchmarks(["warp_drive"], min_time=0.01)

    def test_payload_shape(self):
        payload = run_benchmarks(
            ["add_partner_naive", "add_partner_advanced"],
            min_time=0.02,
        )
        assert payload["schema"] == "repro-bench/1"
        for entry in payload["benchmarks"].values():
            assert entry["ops_per_sec"] > 0
            assert entry["normalized"] > 0
            assert entry["runs"] > 0
        assert "add_partner_advantage" in payload["derived"]

    def test_every_benchmark_builds_and_runs(self, monkeypatch):
        # Every benchmark and every gate once, the gates at reduced size.
        monkeypatch.setattr(bench, "JOURNAL_MESSAGES", 2_000)
        monkeypatch.setattr(bench, "RECOVERY_EVENTS", 2_000)
        monkeypatch.setattr(bench, "REGISTRY_AGREEMENTS", 20)
        monkeypatch.setattr(bench, "STATESPACE_BURST", 4)
        payload = run_benchmarks(min_time=0.01)
        assert set(payload["benchmarks"]) == set(BENCHMARKS)
        assert payload["derived"]["statespace_states_per_sec"] > 0
        # Every bound's metric is measured by a benchmark pair or a gate.
        assert set(BOUNDS) <= set(payload["derived"])


class TestRegressionGate:
    def test_identical_run_passes(self):
        payload = _fixed_payload()
        assert check_against_baseline(payload, payload) == []

    def test_large_drop_fails(self):
        baseline = _fixed_payload()
        current = json.loads(json.dumps(baseline))
        name = "expression_eval_compiled"
        current["benchmarks"][name]["normalized"] = (
            baseline["benchmarks"][name]["normalized"] * 0.5
        )
        problems = check_against_baseline(current, baseline)
        assert any(name in problem for problem in problems)

    def test_small_drift_tolerated(self):
        baseline = _fixed_payload()
        current = json.loads(json.dumps(baseline))
        for entry in current["benchmarks"].values():
            entry["normalized"] *= 0.9  # within the 25% tolerance
        assert check_against_baseline(current, baseline) == []

    def test_derived_floor_enforced(self):
        payload = _fixed_payload()
        payload["derived"]["dataflow_routes_per_sec"] = 100.0
        problems = check_against_baseline(payload, payload)
        assert (
            "dataflow_routes_per_sec: 100 routes/s is below the 200 routes/s floor"
        ) in problems

    def test_missing_benchmarks_ignored(self):
        # a baseline predating a new benchmark must not crash the gate
        payload = _fixed_payload()
        assert check_against_baseline(payload, {"benchmarks": {}}) == []

    def test_bounds_print_in_their_own_units(self):
        payload = _fixed_payload()
        payload["derived"].update(
            recovery_events_per_sec=45_000.0, journal_write_overhead=0.2
        )
        problems = check_against_baseline(payload, payload)
        assert (
            "recovery_events_per_sec: 45,000 events/s is below the "
            "50,000 events/s floor"
        ) in problems
        assert (
            "journal_write_overhead: 0.2 of hub time is above the "
            "0.15 of hub time ceiling"
        ) in problems


class TestCli:
    def test_bench_filter_and_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main([
            "bench", "--filter", "expression", "--min-time", "0.02",
            "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["benchmarks"]) == {"expression_eval_compiled"}
        assert "expression_eval_compiled" in capsys.readouterr().out

    def test_bench_bad_filter_exits_nonzero(self, capsys):
        assert main(["bench", "--filter", "warp_drive"]) == 2

    @pytest.fixture
    def fixed_payload(self, monkeypatch):
        """Stub the measurement: every run returns the same payload, so a
        gate verdict cannot hinge on two separate timings."""
        payload = {
            "schema": "repro-bench/1",
            "label": "PR3",
            "python": "3",
            "calibration_ops_per_sec": 1000.0,
            "benchmarks": {
                "expression_eval_compiled": {
                    "ops_per_sec": 500.0, "normalized": 0.5, "runs": 10,
                },
            },
            "derived": {},
        }
        monkeypatch.setattr(
            bench, "run_benchmarks", lambda *args, **kwargs: copy.deepcopy(payload)
        )
        return payload

    def test_bench_check_passes_against_own_output(self, tmp_path, capsys, fixed_payload):
        out = tmp_path / "base.json"
        assert main([
            "bench", "--filter", "expression_eval_compiled", "--json", str(out),
        ]) == 0
        assert main([
            "bench", "--filter", "expression_eval_compiled", "--check", str(out),
        ]) == 0
        assert "regression gate OK" in capsys.readouterr().out

    def test_bench_check_without_filter_fails_on_unmeasured_bounds(
        self, tmp_path, capsys, fixed_payload
    ):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(fixed_payload))
        # A renamed or skipped metric must not pass an unfiltered run.
        assert main(["bench", "--check", str(path)]) == 1
        out, err = capsys.readouterr()
        unmeasured = [*BOUNDS, *(set(TRACKED) - {"expression_eval_compiled"})]
        for metric in unmeasured:
            assert f"{metric}: not measured in this run" in err
        assert err.count("not measured") == len(unmeasured)
        # every bound is listed, the held one included
        assert "ok   expression_eval_compiled: normalized 0.5000" in out

    def test_bench_check_fails_against_a_faster_baseline(
        self, tmp_path, capsys, fixed_payload
    ):
        baseline = copy.deepcopy(fixed_payload)
        baseline["benchmarks"]["expression_eval_compiled"]["normalized"] *= 2
        path = tmp_path / "base.json"
        path.write_text(json.dumps(baseline))
        assert main([
            "bench", "--filter", "expression_eval_compiled", "--check", str(path),
        ]) == 1
        assert "REGRESSION GATE FAILED" in capsys.readouterr().err
