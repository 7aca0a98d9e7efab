"""The ``repro lint`` subcommand."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


def test_lint_single_clean_model_exits_zero(capsys):
    assert main(["lint", "--model", "fig14"]) == 0
    out = capsys.readouterr().out
    assert "fig14" in out
    assert "OK" in out


def test_lint_demo_broken_exits_nonzero_with_three_codes(capsys):
    assert main(["lint", "--demo-broken"]) == 1
    out = capsys.readouterr().out
    found = {code for code in ("B2B103", "B2B201", "B2B301") if code in out}
    assert len(found) >= 3
    assert "FAIL" in out


def test_lint_json_format(capsys):
    assert main(["lint", "--demo-broken", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 4
    assert "broken-demo" in payload["models"]
    entry = payload["models"]["broken-demo"]
    assert entry["counts"]["error"] >= 2
    codes = {d["code"] for d in entry["diagnostics"]}
    assert {"B2B201", "B2B301", "B2B103"} <= codes
    # schema v3: per-model timing and state counts, plus run totals
    assert entry["cached"] is False
    assert entry["duration_ms"] >= 0
    assert entry["states"] == {"explored": 0, "pruned": 0}
    # schema v4: per-model dataflow route counts (0 without --dataflow)
    assert entry["dataflow_routes"] == 0
    assert payload["totals"]["models"] == 1


def test_lint_json_deep_includes_deadlock_demo_with_trace(capsys):
    assert main(["lint", "--demo-broken", "--deep", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    entry = payload["models"]["deadlock-demo"]
    codes = {d["code"] for d in entry["diagnostics"]}
    assert "B2B501" in codes
    deadlock = next(d for d in entry["diagnostics"] if d["code"] == "B2B501")
    assert any("purchase_order" in line for line in deadlock["trace"])


def test_lint_deep_all_examples_pass_on_error_threshold(capsys):
    assert main(["lint", "--deep"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out


def test_lint_fail_on_warning_catches_naive_baseline(capsys):
    assert main(["lint", "--model", "naive-seller", "--fail-on", "warning"]) == 1
    out = capsys.readouterr().out
    assert "B2B103" in out


def test_lint_naive_baseline_passes_on_error_threshold(capsys):
    assert main(["lint", "--model", "naive-seller"]) == 0


def test_lint_unknown_target_exits_two(capsys):
    assert main(["lint", "--model", "no-such-target"]) == 2
    err = capsys.readouterr().err
    assert "unknown lint target" in err


def test_lint_incremental_warm_run_is_all_cache_hits(tmp_path, capsys):
    cache = str(tmp_path / "cache.json")
    argv = ["lint", "--model", "fig14", "--incremental", "--cache", cache,
            "--format", "json"]
    assert main(argv) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["totals"]["cache_hits"] == 0
    assert cold["totals"]["cache_misses"] == cold["totals"]["models"] == 1
    assert main(argv) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["totals"]["cache_hits"] == 1
    assert warm["totals"]["cache_misses"] == 0
    assert warm["models"]["fig14"]["cached"] is True
    # a cached verdict reports the identical findings
    assert (
        warm["models"]["fig14"]["diagnostics"]
        == cold["models"]["fig14"]["diagnostics"]
    )


def test_lint_incremental_text_reports_hit_rate(tmp_path, capsys):
    cache = str(tmp_path / "cache.json")
    argv = ["lint", "--model", "fig14", "--incremental", "--cache", cache]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cache: 1 hit(s), 0 miss(es) (100% hit rate)" in out


def test_lint_stats_table_shows_state_counts(capsys):
    assert main(["lint", "--model", "fig14", "--deep", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "Per-model verification stats" in out
    assert "explored" in out and "pruned" in out


def test_lint_registry_sweep_warm_json(tmp_path, capsys):
    cache = str(tmp_path / "cache.json")
    argv = ["lint", "--registry", "40", "--deep", "--incremental",
            "--cache", cache, "--format", "json"]
    assert main(argv) == 0
    cold = json.loads(capsys.readouterr().out)["registry"]
    assert cold["agreements"] == cold["verified"] == 40
    assert cold["explorations"] >= 1
    assert main(argv) == 0
    warm = json.loads(capsys.readouterr().out)["registry"]
    assert warm["cache_hit_rate"] == 1.0
    assert warm["fabric_cached"] is True
    assert warm["dirty_agreements"] == {}


def test_lint_registry_text_summary(capsys):
    assert main(["lint", "--registry", "25", "--deep"]) == 0
    out = capsys.readouterr().out
    assert "registry sweep: 25 agreement(s)" in out
    assert "OK" in out


def test_lint_dataflow_all_examples_pass_on_error_threshold(capsys):
    assert main(["lint", "--dataflow", "--fail-on", "error"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out


def test_lint_dataflow_demo_broken_json(capsys):
    assert main(["lint", "--demo-broken", "--dataflow", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    entry = payload["models"]["dataflow-broken-demo"]
    assert entry["dataflow_routes"] == 2  # inbound PO + outbound ack
    codes = {d["code"] for d in entry["diagnostics"]}
    assert {"B2B701", "B2B703", "B2B704", "B2B705"} <= codes
    broken = next(d for d in entry["diagnostics"] if d["code"] == "B2B701")
    assert any("counterexample document" in line for line in broken["trace"])


def test_lint_dataflow_registry_json_reports_route_cache(tmp_path, capsys):
    cache = str(tmp_path / "cache.json")
    argv = ["lint", "--registry", "40", "--dataflow", "--incremental",
            "--cache", cache, "--format", "json"]
    assert main(argv) == 0
    cold = json.loads(capsys.readouterr().out)["registry"]["dataflow"]
    assert cold["routes"] > 0
    assert cold["routes_verified"] == cold["routes"]
    assert main(argv) == 0
    warm = json.loads(capsys.readouterr().out)["registry"]["dataflow"]
    assert warm["route_cache_hit_rate"] == 1.0
    assert warm["routes_verified"] == 0


def test_lint_no_reduce_keeps_deep_verdicts(capsys):
    assert main(["lint", "--demo-broken", "--deep", "--no-reduce",
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    codes = {d["code"] for d in payload["models"]["deadlock-demo"]["diagnostics"]}
    assert "B2B501" in codes


@pytest.mark.parametrize(
    "options",
    [["--deep"], ["--dataflow"], ["--dataflow", "--registry", "1000"]],
    ids=["deep", "dataflow", "dataflow-registry"],
)
def test_persisted_cache_is_warm_across_processes(tmp_path, options):
    # Two processes with different hash seeds share one cache file; a
    # digest that depended on per-process state would miss.
    src = str(Path(repro.__file__).resolve().parents[1])
    argv = [
        sys.executable, "-m", "repro", "lint", *options, "--incremental",
        "--cache", str(tmp_path / "cache.json"), "--format", "json",
    ]
    reports = []
    for seed in ("1", "2"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        done = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=120, check=False
        )
        assert done.returncode == 0, done.stderr
        reports.append(json.loads(done.stdout))
    cold, warm = reports
    if "--registry" in options:
        registry = warm["registry"]
        assert registry["cache_hits"] == registry["agreements"] == 1000
        assert registry["dataflow"]["routes"] > 0
        assert registry["dataflow"]["route_cache_hit_rate"] == 1.0
    else:
        assert cold["totals"]["cache_hits"] == 0
        assert warm["totals"]["cache_hits"] == warm["totals"]["models"] > 0
        assert warm["totals"]["cache_misses"] == 0
