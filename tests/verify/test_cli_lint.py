"""The ``repro lint`` subcommand."""

import json

import pytest

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
    assert payload["schema_version"] == 7
    assert "broken-demo" in payload["models"]
    entry = payload["models"]["broken-demo"]
    assert entry["counts"]["error"] >= 2
    codes = {d["code"] for d in entry["diagnostics"]}
    assert {"B2B201", "B2B301", "B2B103"} <= codes
    # per-model timing and state counts, plus run totals
    assert entry["duration_ms"] >= 0
    assert entry["states"] == {"explored": 0, "pruned": 0}
    # per-model dataflow route counts (0 without --dataflow)
    assert entry["dataflow_routes"] == 0
    # since schema v5: no verdict-cache fields
    assert set(entry) == {
        "counts", "diagnostics", "duration_ms", "states", "dataflow_routes",
    }
    assert payload["totals"].keys() == {"models", "duration_ms"}
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


def test_lint_stats_table_shows_state_counts(capsys):
    assert main(["lint", "--model", "fig14", "--deep", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "Per-model verification stats" in out
    assert "explored" in out and "pruned" in out


def test_lint_registry_sweep_json(capsys):
    argv = ["lint", "--registry", "40", "--deep", "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    # since schema v7: the registry is one ordinary model entry
    assert set(payload) == {"schema_version", "models", "totals"}
    assert list(payload["models"]) == ["registry-40"]
    entry = payload["models"]["registry-40"]
    assert entry["diagnostics"] == []
    assert entry["states"]["explored"] > 0
    assert payload["totals"]["models"] == 1


def test_lint_registry_text_summary(capsys):
    assert main(["lint", "--registry", "25", "--deep"]) == 0
    out = capsys.readouterr().out
    assert "registry-25" in out
    assert "OK: 1 model(s) linted, 0 diagnostic(s)" in out


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


def test_lint_dataflow_registry_json_reports_routes(capsys):
    argv = ["lint", "--registry", "40", "--dataflow", "--format", "json"]
    assert main(argv) == 0
    entry = json.loads(capsys.readouterr().out)["models"]["registry-40"]
    # dataflow alone explores nothing
    assert entry["states"] == {"explored": 0, "pruned": 0}
    assert entry["dataflow_routes"] > 0
    assert entry["diagnostics"] == []


def _plant_registry_dataflow_defect(monkeypatch) -> list[str]:
    """Make ``--registry`` models carry a B2B701: one catalog mapping writes
    a number where its target schema declares a string.  Returns the
    planted mapping's name once a model is built."""
    from repro.analysis import scenarios
    from repro.transform.mapping import Const

    build = scenarios.build_registry_model
    planted: list[str] = []

    def build_with_defect(agreements):
        model = build(agreements)
        mapping, path = next(
            (mapping, spec.path)
            for mapping in model.transforms.mappings()
            if mapping.target_schema is not None
            for spec in mapping.target_schema.fields
            if spec.type_name == "str"
        )
        mapping.rules.append(Const(path, 840))
        planted.append(mapping.name)
        return model

    monkeypatch.setattr(scenarios, "build_registry_model", build_with_defect)
    return planted


def test_lint_registry_dataflow_text_shows_the_diagnostics_it_fails_on(monkeypatch, capsys):
    planted = _plant_registry_dataflow_defect(monkeypatch)
    assert main(["lint", "--registry", "40", "--dataflow"]) == 1
    out = capsys.readouterr().out
    assert "registry-40" in out
    (line,) = [line for line in out.splitlines() if "B2B701" in line]
    assert planted[0] in line
    assert "FAIL: 1 model(s) linted, 1 diagnostic(s)" in out


def test_lint_registry_dataflow_json_shows_the_diagnostics_it_fails_on(monkeypatch, capsys):
    planted = _plant_registry_dataflow_defect(monkeypatch)
    argv = ["lint", "--registry", "40", "--dataflow", "--format", "json"]
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 7
    entry = payload["models"]["registry-40"]
    (diagnostic,) = entry["diagnostics"]
    assert diagnostic["code"] == "B2B701"
    assert planted[0] in diagnostic["location"]
    assert entry["counts"]["error"] == 1


def test_lint_no_reduce_keeps_deep_verdicts(capsys):
    assert main(["lint", "--demo-broken", "--deep", "--no-reduce",
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    codes = {d["code"] for d in payload["models"]["deadlock-demo"]["diagnostics"]}
    assert "B2B501" in codes


@pytest.mark.parametrize(
    "option, value",
    [
        ("--registry", "0"),
        ("--registry", "-3"),
        ("--queue-bound", "0"),
        ("--max-states", "0"),
        ("--queue-bound", "-1"),
        ("--max-states", "-5"),
        ("--time-budget", "-1"),
        ("--time-budget", "0"),
    ],
)
def test_lint_rejects_out_of_range_numbers_at_parse_time(option, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["lint", "--deep", f"{option}={value}"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {option}" in captured.err
    assert captured.out == ""
