"""Lint targets: one verification unit at a time, with its report."""

from repro.verify.targets import lint_all, verify_unit


def test_bare_workflow_unit_is_verifiable():
    from repro.baselines.monolithic import NaiveTopology, build_naive_seller_type

    workflow = build_naive_seller_type(NaiveTopology.figure9())
    report = verify_unit("naive", workflow, {"deep": True})
    assert report.label == "naive"
    assert {d.code for d in report.diagnostics} >= {"B2B103"}
    # A bare workflow has no conversations or routes to analyze.
    assert report.states_explored == report.dataflow_routes == 0


def test_lint_all_reports_every_unit_it_verifies():
    reports = {}
    results = lint_all(only="fig14", reports=reports, deep=True)
    assert list(results) == list(reports) == ["fig14"]
    assert reports["fig14"].diagnostics == results["fig14"]
    assert reports["fig14"].states_explored > 0
