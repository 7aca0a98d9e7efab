"""End-to-end crash recovery: kill the hub mid-exchange, recover, verify.

A fast subset of the full crash matrix (``repro crash`` / the CI
``crash-recovery`` job runs all 25 cells): every architecture crashes
once and every crash point fires once.  Each case asserts the full
exactly-once contract — no order lost, none duplicated, the resumed
journal and trace byte-identical to an uncrashed run.
"""

import pytest

from repro.analysis.crash import (
    ARCHITECTURES,
    CRASH_POINTS,
    _run_reference,
    _script,
    run_crash_case,
)

# Every architecture and every crash point appears.
CASES = [
    ("advanced", "mid-append"),
    ("advanced-lossy", "post-append"),
    ("monolithic", "pre-journal"),
    ("cooperative", "mid-snapshot"),
    ("distributed", "random"),
]


def test_case_table_covers_the_matrix_axes():
    assert {architecture for architecture, _ in CASES} == set(ARCHITECTURES)
    assert {point for _, point in CASES} == set(CRASH_POINTS)


@pytest.mark.parametrize(
    ("architecture", "crash_point"),
    CASES,
    ids=["/".join(case) for case in CASES],
)
def test_crash_and_recover_is_exactly_once(architecture, crash_point):
    report = run_crash_case(architecture, crash_point, orders=4, seed=7)
    assert report.orders_lost == []
    assert report.orders_duplicated == []
    assert report.journal_identical, "resumed journal differs from uncrashed run"
    assert report.trace_identical, "resumed trace differs from uncrashed run"
    assert report.retries_suppressed == report.commands_replayed
    assert report.commands_replayed + report.commands_retried == 4
    assert report.dedup_uncovered == 0
    assert report.ok


def test_lossy_reference_run_retransmits_and_suppresses_duplicates(tmp_path):
    # Without a retransmission and a suppressed duplicate in the uncrashed
    # run, the advanced-lossy cells would silently test a loss-free pair.
    driver = _run_reference("advanced-lossy", tmp_path, _script(4), snapshot_after=2)
    stats = [enterprise.reliable.stats for enterprise in driver.pair.enterprises()]
    assert sum(stat.retries for stat in stats) >= 1
    assert sum(stat.duplicates_suppressed for stat in stats) >= 1


def test_crash_report_counts_the_damage(tmp_path):
    report = run_crash_case(
        "advanced", "mid-append", orders=4, seed=7, workdir=tmp_path
    )
    assert report.ok
    assert report.reference_records > 0
    assert 0 <= report.recovered_records <= report.reference_records
    # mid-append tears a frame in half: recovery must report the tear.
    assert report.truncations
    assert (tmp_path / "reference").is_dir()
    assert (tmp_path / "resumed").is_dir()
