"""Self-tests of the order-exchange benchmark.

    python -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import workloads
from perfbench.run import (
    END_TO_END,
    MAX_UNTRACED,
    benchmark_spec,
    end_to_end_metrics,
    layer_function_names,
    per_layer_metrics,
    per_layer_spec,
)
from perfbench.tests.conftest import ROOT
from perfbench.traffic import BODY_LINES, LONG_TAIL_LINES, generate
from perfbench.workloads import BATCHES, WORKLOADS, counter_mismatches, measure, run_round

SMALL = 10


def small(name):
    """Workload ``name`` with rounds of ``SMALL`` orders."""
    return dataclasses.replace(WORKLOADS[name], orders_per_round=SMALL)


@pytest.fixture(autouse=True)
def small_warm_up(monkeypatch):
    monkeypatch.setattr(workloads, "WARMUP_ORDERS", 2)


# -- traffic generator ------------------------------------------------------


def test_same_seed_same_orders_other_seed_other_orders():
    assert generate(1, 0, 50) == generate(1, 0, 50)
    assert generate(1, 0, 50).orders != generate(2, 0, 50).orders
    assert generate(1, 0, 50).orders != generate(1, 1, 50).orders


def test_orders_cover_the_properties_the_hub_depends_on():
    traffic = generate(5, 0, 1000, buyers=("TP1", "TP2", "TP3"), bursty=True)
    orders = traffic.orders
    assert len({order.po_number for order in orders}) == 1000
    line_counts = [len(order.lines) for order in orders]
    assert min(line_counts) == BODY_LINES[0] and max(line_counts) > 40
    assert max(line_counts) <= LONG_TAIL_LINES[1]
    assert 50 < sum(count > BODY_LINES[1] for count in line_counts) < 150  # the 10% tail
    amounts = [order.amount for order in orders]
    assert min(amounts) < 10_000 < 55_000 < max(amounts)
    assert sum(10_000 < amount < 55_000 for amount in amounts) > 200
    assert all(sum(o.buyer == b for o in orders) > 250 for b in ("TP1", "TP2", "TP3"))
    sizes = [len(burst) for burst in traffic.bursts]
    assert sum(sizes) == 1000 and min(sizes) >= 1
    assert 10 < sum(sizes) / len(sizes) < 14  # Poisson, 12 per drain period


def test_closed_loop_is_bursts_of_one():
    assert [len(burst) for burst in generate(3, 0, 20).bursts] == [1] * 20


# -- wrappers against the program's own counters --------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrapper_counts_equal_program_counters(name, tracer, tmp_path):
    workload = small(name)
    result = run_round(workload, workload.traffic(7, 0), tmp_path, tracer)
    # run_round compares every wrapper count with the program's counters
    # (workflow DB, ReliableStats, link report, B2B engine) and checks outputs
    assert result.problems == []
    assert result.completed == result.attempted == SMALL
    calls = result.layer_calls
    assert calls["workflow.database.load_instance"] > 0
    assert calls["workflow.database.store_instance"] > 0
    codecs = {"rosettanet"} if name != "burst_mixed" else {"rosettanet", "edi", "oagis"}
    for codec in codecs:
        assert calls[f"documents.{codec}.to_wire"] > 0
        assert calls[f"documents.{codec}.from_wire"] > 0
    if name == "lossy_journaled":
        assert calls["runtime.journal.write"] > 0
        assert result.recovery_events > 0


def test_counter_comparison_reports_a_disagreement(tracer, tmp_path):
    workload = dataclasses.replace(WORKLOADS["steady_rn"], orders_per_round=2)
    result = run_round(workload, workload.traffic(7, 0), tmp_path, tracer)
    calls = dict(result.layer_calls)
    calls["workflow.database.store_instance"] += 1
    program = {
        "workflow.database.load_instance": calls["workflow.database.load_instance"],
        "workflow.database.store_instance": calls["workflow.database.store_instance"] - 1,
        "workflow.database.load_type": calls["workflow.database.load_type"],
        "messaging.reliable.send_reliable": calls["messaging.reliable.send_reliable"],
        "messaging.network.send": calls["messaging.network.send"],
        "messaging.network.link_sent": calls["messaging.network.send"],
        "messaging.van.post": calls.get("messaging.van.post", 0),
        "documents.to_wire": calls["documents.rosettanet.to_wire"],
        "core.integration.handle_message": calls["core.integration.handle_message"],
    }
    problems = counter_mismatches(program, calls)
    assert len(problems) == 1 and "store_instance" in problems[0]


def test_install_refuses_once_a_protocol_is_built():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[1] + '/src']\n"
        "from repro.b2b.protocol import get_protocol\n"
        "get_protocol('rosettanet')\n"
        "from perfbench.tracer import Tracer\n"
        "Tracer().install()\n"
    )
    completed = subprocess.run([sys.executable, "-c", script, str(ROOT)],
                               capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert "built before the codec wrappers" in completed.stderr


# -- determinism and accounting -----------------------------------------------


def _traced_run(tracer, seed, tmp_path, name="lossy_journaled"):
    tracer.reset()
    rounds = measure(small(name), seed, 0.0, tmp_path, tracer)
    values, accounted = per_layer_metrics(rounds, BATCHES)
    calls = {name: value for name, value in values.items() if name.endswith(".calls")}
    cycle_times = [r.cycle_times_s for r in rounds if r.traced][:BATCHES]
    return calls, cycle_times, accounted, values


def test_same_seed_gives_identical_counts_and_cycle_times(tracer, tmp_path):
    calls, cycles, accounted, values = _traced_run(tracer, 11, tmp_path)
    again_calls, again_cycles, _, _ = _traced_run(tracer, 11, tmp_path)
    assert calls == again_calls
    assert cycles == again_cycles
    assert calls["messaging.network.send.calls"] > 0
    other_calls, other_cycles, _, _ = _traced_run(tracer, 12, tmp_path)
    assert other_cycles != cycles


def test_self_times_and_remainder_account_for_traced_wall_time(tracer, tmp_path):
    _, _, accounted, values = _traced_run(tracer, 11, tmp_path)
    assert set(values) == {name for name, _, _ in per_layer_spec()}
    assert 0.95 <= accounted <= 1.0
    assert values["untraced.self_ms"] <= MAX_UNTRACED * values["trace.wall_ms"]
    layers = sum(values[f"{name}.self_ms"] for name in layer_function_names())
    total = layers + values["untraced.self_ms"]
    assert total == pytest.approx(values["trace.wall_ms"] * accounted, rel=1e-9)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_per_layer_values_are_positive_where_the_workload_exercises_them(
        name, tracer, tmp_path):
    _, _, _, values = _traced_run(tracer, 5, tmp_path, name)
    idle = {metric for metric in values if metric.startswith(WORKLOADS[name].idle)}
    assert {metric for metric, value in values.items() if value <= 0} == idle
    assert all(values[metric] == 0 for metric in idle)


# -- the benchmark contract ------------------------------------------------------


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    rounds = measure(small("burst_mixed"), 3, 0.0, tmp_path)
    assert len(rounds) == BATCHES and not any(result.problems for result in rounds)
    values, samples = end_to_end_metrics(rounds, BATCHES)
    assert set(values) == set(samples) == {name for name, _, _, _ in END_TO_END}
    assert all(value > 0 for value in values.values())


def test_benchmark_json_matches_the_runner():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == benchmark_spec(declared["run_seconds"])


def test_run_fails_without_the_hub_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady_rn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
