"""PR3 — compiled hot paths: interpreted vs compiled expression and mapping.

Paired benchmarks over identical inputs so pytest-benchmark's tables show
the compile win directly; every pair also asserts the two paths return
identical results, keeping the speedup claim tied to behavioural identity.
The machine-readable record of these numbers, and the bounds on them,
come from ``python -m repro bench`` (see ``repro.analysis.bench``).
"""

from conftest import table

from repro.analysis.bench import BENCHMARKS, check_against_baseline, run_benchmarks
from repro.documents.normalized import make_purchase_order
from repro.transform.catalog import standard_mappings
from repro.workflow.expressions import Expression

LINES = [
    {"sku": "LAPTOP-15", "quantity": 50, "unit_price": 1200.0},
    {"sku": "DOCK-1", "quantity": 5, "unit_price": 150.0},
]

CONDITION = (
    "PO.amount >= 55000 and source == 'TP1' "
    "or PO.amount >= 40000 and source == 'TP2'"
)


def _variables():
    return {"PO": make_purchase_order("P1", "TP1", "ACME", LINES), "source": "TP1"}


def bench_expression_interpreted(benchmark):
    expression = Expression(CONDITION)
    variables = _variables()
    result = benchmark(expression.evaluate, variables)
    assert result is True


def bench_expression_compiled(benchmark):
    expression = Expression(CONDITION)
    variables = _variables()
    program = expression.compile()
    result = benchmark(program, variables)
    assert result is True
    assert result == expression.evaluate(variables)


def _po_mapping():
    return next(
        m
        for m in standard_mappings()
        if m.source_format == "normalized"
        and m.target_format == "edi-x12"
        and m.doc_type == "purchase_order"
    )


def bench_mapping_interpreted(benchmark):
    mapping = _po_mapping()
    document = make_purchase_order("P1", "TP1", "ACME", LINES)
    context = {"sender_id": "ACME", "receiver_id": "TP1", "now": 1.0}
    result = benchmark(mapping.apply, document, context)
    assert result.format_name == "edi-x12"


def bench_mapping_compiled(benchmark):
    mapping = _po_mapping()
    compiled = mapping.compile()
    document = make_purchase_order("P1", "TP1", "ACME", LINES)
    context = {"sender_id": "ACME", "receiver_id": "TP1", "now": 1.0}
    result = benchmark(compiled.apply, document, context)
    assert result.to_dict() == mapping.apply(document, context).to_dict()


def bench_driver_summary(benchmark, report):
    """One fast driver pass: the PR3 speedup table on this machine."""
    payload = benchmark.pedantic(
        run_benchmarks, args=(list(BENCHMARKS),), kwargs={"min_time": 0.05}, rounds=1
    )
    rows = [
        {"benchmark": name, "ops_per_sec": entry["ops_per_sec"]}
        for name, entry in payload["benchmarks"].items()
    ] + [
        {"benchmark": metric, "ops_per_sec": f"{value}x"}
        for metric, value in payload["derived"].items()
    ]
    report(table(rows, ["benchmark", "ops_per_sec"], "PR3: compiled hot paths"))
    # The speedup bounds, read from the registry.
    assert check_against_baseline(payload, payload) == []
