"""Tests for the safe expression language."""

import pytest
from hypothesis import given, strategies as st

from repro.documents.normalized import make_purchase_order
from repro.errors import ExpressionError
from repro.workflow.expressions import Expression


class TestCompilation:
    @pytest.mark.parametrize(
        "text",
        [
            "1 + 1",
            "amount > 10000",
            "PO.amount >= 55000 and source == 'TP1'",
            "a.b.c[0]['k']",
            "items[i]",
            "matrix[row][col + 1]",
            "not done",
            "x in (1, 2, 3)",
            "len(items) > 0",
            "min(a, b) + max(a, b)",
            "-x + +y",
            "1 < x < 10",
        ],
    )
    def test_accepts_supported_grammar(self, text):
        Expression(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "import os",
            "__import__('os')",
            "open('/etc/passwd')",
            "lambda: 1",
            "[x for x in y]",
            "x = 1",
            "x.y()",
            "exec('1')",
            "f'{x}'",
            "x[1:2]",        # slice subscript
            "x[y():]",       # slice with a call inside
            "x[lambda: 1]",  # unsupported subscript expression
            "x ** 2",        # power not whitelisted
            "{1: 2}",        # dict literal
            "len(x, key=1)",  # keyword args
        ],
    )
    def test_rejects_unsupported_grammar(self, text):
        with pytest.raises(ExpressionError):
            Expression(text)

    def test_rejection_happens_at_compile_time(self):
        # A malicious condition must fail at deployment, not at runtime.
        with pytest.raises(ExpressionError):
            Expression("system('rm -rf /')")


class TestEvaluation:
    def test_arithmetic(self):
        assert Expression("2 + 3 * 4").evaluate({}) == 14

    def test_comparison_chain(self):
        expr = Expression("1 < x < 10")
        assert expr.evaluate({"x": 5})
        assert not expr.evaluate({"x": 20})

    def test_boolean_short_circuit(self):
        # the right side would fail; short-circuit must protect it
        expr = Expression("present and data.key == 1")
        assert expr.evaluate({"present": False, "data": {}}) is False

    def test_dict_attribute_access(self):
        expr = Expression("PO.amount > 10000")
        assert expr.evaluate({"PO": {"amount": 20000}})

    def test_nested_access(self):
        expr = Expression("order.lines[0].sku == 'A'")
        context = {"order": {"lines": [{"sku": "A"}]}}
        assert expr.evaluate(context)

    def test_string_subscript(self):
        assert Expression("d['k']").evaluate({"d": {"k": 7}}) == 7

    def test_variable_subscript(self):
        # The satellite fix: ``items[i]`` must evaluate, not AttributeError.
        expr = Expression("items[i]")
        assert expr.evaluate({"items": [10, 20, 30], "i": 2}) == 30
        assert Expression("d[key]").evaluate({"d": {"k": 7}, "key": "k"}) == 7

    def test_computed_subscript(self):
        assert Expression("items[i + 1]").evaluate({"items": [1, 2], "i": 0}) == 2

    def test_unsupported_subscript_key_raises_expression_error(self):
        # A key type the access rules cannot use raises ExpressionError,
        # never a raw AttributeError/TypeError.
        with pytest.raises(ExpressionError):
            Expression("items[x]").evaluate({"items": [1, 2], "x": 1.5})

    def test_variable_subscript_out_of_range(self):
        with pytest.raises(ExpressionError):
            Expression("items[i]").evaluate({"items": [1], "i": 5})

    def test_membership(self):
        assert Expression("x in ('a', 'b')").evaluate({"x": "a"})

    def test_builtins(self):
        assert Expression("len(items)").evaluate({"items": [1, 2, 3]}) == 3
        assert Expression("round(x, 1)").evaluate({"x": 2.25}) == 2.2

    def test_unknown_variable_raises(self):
        with pytest.raises(ExpressionError):
            Expression("ghost + 1").evaluate({})

    def test_unknown_key_raises(self):
        with pytest.raises(ExpressionError):
            Expression("d.nope").evaluate({"d": {}})

    def test_index_out_of_range_raises(self):
        with pytest.raises(ExpressionError):
            Expression("xs[5]").evaluate({"xs": [1]})

    def test_runtime_type_error_wrapped(self):
        with pytest.raises(ExpressionError):
            Expression("a + b").evaluate({"a": 1, "b": "s"})

    def test_variables_used(self):
        expr = Expression("PO.amount >= 55000 and source == 'TP1' or len(items)")
        assert expr.variables_used() == {"PO", "source", "items"}


class TestDocumentAccess:
    """The paper writes ``PO.amount``; documents must support it."""

    @pytest.fixture
    def po(self):
        return make_purchase_order(
            "P1", "TP1", "ACME", [{"sku": "A", "quantity": 2, "unit_price": 30000.0}]
        )

    def test_amount_maps_to_total(self, po):
        assert Expression("PO.amount").evaluate({"PO": po}) == 60000.0

    def test_paper_rule_expression(self, po):
        expr = Expression("PO.amount >= 55000 and source == 'TP1'")
        assert expr.evaluate({"PO": po, "source": "TP1"})
        assert not expr.evaluate({"PO": po, "source": "TP2"})

    def test_header_shortcut(self, po):
        assert Expression("PO.po_number").evaluate({"PO": po}) == "P1"

    def test_full_path_access(self, po):
        assert Expression("PO.header.currency").evaluate({"PO": po}) == "USD"

    def test_missing_document_field_raises(self, po):
        with pytest.raises(ExpressionError):
            Expression("PO.nonexistent").evaluate({"PO": po})


# -- property-based -----------------------------------------------------------

_numbers = st.integers(-100, 100)


@given(a=_numbers, b=_numbers, c=_numbers)
def test_arithmetic_matches_python(a, b, c):
    expr = Expression("a + b * c - (a - b)")
    assert expr.evaluate({"a": a, "b": b, "c": c}) == a + b * c - (a - b)


@given(a=_numbers, b=_numbers)
def test_comparisons_match_python(a, b):
    for op in ("<", "<=", ">", ">=", "==", "!="):
        expr = Expression(f"a {op} b")
        assert expr.evaluate({"a": a, "b": b}) == eval(f"a {op} b")


@given(a=st.booleans(), b=st.booleans(), c=st.booleans())
def test_boolean_logic_matches_python(a, b, c):
    expr = Expression("a and b or not c")
    assert bool(expr.evaluate({"a": a, "b": b, "c": c})) == (a and b or not c)


@given(st.integers(0, 200_000), st.sampled_from(["TP1", "TP2", "TP3"]))
def test_paper_condition_total_function(amount, source):
    """The Figure 9 condition is a pure function of (amount, source)."""
    expr = Expression(
        "amount >= 55000 and source == 'TP1' or amount >= 40000 and source == 'TP2'"
    )
    expected = (amount >= 55000 and source == "TP1") or (
        amount >= 40000 and source == "TP2"
    )
    assert expr.evaluate({"amount": amount, "source": source}) == expected
