"""Runtime evaluation failures carry the expression text, and the
static-analysis introspection methods (variables_used/paths/fold_constant)."""

import pytest

from repro.errors import ExpressionError
from repro.workflow.expressions import Expression


class TestErrorCarriesExpression:
    def test_zero_division_is_wrapped(self):
        expression = Expression("x / y")
        with pytest.raises(ExpressionError) as excinfo:
            expression.evaluate({"x": 1, "y": 0})
        assert excinfo.value.expression == "x / y"
        assert "ZeroDivisionError" in str(excinfo.value)

    def test_type_error_is_wrapped(self):
        expression = Expression("x + y")
        with pytest.raises(ExpressionError) as excinfo:
            expression.evaluate({"x": 1, "y": "s"})
        assert excinfo.value.expression == "x + y"

    def test_unknown_variable_carries_expression(self):
        with pytest.raises(ExpressionError) as excinfo:
            Expression("missing > 1").evaluate({})
        assert excinfo.value.expression == "missing > 1"

    def test_compile_error_carries_expression(self):
        with pytest.raises(ExpressionError) as excinfo:
            Expression("x +")
        assert excinfo.value.expression == "x +"

    def test_rejected_construct_carries_expression(self):
        with pytest.raises(ExpressionError) as excinfo:
            Expression("[i for i in x]")
        assert excinfo.value.expression == "[i for i in x]"

    def test_missing_document_key_carries_expression(self):
        with pytest.raises(ExpressionError) as excinfo:
            Expression("doc.nope").evaluate({"doc": {"yes": 1}})
        assert excinfo.value.expression == "doc.nope"


class TestNames:
    def test_names_excludes_builtins(self):
        assert Expression("len(lines) > 0 and amount > max(a, b)").variables_used() == {
            "lines",
            "amount",
            "a",
            "b",
        }

    def test_attribute_chain_reads_its_root_variable(self):
        assert Expression("PO.amount > 10000").variables_used() == {"PO"}


class TestPaths:
    def test_maximal_chains_only(self):
        paths = Expression(
            "PO.amount > 10000 and PO.header.currency == 'USD'"
        ).paths()
        assert paths == {"PO.amount", "PO.header.currency"}

    def test_subscript_paths(self):
        assert Expression("doc['header'].po_number").paths() == {
            "doc.header.po_number"
        }
        assert Expression("lines[0].sku == 'X'").paths() == {"lines[0].sku"}

    def test_bare_names_are_not_paths(self):
        assert Expression("amount > 10").paths() == set()


class TestFoldConstant:
    def test_constant_expressions_fold(self):
        assert Expression("1 > 2").fold_constant() == (False,)
        assert Expression("1 + 1 == 2").fold_constant() == (True,)
        assert Expression("'a' + 'b'").fold_constant() == ("ab",)

    def test_variable_expressions_do_not_fold(self):
        assert Expression("amount > 10").fold_constant() is None

    def test_failing_constant_does_not_fold(self):
        assert Expression("1 / 0").fold_constant() is None
