"""Property tests: Expression.compile() is behaviourally identical to the
reference interpreter in ``reference_expressions``.

Random expressions from the allowed grammar are generated and both are run
over random variable assignments.  Identity must hold for results AND for
error cases — the compiled program may not change which programs fail or
how their failures read.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.documents.normalized import make_purchase_order
from repro.errors import ExpressionError
from repro.workflow.expressions import Expression
from tests.workflow.reference_expressions import ReferenceExpression

# -- random expression generator over the allowed grammar ---------------------

_NAMES = ("alpha", "beta", "gamma")
_FUNCTIONS = ("len", "min", "max", "abs", "round", "str", "int", "float", "bool")


@st.composite
def expressions(draw, depth=3):
    """A random source string from the allowed grammar."""
    choices = ["literal", "name"]
    if depth > 0:
        choices += ["binop", "unary", "boolop", "compare", "call",
                    "subscript", "tuple"]
    kind = draw(st.sampled_from(choices))
    sub = lambda: draw(expressions(depth=depth - 1))  # noqa: E731
    if kind == "literal":
        return repr(draw(st.one_of(
            st.integers(-100, 100),
            st.floats(-100, 100, allow_nan=False),
            st.booleans(),
            st.text(alphabet="abxy", max_size=3),
        )))
    if kind == "name":
        return draw(st.sampled_from(_NAMES))
    if kind == "binop":
        op = draw(st.sampled_from(["+", "-", "*", "/", "%", "//"]))
        return f"({sub()} {op} {sub()})"
    if kind == "unary":
        op = draw(st.sampled_from(["not ", "-", "+"]))
        return f"({op}{sub()})"
    if kind == "boolop":
        op = draw(st.sampled_from([" and ", " or "]))
        return f"({sub()}{op}{sub()})"
    if kind == "compare":
        op = draw(st.sampled_from(["==", "!=", "<", "<=", ">", ">=", " in "]))
        return f"({sub()} {op} {sub()})"
    if kind == "call":
        function = draw(st.sampled_from(_FUNCTIONS))
        return f"{function}({sub()})"
    if kind == "subscript":
        index = draw(st.one_of(st.integers(-3, 3), st.sampled_from(_NAMES)))
        return f"{sub()}[{index}]"
    return f"({sub()}, {sub()})"


def variable_assignments():
    values = st.one_of(
        st.integers(-50, 50),
        st.floats(-50, 50, allow_nan=False),
        st.booleans(),
        st.text(alphabet="abxy", max_size=3),
        st.lists(st.integers(0, 9), max_size=4),
        st.dictionaries(st.sampled_from(["k1", "k2"]), st.integers(0, 9), max_size=2),
    )
    return st.fixed_dictionaries({name: values for name in _NAMES})


def _outcome(runner, variables):
    """(kind, payload) of one evaluation: a result or a failure message."""
    try:
        return ("ok", runner(variables))
    except ExpressionError as exc:
        return ("expression-error", str(exc))


@settings(max_examples=300, deadline=None)
@given(source=expressions(), variables=variable_assignments())
def test_compiled_matches_interpreted(source, variables):
    try:
        expression = Expression(source)
    except ExpressionError:
        return  # grammar corner the validator rejects: nothing to compare
    program = expression.compile()
    interpreted = _outcome(ReferenceExpression(expression).evaluate, variables)
    compiled = _outcome(program, variables)
    assert compiled == interpreted


@settings(max_examples=50, deadline=None)
@given(variables=variable_assignments())
def test_truth_matches_interpreted(variables):
    expression = Expression("alpha and not beta or gamma == 3")
    assert expression.compile()(variables) == ReferenceExpression(expression).evaluate(variables)


# -- document-access identity (the Figure 9 hot path) -------------------------

LINES = [
    {"sku": "LAPTOP-15", "quantity": 50, "unit_price": 1200.0},
    {"sku": "DOCK-1", "quantity": 5, "unit_price": 150.0},
]

DOCUMENT_EXPRESSIONS = [
    "PO.amount",
    "PO.amount >= 55000 and source == 'TP1' or PO.amount >= 40000 and source == 'TP2'",
    "PO.order_id",
    "PO.header",
    "len(PO.lines)",
    "PO.lines[0]['sku']",
    "PO.missing_field",
    "PO['also.missing']",
]


@pytest.mark.parametrize("source", DOCUMENT_EXPRESSIONS)
@pytest.mark.parametrize("partner", ["TP1", "TP2"])
def test_document_access_identity(source, partner):
    expression = Expression(source)
    variables = {
        "PO": make_purchase_order("P1", partner, "ACME", LINES),
        "source": partner,
    }
    assert _outcome(expression.compile(), variables) == _outcome(
        ReferenceExpression(expression).evaluate, variables
    )


def test_error_messages_identical_for_unknown_variable():
    expression = Expression("nope + 1")
    interpreted = _outcome(ReferenceExpression(expression).evaluate, {})
    compiled = _outcome(expression.compile(), {})
    assert interpreted[0] == "expression-error"
    assert compiled == interpreted


def test_compile_is_cached():
    expression = Expression("1 + 1")
    assert expression.compile() is expression.compile()
