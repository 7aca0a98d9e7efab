"""Reference interpreter for the expression language: the code ``Expression.compile`` replaced.

``Expression.evaluate`` runs the closure tree that ``Expression.compile``
builds once per expression; it is the only evaluator the package has.
This module keeps, unchanged, the tree-walking interpreter that
re-dispatched on AST node types at every evaluation, as the oracle for
the property tests in ``test_expression_compile.py``: on any variables,
the compiled program must return the value this interpreter returns, or
raise an ``ExpressionError`` with the same message.

It has no production caller, and it shares no evaluation code with
``repro.workflow.expressions``: it reads only an :class:`Expression`'s
text and validated tree, and carries its own operator tables and
``_access``.
"""

from __future__ import annotations

import ast
from typing import Any, Mapping

from repro.documents.model import Document
from repro.errors import ExpressionError
from repro.workflow.expressions import Expression

__all__ = ["ReferenceExpression"]

_ALLOWED_FUNCTIONS: dict[str, Any] = {
    "len": len,
    "min": min,
    "max": max,
    "abs": abs,
    "round": round,
}

_BIN_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Mod: lambda a, b: a % b,
    ast.FloorDiv: lambda a, b: a // b,
}

_COMPARE_OPS = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
    ast.In: lambda a, b: a in b,
    ast.NotIn: lambda a, b: a not in b,
    ast.Is: lambda a, b: a is b,
    ast.IsNot: lambda a, b: a is not b,
}


class ReferenceExpression:
    """The interpreter over one :class:`Expression`'s validated tree."""

    def __init__(self, expression: Expression):
        self.text = expression.text
        self._tree = expression._tree

    def evaluate(self, variables: Mapping[str, Any]) -> Any:
        """Evaluate against ``variables``; raises :class:`ExpressionError`."""
        try:
            return self._eval(self._tree, variables)
        except ExpressionError:
            raise
        except Exception as exc:
            raise ExpressionError(
                f"evaluating {self.text!r}: {exc!r}", expression=self.text
            ) from exc

    def evaluate_bool(self, variables: Mapping[str, Any]) -> bool:
        """Evaluate as a condition (result coerced with ``bool``)."""
        return bool(self.evaluate(variables))

    def _eval(self, node: ast.AST, variables: Mapping[str, Any]) -> Any:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id not in variables:
                raise ExpressionError(
                    f"{self.text!r}: unknown variable {node.id!r}",
                    expression=self.text,
                )
            return variables[node.id]
        if isinstance(node, ast.Attribute):
            value = self._eval(node.value, variables)
            return self._access(value, node.attr)
        if isinstance(node, ast.Subscript):
            value = self._eval(node.value, variables)
            if isinstance(node.slice, ast.Constant):
                key = node.slice.value
            else:
                key = self._eval(node.slice, variables)
            return self._access(value, key)
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, variables)
            if isinstance(node.op, ast.Not):
                return not operand
            if isinstance(node.op, ast.USub):
                return -operand
            return +operand
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, variables)
            right = self._eval(node.right, variables)
            return _BIN_OPS[type(node.op)](left, right)
        if isinstance(node, ast.BoolOp):
            if isinstance(node.op, ast.And):
                result: Any = True
                for value in node.values:
                    result = self._eval(value, variables)
                    if not result:
                        return result
                return result
            for value in node.values:
                result = self._eval(value, variables)
                if result:
                    return result
            return result
        if isinstance(node, ast.Compare):
            left = self._eval(node.left, variables)
            for op, comparator in zip(node.ops, node.comparators):
                right = self._eval(comparator, variables)
                if not _COMPARE_OPS[type(op)](left, right):
                    return False
                left = right
            return True
        if isinstance(node, ast.Call):
            function = _ALLOWED_FUNCTIONS[node.func.id]  # type: ignore[attr-defined]
            return function(*(self._eval(argument, variables) for argument in node.args))
        if isinstance(node, (ast.Tuple, ast.List)):
            values = [self._eval(element, variables) for element in node.elts]
            return tuple(values) if isinstance(node, ast.Tuple) else values
        raise ExpressionError(
            f"{self.text!r}: construct {type(node).__name__} not allowed",
            expression=self.text,
        )  # pragma: no cover - compile check prevents this

    def _access(self, value: Any, key: Any) -> Any:
        """Resolve attribute/subscript access into containers and documents.

        The paper writes ``PO.amount``; when ``PO`` is a normalized
        purchase-order document, ``amount`` resolves to the computed
        ``summary.total_amount``.
        """
        if isinstance(value, Document):
            if key == "amount":
                for candidate in ("summary.total_amount", "summary.accepted_amount"):
                    if value.has(candidate):
                        return value.get(candidate)
            if isinstance(key, str) and value.has(key):
                return value.get(key)
            if isinstance(key, str) and value.has(f"header.{key}"):
                return value.get(f"header.{key}")
            raise ExpressionError(
                f"{self.text!r}: document has no field {key!r}",
                expression=self.text,
            )
        if isinstance(value, Mapping):
            if key in value:
                return value[key]
            raise ExpressionError(
                f"{self.text!r}: no key {key!r}", expression=self.text
            )
        if isinstance(value, (list, tuple)) and isinstance(key, int):
            try:
                return value[key]
            except IndexError:
                raise ExpressionError(
                    f"{self.text!r}: index {key} out of range",
                    expression=self.text,
                ) from None
        raise ExpressionError(
            f"{self.text!r}: cannot access {key!r} on {type(value).__name__}",
            expression=self.text,
        )
