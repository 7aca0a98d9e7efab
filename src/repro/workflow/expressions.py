"""Safe condition/data expression language for workflow types.

Transition conditions like the paper's ``PO.amount > 10000`` (Figure 1) or
``PO.amount >= 55000 and source == 'TP1'`` (Figure 9) are written in a
restricted Python-expression subset, compiled once per workflow type and
evaluated against the instance's variables.

Supported grammar: literals, variable names, dotted attribute access into
dicts and :class:`~repro.documents.model.Document` values, subscripts
(constant int/str keys or any supported sub-expression, e.g. ``items[i]``;
slices are rejected), arithmetic (``+ - * / % //``), comparisons (including
chained), ``and/or/not``, membership tests, and the ``len``/``min``/``max``/
``abs``/``round`` builtins.  Everything else — calls, lambdas,
comprehensions, attribute access on arbitrary objects — is rejected at
**compile** time, so a workflow type containing a malicious or malformed
condition fails at deployment, not mid-instance.

An expression is evaluated one way: :meth:`Expression.compile` lowers
the validated AST once into a closure tree (one Python callable per node)
and returns a ``variables -> value`` callable, which
:meth:`Expression.evaluate`, the workflow engine and the rule engine run.
``tests/workflow/reference_expressions.py`` keeps the tree-walking
interpreter it replaced, and property tests hold the compiled program to
it: the same value, or the same :class:`~repro.errors.ExpressionError`
message.
"""

from __future__ import annotations

import ast
from typing import Any, Callable, Mapping

from repro.documents.model import Document, DocumentPath
from repro.errors import DocumentPathError, ExpressionError

__all__ = ["Expression"]

_MARKER = object()

# Precompiled fallback paths for the paper's ``PO.amount`` convention.
_AMOUNT_PATHS = (
    DocumentPath("summary.total_amount"),
    DocumentPath("summary.accepted_amount"),
)

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


# Cache behind Expression.shared(); cleared wholesale at the limit rather
# than LRU-evicted — model builds re-prime it in one pass.
_SHARED: dict[str, "Expression"] = {}
_SHARED_LIMIT = 4096


class Expression:
    """A compiled, reusable expression.

    >>> Expression("PO.amount > 10000").evaluate({"PO": {"amount": 20000}})
    True
    """

    __slots__ = ("text", "_tree", "_compiled")

    def __init__(self, text: str):
        if not isinstance(text, str) or not text.strip():
            raise ExpressionError(
                f"empty expression: {text!r}",
                expression=text if isinstance(text, str) else "",
            )
        self.text = text
        try:
            tree = ast.parse(text, mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(
                f"syntax error in {text!r}: {exc.msg}", expression=text
            ) from None
        self._check(tree.body)
        self._tree = tree.body
        self._compiled: Callable[[Mapping[str, Any]], Any] | None = None

    @classmethod
    def shared(cls, text: str) -> "Expression":
        """A process-wide shared instance for ``text`` (bounded cache).

        Expressions are immutable after construction, so callers that
        repeatedly build the same source — definition validation on every
        model build, rule engines, generated naive topologies — can share
        one parsed/compiled instance instead of re-parsing.
        """
        expression = _SHARED.get(text)
        if expression is None:
            if len(_SHARED) >= _SHARED_LIMIT:
                _SHARED.clear()  # generated sweeps can produce unbounded text
            expression = _SHARED[text] = cls(text)
        return expression

    # -- compile-time whitelist ------------------------------------------------

    def _check(self, node: ast.AST) -> None:
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float, str, bool, type(None))):
                raise ExpressionError(
                    f"{self.text!r}: unsupported literal {node.value!r}",
                    expression=self.text,
                )
            return
        if isinstance(node, ast.Name):
            return
        if isinstance(node, ast.Attribute):
            self._check(node.value)
            return
        if isinstance(node, ast.Subscript):
            self._check(node.value)
            if isinstance(node.slice, ast.Slice):
                raise ExpressionError(
                    f"{self.text!r}: slice subscripts are not allowed",
                    expression=self.text,
                )
            if isinstance(node.slice, ast.Constant):
                if not isinstance(node.slice.value, (int, str)):
                    raise ExpressionError(
                        f"{self.text!r}: only int/str constant subscripts allowed",
                        expression=self.text,
                    )
                return
            # Non-constant subscripts (``items[i]``, ``row[col]``) are any
            # supported sub-expression, evaluated at runtime.
            self._check(node.slice)
            return
        if isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, (ast.Not, ast.USub, ast.UAdd)):
                raise ExpressionError(
                    f"{self.text!r}: unsupported unary operator",
                    expression=self.text,
                )
            self._check(node.operand)
            return
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _BIN_OPS:
                raise ExpressionError(
                    f"{self.text!r}: unsupported binary operator",
                    expression=self.text,
                )
            self._check(node.left)
            self._check(node.right)
            return
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._check(value)
            return
        if isinstance(node, ast.Compare):
            self._check(node.left)
            for op, comparator in zip(node.ops, node.comparators):
                if type(op) not in _COMPARE_OPS:
                    raise ExpressionError(
                        f"{self.text!r}: unsupported comparison",
                        expression=self.text,
                    )
                self._check(comparator)
            return
        if isinstance(node, ast.Call):
            if (
                not isinstance(node.func, ast.Name)
                or node.func.id not in _ALLOWED_FUNCTIONS
                or node.keywords
            ):
                raise ExpressionError(
                    f"{self.text!r}: only {sorted(_ALLOWED_FUNCTIONS)} may be called",
                    expression=self.text,
                )
            for argument in node.args:
                self._check(argument)
            return
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                self._check(element)
            return
        raise ExpressionError(
            f"{self.text!r}: construct {type(node).__name__} not allowed",
            expression=self.text,
        )

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, variables: Mapping[str, Any]) -> Any:
        """Evaluate against ``variables``; raises :class:`ExpressionError`."""
        return self.compile()(variables)

    def compile(self) -> Callable[[Mapping[str, Any]], Any]:
        """Lower the AST into a closure tree and return ``variables -> value``.

        The closure tree is built once (per :class:`Expression`) and cached;
        evaluating it performs no AST dispatch, only direct Python calls.
        Any failure is raised as an :class:`ExpressionError` naming the
        expression text.
        """
        compiled = self._compiled
        if compiled is None:
            program = self._lower(self._tree)
            text = self.text

            def run(variables: Mapping[str, Any]) -> Any:
                try:
                    return program(variables)
                except ExpressionError:
                    raise
                except Exception as exc:
                    raise ExpressionError(
                        f"evaluating {text!r}: {exc!r}", expression=text
                    ) from exc

            self._compiled = compiled = run
        return compiled

    def _lower(self, node: ast.AST) -> Callable[[Mapping[str, Any]], Any]:
        """Build the closure for one AST node (called once per node)."""
        text = self.text
        if isinstance(node, ast.Constant):
            value = node.value
            return lambda variables: value
        if isinstance(node, ast.Name):
            name = node.id

            def load_name(variables: Mapping[str, Any]) -> Any:
                try:
                    return variables[name]
                except KeyError:
                    raise ExpressionError(
                        f"{text!r}: unknown variable {name!r}", expression=text
                    ) from None

            return load_name
        if isinstance(node, ast.Attribute):
            inner = self._lower(node.value)
            accessor = self._make_accessor(node.attr)
            return lambda variables: accessor(inner(variables))
        if isinstance(node, ast.Subscript):
            inner = self._lower(node.value)
            if isinstance(node.slice, ast.Constant):
                accessor = self._make_accessor(node.slice.value)
                return lambda variables: accessor(inner(variables))
            access = self._access
            key_fn = self._lower(node.slice)
            return lambda variables: access(inner(variables), key_fn(variables))
        if isinstance(node, ast.UnaryOp):
            operand = self._lower(node.operand)
            if isinstance(node.op, ast.Not):
                return lambda variables: not operand(variables)
            if isinstance(node.op, ast.USub):
                return lambda variables: -operand(variables)
            return lambda variables: +operand(variables)
        if isinstance(node, ast.BinOp):
            operator = _BIN_OPS[type(node.op)]
            if isinstance(node.right, ast.Constant):
                left = self._lower(node.left)
                right_value = node.right.value
                return lambda variables: operator(left(variables), right_value)
            if isinstance(node.left, ast.Constant):
                left_value = node.left.value
                right = self._lower(node.right)
                return lambda variables: operator(left_value, right(variables))
            left = self._lower(node.left)
            right = self._lower(node.right)
            return lambda variables: operator(left(variables), right(variables))
        if isinstance(node, ast.BoolOp):
            parts = tuple(self._lower(value) for value in node.values)
            if isinstance(node.op, ast.And):

                def all_of(variables: Mapping[str, Any]) -> Any:
                    result: Any = True
                    for part in parts:
                        result = part(variables)
                        if not result:
                            return result
                    return result

                return all_of

            def any_of(variables: Mapping[str, Any]) -> Any:
                result: Any = False
                for part in parts:
                    result = part(variables)
                    if result:
                        return result
                return result

            return any_of
        if isinstance(node, ast.Compare):
            first = self._lower(node.left)
            pairs = tuple(
                (_COMPARE_OPS[type(op)], self._lower(comparator))
                for op, comparator in zip(node.ops, node.comparators)
            )
            if len(pairs) == 1:
                operator, second = pairs[0]
                if isinstance(node.comparators[0], ast.Constant):
                    constant = node.comparators[0].value
                    return lambda variables: bool(operator(first(variables), constant))
                return lambda variables: bool(
                    operator(first(variables), second(variables))
                )

            def chain(variables: Mapping[str, Any]) -> bool:
                left_value = first(variables)
                for operator, comparator in pairs:
                    right_value = comparator(variables)
                    if not operator(left_value, right_value):
                        return False
                    left_value = right_value
                return True

            return chain
        if isinstance(node, ast.Call):
            function = _ALLOWED_FUNCTIONS[node.func.id]  # type: ignore[attr-defined]
            arguments = tuple(self._lower(argument) for argument in node.args)
            return lambda variables: function(
                *(argument(variables) for argument in arguments)
            )
        if isinstance(node, (ast.Tuple, ast.List)):
            elements = tuple(self._lower(element) for element in node.elts)
            if isinstance(node, ast.Tuple):
                return lambda variables: tuple(
                    element(variables) for element in elements
                )
            return lambda variables: [element(variables) for element in elements]
        raise ExpressionError(  # pragma: no cover - compile check prevents this
            f"{self.text!r}: construct {type(node).__name__} not allowed",
            expression=self.text,
        )

    def _make_accessor(self, key: Any) -> Callable[[Any], Any]:
        """Build a specialized accessor for a key known at compile time.

        For string keys the document paths (``key``, ``header.key`` and the
        ``amount`` convention) are pre-compiled, so evaluating against a
        :class:`Document` performs no path parsing.  Semantics — including
        every error message — match :meth:`_access` exactly; anything not
        fast-pathed delegates to it.
        """
        text = self.text
        access = self._access
        if not isinstance(key, str):
            return lambda value: access(value, key)
        try:
            direct = DocumentPath(key)
            header = DocumentPath(f"header.{key}")
        except DocumentPathError:
            # Not a valid path segment (odd constant string subscript):
            # the generic accessor covers it.
            return lambda value: access(value, key)
        amount_paths = _AMOUNT_PATHS if key == "amount" else None

        def access_str(value: Any) -> Any:
            if isinstance(value, Document):
                if amount_paths is not None:
                    for candidate in amount_paths:
                        found = value.get(candidate, default=_MARKER)
                        if found is not _MARKER:
                            return found
                found = value.get(direct, default=_MARKER)
                if found is not _MARKER:
                    return found
                found = value.get(header, default=_MARKER)
                if found is not _MARKER:
                    return found
                raise ExpressionError(
                    f"{text!r}: document has no field {key!r}",
                    expression=text,
                )
            if isinstance(value, Mapping):
                if key in value:
                    return value[key]
                raise ExpressionError(
                    f"{text!r}: no key {key!r}", expression=text
                )
            return access(value, key)

        return access_str

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

    def variables_used(self) -> set[str]:
        """Return the top-level variable names this expression reads."""
        return {
            node.id
            for node in ast.walk(self._tree)
            if isinstance(node, ast.Name) and node.id not in _ALLOWED_FUNCTIONS
        }

    # -- static analysis (repro.verify) -------------------------------------------

    def paths(self) -> set[str]:
        """Dotted document paths referenced by this expression.

        ``PO.amount > 10000 and PO.header.currency == 'USD'`` yields
        ``{"PO.amount", "PO.header.currency"}``.  Only maximal access
        chains rooted at a variable are returned; constant string
        subscripts count as path segments, constant int subscripts as
        ``[i]`` list indexes.
        """
        found: set[str] = set()
        self._collect_paths(self._tree, found)
        return found

    def _collect_paths(self, node: ast.AST, found: set[str]) -> None:
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            dotted = self._dotted(node)
            if dotted is not None:
                found.add(dotted)
                return
        for child in ast.iter_child_nodes(node):
            self._collect_paths(child, found)

    def _dotted(self, node: ast.AST) -> str | None:
        """Render an access chain as a dotted path, or ``None`` when the
        chain does not bottom out at a plain variable name."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            base = self._dotted(node.value)
            return None if base is None else f"{base}.{node.attr}"
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            base = self._dotted(node.value)
            if base is None:
                return None
            key = node.slice.value
            return f"{base}[{key}]" if isinstance(key, int) else f"{base}.{key}"
        return None

    def fold_constant(self) -> tuple[Any] | None:
        """Constant-fold the expression.

        Returns a 1-tuple ``(value,)`` when the expression references no
        variables and evaluates cleanly, else ``None``.  The tuple wrapper
        distinguishes a folded ``None``/``False`` from "not constant" —
        the dead-edge/shadowed-branch checks of :mod:`repro.verify` rely
        on this.
        """
        if self.variables_used():
            return None
        try:
            return (self.compile()({}),)
        except ExpressionError:
            return None

    def __repr__(self) -> str:
        return f"Expression({self.text!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expression) and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)
