"""Bytecode-level purity/effect analysis for computes and hooks.

The schema dataflow pass (:mod:`repro.verify.dataflow`) asks of every
``Compute`` function what it may touch.  :func:`analyze_function` scans
the function's bytecode and answers with:

* classification — ``pure`` (reads only its document and immutable
  closure state), ``reads-context`` (touches the per-call context
  mapping), or ``unanalyzable`` (no bytecode to inspect; B2B707);
* ``reads_globals`` — module-level names the function loads (informational:
  globals are assumed constant after catalog construction);
* ``may_raise`` — whether the bytecode contains an explicit ``raise``.

``functools.partial`` wrappers and bound methods are unwrapped (with the
context-parameter index shifted past the pre-bound arguments), so a
partial application of a pure document reader is classified as pure.
"""

from __future__ import annotations

import dis
import functools
from dataclasses import dataclass

__all__ = [
    "EFFECT_PURE",
    "EFFECT_READS_CONTEXT",
    "EFFECT_UNANALYZABLE",
    "FunctionEffects",
    "analyze_function",
]

EFFECT_PURE = "pure"
EFFECT_READS_CONTEXT = "reads-context"
EFFECT_UNANALYZABLE = "unanalyzable"

_CO_VARARGS = 0x04
_CO_VARKEYWORDS = 0x08

# Opcodes that surface an explicit ``raise`` statement.  RERAISE also
# appears in compiler-generated exception-table cleanup, so only
# RAISE_VARARGS counts as "this function deliberately raises".
_RAISE_OPCODES = frozenset({"RAISE_VARARGS"})


@dataclass(frozen=True)
class FunctionEffects:
    """The inferred effect summary of one compute/hook function."""

    classification: str
    reads_globals: tuple[str, ...] = ()
    may_raise: bool = False
    reason: str = ""

    @property
    def analyzable(self) -> bool:
        return self.classification != EFFECT_UNANALYZABLE


def _unwrap(fn, context_index: int):
    """Peel ``functools.partial`` and bound-method wrappers.

    Returns ``(code, context_index, reason)`` where ``code`` is the
    underlying code object (or None with a reason) and ``context_index``
    is the position of the context parameter inside that code object's
    argument list.
    """
    depth = 0
    while depth < 8:
        depth += 1
        if isinstance(fn, functools.partial):
            if fn.keywords:
                return None, 0, "partial with keyword arguments"
            context_index += len(fn.args)
            fn = fn.func
            continue
        bound_self = getattr(fn, "__self__", None)
        wrapped = getattr(fn, "__func__", None)
        if bound_self is not None and wrapped is not None:
            context_index += 1  # ``self`` occupies slot 0
            fn = wrapped
            continue
        break
    code = getattr(fn, "__code__", None)
    if code is None:
        return None, 0, "no inspectable bytecode"
    return code, context_index, ""


def analyze_function(fn, context_index: int = 1) -> FunctionEffects:
    """Analyze ``fn`` as called with its context at ``context_index``.

    Mapping computes and post hooks are invoked as ``fn(document,
    context)``, so the context parameter defaults to position 1.
    """
    code, context_index, reason = _unwrap(fn, context_index)
    if code is None:
        return FunctionEffects(EFFECT_UNANALYZABLE, reason=reason)
    if code.co_flags & (_CO_VARARGS | _CO_VARKEYWORDS):
        return FunctionEffects(EFFECT_UNANALYZABLE, reason="variadic signature")
    if code.co_argcount <= context_index:
        return FunctionEffects(
            EFFECT_UNANALYZABLE, reason="missing context parameter"
        )
    context_name = code.co_varnames[context_index]
    reads_context = False
    may_raise = False
    global_reads: list[str] = []
    for instruction in dis.get_instructions(code):
        argval = instruction.argval
        if argval == context_name or (
            isinstance(argval, tuple) and context_name in argval
        ):
            reads_context = True
        if instruction.opname == "LOAD_GLOBAL" and isinstance(argval, str):
            if argval not in global_reads:
                global_reads.append(argval)
        if instruction.opname in _RAISE_OPCODES:
            may_raise = True
    classification = EFFECT_READS_CONTEXT if reads_context else EFFECT_PURE
    return FunctionEffects(
        classification,
        reads_globals=tuple(global_reads),
        may_raise=may_raise,
    )
