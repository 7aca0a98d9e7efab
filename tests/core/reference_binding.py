"""Reference binding-chain interpreter.

:class:`~repro.core.binding.Binding` runs each chain as a cached plan of
resolved transformation routes.  :func:`run_chain` walks the chain step
by step through ``registry.transform`` with no plan, as bindings did
before planning; ``test_binding_plan.py`` holds the planned path to its
results.  It has no production caller.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.binding import KIND_CONSUME, KIND_PRODUCE, Binding, BindingStep
from repro.documents.model import Document
from repro.errors import BindingError
from repro.transform.transformer import TransformationRegistry

__all__ = ["run_chain"]


def run_chain(
    binding: Binding,
    chain: list[BindingStep],
    document: Document | None,
    registry: TransformationRegistry,
    context: Mapping[str, Any],
) -> Document | None:
    """Run ``chain`` of ``binding`` on ``document``; ``None`` means it was consumed."""
    for step in chain:
        if step.kind == KIND_CONSUME:
            return None
        if step.kind == KIND_PRODUCE:
            assert step.producer is not None
            document = step.producer(context)
            continue
        if document is None:
            raise BindingError(
                f"binding {binding.name!r}: step {step.step_id!r} has no "
                "document to transform (consumed earlier in the chain?)"
            )
        document = registry.transform(document, step.target_format, context)
    return document
