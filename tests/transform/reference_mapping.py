"""Reference interpreter for the mapping language: the code ``Mapping.compile`` replaced.

``Mapping.apply`` runs the :class:`~repro.transform.mapping.CompiledMapping`
that ``Mapping.compile`` lowers once per mapping, whose rules read and
write the raw ``data`` dicts; it is the only way the package applies a
mapping.  This module keeps, unchanged, the interpreter that applied each
``Field``, ``Const``, ``Compute`` and ``Each`` rule through
``Document.get``/``Document.set``, re-splitting its path strings on every
document, as the oracle for the property tests in
``test_mapping_compile.py`` and the dataflow soundness tests: on any
document, the compiled program must return the document :func:`apply`
returns, dict key order included, or raise the same exception type with
the same message.

It has no production caller, and it shares no application code with
``repro.transform.mapping``: it reads only the rule declarations, the
mapping's formats, schemas and post hook, and ``MISSING``.
"""

from __future__ import annotations

from typing import Any, Mapping as TypingMapping

from repro.documents.model import Document
from repro.errors import MappingError, TransformError
from repro.transform.mapping import MISSING, Compute, Const, Each, Field, Mapping

__all__ = ["apply", "apply_rule"]

Context = TypingMapping[str, Any]


def apply(mapping: Mapping, document: Document, context: Context | None = None) -> Document:
    """Transform ``document`` and return the new target-format document."""
    context = context or {}
    if document.format_name != mapping.source_format:
        raise TransformError(
            f"mapping {mapping.name!r} expects format {mapping.source_format!r}, "
            f"got {document.format_name!r}"
        )
    if document.doc_type != mapping.doc_type:
        raise TransformError(
            f"mapping {mapping.name!r} expects doc_type {mapping.doc_type!r}, "
            f"got {document.doc_type!r}"
        )
    if mapping.source_schema is not None:
        mapping.source_schema.validate(document)
    target = Document(mapping.target_format, mapping.doc_type, {})
    for rule in mapping.rules:
        apply_rule(rule, document, target, context)
    if mapping.post is not None:
        mapping.post(document, target, context)
    if mapping.target_schema is not None:
        mapping.target_schema.validate(target)
    return target


def apply_rule(rule: Any, source_doc: Document, target_doc: Document, context: Context) -> None:
    """Apply one rule of any kind to ``target_doc``."""
    _APPLY[type(rule)](rule, source_doc, target_doc, context)


def _apply_field(
    rule: Field, source_doc: Document, target_doc: Document, context: Context
) -> None:
    marker = object()
    value = source_doc.get(rule.source, default=marker)
    if value is marker:
        if rule.default is not MISSING:
            target_doc.set(rule.target, rule.default)
            return
        if rule.required:
            raise MappingError(
                f"source path {rule.source!r} missing "
                f"(mapping to {rule.target!r})"
            )
        return
    if rule.convert is not None:
        try:
            value = rule.convert(value)
        except TransformError:
            raise
        except Exception as exc:
            raise MappingError(
                f"converter failed on {rule.source!r} -> {rule.target!r}: {exc!r}"
            ) from exc
    target_doc.set(rule.target, value)


def _apply_const(
    rule: Const, source_doc: Document, target_doc: Document, context: Context
) -> None:
    target_doc.set(rule.target, rule.value)


def _apply_compute(
    rule: Compute, source_doc: Document, target_doc: Document, context: Context
) -> None:
    try:
        value = rule.fn(source_doc, context)
    except TransformError:
        raise
    except Exception as exc:
        name = rule.label or getattr(rule.fn, "__name__", "<fn>")
        raise MappingError(
            f"compute {name!r} for target {rule.target!r} failed: {exc!r}"
        ) from exc
    target_doc.set(rule.target, value)


def _apply_each(
    rule: Each, source_doc: Document, target_doc: Document, context: Context
) -> None:
    items = source_doc.get(rule.source, default=MISSING)
    if items is MISSING or not isinstance(items, list):
        raise MappingError(f"source path {rule.source!r} is not a list")
    if len(items) < rule.min_items:
        raise MappingError(
            f"source list {rule.source!r} has {len(items)} item(s), "
            f"mapping requires at least {rule.min_items}"
        )
    built: list[Any] = []
    for index, item in enumerate(items):
        if not isinstance(item, dict):
            raise MappingError(
                f"{rule.source}[{index}] is {type(item).__name__}, expected dict"
            )
        item_source = Document(source_doc.format_name, "item", item)
        item_target = Document(target_doc.format_name, "item", {})
        item_context = {**context, "_index": index, "_ordinal": index + 1}
        for nested in rule.rules:
            apply_rule(nested, item_source, item_target, item_context)
        built.append(item_target.data)
    target_doc.set(rule.target, built)


_APPLY = {Field: _apply_field, Const: _apply_const, Compute: _apply_compute, Each: _apply_each}
