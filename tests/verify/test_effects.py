"""The shared purity/effect analyzer (:mod:`repro.verify.effects`)."""

import functools

from repro.verify.effects import (
    EFFECT_PURE,
    EFFECT_READS_CONTEXT,
    EFFECT_UNANALYZABLE,
    analyze_function,
)

TOTAL = 100.0


def pure_reader(document, context):
    return document.get("summary.total")


def context_reader(document, context):
    return context["now"]


def raising_reader(document, context):
    value = document.get("summary.total")
    if value is None:
        raise ValueError("missing total")
    return value


def global_reader(document, context):
    return TOTAL + document.get("summary.total")


def generic_reader(path, document, context):
    return document.get(path)


def generic_context_reader(key, document, context):
    return context.get(key)


class Extractor:
    def __init__(self, path):
        self.path = path

    def read(self, document, context):
        return document.get(self.path)

    def read_context(self, document, context):
        return context.get(self.path)


class TestAnalyzeFunction:
    def test_pure_document_reader(self):
        effects = analyze_function(pure_reader)
        assert effects.classification == EFFECT_PURE
        assert effects.analyzable
        assert not effects.may_raise

    def test_context_reader(self):
        effects = analyze_function(context_reader)
        assert effects.classification == EFFECT_READS_CONTEXT
        assert effects.analyzable

    def test_explicit_raise_is_flagged(self):
        assert analyze_function(raising_reader).may_raise
        assert not analyze_function(pure_reader).may_raise

    def test_global_reads_are_collected(self):
        effects = analyze_function(global_reader)
        assert "TOTAL" in effects.reads_globals
        assert effects.classification == EFFECT_PURE

    def test_builtin_is_unanalyzable(self):
        effects = analyze_function(len)
        assert effects.classification == EFFECT_UNANALYZABLE
        assert effects.reason == "no inspectable bytecode"
        assert not effects.analyzable

    def test_variadic_is_unanalyzable(self):
        effects = analyze_function(lambda *args: None)
        assert effects.classification == EFFECT_UNANALYZABLE
        assert effects.reason == "variadic signature"

    def test_missing_context_parameter_is_unanalyzable(self):
        effects = analyze_function(lambda document: None)
        assert effects.classification == EFFECT_UNANALYZABLE
        assert effects.reason == "missing context parameter"


class TestWidening:
    """Wrappers without a ``__code__`` of their own are unwrapped."""

    def test_partial_of_pure_reader_is_pure(self):
        fn = functools.partial(generic_reader, "summary.total")
        assert not hasattr(fn, "__code__")
        assert analyze_function(fn).classification == EFFECT_PURE

    def test_partial_of_context_reader_still_reads_context(self):
        fn = functools.partial(generic_context_reader, "now")
        assert analyze_function(fn).classification == EFFECT_READS_CONTEXT

    def test_partial_with_keywords_is_unanalyzable(self):
        fn = functools.partial(generic_reader, path="summary.total")
        effects = analyze_function(fn)
        assert effects.classification == EFFECT_UNANALYZABLE
        assert effects.reason == "partial with keyword arguments"

    def test_bound_method_reader_is_pure(self):
        fn = Extractor("summary.total").read
        assert analyze_function(fn).classification == EFFECT_PURE

    def test_bound_method_context_reader_reads_context(self):
        fn = Extractor("now").read_context
        assert analyze_function(fn).classification == EFFECT_READS_CONTEXT

    def test_nested_partial_unwraps(self):
        def deep(a, b, document, context):
            return document.get(a) or document.get(b)

        fn = functools.partial(functools.partial(deep, "x"), "y")
        assert analyze_function(fn).classification == EFFECT_PURE

