"""Transformation registry and router.

The registry owns every :class:`~repro.transform.mapping.Mapping` deployed
in an enterprise and answers transformation requests:

* ``transform(document, target_format)`` — direct mapping when one is
  registered, otherwise routed **through the normalized format as a hub**
  (``wire -> normalized -> back-end``), which is exactly the paper's
  argument for a normalized format: with *n* formats you maintain ``2n``
  expert mappings instead of ``n*(n-1)`` pairwise ones (Section 4.2).

Resolved routes compile into cached :class:`RouteExecutor` objects, which
also consult the optional content-addressed result cache
(:meth:`enable_cache`): cacheable chains (a static property, computed at
compile time) are memoized on ``(content digest, chain fingerprints,
registry version)``; context-sensitive chains bypass the cache.

Application counters (`stats`) feed the transformation benchmarks; pass
``collect_stats=False`` to skip the per-application Counter update on
hot paths that do not need it.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Mapping as TypingMapping

from repro.documents.model import Document
from repro.documents.normalized import NORMALIZED
from repro.errors import ConfigurationError, NoRouteError
from repro.transform.cache import TransformCache
from repro.transform.mapping import Mapping

__all__ = ["RouteExecutor", "TransformationRegistry"]


class RouteExecutor:
    """One resolved route, compiled and cache-aware.

    Built (and memoized) by :meth:`TransformationRegistry.executor`; holds
    the compiled mapping chain, the chain's fingerprint tuple (the mapping
    half of the cache key) and its static cacheability verdict.
    """

    __slots__ = ("registry", "route_label", "compiled", "names", "chain_key", "cacheable")

    def __init__(
        self,
        registry: "TransformationRegistry",
        key: tuple[str, str, str],
        chain: tuple[Mapping, ...],
    ):
        source_format, target_format, doc_type = key
        self.registry = registry
        self.route_label = f"{source_format}->{target_format}/{doc_type}"
        self.compiled = tuple(mapping.compile() for mapping in chain)
        self.names = tuple(compiled.name for compiled in self.compiled)
        self.chain_key = tuple(mapping.fingerprint() for mapping in chain)
        self.cacheable = all(compiled.cacheable for compiled in self.compiled)

    def _cache_key(self, document: Document) -> tuple:
        return (document.content_digest(), self.chain_key, self.registry.version)

    def apply(
        self, document: Document, context: TypingMapping[str, Any] | None = None
    ) -> Document:
        """Run the chain on one document, consulting the result cache.

        Cache hits still count as logical mapping applications in
        ``registry.stats`` — enabling the cache must not change what the
        engine counters report.
        """
        registry = self.registry
        cache = registry.cache
        use_cache = cache is not None and self.cacheable
        if use_cache:
            key = self._cache_key(document)
            hit = cache.lookup(key, self.route_label)
            if hit is not None:
                if registry.collect_stats:
                    stats = registry.stats
                    for name in self.names:
                        stats[name] += 1
                return hit
        elif cache is not None:
            cache.note_bypass(self.route_label)
        result = document
        if registry.collect_stats:
            stats = registry.stats
            for compiled in self.compiled:
                result = compiled.apply(result, context)
                stats[compiled.name] += 1
        else:
            for compiled in self.compiled:
                result = compiled.apply(result, context)
        if use_cache:
            cache.store(key, result, self.route_label)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cached = "cacheable" if self.cacheable else "context-sensitive"
        return f"RouteExecutor({self.route_label!r}, {len(self.compiled)} hop(s), {cached})"


class TransformationRegistry:
    """A catalog of mappings keyed by ``(source_format, target_format, doc_type)``.

    :param hub_format: the pivot layout for two-step routing; the paper's
        normalized format by default.
    :param collect_stats: update the per-mapping application Counter on
        every transformation (the default).  Disable on hot paths where
        the Counter update itself is measurable.
    """

    def __init__(self, hub_format: str = NORMALIZED, collect_stats: bool = True):
        self.hub_format = hub_format
        self.collect_stats = collect_stats
        self._mappings: dict[tuple[str, str, str], Mapping] = {}
        self.stats: Counter[str] = Counter()
        #: bumped on every registration; binding plan caches and the result
        #: cache key on it so a reconfigured registry invalidates every
        #: cached execution plan and memoized result.
        self.version = 0
        #: optional content-addressed result cache (:meth:`enable_cache`).
        self.cache: TransformCache | None = None
        self._route_cache: dict[tuple[str, str, str], tuple[Mapping, ...]] = {}
        self._executors: dict[tuple[str, str, str], RouteExecutor] = {}

    # -- registration --------------------------------------------------------

    def register(self, mapping: Mapping) -> Mapping:
        """Register ``mapping``; duplicate routes are configuration bugs."""
        key = (mapping.source_format, mapping.target_format, mapping.doc_type)
        if key in self._mappings:
            raise ConfigurationError(
                f"a mapping for {key} is already registered "
                f"({self._mappings[key].name!r})"
            )
        self._mappings[key] = mapping
        self.version += 1
        self._route_cache.clear()
        self._executors.clear()
        if self.cache is not None:
            # The version bump already makes old keys unreachable; dropping
            # the entries too keeps them from squatting in the LRU.
            self.cache.clear()
        return mapping

    def register_all(self, mappings: Iterable[Mapping]) -> None:
        """Register every mapping in ``mappings``."""
        for mapping in mappings:
            self.register(mapping)

    # -- result cache --------------------------------------------------------

    def enable_cache(self, capacity: int = 4096) -> TransformCache:
        """Attach (or resize) the content-addressed result cache."""
        self.cache = TransformCache(capacity)
        return self.cache

    def disable_cache(self) -> None:
        """Detach the result cache (entries are dropped)."""
        self.cache = None

    def cache_stats(self) -> dict[str, Any]:
        """The cache's aggregate + per-route counters (empty dict when no
        cache is attached) — the registry stats surface for observability."""
        return self.cache.snapshot() if self.cache is not None else {}

    # -- lookup ---------------------------------------------------------------

    def find(self, source_format: str, target_format: str, doc_type: str) -> Mapping | None:
        """Return the direct mapping for the triple, or ``None``."""
        return self._mappings.get((source_format, target_format, doc_type))

    def route(
        self, source_format: str, target_format: str, doc_type: str
    ) -> tuple[Mapping, ...]:
        """Return the mapping chain from source to target (1 or 2 hops).

        Raises :class:`NoRouteError` when neither a direct mapping nor a
        hub route exists.  Successful resolutions are cached until the next
        registration; the cached tuple itself is returned (no per-call
        allocation), so callers must not assume a private list.
        """
        key = (source_format, target_format, doc_type)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        chain = tuple(self._resolve_route(source_format, target_format, doc_type))
        self._route_cache[key] = chain
        return chain

    def _resolve_route(
        self, source_format: str, target_format: str, doc_type: str
    ) -> list[Mapping]:
        if source_format == target_format:
            return []
        direct = self.find(source_format, target_format, doc_type)
        if direct is not None:
            return [direct]
        inbound = self.find(source_format, self.hub_format, doc_type)
        outbound = self.find(self.hub_format, target_format, doc_type)
        if inbound is not None and outbound is not None:
            return [inbound, outbound]
        raise NoRouteError(
            f"no transformation route {source_format!r} -> {target_format!r} "
            f"for doc_type {doc_type!r}"
        )

    def executor(
        self, source_format: str, target_format: str, doc_type: str
    ) -> RouteExecutor | None:
        """The compiled, cache-aware executor for a route; ``None`` for the
        identity route (document already in the target format).

        Executors are memoized alongside the route cache and dropped on
        registration, so a stale executor can never serve a reconfigured
        registry.
        """
        if source_format == target_format:
            return None
        key = (source_format, target_format, doc_type)
        executor = self._executors.get(key)
        if executor is None:
            executor = RouteExecutor(self, key, self.route(*key))
            self._executors[key] = executor
        return executor

    def formats(self) -> set[str]:
        """Return every format name appearing in a registered mapping."""
        names: set[str] = set()
        for source, target, _ in self._mappings:
            names.add(source)
            names.add(target)
        return names

    def mappings(self) -> list[Mapping]:
        """Return all registered mappings (for metrics and change analysis)."""
        return list(self._mappings.values())

    def __len__(self) -> int:
        return len(self._mappings)

    # -- execution -------------------------------------------------------------

    def transform(
        self,
        document: Document,
        target_format: str,
        context: TypingMapping[str, Any] | None = None,
    ) -> Document:
        """Transform ``document`` into ``target_format``.

        Identity when the document is already in the target format.
        """
        executor = self.executor(document.format_name, target_format, document.doc_type)
        if executor is None:
            return document
        return executor.apply(document, context)

    def precompile(self) -> int:
        """Compile every registered mapping eagerly; returns the count.

        Catalog construction calls this so the first message through a
        fresh registry pays no lowering cost.
        """
        for mapping in self._mappings.values():
            mapping.compile()
        return len(self._mappings)

    def applications(self) -> int:
        """Total number of mapping applications performed so far."""
        return sum(self.stats.values())
