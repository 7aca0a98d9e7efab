"""Transformation registry and router.

The registry owns every :class:`~repro.transform.mapping.Mapping` deployed
in an enterprise and answers transformation requests:

* ``transform(document, target_format)`` — direct mapping when one is
  registered, otherwise routed **through the normalized format as a hub**
  (``wire -> normalized -> back-end``), which is exactly the paper's
  argument for a normalized format: with *n* formats you maintain ``2n``
  expert mappings instead of ``n*(n-1)`` pairwise ones (Section 4.2).

Resolved routes compile into :class:`RouteExecutor` objects, each running
its chain of lowered mappings; the registry memoizes one executor per
route until the next registration, and counts every application per
mapping in ``stats``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Mapping as TypingMapping

from repro.documents.model import Document
from repro.documents.normalized import NORMALIZED
from repro.errors import ConfigurationError, NoRouteError
from repro.transform.mapping import Mapping

__all__ = ["RouteExecutor", "TransformationRegistry"]


class RouteExecutor:
    """One resolved route, compiled.

    Built (and memoized) by :meth:`TransformationRegistry.executor`; holds
    the compiled mapping chain.
    """

    __slots__ = ("registry", "route_label", "compiled")

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

    def apply(
        self, document: Document, context: TypingMapping[str, Any] | None = None
    ) -> Document:
        """Run the chain on one document, counting each mapping applied."""
        stats = self.registry.stats
        result = document
        for compiled in self.compiled:
            result = compiled.apply(result, context)
            stats[compiled.name] += 1
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RouteExecutor({self.route_label!r}, {len(self.compiled)} hop(s))"


class TransformationRegistry:
    """A catalog of mappings keyed by ``(source_format, target_format, doc_type)``.

    :param hub_format: the pivot layout for two-step routing; the paper's
        normalized format by default.
    """

    def __init__(self, hub_format: str = NORMALIZED):
        self.hub_format = hub_format
        self._mappings: dict[tuple[str, str, str], Mapping] = {}
        self.stats: Counter[str] = Counter()
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
        self._executors.clear()
        return mapping

    def register_all(self, mappings: Iterable[Mapping]) -> None:
        """Register every mapping in ``mappings``."""
        for mapping in mappings:
            self.register(mapping)

    # -- lookup ---------------------------------------------------------------

    def find(self, source_format: str, target_format: str, doc_type: str) -> Mapping | None:
        """Return the direct mapping for the triple, or ``None``."""
        return self._mappings.get((source_format, target_format, doc_type))

    def route(
        self, source_format: str, target_format: str, doc_type: str
    ) -> tuple[Mapping, ...]:
        """Return the mapping chain from source to target (0, 1 or 2 hops).

        Raises :class:`NoRouteError` when neither a direct mapping nor a
        hub route exists.
        """
        if source_format == target_format:
            return ()
        direct = self.find(source_format, target_format, doc_type)
        if direct is not None:
            return (direct,)
        inbound = self.find(source_format, self.hub_format, doc_type)
        outbound = self.find(self.hub_format, target_format, doc_type)
        if inbound is not None and outbound is not None:
            return (inbound, outbound)
        raise NoRouteError(
            f"no transformation route {source_format!r} -> {target_format!r} "
            f"for doc_type {doc_type!r}"
        )

    def executor(
        self, source_format: str, target_format: str, doc_type: str
    ) -> RouteExecutor | None:
        """The compiled executor for a route; ``None`` for the identity
        route (document already in the target format).

        Executors are memoized per route and dropped on registration, so a
        stale executor can never serve a reconfigured registry.
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
