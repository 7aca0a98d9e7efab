"""Incremental verification: fingerprint-keyed re-verification.

Deep lint is sound but not free: every model pays for workflow, mapping,
binding and conversation checks on every run.  At registry scale (the
ROADMAP's 10k-partner deployment) that turns the deploy-path lint into
minutes of redundant work, because almost nothing changed since the last
run.  This module makes the verifier incremental the same way PR 3 made
binding plans cacheable: **content digests**.

Digest composition
------------------

Every unit of verification (an :class:`~repro.core.integration.
IntegrationModel` or a bare workflow type) is reduced to a map of
*component digests* — ``mapping:<name>``, ``protocol:<name>``,
``public:<name>``, ``binding:<name>``, ``private:<name>``,
``schema:<doc_type>``, ``partner:<id>``, ``agreement:<key>``,
``rule:<set>:<name>``, ``application:<name>`` — each a SHA-256 over the
component's full content (rules, schemas, step lists, descriptors),
with callables identified by their qualified name.  The unit's
*verification digest* hashes the sorted component digests together with
the verify options (``deep``/``dataflow``/``queue_bound``/
``max_states``/``time_budget``/``reduce``) and :data:`ENGINE_VERSION`,
so a verifier
upgrade or an option change invalidates everything while an untouched
model is a guaranteed hit.

Invalidation rules
------------------

A cached verdict is reused iff the unit's verification digest is
unchanged.  Because the digest is composed from per-component digests,
editing one shared component (a mapping registry used by two models, a
protocol descriptor, one binding) changes exactly the digests of the
units containing it — its *dependents* — and nothing else:
:meth:`VerificationCache.dependents` exposes that map for reporting,
and :meth:`VerificationCache.invalidations` names the changed
components for one unit.

The persisted cache (``.repro-lint-cache.json`` by default) stores, per
unit: the digest, the component digests, the diagnostics verbatim
(:meth:`~repro.verify.diagnostics.Diagnostic.to_dict` round-trip), and
the exploration stats, so a warm re-lint reports identical findings and
counts without re-running anything.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.verify.diagnostics import Diagnostic

__all__ = [
    "ENGINE_VERSION",
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_PATH",
    "ModelReport",
    "VerificationCache",
    "IncrementalVerifier",
    "component_digests",
    "content_digest",
    "options_digest",
    "verification_digest",
    "verify_unit",
]

ENGINE_VERSION = "2"
"""Bumped whenever verifier semantics change; embedded in every digest so
stale caches from an older engine can never satisfy a newer lint.

History: ``"1"`` predates the B2B7xx schema dataflow pass; ``"2"`` adds
that pass and the shared effect analyzer."""

CACHE_SCHEMA = "repro-lint-cache/1"
DEFAULT_CACHE_PATH = ".repro-lint-cache.json"


# ---------------------------------------------------------------------------
# Content digests
# ---------------------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """Reduce ``value`` to a JSON-stable structure for digesting.

    Callables are identified by module-qualified name (stable across
    processes, unlike ``repr`` which embeds addresses); dataclasses are
    walked field by field so nested rule content — e.g. the per-item
    rules inside an ``Each`` mapping rule — participates in the digest.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {
            str(key): _jsonable(item)
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        payload: dict[str, Any] = {"__kind__": type(value).__name__}
        for spec in dataclasses.fields(value):
            payload[spec.name] = _jsonable(getattr(value, spec.name))
        return payload
    if callable(value):
        qualname = getattr(
            value, "__qualname__", getattr(value, "__name__", type(value).__name__)
        )
        return f"fn:{getattr(value, '__module__', '?')}.{qualname}"
    return f"{type(value).__name__}:{getattr(value, 'name', '')}"


def content_digest(payload: Any) -> str:
    """SHA-256 (16 hex chars, like ``Binding.fingerprint``) of ``payload``."""
    text = json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def component_digests(model: Any) -> dict[str, str]:
    """Per-component content digests of an ``IntegrationModel``.

    The keys mirror :meth:`IntegrationModel.element_index` (the Section
    4.5 change-impact substrate) but the values are full content hashes —
    ``element_index`` summarizes a mapping as ``src->tgt/doc#rule_count``,
    which would miss an in-place rule edit; verification must not.
    """
    components: dict[str, str] = {}
    for mapping in model.transforms.mappings():
        components[f"mapping:{mapping.name}"] = mapping.fingerprint()
    components["transforms:version"] = str(model.transforms.version)
    for name in sorted(model.protocols):
        protocol = model.protocols[name]
        components[f"protocol:{name}"] = content_digest(
            {
                "name": protocol.name,
                "wire_format": protocol.wire_format,
                "transport": protocol.transport,
                "ack_timeout": protocol.ack_timeout,
                "max_retries": protocol.max_retries,
                "receipt_builder": protocol.receipt_builder,
            }
        )
    for name in sorted(model.public_processes):
        components[f"public:{name}"] = content_digest(
            model.public_processes[name].to_dict()
        )
    for name in sorted(model.bindings):
        components[f"binding:{name}"] = model.bindings[name].fingerprint()
    for name in sorted(model.private_processes):
        components[f"private:{name}"] = content_digest(
            model.private_processes[name].to_dict()
        )
    for rule_set in model.rules.sets():
        for rule in rule_set.rules:
            components[f"rule:{rule_set.function}:{rule.name}"] = rule.fingerprint()
    for partner in model.partners.partners():
        components[f"partner:{partner.partner_id}"] = content_digest(
            {
                "name": partner.name,
                "address": partner.address,
                "protocols": sorted(partner.protocols),
                "properties": partner.properties,
            }
        )
    for agreement in model.partners.agreements():
        components[f"agreement:{':'.join(agreement.key())}"] = content_digest(
            {
                "status": agreement.status,
                "doc_types": list(agreement.doc_types),
                "properties": agreement.properties,
            }
        )
    for name, native_format in model.applications.items():
        components[f"application:{name}"] = content_digest(native_format)
    for doc_type in sorted(_relevant_doc_types(model)):
        schema = _normalized_schema(doc_type)
        if schema is not None:
            components[f"schema:{doc_type}"] = content_digest(schema)
    return components


def _relevant_doc_types(model: Any) -> set[str]:
    doc_types: set[str] = set()
    for mapping in model.transforms.mappings():
        doc_types.add(mapping.doc_type)
    for agreement in model.partners.agreements():
        doc_types.update(agreement.doc_types)
    return doc_types


def _normalized_schema(doc_type: str) -> Any:
    from repro.documents.normalized import schema_for

    try:
        return schema_for(doc_type)
    except Exception:
        # Synthetic/sweep doc types have no normalized schema; nothing to
        # digest for them.
        return None


def options_digest(verify_options: Mapping[str, Any] | None) -> str:
    """Digest of the options a verdict depends on, normalized to defaults."""
    from repro.verify.statespace import DEFAULT_MAX_STATES, DEFAULT_QUEUE_BOUND

    options = dict(verify_options or {})
    return content_digest(
        {
            "engine": ENGINE_VERSION,
            "deep": bool(options.get("deep")),
            "dataflow": bool(options.get("dataflow")),
            "queue_bound": options.get("queue_bound") or DEFAULT_QUEUE_BOUND,
            "max_states": options.get("max_states") or DEFAULT_MAX_STATES,
            "time_budget": options.get("time_budget"),
            "reduce": bool(options.get("reduce", True)),
        }
    )


def verification_digest(
    target: Any, verify_options: Mapping[str, Any] | None = None
) -> tuple[str, dict[str, str]]:
    """``(digest, component_digests)`` for one verification unit.

    ``target`` is an ``IntegrationModel`` or a bare workflow type (the
    naive baseline lints one of those).  Equal digests guarantee the
    verifier would produce the identical verdict.
    """
    if hasattr(target, "transforms"):
        components = component_digests(target)
    else:
        components = {f"workflow:{target.name}": content_digest(target.to_dict())}
    digest = content_digest(
        {"options": options_digest(verify_options), "components": components}
    )
    return digest, components


# ---------------------------------------------------------------------------
# Verification units and reports
# ---------------------------------------------------------------------------


@dataclass
class ModelReport:
    """One unit's verification outcome, cached or freshly computed."""

    label: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    cached: bool = False
    duration: float = 0.0
    states_explored: int = 0
    states_pruned: int = 0
    dataflow_routes: int = 0
    digest: str = ""


def verify_unit(
    label: str, target: Any, verify_options: Mapping[str, Any] | None = None
) -> ModelReport:
    """Verify one unit (model or bare workflow) and time it."""
    options = dict(verify_options or {})
    started = time.monotonic()
    stats: dict[str, Any] = {}
    if hasattr(target, "transforms"):
        diagnostics = target.verify(stats=stats, **options)
    else:
        from repro.verify.workflow_checks import verify_workflow

        # A bare workflow has no conversations to explore or routes to
        # dataflow-check; only the deep flag is meaningful (it enables
        # the B2B6xx race analysis).
        diagnostics = verify_workflow(target, deep=bool(options.get("deep")))
    return ModelReport(
        label=label,
        diagnostics=diagnostics,
        cached=False,
        duration=time.monotonic() - started,
        states_explored=int(stats.get("states_explored", 0)),
        states_pruned=int(stats.get("states_pruned", 0)),
        dataflow_routes=int(stats.get("dataflow_routes", 0)),
    )


# ---------------------------------------------------------------------------
# The persisted cache
# ---------------------------------------------------------------------------


class VerificationCache:
    """Digest-keyed verdict store, optionally persisted as JSON.

    With ``path=None`` the cache lives in memory only (tests, benchmark
    warm/cold comparisons); with a path it loads eagerly and persists on
    :meth:`save`.  A cache written by a different :data:`CACHE_SCHEMA` or
    :data:`ENGINE_VERSION`, or an unreadable/corrupt file, is treated as
    cold — a cache must never turn into a lint failure — but says so with
    a one-line stderr warning that includes the reason, so a persistently
    cold cache is diagnosable from the logs.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.entries: dict[str, dict[str, Any]] = {}
        self.loaded = False
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            self._warn_cold(f"unreadable ({error})")
            return
        if not isinstance(payload, dict):
            self._warn_cold(f"expected a JSON object, got {type(payload).__name__}")
            return
        if payload.get("schema") != CACHE_SCHEMA:
            self._warn_cold(
                f"schema {payload.get('schema')!r} != {CACHE_SCHEMA!r}"
            )
            return
        if payload.get("engine") != ENGINE_VERSION:
            self._warn_cold(
                f"engine {payload.get('engine')!r} != {ENGINE_VERSION!r}"
            )
            return
        entries = payload.get("entries")
        if isinstance(entries, dict):
            self.entries = entries
            self.loaded = True

    def _warn_cold(self, reason: str) -> None:
        """One-line stderr note before falling back to a cold cache."""
        print(
            f"warning: ignoring lint cache {self.path}: {reason}",
            file=sys.stderr,
        )

    def save(self) -> None:
        """Persist the cache; a no-op for in-memory caches."""
        if self.path is None:
            return
        payload = {
            "schema": CACHE_SCHEMA,
            "engine": ENGINE_VERSION,
            "entries": self.entries,
        }
        self.path.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )

    def lookup(self, label: str, digest: str) -> dict[str, Any] | None:
        """The cached entry for ``label`` iff its digest matches."""
        entry = self.entries.get(label)
        if entry is not None and entry.get("digest") == digest:
            return entry
        return None

    def store(
        self,
        label: str,
        digest: str,
        components: Mapping[str, str],
        diagnostics: list[Diagnostic],
        stats: Mapping[str, Any],
    ) -> None:
        self.entries[label] = {
            "digest": digest,
            "components": dict(components),
            "diagnostics": [d.to_dict() for d in diagnostics],
            "stats": dict(stats),
        }

    def dependents(self, component_key: str) -> list[str]:
        """Labels of every cached unit containing ``component_key``.

        This is the dependency map: the units a shared schema/protocol/
        binding edit will force to re-verify.
        """
        return sorted(
            label
            for label, entry in self.entries.items()
            if component_key in entry.get("components", {})
        )

    def invalidations(self, label: str, components: Mapping[str, str]) -> list[str]:
        """Component keys whose digest differs from the cached entry.

        Covers changed and newly-added components plus components that
        disappeared; an empty list means the cached verdict is reusable
        (modulo options, which live in the unit digest).
        """
        entry = self.entries.get(label)
        if entry is None:
            return sorted(components)
        cached: Mapping[str, str] = entry.get("components", {})
        changed = {
            key for key, value in components.items() if cached.get(key) != value
        }
        changed.update(key for key in cached if key not in components)
        return sorted(changed)


# ---------------------------------------------------------------------------
# The incremental verifier
# ---------------------------------------------------------------------------


class IncrementalVerifier:
    """Digest-gated verification front end.

    ``verify(label, target)`` digests the target, reuses the cached
    verdict on a hit, and runs the real verifier (recording the verdict)
    on a miss.  ``hits``/``misses``/``hit_rate`` feed the CLI ``--stats``
    output and the CI warm-cache gate; ``flush()`` persists the cache.
    """

    def __init__(
        self,
        cache: VerificationCache | None = None,
        **verify_options: Any,
    ) -> None:
        self.cache = cache if cache is not None else VerificationCache()
        self.options = dict(verify_options)
        self.hits = 0
        self.misses = 0
        self.reports: dict[str, ModelReport] = {}

    def verify(self, label: str, target: Any) -> ModelReport:
        digest, components = verification_digest(target, self.options)
        entry = self.cache.lookup(label, digest)
        if entry is not None:
            self.hits += 1
            stats = entry.get("stats", {})
            report = ModelReport(
                label=label,
                diagnostics=[
                    Diagnostic.from_dict(d) for d in entry.get("diagnostics", [])
                ],
                cached=True,
                duration=0.0,
                states_explored=int(stats.get("states_explored", 0)),
                states_pruned=int(stats.get("states_pruned", 0)),
                dataflow_routes=int(stats.get("dataflow_routes", 0)),
                digest=digest,
            )
        else:
            self.misses += 1
            report = verify_unit(label, target, self.options)
            report.digest = digest
            self.cache.store(
                label,
                digest,
                components,
                report.diagnostics,
                {
                    "states_explored": report.states_explored,
                    "states_pruned": report.states_pruned,
                    "dataflow_routes": report.dataflow_routes,
                    "duration": report.duration,
                },
            )
        self.reports[label] = report
        return report

    @property
    def hit_rate(self) -> float:
        """Fraction of ``verify()`` calls served from cache (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def flush(self) -> None:
        """Persist the cache (no-op for in-memory caches)."""
        self.cache.save()
