"""Diagnostic records produced by the static verifier.

Every check in :mod:`repro.verify` reports through a :class:`Diagnostic`:
a stable code (``B2B1xx`` graph, ``B2B2xx`` expressions, ``B2B3xx``
bindings/mappings, ``B2B4xx`` model, ``B2B5xx`` conversations, ``B2B6xx``
parallel races), a severity, a location path into the model, a human
message, an optional fix hint and an optional counterexample trace.
Codes are part of the public contract — CI gates and suppression lists
key on them — so existing codes must never be renumbered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

__all__ = [
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SEVERITY_INFO",
    "Diagnostic",
    "count_by_severity",
    "worst_severity",
    "at_or_above",
    "render_text",
]

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"

_RANK = {SEVERITY_INFO: 0, SEVERITY_WARNING: 1, SEVERITY_ERROR: 2}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static verifier.

    :param code: stable diagnostic code (e.g. ``"B2B101"``).
    :param severity: ``error`` | ``warning`` | ``info``.
    :param location: path into the model (e.g.
        ``"workflow:private-po-seller/step:approve_po"``).
    :param message: human-readable description of the problem.
    :param hint: optional suggestion for fixing it.
    :param trace: optional counterexample trace (one rendered line per
        entry) leading to the reported state — the conversation checks of
        :mod:`repro.verify.statespace` attach a message-sequence chart.
    """

    code: str
    severity: str
    location: str
    message: str
    hint: str = ""
    trace: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.severity not in _RANK:
            raise ValueError(f"unknown diagnostic severity {self.severity!r}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation (``repro lint --format json``)."""
        payload: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "location": self.location,
            "message": self.message,
        }
        if self.hint:
            payload["hint"] = self.hint
        if self.trace:
            payload["trace"] = list(self.trace)
        return payload

    def render(self) -> str:
        """One-line human rendering."""
        line = f"{self.severity:<7} {self.code} {self.location}: {self.message}"
        if self.hint:
            line += f" (hint: {self.hint})"
        return line


def count_by_severity(diagnostics: Iterable[Diagnostic]) -> dict[str, int]:
    """Return ``{severity: count}`` over ``diagnostics`` (all keys present)."""
    counts = {SEVERITY_ERROR: 0, SEVERITY_WARNING: 0, SEVERITY_INFO: 0}
    for diagnostic in diagnostics:
        counts[diagnostic.severity] += 1
    return counts


def worst_severity(diagnostics: Iterable[Diagnostic]) -> str | None:
    """The highest severity present, or ``None`` for a clean result."""
    worst: str | None = None
    for diagnostic in diagnostics:
        if worst is None or _RANK[diagnostic.severity] > _RANK[worst]:
            worst = diagnostic.severity
    return worst


def at_or_above(diagnostics: Iterable[Diagnostic], threshold: str) -> list[Diagnostic]:
    """Diagnostics whose severity is at least ``threshold``."""
    floor = _RANK[threshold]
    return [d for d in diagnostics if _RANK[d.severity] >= floor]


def render_text(diagnostics: list[Diagnostic], title: str = "") -> str:
    """Render a diagnostic list the way ``repro lint`` prints it.

    Ordering is a total stable sort on (severity desc, code, location,
    message) so output — and the golden tests over it — is deterministic
    regardless of check execution order.  Counterexample traces are
    rendered indented under their diagnostic.
    """
    lines: list[str] = []
    if title:
        lines.append(title)
    if not diagnostics:
        lines.append("  clean — no diagnostics")
        return "\n".join(lines)
    ordered = sorted(
        diagnostics,
        key=lambda d: (-_RANK[d.severity], d.code, d.location, d.message),
    )
    for diagnostic in ordered:
        lines.append(f"  {diagnostic.render()}")
        lines.extend(f"      {entry}" for entry in diagnostic.trace)
    counts = count_by_severity(diagnostics)
    lines.append(
        f"  {counts[SEVERITY_ERROR]} error(s), "
        f"{counts[SEVERITY_WARNING]} warning(s), {counts[SEVERITY_INFO]} info"
    )
    return "\n".join(lines)
