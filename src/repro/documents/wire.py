"""Reading numbers from wire text, shared by every codec.

Partner bytes are untrusted, so a number field must be a finite decimal:
``float()`` alone would also accept ``inf``, ``nan`` and ``1e999``, and
the codecs' ``int(...)`` of such a value would then escape as an untyped
``OverflowError`` or ``ValueError`` instead of a
:class:`~repro.errors.WireFormatError`.
"""

from __future__ import annotations

import math

from repro.errors import WireFormatError


def wire_number(text: str, context: str) -> float:
    """Parse ``text`` as a finite float; ``context`` names the field in errors."""
    try:
        value = float(text)
    except ValueError:
        raise WireFormatError(f"non-numeric value {text!r} in {context}") from None
    if not math.isfinite(value):
        raise WireFormatError(f"non-finite value {text!r} in {context}")
    return value
