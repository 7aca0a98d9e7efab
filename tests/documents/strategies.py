"""Hypothesis strategies shared by the document tests."""

from hypothesis import strategies as st

from repro.documents.normalized import make_po_ack, make_purchase_order
from repro.transform.catalog import build_standard_registry

__all__ = ["mutated", "wire_texts"]

_REGISTRY = build_standard_registry()

_LINES = st.lists(
    st.fixed_dictionaries(
        {
            "sku": st.from_regex(r"[A-Z0-9][A-Z0-9\-]{0,8}", fullmatch=True),
            "quantity": st.integers(1, 999),
            "unit_price": st.integers(0, 10**6).map(lambda cents: cents / 100),
            # markup and reference characters exercise the codecs' escaping
            "description": st.text(alphabet="ab <>&\"'#;", max_size=12),
        }
    ),
    min_size=1,
    max_size=4,
)


@st.composite
def wire_texts(draw, module, format_name):
    """The wire text ``module`` renders for a random PO or its POA."""
    order = make_purchase_order("PO-7", "TP1", "ACME", draw(_LINES), issued_at=5.0)
    document = draw(st.sampled_from((order, make_po_ack(order, issued_at=9.0))))
    return module.to_wire(_REGISTRY.transform(document, format_name))


@st.composite
def mutated(draw, texts, pieces):
    """A truncation of a drawn text, or the text with 1-4 pieces inserted,
    replacing a character, or characters deleted."""
    text = draw(texts)
    if draw(st.booleans()):
        return text[: draw(st.integers(0, len(text)))]
    for _ in range(draw(st.integers(1, 4))):
        position = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("insert", "replace", "delete")))
        if kind == "insert":
            text = text[:position] + draw(pieces) + text[position:]
        elif kind == "replace":
            text = text[:position] + draw(pieces) + text[position + 1:]
        else:
            text = text[:position] + text[position + 1:]
    return text
