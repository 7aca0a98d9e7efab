"""Hypothesis strategies shared by the document tests."""

from hypothesis import strategies as st

from repro.documents.model import Document
from repro.documents.normalized import make_po_ack, make_purchase_order
from repro.transform.catalog import build_standard_registry

__all__ = ["document_paths", "mutated", "single_breaks", "wire_documents", "wire_texts"]

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
def wire_documents(draw, format_name):
    """A random PO or its POA, transformed to ``format_name``."""
    order = make_purchase_order("PO-7", "TP1", "ACME", draw(_LINES), issued_at=5.0)
    document = draw(st.sampled_from((order, make_po_ack(order, issued_at=9.0))))
    return _REGISTRY.transform(document, format_name)


@st.composite
def wire_texts(draw, module, format_name):
    """The wire text ``module`` renders for a random PO or its POA."""
    return module.to_wire(draw(wire_documents(format_name)))


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


# How a broken document differs from a valid one: a required field or list
# missing, a wrong type, a bool where a number is expected, a value outside
# the allowed choices (any string on a choice field), a failing check
# (negative amounts and quantities), an empty list or a non-dict item.
_BREAKS = {
    "missing": None,
    "wrong-type": "not-a-choice",
    "bool": True,
    "negative": -1.0,
    "null": None,
    "empty-list": [],
    "scalar-item": [7],
}


def document_paths(node, prefix=()):
    """Every path below ``node``, containers and leaves alike."""
    if isinstance(node, dict):
        steps = node.items()
    elif isinstance(node, list):
        steps = enumerate(node)
    else:
        return
    for step, child in steps:
        yield (*prefix, step)
        yield from document_paths(child, (*prefix, step))


def single_breaks(document):
    """``document``, then one copy per (path, break) with that one value
    broken, so each schema and rule check meets every kind of bad input."""
    yield document
    for path in document_paths(document.data):
        for kind, value in _BREAKS.items():
            broken = Document.from_dict(document.to_dict())
            parent = broken.data
            for step in path[:-1]:
                parent = parent[step]
            if kind == "missing" and isinstance(parent, dict):
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield broken
