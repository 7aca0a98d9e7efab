"""Hypothesis strategies shared by the document tests."""

import re

from hypothesis import strategies as st

from repro.documents.model import Document
from repro.documents.normalized import make_po_ack, make_purchase_order
from repro.transform.catalog import build_standard_registry

__all__ = [
    "bent", "document_paths", "mutated", "single_breaks", "wire_documents", "wire_texts",
]

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


# -- bent documents: well-formed edits of a valid XML wire document -------------

# Markup of the codecs' own output and of the edits below: a comment, a
# processing instruction, or a start, end or empty-element tag.
_TAGS = re.compile(
    r"<!--.*?-->|<\?.*?\?>|<(/?)([A-Za-z_:][A-Za-z0-9_:.\-]*)[^>]*?(/?)>", re.S
)
# A leaf's content, one piece at a time: a reference, a tag or a character.
_PIECES = re.compile(r"&[^;]*;|<[^>]*>|.", re.S)


class _Element:
    """Where one element of a document sits: its start tag, content and end tag."""

    def __init__(self, tag, start, open_end, depth):
        self.tag, self.start, self.open_end, self.depth = tag, start, open_end, depth
        self.close_start = self.end = open_end
        self.leaf = True

    def text_offsets(self, text):
        """Offsets inside the content where an insertion splits no reference or tag."""
        offsets = [self.open_end]
        for piece in _PIECES.finditer(text, self.open_end, self.close_start):
            offsets.append(piece.end())
        return offsets


def _elements(text):
    """Every element of ``text``, in document order; the root comes first."""
    elements, stack = [], []
    for match in _TAGS.finditer(text):
        closing, tag, empty = match.groups()
        if tag is None:
            continue
        if closing:
            element = stack.pop()
            element.close_start, element.end = match.start(), match.end()
            continue
        if stack:
            stack[-1].leaf = False
        element = _Element(tag, match.start(), match.end(), len(stack))
        elements.append(element)
        if not empty:
            stack.append(element)
    return elements


def _insert(text, offset, piece):
    return text[:offset] + piece + text[offset:]


def _bend(draw, text, index):
    """``text`` with one well-formed edit; ``index`` keeps added attribute names apart."""
    elements = _elements(text)
    root, inner = elements[0], elements[1:]
    leaves = [e for e in inner if e.leaf and e.close_start > e.open_end]
    kind = draw(st.sampled_from((
        "comment", "attribute", "character-reference", "end-tag-space", "self-closing",
        "duplicate", "swap", "unknown-element", "nested-element", "crlf", "prolog-or-epilog",
    )))
    if kind == "comment":
        element = draw(st.sampled_from(inner))
        if element.leaf and draw(st.booleans()):
            offset = draw(st.sampled_from(element.text_offsets(text)))
        else:
            offset = element.start
        return _insert(text, offset, "<!-- bent -->")
    if kind == "attribute":
        element = draw(st.sampled_from(elements))
        close = element.open_end - (2 if text.startswith("/>", element.open_end - 2) else 1)
        return _insert(text, close, f' bent{index}="a&amp;b&#x41;&lt;"')
    if kind == "character-reference":
        spots = [(e, piece) for e in leaves
                 for piece in _PIECES.finditer(text, e.open_end, e.close_start)
                 if len(piece.group()) == 1]
        if not spots:
            return text
        _, piece = draw(st.sampled_from(spots))
        return text[:piece.start()] + f"&#{ord(piece.group())};" + text[piece.end():]
    if kind == "end-tag-space":
        element = draw(st.sampled_from([e for e in elements if e.end > e.close_start]))
        return text[:element.close_start] + f"</{element.tag} \n>" + text[element.end:]
    if kind == "self-closing":
        if not leaves:
            return text
        element = draw(st.sampled_from(leaves))
        return text[:element.start] + f"<{element.tag}/>" + text[element.end:]
    if kind == "duplicate":
        element = draw(st.sampled_from(inner))
        copy = text[element.start:element.end]
        if element.leaf:
            altered = f"<{element.tag}>altered</{element.tag}>"
        else:
            altered = re.sub(r">[^<>]+</", ">altered</", copy, count=1)
        return _insert(text, element.start, altered)
    if kind == "swap":
        pairs = [(a, b) for a, b in zip(leaves, leaves[1:])
                 if a.depth == b.depth and not text[a.end:b.start].strip()]
        if not pairs:
            return text
        a, b = draw(st.sampled_from(pairs))
        return (text[:a.start] + text[b.start:b.end] + text[a.end:b.start]
                + text[a.start:a.end] + text[b.end:])
    if kind == "unknown-element":
        element = draw(st.sampled_from(inner))
        extra = '<Extra kind="x"><Inner>t&amp;u</Inner><Inner/></Extra>'
        return _insert(text, element.start, extra)
    if kind == "nested-element":
        if not leaves:
            return text
        element = draw(st.sampled_from(leaves))
        offset = draw(st.sampled_from(element.text_offsets(text)))
        return _insert(text, offset, "<Note>n</Note>")
    if kind == "crlf":
        return text.replace("\r\n", "\n").replace("\n", "\r\n")
    piece = draw(st.sampled_from(("<!-- outside -->", "<?bent data?>")))
    if draw(st.booleans()):
        return _insert(text, root.start, piece)
    return text + piece


@st.composite
def bent(draw, texts):
    """A drawn XML wire text with 1-5 well-formed edits: comments,
    attributes, references, ``</Tag \\n>``, self-closing leaves, an altered
    first copy of an element, swapped sibling leaves, unknown and nested
    elements, CRLF line ends, and markup before or after the root."""
    text = draw(texts)
    for index in range(draw(st.integers(1, 5))):
        text = _bend(draw, text, index)
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
