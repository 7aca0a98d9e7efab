"""Tests for the minimal XML reader/writer and the layout reader built on it."""

import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.documents import oagis, rosettanet
from repro.documents.model import Document
from repro.documents.normalized import make_purchase_order
from repro.documents.xmlio import XmlWriter
from repro.errors import WireFormatError, XmlSyntaxError
from repro.transform.catalog import build_standard_registry
from tests.documents.reference_xmlio import (
    XmlElement, parse, reference_from_wire, reference_to_wire, serialize,
)
from tests.documents.strategies import bent, mutated, wire_texts
from tests.integration.test_hostile_input import TARGETS, VARIANTS

_REGISTRY = build_standard_registry()
_ORDER = make_purchase_order(
    "PO-7", "TP1", "ACME",
    [{"sku": "GPU", "quantity": 2, "unit_price": 900.0, "description": "graphics card"},
     {"sku": "PSU", "quantity": 1, "unit_price": 80.0, "description": "power supply"}],
    issued_at=5.0,
)
# A RosettaNet PO, its text, and the element each grammar test bends.
PO_DOCUMENT = _REGISTRY.transform(_ORDER, rosettanet.ROSETTANET)
PO = rosettanet.to_wire(PO_DOCUMENT)
DESCRIPTION = "<Description>graphics card</Description>"


def _with_description(content):
    """``PO`` with the first line's ``<Description>`` holding ``content``."""
    return PO.replace(DESCRIPTION, f"<Description>{content}</Description>", 1)


def _description(content):
    """The first line's description as ``from_wire`` reads it from ``_with_description``."""
    document = rosettanet.from_wire(_with_description(content))
    return document.get("order.product_lines[0].description")


class TestElementApi:
    def test_child_appends_and_returns(self):
        root = XmlElement("root")
        child = root.child("item", "text", id="1")
        assert child.tag == "item"
        assert child.text == "text"
        assert root.children == [child]

    def test_find_first_match(self):
        root = XmlElement("r")
        root.child("a", "1")
        second = root.child("a", "2")
        assert root.find("a").text == "1"
        assert root.find_all("a") == [root.find("a"), second]

    def test_find_missing_returns_none(self):
        assert XmlElement("r").find("x") is None

    def test_require_raises_on_missing(self):
        with pytest.raises(XmlSyntaxError):
            XmlElement("r").require("x")

    def test_child_text_default(self):
        root = XmlElement("r")
        root.child("a", "hello")
        assert root.child_text("a") == "hello"
        assert root.child_text("b", "dflt") == "dflt"

    def test_iter_depth_first(self):
        root = XmlElement("r")
        a = root.child("a")
        a.child("b")
        root.child("c")
        assert [e.tag for e in root.iter()] == ["r", "a", "b", "c"]

    def test_mixed_content_text(self):
        root = XmlElement("r", content=["pre", XmlElement("b"), "post"])
        assert root.text == "prepost"


class TestSerialize:
    def test_empty_element_self_closes(self):
        assert serialize(XmlElement("a"), declaration=False) == "<a/>"

    def test_declaration_prefix(self):
        assert serialize(XmlElement("a")).startswith("<?xml")

    def test_attributes_escaped(self):
        element = XmlElement("a", {"v": 'x"<&y'})
        text = serialize(element, declaration=False)
        assert "&quot;" in text and "&lt;" in text and "&amp;" in text

    def test_text_escaped(self):
        element = XmlElement("a", content=["1 < 2 & 3 > 0"])
        text = serialize(element, declaration=False)
        assert "&lt;" in text and "&amp;" in text and "&gt;" in text

    def test_invalid_tag_rejected(self):
        with pytest.raises(XmlSyntaxError):
            serialize(XmlElement("bad tag"), declaration=False)

    def test_invalid_attr_name_rejected(self):
        with pytest.raises(XmlSyntaxError):
            serialize(XmlElement("a", {"bad name": "v"}), declaration=False)

    def test_pretty_print_indents(self):
        root = XmlElement("a")
        root.child("b", "t")
        text = serialize(root, declaration=False, indent=2)
        assert "\n  <b>" in text


class TestXmlWriter:
    def test_layout_matches_the_reference_serializer(self):
        writer = XmlWriter()
        writer.start("a", {"v": "1"})
        writer.leaf("b", "t")
        writer.start("c")
        writer.leaf("d", None)
        writer.leaf("e", "")
        writer.end()
        writer.end()
        root = XmlElement("a", {"v": "1"})
        root.child("b", "t")
        c = root.child("c")
        c.child("d")
        c.child("e", "")
        assert writer.text() == serialize(root, declaration=True, indent=2) == (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<a v="1">\n  <b>t</b>\n  <c>\n    <d/>\n    <e></e>\n  </c>\n</a>\n'
        )

    def test_element_with_no_content_self_closes(self):
        writer = XmlWriter()
        writer.start("a")
        writer.start("b", {"k": "v"})
        writer.end()
        writer.end()
        assert writer.text().endswith('<a>\n  <b k="v"/>\n</a>\n')
        empty = XmlWriter()
        empty.start("a")
        empty.end()
        assert empty.text().endswith("?>\n<a/>\n")

    def test_text_escapes_markup_but_not_quotes(self):
        writer = XmlWriter()
        writer.leaf("a", "1 < 2 & 3 > 0 \"q\" 'x'")
        assert writer.text().endswith("<a>1 &lt; 2 &amp; 3 &gt; 0 \"q\" 'x'</a>\n")

    def test_attribute_value_escapes_quote(self):
        writer = XmlWriter()
        writer.start("a", {"v": 'x"<&>y'})
        writer.end()
        assert writer.text().endswith('<a v="x&quot;&lt;&amp;&gt;y"/>\n')

    @pytest.mark.parametrize("name", ["bad tag", "1a", "", "a<b"])
    def test_invalid_tag_rejected(self, name):
        with pytest.raises(XmlSyntaxError, match="invalid XML name"):
            XmlWriter().start(name)
        with pytest.raises(XmlSyntaxError, match="invalid XML name"):
            XmlWriter().leaf(name, "t")

    @pytest.mark.parametrize("name", ["bad name", "1a", "a=b"])
    def test_invalid_attribute_name_rejected(self, name):
        with pytest.raises(XmlSyntaxError, match="invalid XML name"):
            XmlWriter().start("a", {name: "v"})

    @pytest.mark.parametrize("value", [7, 1.5, ["t"], {"t": 1}])
    def test_leaf_text_must_be_a_string(self, value):
        with pytest.raises(TypeError, match="not text"):
            XmlWriter().leaf("a", value)

    def test_unclosed_element_rejected(self):
        writer = XmlWriter()
        writer.start("a")
        with pytest.raises(XmlSyntaxError, match="not closed"):
            writer.text()


class TestParse:
    """The XML grammar, one construct at a time, inside a RosettaNet PO."""

    def test_simple_document(self):
        assert rosettanet.from_wire(PO) == PO_DOCUMENT

    def test_attributes(self):
        text = PO.replace("<PurchaseOrder>", '<PurchaseOrder x="1" y="two">')
        assert rosettanet.from_wire(text) == PO_DOCUMENT

    def test_single_quoted_attributes(self):
        text = PO.replace("<PurchaseOrder>", "<PurchaseOrder x='1'>")
        assert rosettanet.from_wire(text) == PO_DOCUMENT

    def test_entities_decoded(self):
        assert _description("&lt;&amp;&gt;&quot;&apos;") == "<&>\"'"

    def test_numeric_character_references(self):
        assert _description("&#65;&#x42;") == "AB"
        assert _description("&#9;&#65;&#x10FFFF;") == "\tA\U0010ffff"

    def test_declaration_and_comments_skipped(self):
        body = PO.split("\n", 1)[1]  # the PO without its declaration
        text = '<?xml version="1.0"?><!-- note -->' + body.replace(
            DESCRIPTION, "<Description><!-- inner -->x</Description>"
        )
        document = rosettanet.from_wire(text)
        assert document.get("order.product_lines[0].description") == "x"

    def test_whitespace_around_root(self):
        assert rosettanet.from_wire("  " + PO.split("\n", 1)[1] + "  ") == PO_DOCUMENT

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "plain text",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a x=1/>",
            '<a x="1" x="2"/>',
            "<a>&unknown;</a>",
            "<a/><b/>",
            "<a><![CDATA[x]]></a>",
            '<a x="<"/>',
            "<a>&#xZZ;</a>",
            "<a>&#;</a>",
            "<a>&#-5;</a>",
            "<a>&#99999999;</a>",
            '<a x="&#xZZ;"/>',
            "<a>&#+65;</a>",
            "<a>&# 65;</a>",
            "<a>&#6_5;</a>",
            "<a>&#x+41;</a>",
            "<a>&#X41;</a>",
            "<a>&#0;</a>",
            "<a>&#x1F;</a>",
            "<a>&#xD800;</a>",
            "<a>&#xFFFE;</a>",
        ],
    )
    def test_malformed_rejected(self, bad):
        # As a document of its own (an unknown root, but malformed first) ...
        with pytest.raises(XmlSyntaxError):
            rosettanet.from_wire(bad)
        # ... and in place of an element of a PO, or after its root.
        if bad in ("", "plain text"):
            return
        text = PO + "<b/>" if bad == "<a/><b/>" else PO.replace(DESCRIPTION, bad)
        with pytest.raises(XmlSyntaxError):
            rosettanet.from_wire(text)

    @pytest.mark.parametrize(
        "text, reference",
        [
            ("<a>&#xZZ;</a>", "&#xZZ;"),
            ("<a>&#xFFFFFFFF;</a>", "&#xFFFFFFFF;"),
            ('<a x="1&#99999999;"/>', "&#99999999;"),
            *(
                (f"<a>{reference}</a>", reference)
                for reference in (
                    "&#+65;", "&# 65;", "&#6_5;", "&#x+41;", "&#X41;",
                    "&#0;", "&#x1F;", "&#xD800;", "&#xFFFE;",
                )
            ),
        ],
    )
    def test_bad_character_reference_named(self, text, reference):
        match = f"invalid character reference {re.escape(reference)}"
        with pytest.raises(XmlSyntaxError, match=match):
            rosettanet.from_wire(PO.replace(DESCRIPTION, text))

    def test_deep_nesting_parses(self):
        depth = 100_000
        assert _description("x" + "<d>" * depth + "y" + "</d>" * depth + "z") == "xz"

    def test_text_merges_across_comments_and_references(self):
        assert _description(" x<!-- c -->y&amp;z <b/>\n") == " xy&z \n"

    def test_space_before_end_tag_close(self):
        root = "Pip3A4PurchaseOrderRequest"
        text = PO.replace("</Description>", "</Description \n>").replace(
            f"</{root}>", f"</{root} >"
        )
        assert rosettanet.from_wire(text) == PO_DOCUMENT

    def test_error_carries_position(self):
        with pytest.raises(XmlSyntaxError) as excinfo:
            rosettanet.from_wire(PO.replace(DESCRIPTION, "<a><b></a></b>"))
        assert excinfo.value.position >= 0

    def test_non_string_rejected(self):
        with pytest.raises(XmlSyntaxError):
            rosettanet.from_wire(PO.encode())  # type: ignore[arg-type]


class TestLayoutReader:
    """Which elements a layout reads, and how a misfit is reported."""

    def test_first_child_counts(self):
        text = PO.replace(
            "<PurchaseOrderNumber>", "<PurchaseOrderNumber>first</PurchaseOrderNumber>"
            "<PurchaseOrderNumber>", 1,
        ).replace("<ServiceHeader>", "<ServiceHeader><PipCode>9Z9</PipCode>", 1)
        document = rosettanet.from_wire(text)
        assert document.get("order.po_number") == "first"
        assert document.get("service_header.pip_code") == "9Z9"

    def test_repeated_group_counts_every_child_of_the_first_parent(self):
        end = PO.index("</PurchaseOrder>") + len("</PurchaseOrder>")
        extra = PO[PO.index("<PurchaseOrder>"):end]
        text = PO.replace("</Pip3A4PurchaseOrderRequest>", extra + "</Pip3A4PurchaseOrderRequest>")
        document = rosettanet.from_wire(text)
        assert document == PO_DOCUMENT
        assert len(document.get("order.product_lines")) == 2

    def test_unknown_elements_and_attributes_ignored(self):
        text = PO.replace(
            "<PurchaseOrder>",
            '<PurchaseOrder note="x"><Extra a="&amp;"><Inner>t</Inner><Inner/></Extra>',
        )
        assert rosettanet.from_wire(text) == PO_DOCUMENT

    def test_optional_child_reads_empty(self):
        assert rosettanet.from_wire(PO.replace(DESCRIPTION, "")).get(
            "order.product_lines[0].description"
        ) == ""

    def test_missing_required_child_named(self):
        with pytest.raises(
            XmlSyntaxError, match="<ServiceHeader> is missing required child <PipCode>"
        ):
            rosettanet.from_wire(PO.replace("<PipCode>3A4</PipCode>", ""))

    def test_number_error_names_its_element(self):
        with pytest.raises(WireFormatError, match="non-numeric value 'x' in <LineNumber>"):
            rosettanet.from_wire(PO.replace("<LineNumber>1<", "<LineNumber>x<"))

    def test_unknown_root_is_not_a_syntax_error(self):
        with pytest.raises(WireFormatError, match="unknown RosettaNet root element") as excinfo:
            rosettanet.from_wire("<Other><a x='1'/></Other>")
        assert not isinstance(excinfo.value, XmlSyntaxError)

    def test_malformed_document_is_a_syntax_error_whatever_else_is_wrong(self):
        text = PO.replace("<PipCode>3A4</PipCode>", "").replace(DESCRIPTION, "&#xZZ;")
        with pytest.raises(XmlSyntaxError, match="invalid character reference"):
            rosettanet.from_wire(text)

    def test_group_without_its_own_dict_level(self):
        text = oagis.to_wire(_REGISTRY.transform(_ORDER, oagis.OAGIS))
        document = oagis.from_wire(text)
        assert set(document.data) == {"application_area", "order_header", "order_lines"}
        assert document.get("application_area.sender_id") == "TP1"
        with pytest.raises(XmlSyntaxError, match="<Sender> is missing required child <LogicalId>"):
            oagis.from_wire(text.replace("<LogicalId>TP1</LogicalId>", ""))
        with pytest.raises(WireFormatError, match="ProcessPurchaseOrder without <Process> verb"):
            oagis.from_wire(text.replace("<Process/>", ""))


# -- property-based round trip -------------------------------------------------

_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.\-]{0,8}", fullmatch=True)
_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc"), min_codepoint=32),
    min_size=1,
    max_size=20,
)


@st.composite
def _elements(draw, depth=0):
    tag = draw(_names)
    attrs = draw(st.dictionaries(_names, _texts, max_size=3))
    if depth >= 2:
        content = draw(st.lists(_texts, max_size=2))
    else:
        content = draw(
            st.lists(st.one_of(_texts, _elements(depth=depth + 1)), max_size=3)
        )
    # Adjacent text chunks merge on parse; normalize by pre-merging.
    merged: list = []
    for item in content:
        if isinstance(item, str) and merged and isinstance(merged[-1], str):
            merged[-1] += item
        else:
            merged.append(item)
    return XmlElement(tag, attrs, merged)


@given(_elements())
def test_parse_serialize_roundtrip(element):
    assert parse(serialize(element, declaration=False)) == element


@given(_elements())
def test_roundtrip_with_declaration(element):
    assert parse(serialize(element, declaration=True)) == element


# -- differential against the reference reader -------------------------------
#
# ``reference_xmlio`` keeps the tree parser and the codecs' tree readers
# that the layout reader replaced.  On every input, ``from_wire`` of each
# XML codec must return a document equal to ``reference_from_wire``'s
# exactly when that returns one.  Otherwise it must raise
# ``WireFormatError``, and where the reference's tree parser fails, the
# same ``XmlSyntaxError`` message at the same offset.

# Single characters and whole tokens that break or bend the grammar.
_MUTATIONS = st.sampled_from(
    list("<>/&;#x\"'= \t\n!-?aZ0:._é")
    + ["&#xZZ;", "&#99999999;", "&#;", "&amp;", "<!--", "-->", "</", "/>", "<?", "<b>"]
)

_CODECS = ((rosettanet, rosettanet.ROSETTANET), (oagis, oagis.OAGIS))


def _assert_agrees(text):
    try:
        parse(text)
    except XmlSyntaxError as error:
        syntax_error = str(error)
    else:
        syntax_error = None
    for module, format_name in _CODECS:
        try:
            expected = reference_from_wire(format_name, text)
        except WireFormatError:
            expected = None
        if expected is not None:
            assert module.from_wire(text) == expected
            continue
        with pytest.raises(WireFormatError) as excinfo:
            module.from_wire(text)
        if syntax_error is not None:
            assert isinstance(excinfo.value, XmlSyntaxError)
            assert str(excinfo.value) == syntax_error


@st.composite
def _serialized_trees(draw):
    return serialize(
        draw(_elements()),
        declaration=draw(st.booleans()),
        indent=draw(st.sampled_from((0, 2))),
    )


_codec_documents = st.sampled_from(_CODECS).flatmap(lambda codec: wire_texts(*codec))


class TestDifferential:
    @given(_serialized_trees())
    def test_serialized_trees(self, text):
        _assert_agrees(text)

    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    @given(_codec_documents)
    def test_codec_documents(self, text):
        _assert_agrees(text)

    @settings(max_examples=300)
    @given(mutated(_serialized_trees(), _MUTATIONS))
    def test_mutated_trees(self, text):
        _assert_agrees(text)

    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(mutated(_codec_documents, _MUTATIONS))
    def test_mutated_codec_documents(self, text):
        _assert_agrees(text)

    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(bent(_codec_documents))
    def test_bent_codec_documents(self, text):
        # well-formed edits the reader must accept or reject as the
        # reference does: the first-child, repeated-group and text-merge
        # rules show only on documents that are read
        _assert_agrees(text)

    @pytest.mark.parametrize("protocol", sorted(TARGETS))
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_hostile_variants(self, protocol, variant):
        module, format_name = dict(zip(("rosettanet", "oagis-http"), _CODECS))[protocol]
        text = module.to_wire(_REGISTRY.transform(_ORDER, format_name))
        _assert_agrees(VARIANTS[variant](text, *TARGETS[protocol]))

    @pytest.mark.parametrize(
        "text",
        [
            "<a>&#xZZ;</a>",
            "<a>&#99999999;</a>",
            "<a>&#xFFFFFFFF;</a>",
            "<a>" * 3000 + "</a>" * 3000,
        ],
        ids=["bad-hex-reference", "out-of-range-reference", "overflow-reference", "3000-deep"],
    )
    def test_reference_defects_stay_typed(self, text):
        # The inputs that made the old character-at-a-time parser raise
        # ValueError, OverflowError or RecursionError, inside a PO.
        bent_po = PO.replace(DESCRIPTION, text)
        _assert_agrees(bent_po)
        if text.startswith("<a><a>"):
            assert rosettanet.from_wire(bent_po).get("order.product_lines[0].description") == ""
        else:
            with pytest.raises(XmlSyntaxError, match="invalid character reference"):
                rosettanet.from_wire(bent_po)


# -- the codecs' writers against the reference tree renderers -------------------
#
# ``reference_to_wire`` builds the XmlElement tree the codecs built before
# XmlWriter and serializes it.  Every RosettaNet and OAGIS doc type must
# write the same bytes on any document, and read back to the same document
# whenever it has lines, with each None or absent optional field read back
# as "" (a None code field is rejected instead).

_TEXT = st.text(alphabet="aZ09 .-&<>\"'é中\u00a0", max_size=12)
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-10**9, 10**9)
)
_INT = st.integers(-10**9, 10**9)


def _text_field(codes=None):
    """A text element: any text (incl. ``""``), or one of ``codes``; sometimes None."""
    value = _TEXT if codes is None else st.sampled_from(codes)
    return st.one_of(value, st.none())


# Leaf kinds: a strategy (always present) or ("optional", strategy): the
# codec reads it with .get(key, ""), so it may also be absent.
def _optional():
    return ("optional", _text_field())


_SERVICE_HEADER = {
    key: _text_field()
    for key in ("pip_code", "pip_instance_id", "from_role", "to_role",
                "from_partner", "to_partner")
}
_APPLICATION_AREA = {
    "sender_id": _text_field(),
    "receiver_id": _text_field(),
    "creation_time": _NUMBER,
    "bod_id": _text_field(),
}
_LAYOUTS = {
    (rosettanet, "purchase_order"): {
        "service_header": _SERVICE_HEADER,
        "order": {
            "global_document_id": _text_field(),
            "po_number": _text_field(),
            "currency_code": _text_field(),
            "document_date": _NUMBER,
            "payment_terms": _optional(),
            "total_amount": _NUMBER,
            "product_lines": [{
                "line_number": _INT,
                "global_product_id": _text_field(),
                "description": _optional(),
                "ordered_quantity": _NUMBER,
                "unit_price": _NUMBER,
            }],
        },
    },
    (rosettanet, "po_ack"): {
        "service_header": _SERVICE_HEADER,
        "acknowledgment": {
            "global_document_id": _text_field(),
            "po_number": _text_field(),
            "document_date": _NUMBER,
            "global_response_code": _text_field(tuple(rosettanet.STATUS_BY_RESPONSE_CODE)),
            "accepted_amount": _NUMBER,
            "ack_lines": [{
                "line_number": _INT,
                "global_product_id": _text_field(),
                "response_code": _text_field(),
                "accepted_quantity": _NUMBER,
            }],
        },
    },
    (rosettanet, "receipt_ack"): {
        "service_header": _SERVICE_HEADER,
        "receipt": {
            "original_document_id": _text_field(),
            "original_doc_type": _text_field(),
            "received_at": _NUMBER,
        },
    },
    (oagis, "purchase_order"): {
        "application_area": _APPLICATION_AREA,
        "order_header": {
            "document_id": _text_field(),
            "po_number": _text_field(),
            "currency": _text_field(),
            "total_value": _NUMBER,
            "terms": _optional(),
        },
        "order_lines": [{
            "line_num": _INT,
            "item_id": _text_field(),
            "item_description": _optional(),
            "quantity": _NUMBER,
            "price": _NUMBER,
        }],
    },
    (oagis, "po_ack"): {
        "application_area": _APPLICATION_AREA,
        "ack_header": {
            "document_id": _text_field(),
            "po_number": _text_field(),
            "acknowledge_code": _text_field(tuple(oagis.STATUS_BY_ACK_CODE)),
            "total_accepted": _NUMBER,
        },
        "ack_lines": [{
            "line_num": _INT,
            "item_id": _text_field(),
            "line_code": _text_field(),
            "quantity": _NUMBER,
        }],
    },
    (oagis, "ship_notice"): {
        "application_area": _APPLICATION_AREA,
        "shipment_header": {
            "document_id": _text_field(),
            "shipment_id": _text_field(),
            "po_number": _text_field(),
            "carrier": _text_field(),
            "package_count": _INT,
        },
        "shipment_lines": [{
            "line_num": _INT,
            "item_id": _text_field(),
            "quantity_shipped": _NUMBER,
        }],
    },
    (oagis, "invoice"): {
        "application_area": _APPLICATION_AREA,
        "invoice_header": {
            "document_id": _text_field(),
            "invoice_number": _text_field(),
            "po_number": _text_field(),
            "currency": _text_field(),
            "subtotal": _NUMBER,
            "tax": _NUMBER,
            "total_due": _NUMBER,
        },
        "invoice_lines": [{
            "line_num": _INT,
            "item_id": _text_field(),
            "quantity": _NUMBER,
            "unit_price": _NUMBER,
            "amount": _NUMBER,
        }],
    },
    (oagis, "request_for_quote"): {
        "application_area": _APPLICATION_AREA,
        "rfq_header": {
            "document_id": _text_field(),
            "rfq_number": _text_field(),
            "respond_by": _NUMBER,
        },
        "rfq_lines": [{
            "line_num": _INT,
            "item_id": _text_field(),
            "item_description": _optional(),
            "quantity": _NUMBER,
        }],
    },
    (oagis, "quote"): {
        "application_area": _APPLICATION_AREA,
        "quote_header": {
            "document_id": _text_field(),
            "quote_number": _text_field(),
            "rfq_number": _text_field(),
            "currency": _text_field(),
            "valid_until": _NUMBER,
            "total_amount": _NUMBER,
        },
        "quote_lines": [{
            "line_num": _INT,
            "item_id": _text_field(),
            "quantity": _NUMBER,
            "unit_price": _NUMBER,
        }],
    },
}


def _data(layout):
    """A strategy for data of ``layout``: dicts, 0-60 line lists, leaves."""
    if isinstance(layout, list):
        return st.lists(_data(layout[0]), max_size=60)
    if isinstance(layout, dict):
        required = {k: _data(v) for k, v in layout.items() if not isinstance(v, tuple)}
        optional = {k: v[1] for k, v in layout.items() if isinstance(v, tuple)}
        return st.fixed_dictionaries(required, optional=optional)
    return layout


def _read_back(data, layout):
    """``data`` as the reader returns it: the codec writes an absent
    optional field and a None field as an empty element, which reads back
    as ``""``."""
    if isinstance(layout, list):
        return [_read_back(item, layout[0]) for item in data]
    if isinstance(layout, dict):
        return {
            key: _read_back(data[key], sub) if key in data else ""
            for key, sub in layout.items()
        }
    return "" if data is None else data


# The two code fields: the reader rejects an empty code, so a None there
# does not read back.
_CODE_FIELDS = {
    (rosettanet, "po_ack"): ("acknowledgment", "global_response_code"),
    (oagis, "po_ack"): ("ack_header", "acknowledge_code"),
}


def _has_empty_list(node):
    return isinstance(node, dict) and any(
        value == [] or _has_empty_list(value) for value in node.values()
    )


@pytest.mark.parametrize(
    "module, doc_type", list(_LAYOUTS), ids=[f"{m.__name__.rsplit('.')[-1]}-{d}" for m, d in _LAYOUTS]
)
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_writer_matches_reference_renderer(module, doc_type, data):
    format_name = rosettanet.ROSETTANET if module is rosettanet else oagis.OAGIS
    layout = _LAYOUTS[module, doc_type]
    document = Document(format_name, doc_type, data.draw(_data(layout)))
    text = module.to_wire(document)
    assert text == reference_to_wire(document)
    if _has_empty_list(document.data):
        return  # a wire document always has lines
    code_field = _CODE_FIELDS.get((module, doc_type))
    if code_field is not None:
        section, key = code_field
        if document.data[section][key] is None:
            with pytest.raises(WireFormatError):
                module.from_wire(text)
            return
    expected = Document(format_name, doc_type, _read_back(document.data, layout))
    assert module.from_wire(text) == expected
