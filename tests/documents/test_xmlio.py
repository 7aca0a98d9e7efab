"""Tests for the minimal XML reader/writer."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.documents import oagis, rosettanet
from repro.documents.xmlio import XmlElement, parse, serialize
from repro.errors import XmlSyntaxError
from tests.documents.reference_xmlio import reference_parse
from tests.documents.strategies import mutated, wire_texts


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


class TestParse:
    def test_simple_document(self):
        root = parse("<a><b>hi</b></a>")
        assert root.tag == "a"
        assert root.find("b").text == "hi"

    def test_attributes(self):
        root = parse('<a x="1" y="two"/>')
        assert root.attrs == {"x": "1", "y": "two"}

    def test_single_quoted_attributes(self):
        assert parse("<a x='1'/>").attrs == {"x": "1"}

    def test_entities_decoded(self):
        root = parse("<a>&lt;&amp;&gt;&quot;&apos;</a>")
        assert root.text == "<&>\"'"

    def test_numeric_character_references(self):
        assert parse("<a>&#65;&#x42;</a>").text == "AB"

    def test_declaration_and_comments_skipped(self):
        root = parse('<?xml version="1.0"?><!-- note --><a><!-- inner -->x</a>')
        assert root.text == "x"

    def test_whitespace_around_root(self):
        assert parse("  <a/>  ").tag == "a"

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
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(XmlSyntaxError):
            parse(bad)

    @pytest.mark.parametrize(
        "text, reference",
        [
            ("<a>&#xZZ;</a>", "&#xZZ;"),
            ("<a>&#xFFFFFFFF;</a>", "&#xFFFFFFFF;"),
            ('<a x="1&#99999999;"/>', "&#99999999;"),
        ],
    )
    def test_bad_character_reference_named(self, text, reference):
        with pytest.raises(XmlSyntaxError, match=f"invalid character reference {reference}"):
            parse(text)

    def test_deep_nesting_parses(self):
        depth = 100_000
        root = parse("<d>" * depth + "x" + "</d>" * depth)
        levels, element = 1, root
        while element.children:
            (element,) = element.children
            levels += 1
        assert levels == depth
        assert element.text == "x"

    def test_text_merges_across_comments_and_references(self):
        root = parse("<a> x<!-- c -->y&amp;z <b/>\n</a>")
        assert root.content == [" xy&z ", XmlElement("b"), "\n"]

    def test_space_before_end_tag_close(self):
        assert parse("<a><b>t</b \n></a >") == XmlElement("a", content=[XmlElement("b", content=["t"])])

    def test_error_carries_position(self):
        with pytest.raises(XmlSyntaxError) as excinfo:
            parse("<a><b></a></b>")
        assert excinfo.value.position >= 0

    def test_non_string_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse(b"<a/>")  # type: ignore[arg-type]


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


# -- differential against the reference parser --------------------------------
#
# ``reference_xmlio`` keeps the character-at-a-time parser that ``parse``
# replaced.  Where it returns a tree or raises XmlSyntaxError, ``parse``
# must return an equal tree or raise the same message at the same offset.
# Where it raises anything else (a malformed character reference, or
# nesting past the recursion limit), ``parse`` must stay typed.

# Single characters and whole tokens that break or bend the grammar.
_MUTATIONS = st.sampled_from(
    list("<>/&;#x\"'= \t\n!-?aZ0:._é")
    + ["&#xZZ;", "&#99999999;", "&#;", "&amp;", "<!--", "-->", "</", "/>", "<?", "<b>"]
)


def _outcome(text):
    try:
        return parse(text)
    except XmlSyntaxError as error:
        return (str(error), error.position)


def _assert_agrees(text):
    try:
        expected = reference_parse(text)
    except XmlSyntaxError as error:
        expected = (str(error), error.position)
    except Exception:
        _outcome(text)  # must return a tree or raise XmlSyntaxError
        return
    assert _outcome(text) == expected


@st.composite
def _serialized_trees(draw):
    return serialize(
        draw(_elements()),
        declaration=draw(st.booleans()),
        indent=draw(st.sampled_from((0, 2))),
    )


_codec_documents = st.sampled_from(
    ((rosettanet, rosettanet.ROSETTANET), (oagis, oagis.OAGIS))
).flatmap(lambda codec: wire_texts(*codec))


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
        with pytest.raises(Exception) as excinfo:
            reference_parse(text)
        assert not isinstance(excinfo.value, XmlSyntaxError)
        _assert_agrees(text)
