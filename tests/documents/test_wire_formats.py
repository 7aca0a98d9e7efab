"""Tests for the five wire/back-end formats: structure, parsing, errors.

Each format gets the same treatment: wire round trip, envelope assertions,
schema checks, and malformed-input rejection.  The format documents are
produced from the normalized fixtures through the standard catalog — the
same path production code uses.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.documents import edi, idoc, oagis, oracle_oif, rosettanet
from repro.documents.model import Document
from repro.errors import WireFormatError
from tests.documents.strategies import document_paths, mutated, wire_documents, wire_texts

FORMATS = {
    "edi": (edi, edi.EDI_X12),
    "rosettanet": (rosettanet, rosettanet.ROSETTANET),
    "oagis": (oagis, oagis.OAGIS),
    "idoc": (idoc, idoc.SAP_IDOC),
    "oif": (oracle_oif, oracle_oif.ORACLE_OIF),
}


@pytest.fixture(params=sorted(FORMATS))
def format_module(request):
    return FORMATS[request.param]


class TestWireRoundTrips:
    def test_po_roundtrip(self, format_module, registry, sample_po):
        module, format_name = format_module
        wire_doc = registry.transform(sample_po, format_name)
        assert module.from_wire(module.to_wire(wire_doc)) == wire_doc

    def test_poa_roundtrip(self, format_module, registry, sample_poa):
        module, format_name = format_module
        wire_doc = registry.transform(sample_poa, format_name)
        assert module.from_wire(module.to_wire(wire_doc)) == wire_doc

    def test_to_wire_rejects_wrong_format(self, format_module, sample_po):
        module, _ = format_module
        with pytest.raises(WireFormatError):
            module.to_wire(sample_po)  # normalized, not this format

    def test_from_wire_rejects_empty(self, format_module):
        module, _ = format_module
        with pytest.raises(WireFormatError):
            module.from_wire("")

    def test_from_wire_rejects_garbage(self, format_module):
        module, _ = format_module
        with pytest.raises(WireFormatError):
            module.from_wire("this is not a business document")

    def test_truncated_wire_rejected(self, format_module, registry, sample_po):
        # Structural corruption (a cut-off transmission) must be detected by
        # every parser.  Mid-value garbage inside a freeform field is
        # legitimately undetectable without checksums, so that is not
        # asserted here.
        module, format_name = format_module
        text = module.to_wire(registry.transform(sample_po, format_name))
        with pytest.raises(WireFormatError):
            module.from_wire(text[: len(text) // 2])


class TestEdiSpecifics:
    def test_segments_and_envelope(self, registry, sample_po):
        text = edi.to_wire(registry.transform(sample_po, edi.EDI_X12))
        segments = [s.split("*")[0] for s in text.strip().split("~") if s]
        assert segments[0] == "ISA"
        assert segments[1] == "GS"
        assert segments[2] == "ST"
        assert segments[-1] == "IEA"
        assert segments.count("PO1") == 2
        assert "PID" in segments  # line 1 has a description

    def test_850_transaction_set(self, registry, sample_po):
        doc = registry.transform(sample_po, edi.EDI_X12)
        assert doc.get("st.transaction_set") == "850"
        assert edi.edi_po_schema().is_valid(doc)

    def test_855_transaction_set(self, registry, sample_poa):
        doc = registry.transform(sample_poa, edi.EDI_X12)
        assert doc.get("st.transaction_set") == "855"
        assert edi.edi_poa_schema().is_valid(doc)

    def test_reserved_delimiter_in_value_rejected(self, registry, sample_po):
        doc = registry.transform(sample_po, edi.EDI_X12).copy()
        doc.set("beg.po_number", "PO*1")
        with pytest.raises(WireFormatError):
            edi.to_wire(doc)

    def test_se_control_number_mismatch_rejected(self, registry, sample_po):
        text = edi.to_wire(registry.transform(sample_po, edi.EDI_X12))
        tampered = text.replace("SE*", "SE*999*", 1)
        with pytest.raises(WireFormatError):
            edi.from_wire(tampered)

    def test_unsupported_transaction_set(self, registry, sample_po):
        text = edi.to_wire(registry.transform(sample_po, edi.EDI_X12))
        with pytest.raises(WireFormatError):
            edi.from_wire(text.replace("ST*850", "ST*810"))

    def test_missing_lines_rejected(self):
        with pytest.raises(WireFormatError):
            edi.from_wire("ISA*00**00**ZZ*A*ZZ*B*0*0000*U*00401*1*0*P*>~GS*PO*A*B*0*0000*1*X*004010~ST*850*0001~")


class TestRosettaNetSpecifics:
    def test_root_elements(self, registry, sample_po, sample_poa):
        po_text = rosettanet.to_wire(registry.transform(sample_po, rosettanet.ROSETTANET))
        poa_text = rosettanet.to_wire(registry.transform(sample_poa, rosettanet.ROSETTANET))
        assert "<Pip3A4PurchaseOrderRequest>" in po_text
        assert "<Pip3A4PurchaseOrderConfirmation>" in poa_text

    def test_roles(self, registry, sample_po, sample_poa):
        po_doc = registry.transform(sample_po, rosettanet.ROSETTANET)
        poa_doc = registry.transform(sample_poa, rosettanet.ROSETTANET)
        assert po_doc.get("service_header.from_role") == "Buyer"
        assert poa_doc.get("service_header.from_role") == "Seller"

    def test_unknown_response_code_rejected(self, registry, sample_poa):
        text = rosettanet.to_wire(registry.transform(sample_poa, rosettanet.ROSETTANET))
        with pytest.raises(WireFormatError):
            rosettanet.from_wire(
                text.replace("<GlobalResponseCode>Partial", "<GlobalResponseCode>Whatever")
            )

    def test_unknown_root_rejected(self):
        with pytest.raises(WireFormatError):
            rosettanet.from_wire("<SomethingElse/>")

    def test_request_without_lines_rejected(self, registry, sample_po):
        doc = registry.transform(sample_po, rosettanet.ROSETTANET).copy()
        doc.set("order.product_lines", [])
        text = rosettanet.to_wire(doc)
        with pytest.raises(WireFormatError):
            rosettanet.from_wire(text)


class TestOagisSpecifics:
    def test_bod_structure(self, registry, sample_po):
        text = oagis.to_wire(registry.transform(sample_po, oagis.OAGIS))
        assert "<ProcessPurchaseOrder" in text
        assert "<ApplicationArea>" in text
        assert "<DataArea>" in text
        assert "<Process/>" in text

    def test_acknowledge_verb(self, registry, sample_poa):
        text = oagis.to_wire(registry.transform(sample_poa, oagis.OAGIS))
        assert "<AcknowledgePurchaseOrder" in text
        assert "<Acknowledge/>" in text

    def test_missing_verb_rejected(self, registry, sample_po):
        text = oagis.to_wire(registry.transform(sample_po, oagis.OAGIS))
        with pytest.raises(WireFormatError):
            oagis.from_wire(text.replace("<Process/>", "<NotAVerb/>"))

    def test_unknown_ack_code_rejected(self, registry, sample_poa):
        text = oagis.to_wire(registry.transform(sample_poa, oagis.OAGIS))
        with pytest.raises(WireFormatError):
            oagis.from_wire(
                text.replace("<AcknowledgeCode>Modified", "<AcknowledgeCode>Meh")
            )


class TestIdocSpecifics:
    def test_segment_layout(self, registry, sample_po):
        text = idoc.to_wire(registry.transform(sample_po, idoc.SAP_IDOC))
        lines = text.splitlines()
        assert lines[0].startswith("EDI_DC40")
        assert lines[1].startswith("E1EDK01")
        assert sum(1 for line in lines if line.startswith("E1EDKA1")) == 2
        assert sum(1 for line in lines if line.startswith("E1EDP01")) == 2
        assert lines[-1].startswith("E1EDS01")

    def test_message_types(self, registry, sample_po, sample_poa):
        po_doc = registry.transform(sample_po, idoc.SAP_IDOC)
        poa_doc = registry.transform(sample_poa, idoc.SAP_IDOC)
        assert po_doc.get("control.message_type") == "ORDERS"
        assert poa_doc.get("control.message_type") == "ORDRSP"

    def test_field_overflow_rejected(self, registry, sample_po):
        doc = registry.transform(sample_po, idoc.SAP_IDOC).copy()
        doc.set("header.curcy", "TOOLONG")
        with pytest.raises(WireFormatError):
            idoc.to_wire(doc)

    def test_unknown_segment_rejected(self):
        with pytest.raises(WireFormatError):
            idoc.from_wire("E9UNKNOWN  somedata")

    def test_duplicate_control_record_rejected(self, registry, sample_po):
        text = idoc.to_wire(registry.transform(sample_po, idoc.SAP_IDOC))
        first_line = text.splitlines()[0]
        with pytest.raises(WireFormatError):
            idoc.from_wire(first_line + "\n" + text)


class TestOifSpecifics:
    def test_record_layout(self, registry, sample_po):
        text = oracle_oif.to_wire(registry.transform(sample_po, oracle_oif.ORACLE_OIF))
        lines = text.splitlines()
        assert lines[0].startswith("PO_HEADERS_INTERFACE|")
        assert all(line.startswith("PO_LINES_INTERFACE|") for line in lines[1:])

    def test_pipe_in_value_escaped(self, registry, sample_po):
        doc = registry.transform(sample_po, oracle_oif.ORACLE_OIF).copy()
        doc.set("lines[0].item_description", "big|pipe")
        parsed = oracle_oif.from_wire(oracle_oif.to_wire(doc))
        assert parsed.get("lines[0].item_description") == "big|pipe"

    def test_newline_in_value_escaped(self, registry, sample_po):
        doc = registry.transform(sample_po, oracle_oif.ORACLE_OIF).copy()
        doc.set("lines[0].item_description", "two\nlines")
        parsed = oracle_oif.from_wire(oracle_oif.to_wire(doc))
        assert parsed.get("lines[0].item_description") == "two\nlines"

    def test_two_headers_rejected(self, registry, sample_po):
        text = oracle_oif.to_wire(registry.transform(sample_po, oracle_oif.ORACLE_OIF))
        header = text.splitlines()[0]
        with pytest.raises(WireFormatError):
            oracle_oif.from_wire(header + "\n" + text)

    def test_missing_column_rejected(self):
        with pytest.raises(WireFormatError):
            oracle_oif.from_wire("PO_HEADERS_INTERFACE|DOCUMENT_NUM=P1")

    def test_unknown_table_rejected(self):
        with pytest.raises(WireFormatError):
            oracle_oif.from_wire("PO_SECRET_TABLE|X=1")


_NON_FINITE = ["inf", "nan", "-inf", "1e999"]


class TestNonFiniteNumbers:
    """``float()`` accepts ``inf``, ``nan`` and ``1e999``; no codec may."""

    @pytest.mark.parametrize("bad", _NON_FINITE)
    def test_rosettanet(self, registry, sample_po, bad):
        text = rosettanet.to_wire(registry.transform(sample_po, rosettanet.ROSETTANET))
        with pytest.raises(WireFormatError, match="non-finite value .* in <LineNumber>"):
            rosettanet.from_wire(text.replace("<LineNumber>1<", f"<LineNumber>{bad}<"))

    @pytest.mark.parametrize("bad", _NON_FINITE)
    def test_oagis(self, registry, sample_po, bad):
        text = oagis.to_wire(registry.transform(sample_po, oagis.OAGIS))
        with pytest.raises(WireFormatError, match="non-finite value .* in <LineNumber>"):
            oagis.from_wire(text.replace("<LineNumber>1<", f"<LineNumber>{bad}<"))
        with pytest.raises(WireFormatError, match="non-finite value .* in <CreationDateTime>"):
            oagis.from_wire(text.replace(">5.0</CreationDateTime>", f">{bad}</CreationDateTime>"))

    @pytest.mark.parametrize("bad", _NON_FINITE)
    def test_edi(self, registry, sample_po, bad):
        text = edi.to_wire(registry.transform(sample_po, edi.EDI_X12))
        with pytest.raises(WireFormatError, match="non-finite value"):
            edi.from_wire(text.replace("~PO1*1*", f"~PO1*{bad}*"))

    @pytest.mark.parametrize("bad", _NON_FINITE)
    def test_idoc(self, registry, sample_po, bad):
        text = idoc.to_wire(registry.transform(sample_po, idoc.SAP_IDOC))
        line = next(line for line in text.splitlines() if line.startswith("E1EDP01"))
        tampered = line[:10] + bad.ljust(6) + line[16:]
        with pytest.raises(WireFormatError, match="non-finite value"):
            idoc.from_wire(text.replace(line, tampered))

    @pytest.mark.parametrize("bad", _NON_FINITE)
    def test_oif(self, registry, sample_po, bad):
        text = oracle_oif.to_wire(registry.transform(sample_po, oracle_oif.ORACLE_OIF))
        with pytest.raises(WireFormatError, match="non-finite value"):
            oracle_oif.from_wire(text.replace("LINE_NUM=1|", f"LINE_NUM={bad}|"))


# -- fuzz: partner bytes never escape as an untyped exception -----------------

# Tokens a hostile or broken partner might put where a number or a piece of
# markup belongs.
_HOSTILE = st.sampled_from(
    ["inf", "nan", "1e999", "-Infinity", "&#xZZ;", "&#99999999;", "&#;", "&#-5;",
     "<", ">", "&", "*", "~", "|", "=", "\\", "\n", "", "x", "-1", "1.5"]
)
_NUMBER = re.compile(r"\d+(?:\.\d+)?")


@st.composite
def _hostile_number(draw, texts):
    """A drawn wire text with one of its numbers replaced by a hostile token."""
    text = draw(texts)
    start, end = draw(st.sampled_from([match.span() for match in _NUMBER.finditer(text)]))
    return text[:start] + draw(_HOSTILE) + text[end:]


@pytest.mark.parametrize("format_key", sorted(FORMATS))
@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_from_wire_raises_only_wire_format_errors(format_key, data):
    module, format_name = FORMATS[format_key]
    text = data.draw(mutated(_hostile_number(wire_texts(module, format_name)), _HOSTILE))
    try:
        assert isinstance(module.from_wire(text), Document)
    except WireFormatError:
        pass


# -- fuzz: a document that does not fit its layout never escapes untyped -------

_EDITS = st.sampled_from([("replace", 7), ("replace", [1]), ("replace", None), ("delete", None)])


def _path_text(path):
    text = ""
    for step in path:
        text += f"[{step}]" if isinstance(step, int) else f".{step}" if text else step
    return text


@pytest.mark.parametrize("format_key", sorted(FORMATS))
@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_to_wire_raises_only_wire_format_errors(format_key, data):
    module, format_name = FORMATS[format_key]
    document = Document.from_dict(data.draw(wire_documents(format_name)).to_dict())
    path = data.draw(st.sampled_from(list(document_paths(document.data))))
    edit, value = data.draw(_EDITS)
    parent = document.data
    for step in path[:-1]:
        parent = parent[step]
    if edit == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    try:
        assert isinstance(module.to_wire(document), str)
    except WireFormatError as error:
        assert _path_text(path) in str(error)
