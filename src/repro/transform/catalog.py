"""The concrete mapping catalog: every layout <-> the normalized layout.

These are the transformations the paper says "require a domain expert
familiar with the business data content" (Section 3.2): 2 directions x
2 document kinds (PO, POA) x 5 formats (EDI X12, RosettaNet XML, OAGIS
BOD, SAP IDoc, Oracle OIF) = 20 mappings, all through the normalized hub.

Context keys honoured (all optional; sensible defaults are derived from the
document itself):

================= =========================================================
``sender_id``     overrides the envelope sender (bindings set it from the
                  enterprise's own id)
``receiver_id``   overrides the envelope receiver
``control_number``X12 interchange control number
``st_control``    X12 transaction-set control number
``pip_instance_id`` RosettaNet PIP instance id
``bod_id``        OAGIS BOD id
``idoc_number``   SAP IDoc number
``sender_port`` / ``receiver_port``  SAP port names
================= =========================================================
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Mapping as TypingMapping

from repro.documents import edi, idoc, normalized, oagis, oracle_oif, rosettanet
from repro.documents.model import Document, DocumentPath
from repro.documents.schema import DocumentSchema
from repro.errors import MappingError
from repro.transform import functions
from repro.transform.mapping import Compute, Const, Each, Field, Mapping
from repro.transform.transformer import TransformationRegistry

__all__ = ["standard_mappings", "build_standard_registry"]

NORM = normalized.NORMALIZED

Context = TypingMapping[str, Any]
# schema(factory): the schema factory() builds, one object per catalog
SchemaOf = Callable[[Callable[[], DocumentSchema]], DocumentSchema]


# ---------------------------------------------------------------------------
# Compute helpers
# ---------------------------------------------------------------------------


# Helper factories precompile their DocumentPaths once at catalog build
# time: compute functions run per document on the hot path, and a string
# path would re-parse inside every ``document.get`` call.


def _ctx_or_path(key: str, fallback_path: str) -> Callable[[Document, Context], Any]:
    fallback = DocumentPath(fallback_path)

    def compute(document: Document, context: Context) -> Any:
        if key in context:
            return context[key]
        return document.get(fallback)

    compute.__name__ = f"ctx_{key}_or_{fallback_path}"
    return compute


def _ctx_or_derived(key: str, prefix: str, path: str) -> Callable[[Document, Context], Any]:
    compiled = DocumentPath(path)

    def compute(document: Document, context: Context) -> Any:
        if key in context:
            return str(context[key])
        return f"{prefix}{document.get(compiled)}"

    compute.__name__ = f"ctx_{key}_or_derived"
    return compute


def _str_of(path: str) -> Callable[[Document, Context], str]:
    compiled = DocumentPath(path)

    def compute(document: Document, context: Context) -> str:
        return str(document.get(compiled))

    compute.__name__ = f"str_of_{path}"
    return compute


def _len_of(path: str) -> Callable[[Document, Context], int]:
    compiled = DocumentPath(path)

    def compute(document: Document, context: Context) -> int:
        return len(document.get(compiled))

    compute.__name__ = f"len_of_{path}"
    return compute


def _derived_doc_id(prefix: str, path: str) -> Callable[[Document, Context], str]:
    compiled = DocumentPath(path)

    def compute(document: Document, context: Context) -> str:
        return f"{prefix}{document.get(compiled)}"

    compute.__name__ = f"doc_id_{prefix}"
    return compute


_BUYER_ID = DocumentPath("header.buyer_id")
_SELLER_ID = DocumentPath("header.seller_id")
_PARTNERS = DocumentPath("partners")


def _sap_partners(document: Document, context: Context) -> list[dict[str, str]]:
    """Build the IDoc partner segments: AG = sold-to (buyer), LF = vendor."""
    return [
        {"parvw": "AG", "partn": str(document.get(_BUYER_ID))},
        {"parvw": "LF", "partn": str(document.get(_SELLER_ID))},
    ]


def _sap_partner(role: str) -> Callable[[Document, Context], str]:
    def compute(document: Document, context: Context) -> str:
        for partner in document.get(_PARTNERS):
            if partner.get("parvw") == role:
                return partner["partn"]
        raise MappingError(f"IDoc has no partner with role {role!r}")

    compute.__name__ = f"sap_partner_{role}"
    return compute


# ---------------------------------------------------------------------------
# EDI X12
# ---------------------------------------------------------------------------


def _edi_mappings(schema: SchemaOf) -> list[Mapping]:
    po_out = Mapping(
        name="normalized__to__edi-x12/purchase_order",
        source_format=NORM,
        target_format=edi.EDI_X12,
        doc_type="purchase_order",
        source_schema=schema(normalized.normalized_po_schema),
        target_schema=schema(edi.edi_po_schema),
        rules=[
            Compute("isa.sender_id", _ctx_or_path("sender_id", "header.buyer_id")),
            Compute("isa.receiver_id", _ctx_or_path("receiver_id", "header.seller_id")),
            Compute("isa.date", _str_of("header.issued_at")),
            Compute(
                "isa.control_number",
                _ctx_or_derived("control_number", "CN", "header.po_number"),
            ),
            Const("st.transaction_set", "850"),
            Compute("st.control_number", _ctx_or_derived("st_control", "0001", "header.po_number")),
            Const("beg.purpose_code", "00"),
            Const("beg.type_code", "SA"),
            Field("header.po_number", "beg.po_number"),
            Compute("beg.date", _str_of("header.issued_at")),
            Field("header.currency", "cur.currency"),
            Field("header.payment_terms", "itd.terms_description", default=""),
            Each(
                "lines",
                "po1",
                [
                    Field("line_no", "line_no", functions.to_int),
                    Field("quantity", "quantity", functions.to_float),
                    Const("unit", "EA"),
                    Field("unit_price", "unit_price", functions.to_float),
                    Field("sku", "sku"),
                    Field("description", "description", default=""),
                ],
            ),
            Field("summary.line_count", "ctt.line_count", functions.to_int),
            Field("summary.total_amount", "amt.total_amount", functions.money),
        ],
    )
    po_in = Mapping(
        name="edi-x12__to__normalized/purchase_order",
        source_format=edi.EDI_X12,
        target_format=NORM,
        doc_type="purchase_order",
        source_schema=schema(edi.edi_po_schema),
        target_schema=schema(normalized.normalized_po_schema),
        rules=[
            Compute("header.document_id", _derived_doc_id("PO-DOC-", "beg.po_number")),
            Field("beg.po_number", "header.po_number"),
            Field("beg.date", "header.issued_at", functions.to_float),
            Field("isa.sender_id", "header.buyer_id"),
            Field("isa.receiver_id", "header.seller_id"),
            Field("cur.currency", "header.currency"),
            Field("itd.terms_description", "header.payment_terms", default=""),
            Each(
                "po1",
                "lines",
                [
                    Field("line_no", "line_no", functions.to_int),
                    Field("sku", "sku"),
                    Field("description", "description", default=""),
                    Field("quantity", "quantity", functions.to_float),
                    Field("unit_price", "unit_price", functions.money),
                ],
            ),
            Field("amt.total_amount", "summary.total_amount", functions.money),
            Field("ctt.line_count", "summary.line_count", functions.to_int),
        ],
    )
    poa_out = Mapping(
        name="normalized__to__edi-x12/po_ack",
        source_format=NORM,
        target_format=edi.EDI_X12,
        doc_type="po_ack",
        source_schema=schema(normalized.normalized_poa_schema),
        target_schema=schema(edi.edi_poa_schema),
        rules=[
            Compute("isa.sender_id", _ctx_or_path("sender_id", "header.seller_id")),
            Compute("isa.receiver_id", _ctx_or_path("receiver_id", "header.buyer_id")),
            Compute("isa.date", _str_of("header.issued_at")),
            Compute(
                "isa.control_number",
                _ctx_or_derived("control_number", "CN", "header.po_number"),
            ),
            Const("st.transaction_set", "855"),
            Compute("st.control_number", _ctx_or_derived("st_control", "0001", "header.po_number")),
            Const("bak.purpose_code", "00"),
            Field(
                "header.status", "bak.ack_type",
                functions.code_map(edi.ACK_TYPE_BY_STATUS, "POA status"),
            ),
            Field("header.po_number", "bak.po_number"),
            Compute("bak.date", _str_of("header.issued_at")),
            Each(
                "lines",
                "ack",
                [
                    Field(
                        "status", "line_status",
                        functions.code_map(edi.LINE_CODE_BY_STATUS, "line status"),
                    ),
                    Field("quantity", "quantity", functions.to_float),
                    Const("unit", "EA"),
                    Field("sku", "sku"),
                    Field("line_no", "line_no", functions.to_int),
                ],
            ),
            Compute("ctt.line_count", _len_of("lines")),
            Field("summary.accepted_amount", "amt.accepted_amount", functions.money),
        ],
    )
    poa_in = Mapping(
        name="edi-x12__to__normalized/po_ack",
        source_format=edi.EDI_X12,
        target_format=NORM,
        doc_type="po_ack",
        source_schema=schema(edi.edi_poa_schema),
        target_schema=schema(normalized.normalized_poa_schema),
        rules=[
            Compute("header.document_id", _derived_doc_id("POA-DOC-", "bak.po_number")),
            Field("bak.po_number", "header.po_number"),
            Field("bak.date", "header.issued_at", functions.to_float),
            Field("isa.receiver_id", "header.buyer_id"),
            Field("isa.sender_id", "header.seller_id"),
            Field(
                "bak.ack_type", "header.status",
                functions.code_map(edi.STATUS_BY_ACK_TYPE, "X12 ack type"),
            ),
            Each(
                "ack",
                "lines",
                [
                    Field("line_no", "line_no", functions.to_int),
                    Field("sku", "sku"),
                    Field(
                        "line_status", "status",
                        functions.code_map(edi.STATUS_BY_LINE_CODE, "X12 line code"),
                    ),
                    Field("quantity", "quantity", functions.to_float),
                ],
            ),
            Field("amt.accepted_amount", "summary.accepted_amount", functions.money),
        ],
    )
    return [po_out, po_in, poa_out, poa_in]


# ---------------------------------------------------------------------------
# RosettaNet
# ---------------------------------------------------------------------------


def _rosettanet_mappings(schema: SchemaOf) -> list[Mapping]:
    po_out = Mapping(
        name="normalized__to__rosettanet-xml/purchase_order",
        source_format=NORM,
        target_format=rosettanet.ROSETTANET,
        doc_type="purchase_order",
        source_schema=schema(normalized.normalized_po_schema),
        target_schema=schema(rosettanet.rn_po_schema),
        rules=[
            Const("service_header.pip_code", "3A4"),
            Compute(
                "service_header.pip_instance_id",
                _ctx_or_derived("pip_instance_id", "PIP-", "header.po_number"),
            ),
            Const("service_header.from_role", "Buyer"),
            Const("service_header.to_role", "Seller"),
            Compute("service_header.from_partner", _ctx_or_path("sender_id", "header.buyer_id")),
            Compute("service_header.to_partner", _ctx_or_path("receiver_id", "header.seller_id")),
            Field("header.document_id", "order.global_document_id"),
            Field("header.po_number", "order.po_number"),
            Field("header.currency", "order.currency_code"),
            Field("header.issued_at", "order.document_date", functions.to_float),
            Field("header.payment_terms", "order.payment_terms", default=""),
            Field("summary.total_amount", "order.total_amount", functions.money),
            Each(
                "lines",
                "order.product_lines",
                [
                    Field("line_no", "line_number", functions.to_int),
                    Field("sku", "global_product_id"),
                    Field("description", "description", default=""),
                    Field("quantity", "ordered_quantity", functions.to_float),
                    Field("unit_price", "unit_price", functions.money),
                ],
            ),
        ],
    )
    po_in = Mapping(
        name="rosettanet-xml__to__normalized/purchase_order",
        source_format=rosettanet.ROSETTANET,
        target_format=NORM,
        doc_type="purchase_order",
        source_schema=schema(rosettanet.rn_po_schema),
        target_schema=schema(normalized.normalized_po_schema),
        rules=[
            Field("order.global_document_id", "header.document_id"),
            Field("order.po_number", "header.po_number"),
            Field("order.document_date", "header.issued_at", functions.to_float),
            Field("service_header.from_partner", "header.buyer_id"),
            Field("service_header.to_partner", "header.seller_id"),
            Field("order.currency_code", "header.currency"),
            Field("order.payment_terms", "header.payment_terms", default=""),
            Each(
                "order.product_lines",
                "lines",
                [
                    Field("line_number", "line_no", functions.to_int),
                    Field("global_product_id", "sku"),
                    Field("description", "description", default=""),
                    Field("ordered_quantity", "quantity", functions.to_float),
                    Field("unit_price", "unit_price", functions.money),
                ],
            ),
            Field("order.total_amount", "summary.total_amount", functions.money),
            Compute("summary.line_count", _len_of("order.product_lines")),
        ],
    )
    poa_out = Mapping(
        name="normalized__to__rosettanet-xml/po_ack",
        source_format=NORM,
        target_format=rosettanet.ROSETTANET,
        doc_type="po_ack",
        source_schema=schema(normalized.normalized_poa_schema),
        target_schema=schema(rosettanet.rn_poa_schema),
        rules=[
            Const("service_header.pip_code", "3A4"),
            Compute(
                "service_header.pip_instance_id",
                _ctx_or_derived("pip_instance_id", "PIP-", "header.po_number"),
            ),
            Const("service_header.from_role", "Seller"),
            Const("service_header.to_role", "Buyer"),
            Compute("service_header.from_partner", _ctx_or_path("sender_id", "header.seller_id")),
            Compute("service_header.to_partner", _ctx_or_path("receiver_id", "header.buyer_id")),
            Field("header.document_id", "acknowledgment.global_document_id"),
            Field("header.po_number", "acknowledgment.po_number"),
            Field("header.issued_at", "acknowledgment.document_date", functions.to_float),
            Field(
                "header.status", "acknowledgment.global_response_code",
                functions.code_map(rosettanet.RESPONSE_CODE_BY_STATUS, "POA status"),
            ),
            Field(
                "summary.accepted_amount", "acknowledgment.accepted_amount",
                functions.money,
            ),
            Each(
                "lines",
                "acknowledgment.ack_lines",
                [
                    Field("line_no", "line_number", functions.to_int),
                    Field("sku", "global_product_id"),
                    Field(
                        "status", "response_code",
                        functions.code_map(rosettanet.LINE_CODE_BY_STATUS, "line status"),
                    ),
                    Field("quantity", "accepted_quantity", functions.to_float),
                ],
            ),
        ],
    )
    poa_in = Mapping(
        name="rosettanet-xml__to__normalized/po_ack",
        source_format=rosettanet.ROSETTANET,
        target_format=NORM,
        doc_type="po_ack",
        source_schema=schema(rosettanet.rn_poa_schema),
        target_schema=schema(normalized.normalized_poa_schema),
        rules=[
            Field("acknowledgment.global_document_id", "header.document_id"),
            Field("acknowledgment.po_number", "header.po_number"),
            Field("acknowledgment.document_date", "header.issued_at", functions.to_float),
            Field("service_header.to_partner", "header.buyer_id"),
            Field("service_header.from_partner", "header.seller_id"),
            Field(
                "acknowledgment.global_response_code", "header.status",
                functions.code_map(rosettanet.STATUS_BY_RESPONSE_CODE, "RN response code"),
            ),
            Each(
                "acknowledgment.ack_lines",
                "lines",
                [
                    Field("line_number", "line_no", functions.to_int),
                    Field("global_product_id", "sku"),
                    Field(
                        "response_code", "status",
                        functions.code_map(rosettanet.STATUS_BY_LINE_CODE, "RN line code"),
                    ),
                    Field("accepted_quantity", "quantity", functions.to_float),
                ],
            ),
            Field(
                "acknowledgment.accepted_amount", "summary.accepted_amount",
                functions.money,
            ),
        ],
    )
    return [po_out, po_in, poa_out, poa_in]


# ---------------------------------------------------------------------------
# OAGIS
# ---------------------------------------------------------------------------


def _oagis_mappings(schema: SchemaOf) -> list[Mapping]:
    po_out = Mapping(
        name="normalized__to__oagis-bod/purchase_order",
        source_format=NORM,
        target_format=oagis.OAGIS,
        doc_type="purchase_order",
        source_schema=schema(normalized.normalized_po_schema),
        target_schema=schema(oagis.oagis_po_schema),
        rules=[
            Compute("application_area.sender_id", _ctx_or_path("sender_id", "header.buyer_id")),
            Compute(
                "application_area.receiver_id",
                _ctx_or_path("receiver_id", "header.seller_id"),
            ),
            Field("header.issued_at", "application_area.creation_time", functions.to_float),
            Compute(
                "application_area.bod_id",
                _ctx_or_derived("bod_id", "BOD-", "header.po_number"),
            ),
            Field("header.document_id", "order_header.document_id"),
            Field("header.po_number", "order_header.po_number"),
            Field("header.currency", "order_header.currency"),
            Field("summary.total_amount", "order_header.total_value", functions.money),
            Field("header.payment_terms", "order_header.terms", default=""),
            Each(
                "lines",
                "order_lines",
                [
                    Field("line_no", "line_num", functions.to_int),
                    Field("sku", "item_id"),
                    Field("description", "item_description", default=""),
                    Field("quantity", "quantity", functions.to_float),
                    Field("unit_price", "price", functions.money),
                ],
            ),
        ],
    )
    po_in = Mapping(
        name="oagis-bod__to__normalized/purchase_order",
        source_format=oagis.OAGIS,
        target_format=NORM,
        doc_type="purchase_order",
        source_schema=schema(oagis.oagis_po_schema),
        target_schema=schema(normalized.normalized_po_schema),
        rules=[
            Field("order_header.document_id", "header.document_id"),
            Field("order_header.po_number", "header.po_number"),
            Field("application_area.creation_time", "header.issued_at", functions.to_float),
            Field("application_area.sender_id", "header.buyer_id"),
            Field("application_area.receiver_id", "header.seller_id"),
            Field("order_header.currency", "header.currency"),
            Field("order_header.terms", "header.payment_terms", default=""),
            Each(
                "order_lines",
                "lines",
                [
                    Field("line_num", "line_no", functions.to_int),
                    Field("item_id", "sku"),
                    Field("item_description", "description", default=""),
                    Field("quantity", "quantity", functions.to_float),
                    Field("price", "unit_price", functions.money),
                ],
            ),
            Field("order_header.total_value", "summary.total_amount", functions.money),
            Compute("summary.line_count", _len_of("order_lines")),
        ],
    )
    poa_out = Mapping(
        name="normalized__to__oagis-bod/po_ack",
        source_format=NORM,
        target_format=oagis.OAGIS,
        doc_type="po_ack",
        source_schema=schema(normalized.normalized_poa_schema),
        target_schema=schema(oagis.oagis_poa_schema),
        rules=[
            Compute("application_area.sender_id", _ctx_or_path("sender_id", "header.seller_id")),
            Compute(
                "application_area.receiver_id",
                _ctx_or_path("receiver_id", "header.buyer_id"),
            ),
            Field("header.issued_at", "application_area.creation_time", functions.to_float),
            Compute(
                "application_area.bod_id",
                _ctx_or_derived("bod_id", "BOD-ACK-", "header.po_number"),
            ),
            Field("header.document_id", "ack_header.document_id"),
            Field("header.po_number", "ack_header.po_number"),
            Field(
                "header.status", "ack_header.acknowledge_code",
                functions.code_map(oagis.ACK_CODE_BY_STATUS, "POA status"),
            ),
            Field("summary.accepted_amount", "ack_header.total_accepted", functions.money),
            Each(
                "lines",
                "ack_lines",
                [
                    Field("line_no", "line_num", functions.to_int),
                    Field("sku", "item_id"),
                    Field(
                        "status", "line_code",
                        functions.code_map(oagis.LINE_CODE_BY_STATUS, "line status"),
                    ),
                    Field("quantity", "quantity", functions.to_float),
                ],
            ),
        ],
    )
    poa_in = Mapping(
        name="oagis-bod__to__normalized/po_ack",
        source_format=oagis.OAGIS,
        target_format=NORM,
        doc_type="po_ack",
        source_schema=schema(oagis.oagis_poa_schema),
        target_schema=schema(normalized.normalized_poa_schema),
        rules=[
            Field("ack_header.document_id", "header.document_id"),
            Field("ack_header.po_number", "header.po_number"),
            Field("application_area.creation_time", "header.issued_at", functions.to_float),
            Field("application_area.receiver_id", "header.buyer_id"),
            Field("application_area.sender_id", "header.seller_id"),
            Field(
                "ack_header.acknowledge_code", "header.status",
                functions.code_map(oagis.STATUS_BY_ACK_CODE, "OAGIS ack code"),
            ),
            Each(
                "ack_lines",
                "lines",
                [
                    Field("line_num", "line_no", functions.to_int),
                    Field("item_id", "sku"),
                    Field(
                        "line_code", "status",
                        functions.code_map(oagis.STATUS_BY_LINE_CODE, "OAGIS line code"),
                    ),
                    Field("quantity", "quantity", functions.to_float),
                ],
            ),
            Field("ack_header.total_accepted", "summary.accepted_amount", functions.money),
        ],
    )
    return [po_out, po_in, poa_out, poa_in]


# ---------------------------------------------------------------------------
# SAP IDoc
# ---------------------------------------------------------------------------


def _sap_mappings(schema: SchemaOf) -> list[Mapping]:
    po_out = Mapping(
        name="normalized__to__sap-idoc/purchase_order",
        source_format=NORM,
        target_format=idoc.SAP_IDOC,
        doc_type="purchase_order",
        source_schema=schema(normalized.normalized_po_schema),
        target_schema=schema(idoc.idoc_po_schema),
        rules=[
            Compute(
                "control.idoc_number",
                _ctx_or_path("idoc_number", "header.document_id"),
            ),
            Const("control.idoc_type", "ORDERS05"),
            Const("control.message_type", "ORDERS"),
            Compute(
                "control.sender_port",
                lambda document, context: context.get("sender_port", "B2BHUB"),
                label="sender_port",
            ),
            Compute(
                "control.receiver_port",
                lambda document, context: context.get("receiver_port", "SAPERP"),
                label="receiver_port",
            ),
            Field("header.issued_at", "control.created_at", functions.to_float),
            Const("header.action", "000"),
            Field("header.currency", "header.curcy", functions.truncated(3)),
            Field("header.po_number", "header.belnr"),
            Const("header.bsart", "NB"),
            Field("header.payment_terms", "header.zterm", functions.truncated(10), default=""),
            Compute("partners", _sap_partners, label="sap_partners"),
            Each(
                "lines",
                "items",
                [
                    Field("line_no", "posex", functions.to_int),
                    Field("quantity", "menge", functions.to_float),
                    Field("unit_price", "vprei", functions.money),
                    Field("sku", "matnr"),
                    Field("description", "arktx", functions.truncated(40), default=""),
                ],
            ),
            Field("summary.total_amount", "summary.summe", functions.money),
        ],
    )
    po_in = Mapping(
        name="sap-idoc__to__normalized/purchase_order",
        source_format=idoc.SAP_IDOC,
        target_format=NORM,
        doc_type="purchase_order",
        source_schema=schema(idoc.idoc_po_schema),
        target_schema=schema(normalized.normalized_po_schema),
        rules=[
            Field("control.idoc_number", "header.document_id"),
            Field("header.belnr", "header.po_number"),
            Field("control.created_at", "header.issued_at", functions.to_float),
            Compute("header.buyer_id", _sap_partner("AG")),
            Compute("header.seller_id", _sap_partner("LF")),
            Field("header.curcy", "header.currency"),
            Field("header.zterm", "header.payment_terms", default=""),
            Each(
                "items",
                "lines",
                [
                    Field("posex", "line_no", functions.to_int),
                    Field("matnr", "sku"),
                    Field("arktx", "description", default=""),
                    Field("menge", "quantity", functions.to_float),
                    Field("vprei", "unit_price", functions.money),
                ],
            ),
            Field("summary.summe", "summary.total_amount", functions.money),
            Compute("summary.line_count", _len_of("items")),
        ],
    )
    poa_out = Mapping(
        name="normalized__to__sap-idoc/po_ack",
        source_format=NORM,
        target_format=idoc.SAP_IDOC,
        doc_type="po_ack",
        source_schema=schema(normalized.normalized_poa_schema),
        target_schema=schema(idoc.idoc_poa_schema),
        rules=[
            Compute(
                "control.idoc_number",
                _ctx_or_path("idoc_number", "header.document_id"),
            ),
            Const("control.idoc_type", "ORDERS05"),
            Const("control.message_type", "ORDRSP"),
            Compute(
                "control.sender_port",
                lambda document, context: context.get("sender_port", "SAPERP"),
                label="sender_port",
            ),
            Compute(
                "control.receiver_port",
                lambda document, context: context.get("receiver_port", "B2BHUB"),
                label="receiver_port",
            ),
            Field("header.issued_at", "control.created_at", functions.to_float),
            Field(
                "header.status", "header.action",
                functions.code_map(idoc.ACTION_BY_STATUS, "POA status"),
            ),
            Const("header.curcy", ""),
            Field("header.po_number", "header.belnr"),
            Const("header.bsart", "NB"),
            Const("header.zterm", ""),
            Compute("partners", _sap_partners, label="sap_partners"),
            Each(
                "lines",
                "items",
                [
                    Field("line_no", "posex", functions.to_int),
                    Field("quantity", "menge", functions.to_float),
                    Field("sku", "matnr"),
                    Field(
                        "status", "action",
                        functions.code_map(idoc.ITEM_ACTION_BY_STATUS, "line status"),
                    ),
                ],
            ),
            Field("summary.accepted_amount", "summary.summe", functions.money),
        ],
    )
    poa_in = Mapping(
        name="sap-idoc__to__normalized/po_ack",
        source_format=idoc.SAP_IDOC,
        target_format=NORM,
        doc_type="po_ack",
        source_schema=schema(idoc.idoc_poa_schema),
        target_schema=schema(normalized.normalized_poa_schema),
        rules=[
            Field("control.idoc_number", "header.document_id"),
            Field("header.belnr", "header.po_number"),
            Field("control.created_at", "header.issued_at", functions.to_float),
            Compute("header.buyer_id", _sap_partner("AG")),
            Compute("header.seller_id", _sap_partner("LF")),
            Field(
                "header.action", "header.status",
                functions.code_map(idoc.STATUS_BY_ACTION, "IDoc action"),
            ),
            Each(
                "items",
                "lines",
                [
                    Field("posex", "line_no", functions.to_int),
                    Field("matnr", "sku"),
                    Field(
                        "action", "status",
                        functions.code_map(idoc.STATUS_BY_ITEM_ACTION, "IDoc item action"),
                    ),
                    Field("menge", "quantity", functions.to_float),
                ],
            ),
            Field("summary.summe", "summary.accepted_amount", functions.money),
        ],
    )
    return [po_out, po_in, poa_out, poa_in]


# ---------------------------------------------------------------------------
# Oracle OIF
# ---------------------------------------------------------------------------


def _oracle_mappings(schema: SchemaOf) -> list[Mapping]:
    po_out = Mapping(
        name="normalized__to__oracle-oif/purchase_order",
        source_format=NORM,
        target_format=oracle_oif.ORACLE_OIF,
        doc_type="purchase_order",
        source_schema=schema(normalized.normalized_po_schema),
        target_schema=schema(oracle_oif.oif_po_schema),
        rules=[
            Field("header.document_id", "header.interface_header_id"),
            Field("header.po_number", "header.document_num"),
            Field("header.currency", "header.currency_code"),
            Field("header.buyer_id", "header.buyer_org"),
            Field("header.seller_id", "header.vendor_org"),
            Field("header.payment_terms", "header.terms", default=""),
            Field("summary.total_amount", "header.total_amount", functions.money),
            Field("header.issued_at", "header.creation_date", functions.to_float),
            Each(
                "lines",
                "lines",
                [
                    Field("line_no", "line_num", functions.to_int),
                    Field("sku", "item_id"),
                    Field("description", "item_description", default=""),
                    Field("quantity", "quantity", functions.to_float),
                    Field("unit_price", "unit_price", functions.money),
                ],
            ),
        ],
    )
    po_in = Mapping(
        name="oracle-oif__to__normalized/purchase_order",
        source_format=oracle_oif.ORACLE_OIF,
        target_format=NORM,
        doc_type="purchase_order",
        source_schema=schema(oracle_oif.oif_po_schema),
        target_schema=schema(normalized.normalized_po_schema),
        rules=[
            Field("header.interface_header_id", "header.document_id"),
            Field("header.document_num", "header.po_number"),
            Field("header.creation_date", "header.issued_at", functions.to_float),
            Field("header.buyer_org", "header.buyer_id"),
            Field("header.vendor_org", "header.seller_id"),
            Field("header.currency_code", "header.currency"),
            Field("header.terms", "header.payment_terms", default=""),
            Each(
                "lines",
                "lines",
                [
                    Field("line_num", "line_no", functions.to_int),
                    Field("item_id", "sku"),
                    Field("item_description", "description", default=""),
                    Field("quantity", "quantity", functions.to_float),
                    Field("unit_price", "unit_price", functions.money),
                ],
            ),
            Field("header.total_amount", "summary.total_amount", functions.money),
            Compute("summary.line_count", _len_of("lines")),
        ],
    )
    poa_out = Mapping(
        name="normalized__to__oracle-oif/po_ack",
        source_format=NORM,
        target_format=oracle_oif.ORACLE_OIF,
        doc_type="po_ack",
        source_schema=schema(normalized.normalized_poa_schema),
        target_schema=schema(oracle_oif.oif_poa_schema),
        rules=[
            Field("header.document_id", "header.interface_header_id"),
            Field("header.po_number", "header.document_num"),
            Field(
                "header.status", "header.acceptance_code",
                functions.code_map(oracle_oif.ACCEPTANCE_BY_STATUS, "POA status"),
            ),
            Field("header.buyer_id", "header.buyer_org"),
            Field("header.seller_id", "header.vendor_org"),
            Field("summary.accepted_amount", "header.accepted_amount", functions.money),
            Field("header.issued_at", "header.creation_date", functions.to_float),
            Each(
                "lines",
                "lines",
                [
                    Field("line_no", "line_num", functions.to_int),
                    Field("sku", "item_id"),
                    Field(
                        "status", "line_status",
                        functions.code_map(oracle_oif.LINE_STATUS_BY_STATUS, "line status"),
                    ),
                    Field("quantity", "quantity", functions.to_float),
                ],
            ),
        ],
    )
    poa_in = Mapping(
        name="oracle-oif__to__normalized/po_ack",
        source_format=oracle_oif.ORACLE_OIF,
        target_format=NORM,
        doc_type="po_ack",
        source_schema=schema(oracle_oif.oif_poa_schema),
        target_schema=schema(normalized.normalized_poa_schema),
        rules=[
            Field("header.interface_header_id", "header.document_id"),
            Field("header.document_num", "header.po_number"),
            Field("header.creation_date", "header.issued_at", functions.to_float),
            Field("header.buyer_org", "header.buyer_id"),
            Field("header.vendor_org", "header.seller_id"),
            Field(
                "header.acceptance_code", "header.status",
                functions.code_map(oracle_oif.STATUS_BY_ACCEPTANCE, "OIF acceptance code"),
            ),
            Each(
                "lines",
                "lines",
                [
                    Field("line_num", "line_no", functions.to_int),
                    Field("item_id", "sku"),
                    Field(
                        "line_status", "status",
                        functions.code_map(oracle_oif.STATUS_BY_LINE_STATUS, "OIF line status"),
                    ),
                    Field("quantity", "quantity", functions.to_float),
                ],
            ),
            Field("header.accepted_amount", "summary.accepted_amount", functions.money),
        ],
    )
    return [po_out, po_in, poa_out, poa_in]


# ---------------------------------------------------------------------------
# OAGIS fulfillment documents (ship notice, invoice)
# ---------------------------------------------------------------------------


def _oagis_fulfillment_mappings(schema: SchemaOf) -> list[Mapping]:
    asn_out = Mapping(
        name="normalized__to__oagis-bod/ship_notice",
        source_format=NORM,
        target_format=oagis.OAGIS,
        doc_type="ship_notice",
        source_schema=schema(normalized.normalized_ship_notice_schema),
        target_schema=schema(oagis.oagis_asn_schema),
        rules=[
            Compute("application_area.sender_id", _ctx_or_path("sender_id", "header.seller_id")),
            Compute(
                "application_area.receiver_id",
                _ctx_or_path("receiver_id", "header.buyer_id"),
            ),
            Field("header.issued_at", "application_area.creation_time", functions.to_float),
            Compute(
                "application_area.bod_id",
                _ctx_or_derived("bod_id", "BOD-ASN-", "header.shipment_id"),
            ),
            Field("header.document_id", "shipment_header.document_id"),
            Field("header.shipment_id", "shipment_header.shipment_id"),
            Field("header.po_number", "shipment_header.po_number"),
            Field("header.carrier", "shipment_header.carrier"),
            Field("summary.package_count", "shipment_header.package_count", functions.to_int),
            Each(
                "lines",
                "shipment_lines",
                [
                    Field("line_no", "line_num", functions.to_int),
                    Field("sku", "item_id"),
                    Field("quantity_shipped", "quantity_shipped", functions.to_float),
                ],
            ),
        ],
    )
    asn_in = Mapping(
        name="oagis-bod__to__normalized/ship_notice",
        source_format=oagis.OAGIS,
        target_format=NORM,
        doc_type="ship_notice",
        source_schema=schema(oagis.oagis_asn_schema),
        target_schema=schema(normalized.normalized_ship_notice_schema),
        rules=[
            Field("shipment_header.document_id", "header.document_id"),
            Field("shipment_header.shipment_id", "header.shipment_id"),
            Field("shipment_header.po_number", "header.po_number"),
            Field("application_area.creation_time", "header.issued_at", functions.to_float),
            Field("application_area.receiver_id", "header.buyer_id"),
            Field("application_area.sender_id", "header.seller_id"),
            Field("shipment_header.carrier", "header.carrier"),
            Each(
                "shipment_lines",
                "lines",
                [
                    Field("line_num", "line_no", functions.to_int),
                    Field("item_id", "sku"),
                    Field("quantity_shipped", "quantity_shipped", functions.to_float),
                ],
            ),
            Field("shipment_header.package_count", "summary.package_count", functions.to_int),
        ],
    )
    invoice_out = Mapping(
        name="normalized__to__oagis-bod/invoice",
        source_format=NORM,
        target_format=oagis.OAGIS,
        doc_type="invoice",
        source_schema=schema(normalized.normalized_invoice_schema),
        target_schema=schema(oagis.oagis_invoice_schema),
        rules=[
            Compute("application_area.sender_id", _ctx_or_path("sender_id", "header.seller_id")),
            Compute(
                "application_area.receiver_id",
                _ctx_or_path("receiver_id", "header.buyer_id"),
            ),
            Field("header.issued_at", "application_area.creation_time", functions.to_float),
            Compute(
                "application_area.bod_id",
                _ctx_or_derived("bod_id", "BOD-INV-", "header.invoice_number"),
            ),
            Field("header.document_id", "invoice_header.document_id"),
            Field("header.invoice_number", "invoice_header.invoice_number"),
            Field("header.po_number", "invoice_header.po_number"),
            Field("header.currency", "invoice_header.currency"),
            Field("summary.subtotal", "invoice_header.subtotal", functions.money),
            Field("summary.tax", "invoice_header.tax", functions.money),
            Field("summary.total_due", "invoice_header.total_due", functions.money),
            Each(
                "lines",
                "invoice_lines",
                [
                    Field("line_no", "line_num", functions.to_int),
                    Field("sku", "item_id"),
                    Field("quantity", "quantity", functions.to_float),
                    Field("unit_price", "unit_price", functions.money),
                    Field("amount", "amount", functions.money),
                ],
            ),
        ],
    )
    invoice_in = Mapping(
        name="oagis-bod__to__normalized/invoice",
        source_format=oagis.OAGIS,
        target_format=NORM,
        doc_type="invoice",
        source_schema=schema(oagis.oagis_invoice_schema),
        target_schema=schema(normalized.normalized_invoice_schema),
        rules=[
            Field("invoice_header.document_id", "header.document_id"),
            Field("invoice_header.invoice_number", "header.invoice_number"),
            Field("invoice_header.po_number", "header.po_number"),
            Field("application_area.creation_time", "header.issued_at", functions.to_float),
            Field("application_area.receiver_id", "header.buyer_id"),
            Field("application_area.sender_id", "header.seller_id"),
            Field("invoice_header.currency", "header.currency"),
            Each(
                "invoice_lines",
                "lines",
                [
                    Field("line_num", "line_no", functions.to_int),
                    Field("item_id", "sku"),
                    Field("quantity", "quantity", functions.to_float),
                    Field("unit_price", "unit_price", functions.money),
                    Field("amount", "amount", functions.money),
                ],
            ),
            Field("invoice_header.subtotal", "summary.subtotal", functions.money),
            Field("invoice_header.tax", "summary.tax", functions.money),
            Field("invoice_header.total_due", "summary.total_due", functions.money),
        ],
    )
    return [asn_out, asn_in, invoice_out, invoice_in]


# ---------------------------------------------------------------------------
# EDI fulfillment documents (856 ship notice, 810 invoice)
# ---------------------------------------------------------------------------


def _edi_fulfillment_mappings(schema: SchemaOf) -> list[Mapping]:
    asn_out = Mapping(
        name="normalized__to__edi-x12/ship_notice",
        source_format=NORM,
        target_format=edi.EDI_X12,
        doc_type="ship_notice",
        source_schema=schema(normalized.normalized_ship_notice_schema),
        target_schema=schema(edi.edi_asn_schema),
        rules=[
            Compute("isa.sender_id", _ctx_or_path("sender_id", "header.seller_id")),
            Compute("isa.receiver_id", _ctx_or_path("receiver_id", "header.buyer_id")),
            Compute("isa.date", _str_of("header.issued_at")),
            Compute(
                "isa.control_number",
                _ctx_or_derived("control_number", "CN", "header.shipment_id"),
            ),
            Const("st.transaction_set", "856"),
            Compute("st.control_number", _ctx_or_derived("st_control", "0001", "header.shipment_id")),
            Const("bsn.purpose_code", "00"),
            Field("header.shipment_id", "bsn.shipment_id"),
            Compute("bsn.date", _str_of("header.issued_at")),
            Field("header.po_number", "prf.po_number"),
            Field("header.carrier", "td5.carrier"),
            Field("summary.package_count", "td1.package_count", functions.to_int),
            Each(
                "lines",
                "lines",
                [
                    Field("line_no", "line_no", functions.to_int),
                    Field("sku", "sku"),
                    Field("quantity_shipped", "quantity_shipped", functions.to_float),
                ],
            ),
            Compute("ctt.line_count", _len_of("lines")),
        ],
    )
    asn_in = Mapping(
        name="edi-x12__to__normalized/ship_notice",
        source_format=edi.EDI_X12,
        target_format=NORM,
        doc_type="ship_notice",
        source_schema=schema(edi.edi_asn_schema),
        target_schema=schema(normalized.normalized_ship_notice_schema),
        rules=[
            Compute("header.document_id", _derived_doc_id("ASN-DOC-", "bsn.shipment_id")),
            Field("bsn.shipment_id", "header.shipment_id"),
            Field("prf.po_number", "header.po_number"),
            Field("bsn.date", "header.issued_at", functions.to_float),
            Field("isa.receiver_id", "header.buyer_id"),
            Field("isa.sender_id", "header.seller_id"),
            Field("td5.carrier", "header.carrier"),
            Each(
                "lines",
                "lines",
                [
                    Field("line_no", "line_no", functions.to_int),
                    Field("sku", "sku"),
                    Field("quantity_shipped", "quantity_shipped", functions.to_float),
                ],
            ),
            Field("td1.package_count", "summary.package_count", functions.to_int),
        ],
    )
    invoice_out = Mapping(
        name="normalized__to__edi-x12/invoice",
        source_format=NORM,
        target_format=edi.EDI_X12,
        doc_type="invoice",
        source_schema=schema(normalized.normalized_invoice_schema),
        target_schema=schema(edi.edi_invoice_schema),
        rules=[
            Compute("isa.sender_id", _ctx_or_path("sender_id", "header.seller_id")),
            Compute("isa.receiver_id", _ctx_or_path("receiver_id", "header.buyer_id")),
            Compute("isa.date", _str_of("header.issued_at")),
            Compute(
                "isa.control_number",
                _ctx_or_derived("control_number", "CN", "header.invoice_number"),
            ),
            Const("st.transaction_set", "810"),
            Compute("st.control_number", _ctx_or_derived("st_control", "0001", "header.invoice_number")),
            Compute("big.date", _str_of("header.issued_at")),
            Field("header.invoice_number", "big.invoice_number"),
            Field("header.po_number", "big.po_number"),
            Field("header.currency", "cur.currency"),
            Each(
                "lines",
                "it1",
                [
                    Field("line_no", "line_no", functions.to_int),
                    Field("quantity", "quantity", functions.to_float),
                    Const("unit", "EA"),
                    Field("unit_price", "unit_price", functions.money),
                    Field("sku", "sku"),
                    Field("amount", "amount", functions.money),
                ],
            ),
            # X12 TDS carries the total in cents
            Field("summary.total_due", "tds.total_cents", functions.to_cents),
            Field("summary.subtotal", "amt_subtotal.subtotal", functions.money),
            Field("summary.tax", "amt_tax.tax", functions.money),
            Compute("ctt.line_count", _len_of("lines")),
        ],
    )
    invoice_in = Mapping(
        name="edi-x12__to__normalized/invoice",
        source_format=edi.EDI_X12,
        target_format=NORM,
        doc_type="invoice",
        source_schema=schema(edi.edi_invoice_schema),
        target_schema=schema(normalized.normalized_invoice_schema),
        rules=[
            Compute("header.document_id", _derived_doc_id("INV-DOC-", "big.invoice_number")),
            Field("big.invoice_number", "header.invoice_number"),
            Field("big.po_number", "header.po_number"),
            Field("big.date", "header.issued_at", functions.to_float),
            Field("isa.receiver_id", "header.buyer_id"),
            Field("isa.sender_id", "header.seller_id"),
            Field("cur.currency", "header.currency"),
            Each(
                "it1",
                "lines",
                [
                    Field("line_no", "line_no", functions.to_int),
                    Field("sku", "sku"),
                    Field("quantity", "quantity", functions.to_float),
                    Field("unit_price", "unit_price", functions.money),
                    Field("amount", "amount", functions.money),
                ],
            ),
            Field("amt_subtotal.subtotal", "summary.subtotal", functions.money),
            Field("amt_tax.tax", "summary.tax", functions.money),
            Field("tds.total_cents", "summary.total_due", functions.from_cents),
        ],
    )
    return [asn_out, asn_in, invoice_out, invoice_in]


# ---------------------------------------------------------------------------
# OAGIS quotation documents (RFQ, quote)
# ---------------------------------------------------------------------------


def _oagis_quotation_mappings(schema: SchemaOf) -> list[Mapping]:
    rfq_out = Mapping(
        name="normalized__to__oagis-bod/request_for_quote",
        source_format=NORM,
        target_format=oagis.OAGIS,
        doc_type="request_for_quote",
        source_schema=schema(normalized.normalized_rfq_schema),
        target_schema=schema(oagis.oagis_rfq_schema),
        rules=[
            Compute("application_area.sender_id", _ctx_or_path("sender_id", "header.buyer_id")),
            Compute(
                "application_area.receiver_id",
                _ctx_or_path("receiver_id", "header.seller_id"),
            ),
            Field("header.issued_at", "application_area.creation_time", functions.to_float),
            Compute(
                "application_area.bod_id",
                _ctx_or_derived("bod_id", "BOD-RFQ-", "header.rfq_number"),
            ),
            Field("header.document_id", "rfq_header.document_id"),
            Field("header.rfq_number", "rfq_header.rfq_number"),
            Field("header.respond_by", "rfq_header.respond_by", functions.to_float),
            Each(
                "lines",
                "rfq_lines",
                [
                    Field("line_no", "line_num", functions.to_int),
                    Field("sku", "item_id"),
                    Field("description", "item_description", default=""),
                    Field("quantity", "quantity", functions.to_float),
                ],
            ),
        ],
    )
    rfq_in = Mapping(
        name="oagis-bod__to__normalized/request_for_quote",
        source_format=oagis.OAGIS,
        target_format=NORM,
        doc_type="request_for_quote",
        source_schema=schema(oagis.oagis_rfq_schema),
        target_schema=schema(normalized.normalized_rfq_schema),
        rules=[
            Field("rfq_header.document_id", "header.document_id"),
            Field("rfq_header.rfq_number", "header.rfq_number"),
            Field("application_area.creation_time", "header.issued_at", functions.to_float),
            Field("application_area.sender_id", "header.buyer_id"),
            Field("application_area.receiver_id", "header.seller_id"),
            Field("rfq_header.respond_by", "header.respond_by", functions.to_float),
            Each(
                "rfq_lines",
                "lines",
                [
                    Field("line_num", "line_no", functions.to_int),
                    Field("item_id", "sku"),
                    Field("item_description", "description", default=""),
                    Field("quantity", "quantity", functions.to_float),
                ],
            ),
            Compute("summary.line_count", _len_of("rfq_lines")),
        ],
    )
    quote_out = Mapping(
        name="normalized__to__oagis-bod/quote",
        source_format=NORM,
        target_format=oagis.OAGIS,
        doc_type="quote",
        source_schema=schema(normalized.normalized_quote_schema),
        target_schema=schema(oagis.oagis_quote_schema),
        rules=[
            Compute("application_area.sender_id", _ctx_or_path("sender_id", "header.seller_id")),
            Compute(
                "application_area.receiver_id",
                _ctx_or_path("receiver_id", "header.buyer_id"),
            ),
            Field("header.issued_at", "application_area.creation_time", functions.to_float),
            Compute(
                "application_area.bod_id",
                _ctx_or_derived("bod_id", "BOD-QUO-", "header.quote_number"),
            ),
            Field("header.document_id", "quote_header.document_id"),
            Field("header.quote_number", "quote_header.quote_number"),
            Field("header.rfq_number", "quote_header.rfq_number"),
            Field("header.currency", "quote_header.currency"),
            Field("header.valid_until", "quote_header.valid_until", functions.to_float),
            Field("summary.total_amount", "quote_header.total_amount", functions.money),
            Each(
                "lines",
                "quote_lines",
                [
                    Field("line_no", "line_num", functions.to_int),
                    Field("sku", "item_id"),
                    Field("quantity", "quantity", functions.to_float),
                    Field("unit_price", "unit_price", functions.money),
                ],
            ),
        ],
    )
    quote_in = Mapping(
        name="oagis-bod__to__normalized/quote",
        source_format=oagis.OAGIS,
        target_format=NORM,
        doc_type="quote",
        source_schema=schema(oagis.oagis_quote_schema),
        target_schema=schema(normalized.normalized_quote_schema),
        rules=[
            Field("quote_header.document_id", "header.document_id"),
            Field("quote_header.quote_number", "header.quote_number"),
            Field("quote_header.rfq_number", "header.rfq_number"),
            Field("application_area.creation_time", "header.issued_at", functions.to_float),
            Field("application_area.receiver_id", "header.buyer_id"),
            Field("application_area.sender_id", "header.seller_id"),
            Field("quote_header.currency", "header.currency"),
            Field("quote_header.valid_until", "header.valid_until", functions.to_float),
            Each(
                "quote_lines",
                "lines",
                [
                    Field("line_num", "line_no", functions.to_int),
                    Field("item_id", "sku"),
                    Field("quantity", "quantity", functions.to_float),
                    Field("unit_price", "unit_price", functions.money),
                ],
            ),
            Field("quote_header.total_amount", "summary.total_amount", functions.money),
        ],
    )
    return [rfq_out, rfq_in, quote_out, quote_in]


def standard_mappings() -> list[Mapping]:
    """Return the expert mappings of the standard catalog: 20 PO/POA
    mappings (5 formats x 2 kinds x 2 directions), 8 fulfillment mappings
    (ship notice + invoice over OAGIS and EDI 856/810), and 4 quotation
    mappings (RFQ + quote over OAGIS).

    Each schema is built once per call and shared by every mapping that
    names it, so a sealed document that passed one mapping's target check
    passes the next mapping's source check at once.
    """
    schema = functools.cache(lambda factory: factory())
    return [
        *_edi_mappings(schema),
        *_edi_fulfillment_mappings(schema),
        *_rosettanet_mappings(schema),
        *_oagis_mappings(schema),
        *_oagis_fulfillment_mappings(schema),
        *_oagis_quotation_mappings(schema),
        *_sap_mappings(schema),
        *_oracle_mappings(schema),
    ]


def build_standard_registry() -> TransformationRegistry:
    """Return a registry loaded with the full standard catalog.

    All mappings are pre-compiled so the first message through a fresh
    enterprise pays no path-lowering cost.
    """
    registry = TransformationRegistry()
    registry.register_all(standard_mappings())
    registry.precompile()
    return registry
