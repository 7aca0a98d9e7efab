"""The indexed partner directory answers as the scanning one did.

``ScanningDirectory`` (``reference_directory.py``) keeps the linear scans
the indexes replaced.  Any sequence of additions, updates, removals and
agreement changes must leave both giving the same partner or agreement,
or the same error with the same message, on every lookup.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import IntegrationError
from repro.partners.agreement import TradingPartnerAgreement
from repro.partners.directory import PartnerDirectory
from repro.partners.profile import TradingPartner
from tests.partners.reference_directory import ScanningDirectory

_ids = st.sampled_from(["TP1", "TP2", "TP3", "TP4"])
# "" defaults the address to the partner id, so ids and addresses collide
_addresses = st.sampled_from(["", "hub-a", "hub-b", "TP1", "TP2"])
_protocol_names = st.sampled_from(["edi-van", "rosettanet"])
_protocols = st.lists(_protocol_names, unique=True, max_size=2).map(tuple)
_roles = st.sampled_from(["buyer", "seller"])
_doc_types = st.sampled_from(["purchase_order", "po_ack", "invoice"])

_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _ids, _addresses, _protocols),
        st.tuples(st.just("update"), _ids, _addresses, _protocols),
        st.tuples(st.just("remove"), _ids),
        st.tuples(
            st.just("agree"), _ids, _protocol_names, _roles,
            st.lists(_doc_types, min_size=1, max_size=2, unique=True).map(tuple),
            st.booleans(),
        ),
        st.tuples(st.just("suspend"), st.integers(0, 7)),
        st.tuples(st.just("by_address"), _addresses.filter(bool) | _ids),
        st.tuples(
            st.just("find"), _ids, st.none() | _protocol_names, st.none() | _roles,
            st.none() | _doc_types,
        ),
    ),
    max_size=40,
)


def _outcome(call):
    try:
        return "ok", call()
    except IntegrationError as error:
        return type(error).__name__, str(error)


@settings(max_examples=300, deadline=None)
@given(_operations)
def test_indexed_lookups_match_the_scans(operations):
    indexed, scanning = PartnerDirectory(), ScanningDirectory()
    agreements: list[TradingPartnerAgreement] = []
    for operation in operations:
        kind, *args = operation
        if kind in ("add", "update"):
            partner_id, address, protocols = args
            # one object for both, so results compare by identity
            partner = TradingPartner(partner_id, address=address, protocols=protocols)
            calls = [getattr(directory, f"{kind}_partner") for directory in (indexed, scanning)]
            outcomes = [_outcome(lambda call=call: call(partner)) for call in calls]
        elif kind == "remove":
            outcomes = [_outcome(lambda d=d: d.remove_partner(args[0]))
                        for d in (indexed, scanning)]
        elif kind == "agree":
            partner_id, protocol, role, doc_types, active = args
            agreement = TradingPartnerAgreement(partner_id, protocol, role, doc_types)
            if not active:
                agreement.suspend()
            agreements.append(agreement)
            outcomes = [_outcome(lambda d=d: d.add_agreement(agreement))
                        for d in (indexed, scanning)]
        elif kind == "suspend":
            if agreements:
                agreements[args[0] % len(agreements)].suspend()
            continue
        elif kind == "by_address":
            outcomes = [_outcome(lambda d=d: d.partner_by_address(args[0]))
                        for d in (indexed, scanning)]
        else:
            outcomes = [_outcome(lambda d=d: d.find_agreement(*args))
                        for d in (indexed, scanning)]
        (indexed_kind, indexed_value), (scanning_kind, scanning_value) = outcomes
        assert indexed_kind == scanning_kind, operation
        if indexed_kind == "ok":
            assert indexed_value is scanning_value, operation
        else:
            assert indexed_value == scanning_value, operation


def test_first_registered_partner_keeps_a_shared_address():
    directory = PartnerDirectory()
    first = directory.add_partner(TradingPartner("TP1", address="hub"))
    second = directory.add_partner(TradingPartner("TP2", address="hub"))
    assert directory.partner_by_address("hub") is first
    directory.remove_partner("TP1")
    assert directory.partner_by_address("hub") is second
    moved = directory.update_partner(TradingPartner("TP2", address="elsewhere"))
    assert directory.partner_by_address("elsewhere") is moved
    assert _outcome(lambda: directory.partner_by_address("hub"))[0] == "PartnerError"
