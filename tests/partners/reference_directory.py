"""The partner directory as it was before its indexes: the test oracle.

``partner_by_address`` and ``find_agreement`` scan every partner and every
agreement, and ``remove_partner`` scans every agreement key.  The indexed
:class:`~repro.partners.directory.PartnerDirectory` must give the same
result, or the same error with the same message, after any sequence of
additions, updates and removals.
"""

from __future__ import annotations

from repro.errors import AgreementError, PartnerError
from repro.partners.agreement import TradingPartnerAgreement
from repro.partners.profile import TradingPartner


class ScanningDirectory:
    """Partners and agreements in registration order, looked up by scans."""

    def __init__(self):
        self._partners: dict[str, TradingPartner] = {}
        self._agreements: dict[tuple[str, str, str], TradingPartnerAgreement] = {}

    def add_partner(self, partner: TradingPartner) -> TradingPartner:
        if partner.partner_id in self._partners:
            raise PartnerError(f"partner {partner.partner_id!r} already registered")
        self._partners[partner.partner_id] = partner
        return partner

    def update_partner(self, partner: TradingPartner) -> TradingPartner:
        if partner.partner_id not in self._partners:
            raise PartnerError(f"unknown trading partner {partner.partner_id!r}")
        self._partners[partner.partner_id] = partner
        return partner

    def remove_partner(self, partner_id: str) -> None:
        if partner_id not in self._partners:
            raise PartnerError(f"unknown trading partner {partner_id!r}")
        del self._partners[partner_id]
        for key in [key for key in self._agreements if key[0] == partner_id]:
            del self._agreements[key]

    def partner_by_address(self, address: str) -> TradingPartner:
        for partner in self._partners.values():
            if partner.address == address:
                return partner
        raise PartnerError(f"no trading partner with address {address!r}")

    def add_agreement(self, agreement: TradingPartnerAgreement) -> TradingPartnerAgreement:
        if agreement.partner_id not in self._partners:
            raise PartnerError(
                f"cannot add agreement: unknown partner {agreement.partner_id!r}"
            )
        if not self._partners[agreement.partner_id].speaks(agreement.protocol):
            raise AgreementError(
                f"partner {agreement.partner_id!r} does not speak "
                f"{agreement.protocol!r}"
            )
        if agreement.key() in self._agreements:
            raise AgreementError(f"duplicate agreement {agreement.key()}")
        self._agreements[agreement.key()] = agreement
        return agreement

    def find_agreement(
        self,
        partner_id: str,
        protocol: str | None = None,
        our_role: str | None = None,
        doc_type: str | None = None,
    ) -> TradingPartnerAgreement:
        matches = [
            agreement
            for agreement in self._agreements.values()
            if agreement.partner_id == partner_id
            and agreement.is_active()
            and (protocol is None or agreement.protocol == protocol)
            and (our_role is None or agreement.our_role == our_role)
            and (doc_type is None or agreement.allows(doc_type))
        ]
        if not matches:
            raise AgreementError(
                f"no active agreement with {partner_id!r} "
                f"(protocol={protocol!r}, role={our_role!r}, doc_type={doc_type!r})"
            )
        if len(matches) > 1:
            raise AgreementError(
                f"ambiguous agreements with {partner_id!r}: "
                f"{[m.key() for m in matches]}; narrow the filters"
            )
        return matches[0]
