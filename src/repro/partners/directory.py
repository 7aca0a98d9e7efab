"""The partner directory: partners + agreements, with lookup by need.

Section 4.6's scalability claim — "adding a new trading partner only
requires to add business rules, if at all" — presumes partner on-boarding
is a pure registry operation.  This directory is that registry; the change
experiments count how many *other* model elements a partner addition
touches.

An inbound message is resolved by its sender's address and then by an
agreement with that partner, so both lookups are indexed and do not grow
with the number of partners: partners by address (the first-registered
partner wins on a shared address) and agreements by partner id.
"""

from __future__ import annotations

from repro.errors import AgreementError, PartnerError
from repro.partners.agreement import TradingPartnerAgreement
from repro.partners.profile import TradingPartner

__all__ = ["PartnerDirectory"]


class PartnerDirectory:
    """Registry of trading partners and their agreements."""

    def __init__(self):
        self._partners: dict[str, TradingPartner] = {}
        self._agreements: dict[tuple[str, str, str], TradingPartnerAgreement] = {}
        # address -> id of the first-registered partner with that address
        self._by_address: dict[str, str] = {}
        # partner id -> that partner's agreements, in registration order
        self._partner_agreements: dict[
            str, dict[tuple[str, str, str], TradingPartnerAgreement]
        ] = {}

    # -- partners ---------------------------------------------------------------

    def add_partner(self, partner: TradingPartner) -> TradingPartner:
        """Register a partner; duplicate ids are configuration errors."""
        if partner.partner_id in self._partners:
            raise PartnerError(f"partner {partner.partner_id!r} already registered")
        self._partners[partner.partner_id] = partner
        self._by_address.setdefault(partner.address, partner.partner_id)
        return partner

    def update_partner(self, partner: TradingPartner) -> TradingPartner:
        """Replace an existing partner's profile (e.g. after it gained a
        protocol capability)."""
        if partner.partner_id not in self._partners:
            raise PartnerError(f"unknown trading partner {partner.partner_id!r}")
        old_address = self._partners[partner.partner_id].address
        self._partners[partner.partner_id] = partner
        if partner.address != old_address:
            self._index_address(old_address)
            self._index_address(partner.address)
        return partner

    def get_partner(self, partner_id: str) -> TradingPartner:
        """Return the partner with ``partner_id``."""
        try:
            return self._partners[partner_id]
        except KeyError:
            raise PartnerError(f"unknown trading partner {partner_id!r}") from None

    def has_partner(self, partner_id: str) -> bool:
        """True when ``partner_id`` is registered."""
        return partner_id in self._partners

    def remove_partner(self, partner_id: str) -> None:
        """Remove a partner and every agreement with it."""
        if partner_id not in self._partners:
            raise PartnerError(f"unknown trading partner {partner_id!r}")
        address = self._partners.pop(partner_id).address
        if self._by_address.get(address) == partner_id:
            self._index_address(address)
        for key in self._partner_agreements.pop(partner_id, ()):
            del self._agreements[key]

    def _index_address(self, address: str) -> None:
        """Point ``address`` at the first-registered partner that has it."""
        for partner in self._partners.values():
            if partner.address == address:
                self._by_address[address] = partner.partner_id
                return
        self._by_address.pop(address, None)

    def partners(self) -> list[TradingPartner]:
        """All partners, sorted by id."""
        return [self._partners[pid] for pid in sorted(self._partners)]

    def partner_by_address(self, address: str) -> TradingPartner:
        """Resolve an inbound message's sender address to a partner."""
        partner_id = self._by_address.get(address)
        if partner_id is None:
            raise PartnerError(f"no trading partner with address {address!r}")
        return self._partners[partner_id]

    # -- agreements ----------------------------------------------------------------

    def add_agreement(self, agreement: TradingPartnerAgreement) -> TradingPartnerAgreement:
        """Register an agreement; the partner must already exist."""
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
            raise AgreementError(
                f"duplicate agreement {agreement.key()}"
            )
        self._agreements[agreement.key()] = agreement
        self._partner_agreements.setdefault(agreement.partner_id, {})[
            agreement.key()
        ] = agreement
        return agreement

    def find_agreement(
        self,
        partner_id: str,
        protocol: str | None = None,
        our_role: str | None = None,
        doc_type: str | None = None,
    ) -> TradingPartnerAgreement:
        """Return the unique active agreement matching the filters."""
        matches = [
            agreement
            for agreement in self._partner_agreements.get(partner_id, {}).values()
            if agreement.is_active()
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

    def agreements(self) -> list[TradingPartnerAgreement]:
        """All agreements, sorted by key."""
        return [self._agreements[key] for key in sorted(self._agreements)]

    def agreements_for_protocol(self, protocol: str) -> list[TradingPartnerAgreement]:
        """All active agreements under ``protocol``."""
        return [
            agreement
            for agreement in self.agreements()
            if agreement.protocol == protocol and agreement.is_active()
        ]
