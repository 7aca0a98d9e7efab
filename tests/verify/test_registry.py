"""Registry-scale lint: one shared exploration per protocol.

A registry of agreements is an ordinary model: ``verify`` explores each
deployed protocol's conversation once, however many agreements reference
it.
"""

from repro.analysis.bench import REGISTRY_AGREEMENTS as AGREEMENTS
from repro.analysis.scenarios import build_registry_model


def test_generated_registry_is_deterministic():
    first = build_registry_model(AGREEMENTS)
    second = build_registry_model(AGREEMENTS)
    assert first.element_index() == second.element_index()
    assert len(first.partners.agreements()) == AGREEMENTS


def test_cold_sweep_is_clean_and_shares_explorations():
    model = build_registry_model(AGREEMENTS)
    stats: dict = {}
    assert model.verify(deep=True, stats=stats) == []
    # One exploration per protocol, not per agreement.
    referenced = {a.protocol for a in model.partners.agreements()}
    assert len(stats["conversations"]) == len(model.protocols) == len(referenced) == 8
    assert stats["states_explored"] > 0


def test_repeated_sweep_reports_the_same_verdicts():
    model = build_registry_model(AGREEMENTS)
    first: dict = {}
    again: dict = {}
    assert model.verify(deep=True, stats=first) == model.verify(deep=True, stats=again)
    assert again["conversations"] == first["conversations"]
    assert again["states_explored"] == first["states_explored"]


def test_shallow_sweep_explores_nothing():
    model = build_registry_model(AGREEMENTS)
    stats: dict = {}
    assert model.verify(deep=False, stats=stats) == []
    assert stats["conversations"] == []
    assert stats["states_explored"] == 0


def test_defective_protocol_is_reported_once_at_its_conversation():
    from repro.partners.agreement import TradingPartnerAgreement
    from repro.partners.profile import TradingPartner
    from repro.verify.targets import build_deadlock_model

    model = build_deadlock_model()
    model.partners.add_partner(
        TradingPartner("TP-D", protocols=("deadlock-handshake",))
    )
    model.partners.add_agreement(
        TradingPartnerAgreement(
            "TP-D", "deadlock-handshake", "buyer",
            doc_types=("purchase_order", "invoice"),
        )
    )
    (deadlock,) = [d for d in model.verify(deep=True) if d.code == "B2B501"]
    assert deadlock.location == (
        "model:deadlock-demo/conversation:deadlock-handshake/"
        "deadlock-buyer+deadlock-seller"
    )
