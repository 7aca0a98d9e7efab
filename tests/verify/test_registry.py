"""Registry-scale sweeps: one shared exploration per protocol."""

from repro.analysis.bench import REGISTRY_AGREEMENTS as AGREEMENTS
from repro.analysis.scenarios import build_registry_model
from repro.verify.registry import sweep_registry


def test_generated_registry_is_deterministic():
    first = build_registry_model(AGREEMENTS)
    second = build_registry_model(AGREEMENTS)
    assert first.element_index() == second.element_index()
    assert len(first.partners.agreements()) == AGREEMENTS


def test_cold_sweep_is_clean_and_shares_explorations():
    model = build_registry_model(AGREEMENTS)
    report = sweep_registry(model, deep=True)
    assert not report.diagnostics
    assert report.agreements == len(report.agreement_diagnostics) == AGREEMENTS
    # One exploration per referenced protocol, not per agreement.
    protocols = {a.protocol for a in model.partners.agreements()}
    assert report.explorations == len(protocols)
    assert report.states_explored > 0


def test_repeated_sweep_reports_the_same_verdicts():
    model = build_registry_model(AGREEMENTS)
    first = sweep_registry(model, deep=True)
    again = sweep_registry(model, deep=True)
    assert again.agreement_diagnostics == first.agreement_diagnostics
    assert again.explorations == first.explorations
    assert again.states_explored == first.states_explored


def test_shallow_sweep_explores_nothing():
    model = build_registry_model(AGREEMENTS)
    shallow = sweep_registry(model, deep=False)
    assert shallow.agreements == AGREEMENTS
    assert shallow.explorations == shallow.states_explored == 0
    assert not shallow.diagnostics


def test_defective_pair_surfaces_under_each_agreement_location():
    from repro.verify.targets import build_deadlock_model

    model = build_deadlock_model()
    from repro.partners.agreement import TradingPartnerAgreement
    from repro.partners.profile import TradingPartner

    model.partners.add_partner(
        TradingPartner("TP-D", protocols=("deadlock-handshake",))
    )
    model.partners.add_agreement(
        TradingPartnerAgreement(
            "TP-D", "deadlock-handshake", "buyer",
            doc_types=("purchase_order", "invoice"),
        )
    )
    report = sweep_registry(model, deep=True)
    (label, diagnostics), = report.dirty.items()
    assert label.startswith("agreement:TP-D:")
    assert any(d.code == "B2B501" for d in diagnostics)
    assert all(d.location.startswith(label) for d in diagnostics)


def test_sweep_report_diagnostics_merge_fabric_and_agreements():
    model = build_registry_model(AGREEMENTS)
    report = sweep_registry(model, deep=True)
    assert report.diagnostics == report.fabric_diagnostics  # clean agreements
    assert report.dirty == {}
