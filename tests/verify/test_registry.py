"""Registry-scale sweeps: shared explorations, digest-cached verdicts."""

from repro.analysis.bench import REGISTRY_AGREEMENTS as AGREEMENTS
from repro.analysis.scenarios import build_registry_model
from repro.verify.incremental import VerificationCache
from repro.verify.registry import sweep_registry


def test_generated_registry_is_deterministic():
    first = build_registry_model(AGREEMENTS)
    second = build_registry_model(AGREEMENTS)
    assert first.verification_digest(deep=True) == second.verification_digest(
        deep=True
    )
    assert len(first.partners.agreements()) == AGREEMENTS


def test_cold_sweep_is_clean_and_shares_explorations():
    model = build_registry_model(AGREEMENTS)
    report = sweep_registry(model, deep=True)
    assert not report.diagnostics
    assert report.agreements == report.verified == AGREEMENTS
    assert report.cache_hits == 0
    # One exploration per referenced protocol, not per agreement.
    protocols = {a.protocol for a in model.partners.agreements()}
    assert report.explorations == len(protocols)
    assert report.states_explored > 0


def test_warm_sweep_serves_everything_from_cache():
    model = build_registry_model(AGREEMENTS)
    cache = VerificationCache()
    sweep_registry(model, deep=True, cache=cache)
    warm = sweep_registry(model, deep=True, cache=cache)
    assert warm.cache_hit_rate == 1.0
    assert warm.verified == 0
    assert warm.explorations == 0
    assert warm.fabric_cached


def test_single_agreement_edit_reverifies_exactly_that_agreement():
    model = build_registry_model(AGREEMENTS)
    cache = VerificationCache()
    sweep_registry(model, deep=True, cache=cache)

    edited = model.partners.agreements()[0]
    edited.properties["discount"] = "2%"
    after = sweep_registry(model, deep=True, cache=cache)
    assert after.verified == 1
    assert after.cache_hits == AGREEMENTS - 1
    # The fabric digest covers every component, so a term edit re-runs
    # the whole-model agreement-integrity pass too.
    assert not after.fabric_cached


def test_option_change_invalidates_the_whole_sweep():
    model = build_registry_model(AGREEMENTS)
    cache = VerificationCache()
    sweep_registry(model, deep=True, cache=cache)
    shallow = sweep_registry(model, deep=False, cache=cache)
    assert shallow.cache_hits == 0
    assert shallow.verified == AGREEMENTS
    assert shallow.explorations == 0  # deep=False explores nothing


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
