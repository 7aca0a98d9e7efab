"""A binding's change-detection fingerprint: ``Binding.to_dict()``.

``IntegrationModel.element_index`` keys every binding by this
description (the Section 4.5 change experiments), so it must be stable
across builds and change exactly when the structure does.
"""

import json

from repro.core.binding import (
    Binding,
    BindingStep,
    make_application_binding,
    make_protocol_binding,
)
from repro.core.integration import IntegrationModel


def _binding(name="b", target="normalized"):
    return Binding(
        name=name,
        public_process="pub",
        private_process="priv",
        inbound=[BindingStep("in", "transform", target_format=target)],
        outbound=[BindingStep("out", "transform", target_format="wire")],
    )


def test_element_index_fingerprints_a_binding_by_its_description():
    model = IntegrationModel("m")
    binding = _binding()
    model.bindings[binding.name] = binding
    assert model.element_index()["binding:b"] == json.dumps(
        binding.to_dict(), sort_keys=True
    )


def test_identical_structures_share_a_fingerprint():
    assert _binding().to_dict() == _binding().to_dict()
    a = make_protocol_binding("pb", "pub", "priv", "rosettanet-xml")
    b = make_protocol_binding("pb", "pub", "priv", "rosettanet-xml")
    assert a.to_dict() == b.to_dict()


def test_structural_edits_change_the_fingerprint():
    base = _binding().to_dict()
    assert _binding(name="other").to_dict() != base
    assert _binding(target="edi-x12").to_dict() != base
    extra = _binding()
    extra.inbound.append(BindingStep("extra", "consume"))
    assert extra.to_dict() != base
    reordered = _binding()
    reordered.inbound, reordered.outbound = reordered.outbound, reordered.inbound
    assert reordered.to_dict() != base


def test_runtime_counters_do_not_affect_fingerprint():
    binding = make_protocol_binding("pb", "pub", "priv", "rosettanet-xml")
    before = binding.to_dict()
    binding.inbound_runs = 12
    binding.outbound_runs = 7
    assert binding.to_dict() == before


def test_protocol_and_application_bindings_differ():
    protocol = make_protocol_binding("same", "pub", "priv", "rosettanet-xml")
    application = make_application_binding("same", "app", "priv", "sap-idoc")
    assert protocol.to_dict() != application.to_dict()
