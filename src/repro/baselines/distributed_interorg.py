"""Distributed inter-organizational workflow management (Section 2),
executable, with the knowledge-exposure measurement of Section 2.3.

The Figure 2/3 round trip is modelled as **one** workflow type whose parts
belong to two different enterprises:

* ``interorg-left-prepare`` (owner: the buyer) — extract PO, the buyer's
  approval rule, transform/encode to the wire format;
* ``interorg-right-process`` (owner: the seller) — decode, transform to
  the seller's ERP, the seller's partner-specific approval rule, store,
  extract and encode the POA;
* ``interorg-left-finish`` (owner: the buyer) — decode and store the POA.

Two execution variants, matching Figure 5:

* **migration** (:func:`run_migrating_roundtrip`) — the whole type closure
  is deployed on both engines (Figure 6's automatic type migration does it)
  and the instance migrates buyer -> seller -> buyer at the hand-over
  points.  Consequence: *both* enterprises end up holding *both* parties'
  business rules — measured by :func:`foreign_rule_exposure`.
* **distribution** (:func:`run_distributed_roundtrip`) — the middle part is
  a :class:`~repro.workflow.definitions.RemoteSubworkflowStep` executed by
  the seller's engine; only the subworkflow *interface* crosses the
  boundary, but the master controls the slave's execution (the tight
  coupling of Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.b2b.protocol import get_protocol
from repro.backend.base import ERPSimulator
from repro.baselines.activities import register_naive_activities
from repro.core.metrics import comparison_terms
from repro.core.private_process import register_private_activities
from repro.runtime import Runtime
from repro.sim import Clock
from repro.workflow.activities import built_in_registry
from repro.workflow.definitions import (
    RemoteSubworkflowStep,
    WorkflowBuilder,
    WorkflowType,
)
from repro.workflow.distributed import EngineDirectory, MigrationReport, migrate_instance
from repro.workflow.engine import WorkflowEngine
from repro.workflow.instance import WorkflowInstance
from repro.workflow.worklist import Worklist

__all__ = [
    "build_interorg_roundtrip_types",
    "make_participant_engine",
    "run_migrating_roundtrip",
    "run_distributed_roundtrip",
    "foreign_rule_exposure",
    "InterorgResult",
]

_PROTOCOL = "edi-van"


def _left_prepare(owner: str, application: str, threshold: float) -> WorkflowType:
    wire_format = get_protocol(_PROTOCOL).wire_format
    builder = WorkflowBuilder("interorg-left-prepare", owner=owner)
    builder.variable("po_number", "").variable("amount", 0.0)
    builder.variable("document").variable("wire_text", "").variable("approved", False)
    builder.activity(
        "extract_po",
        "extract_backend",
        params={"application": application, "doc_type": "purchase_order"},
        inputs={"po_number": "po_number"},
        outputs={"document": "document"},
        tags=("backend",),
    )
    builder.activity(
        "approve_po",
        "request_approval",
        inputs={"document": "document"},
        outputs={"approved": "approved"},
        tags=("business-rule", "approval"),
    )
    builder.activity(
        "transform_po",
        "transform_document",
        params={"target_format": wire_format},
        inputs={"document": "document"},
        outputs={"document": "document"},
        join="XOR",
        tags=("transformation",),
    )
    builder.activity(
        "encode_po",
        "encode_wire",
        params={"protocol": _PROTOCOL},
        inputs={"document": "document"},
        outputs={"wire_text": "wire_text"},
        after="transform_po",
    )
    builder.link("extract_po", "approve_po", condition=f"amount > {threshold}")
    builder.link("extract_po", "transform_po", otherwise=True)
    builder.link("approve_po", "transform_po")
    return builder.build()


def _right_process(
    owner: str, application: str, native_format: str, thresholds: dict[str, float]
) -> WorkflowType:
    wire_format = get_protocol(_PROTOCOL).wire_format
    builder = WorkflowBuilder("interorg-right-process", owner=owner)
    builder.variable("wire_text", "").variable("source", "")
    builder.variable("document").variable("po_number", "").variable("amount", 0.0)
    builder.variable("approved", False)
    native_format_param = {"application": application}
    builder.activity(
        "decode_po",
        "decode_wire",
        params={"protocol": _PROTOCOL},
        inputs={"wire_text": "wire_text"},
        outputs={"document": "document"},
    )
    builder.activity(
        "transform_po",
        "transform_document",
        params={"target_format": native_format},
        inputs={"document": "document", "sender_id": "source"},
        outputs={"document": "document"},
        tags=("transformation",),
        after="decode_po",
    )
    builder.activity(
        "store_po",
        "store_backend",
        params=dict(native_format_param),
        inputs={"document": "document"},
        outputs={"po_number": "po_number", "amount": "amount"},
        tags=("backend",),
        after="transform_po",
    )
    builder.activity(
        "approve_po",
        "request_approval",
        inputs={"document": "document"},
        outputs={"approved": "approved"},
        tags=("business-rule", "approval"),
    )
    builder.activity(
        "extract_poa",
        "extract_backend",
        params={"application": application, "doc_type": "po_ack"},
        inputs={"po_number": "po_number"},
        outputs={"document": "document"},
        join="XOR",
        tags=("backend",),
    )
    builder.activity(
        "transform_poa",
        "transform_document",
        params={"target_format": wire_format},
        inputs={"document": "document"},
        outputs={"document": "document"},
        tags=("transformation",),
        after="extract_poa",
    )
    builder.activity(
        "encode_poa",
        "encode_wire",
        params={"protocol": _PROTOCOL},
        inputs={"document": "document"},
        outputs={"wire_text": "wire_text"},
        after="transform_poa",
    )
    condition = " or ".join(
        f"amount > {threshold} and source == '{partner}'"
        for partner, threshold in sorted(thresholds.items())
    ) or "False"
    builder.link("store_po", "approve_po", condition=condition)
    builder.link("store_po", "extract_poa", otherwise=True)
    builder.link("approve_po", "extract_poa")
    return builder.build()


def _left_finish(owner: str, application: str, native_format: str) -> WorkflowType:
    builder = WorkflowBuilder("interorg-left-finish", owner=owner)
    builder.variable("wire_text", "").variable("document")
    builder.activity(
        "decode_poa",
        "decode_wire",
        params={"protocol": _PROTOCOL},
        inputs={"wire_text": "wire_text"},
        outputs={"document": "document"},
    )
    builder.activity(
        "transform_poa",
        "transform_document",
        params={"target_format": native_format},
        inputs={"document": "document"},
        outputs={"document": "document"},
        tags=("transformation",),
        after="decode_poa",
    )
    builder.activity(
        "store_poa",
        "store_backend",
        params={"application": application},
        inputs={"document": "document"},
        after="transform_poa",
    )
    return builder.build()


def build_interorg_roundtrip_types(
    left_owner: str,
    right_owner: str,
    left_application: str,
    left_native_format: str,
    right_application: str,
    right_native_format: str,
    left_threshold: float = 10000,
    right_thresholds: dict[str, float] | None = None,
    distributed: bool = False,
    remote_engine: str = "",
) -> list[WorkflowType]:
    """Build the Figure 2/3 type set.

    With ``distributed=True`` the combined type calls the right part as a
    remote subworkflow on ``remote_engine`` (Figure 5(b)); otherwise it is
    an ordinary subworkflow and the instance must migrate (Figure 5(a)).
    Returns ``[combined, left_prepare, right_process, left_finish]``.
    """
    left_prepare = _left_prepare(left_owner, left_application, left_threshold)
    right_process = _right_process(
        right_owner,
        right_application,
        right_native_format,
        right_thresholds or {left_owner: 550000},
    )
    left_finish = _left_finish(left_owner, left_application, left_native_format)

    builder = WorkflowBuilder("interorg-roundtrip", owner=left_owner)
    builder.variable("po_number", "").variable("amount", 0.0)
    builder.variable("source", "").variable("wire_text", "")
    builder.subworkflow(
        "left_prepare",
        "interorg-left-prepare",
        inputs={"po_number": "po_number", "amount": "amount"},
        outputs={"wire_text": "wire_text"},
    )
    builder.activity(
        "handover_to_right",
        "wait_for_event",
        label="Hand over to the right enterprise",
        after="left_prepare",
    )
    if distributed:
        builder._steps.append(
            RemoteSubworkflowStep(
                step_id="right_process",
                subworkflow="interorg-right-process",
                engine=remote_engine,
                inputs={"wire_text": "wire_text", "source": "source"},
                outputs={"wire_text": "wire_text"},
            )
        )
        builder.link("handover_to_right", "right_process")
        builder._last_step = "right_process"
    else:
        builder.subworkflow(
            "right_process",
            "interorg-right-process",
            inputs={"wire_text": "wire_text", "source": "source"},
            outputs={"wire_text": "wire_text"},
            after="handover_to_right",
        )
    builder.activity(
        "handover_back",
        "wait_for_event",
        label="Hand back to the left enterprise",
        after="right_process",
    )
    builder.subworkflow(
        "left_finish",
        "interorg-left-finish",
        inputs={"wire_text": "wire_text"},
        after="handover_back",
    )
    combined = builder.build()
    return [combined, left_prepare, right_process, left_finish]


def make_participant_engine(
    name: str,
    backend: ERPSimulator,
    clock: Clock | None = None,
    runtime: Runtime | None = None,
) -> WorkflowEngine:
    """A WFMS for one participant: naive activities + its own back end.

    Pass a shared ``runtime`` so both participants of an inter-org run
    schedule on (and emit lifecycle events to) one kernel.
    """
    worklist = Worklist(name)
    worklist.set_auto_policy(lambda item: {"approved": True})
    activities = register_naive_activities(built_in_registry())
    register_private_activities(activities)
    engine = WorkflowEngine(
        f"{name}-wfms",
        activities=activities,
        clock=clock or (runtime.clock if runtime is not None else Clock()),
        services={
            "transforms": _shared_transforms(),
            "backends": {backend.name: backend},
            "worklist": worklist,
            "naive_sender": lambda *args: None,
        },
        runtime=runtime,
    )
    return engine


_TRANSFORMS = None


def _shared_transforms():
    global _TRANSFORMS
    if _TRANSFORMS is None:
        from repro.transform.catalog import build_standard_registry

        _TRANSFORMS = build_standard_registry()
    return _TRANSFORMS


@dataclass
class InterorgResult:
    """Outcome of one inter-organizational round trip."""

    instance: WorkflowInstance
    migrations: list[MigrationReport]
    exposure_left: dict[str, int]
    exposure_right: dict[str, int]

    @property
    def total_migration_messages(self) -> int:
        return sum(report.messages_exchanged for report in self.migrations)


def run_migrating_roundtrip(
    left_engine: WorkflowEngine,
    right_engine: WorkflowEngine,
    types: list[WorkflowType],
    po_number: str,
    amount: float,
    source: str,
) -> InterorgResult:
    """Execute the round trip via instance migration (Figure 5(a))."""
    left_engine.deploy_all(types)
    instance_id = left_engine.create_instance(
        "interorg-roundtrip",
        variables={"po_number": po_number, "amount": amount, "source": source},
    )
    left_engine.start(instance_id)

    migrations = [migrate_instance(left_engine, right_engine, instance_id)]
    right_engine.complete_waiting_step(f"{instance_id}/handover_to_right", {})
    migrations.append(migrate_instance(right_engine, left_engine, instance_id))
    left_engine.complete_waiting_step(f"{instance_id}/handover_back", {})

    instance = left_engine.get_instance(instance_id)
    return InterorgResult(
        instance=instance,
        migrations=migrations,
        exposure_left=foreign_rule_exposure(left_engine, types[0].owner),
        exposure_right=foreign_rule_exposure(right_engine, types[2].owner),
    )


def run_distributed_roundtrip(
    left_engine: WorkflowEngine,
    right_engine: WorkflowEngine,
    types: list[WorkflowType],
    po_number: str,
    amount: float,
    source: str,
) -> InterorgResult:
    """Execute the round trip via remote subworkflow distribution
    (Figure 5(b)): the right part's definition never leaves the right
    engine."""
    directory = EngineDirectory()
    directory.register(left_engine)
    directory.register(right_engine)
    combined, left_prepare, right_process, left_finish = types
    left_engine.deploy_all([combined, left_prepare, left_finish])
    right_engine.deploy(right_process)

    instance_id = left_engine.create_instance(
        "interorg-roundtrip",
        variables={"po_number": po_number, "amount": amount, "source": source},
    )
    left_engine.start(instance_id)
    left_engine.complete_waiting_step(f"{instance_id}/handover_to_right", {})
    left_engine.complete_waiting_step(f"{instance_id}/handover_back", {})

    instance = left_engine.get_instance(instance_id)
    return InterorgResult(
        instance=instance,
        migrations=[],
        exposure_left=foreign_rule_exposure(left_engine, combined.owner),
        exposure_right=foreign_rule_exposure(right_engine, right_process.owner),
    )


def foreign_rule_exposure(engine: WorkflowEngine, self_owner: str) -> dict[str, int]:
    """Count foreign business-rule knowledge visible in an engine's database.

    Returns ``owner -> rule terms`` for every *other* owner whose workflow
    types (with their conditions and approval steps) are stored in this
    engine's database — the paper's Section 2.3 objection quantified.
    """
    exposure: dict[str, int] = {}
    for workflow_type in engine.database.list_types():
        if workflow_type.owner in ("", self_owner):
            continue
        terms = 0
        for transition in workflow_type.transitions:
            if transition.condition is not None:
                terms += comparison_terms(transition.condition)
        terms += len(workflow_type.steps_tagged("business-rule"))
        if terms:
            exposure[workflow_type.owner] = exposure.get(workflow_type.owner, 0) + terms
    return exposure
