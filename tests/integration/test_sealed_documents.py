"""Sealed documents stay sealed in the real hub.

A sealed document is shared by reference: the workflow database stores
the object itself, and the back ends and the archive keep it without a
copy.  Python cannot stop a write through its raw ``data`` dicts, so
these tests record each document's content at the moment it is sealed,
drive orders through three real hubs, and check at the end that no
sealed document changed and that every document the workflow databases
stored was sealed.
"""

import pickle

import pytest

from repro.analysis.scenarios import build_fig15_community, build_two_enterprise_pair
from repro.core.enterprise import run_community
from repro.documents.model import Document
from repro.messaging.network import NetworkConditions
from repro.messaging.reliable import RetryPolicy
from repro.runtime import attach_journal
from repro.workflow import database

ORDERS = 20
LOSSY = NetworkConditions(loss_rate=0.02, duplicate_rate=0.05, min_latency=0.01, max_latency=0.4)
RETRIES = RetryPolicy(ack_timeout=1.0, max_retries=8, backoff=1.5)


@pytest.fixture
def watch(monkeypatch):
    """Record every document as it is sealed, and every unsealed document
    a workflow database stores."""
    sealed: list[tuple[Document, bytes]] = []
    unsealed_stores: list[Document] = []
    seal, encode = Document.seal, database._encode_value

    def recording_seal(document):
        if not document.sealed:
            sealed.append((document, pickle.dumps(document.data)))
        return seal(document)

    def recording_encode(value, documents):
        if type(value) is Document and not value.sealed:
            unsealed_stores.append(value)
        return encode(value, documents)

    monkeypatch.setattr(Document, "seal", recording_seal)
    monkeypatch.setattr(database, "_encode_value", recording_encode)
    return sealed, unsealed_stores


def _lines(index):
    # every fifth order is large enough to need each side's approval
    quantity = 60 if index % 5 == 0 else 1 + index % 4
    return [
        {"sku": f"SKU-{index}", "quantity": quantity, "unit_price": 1000.0},
        {"sku": "DOCK-1", "quantity": 2, "unit_price": 150.0, "description": "dock"},
    ]


def _drive(buyers, seller, enterprises):
    for index in range(ORDERS):
        buyer = buyers[index % len(buyers)]
        buyer.submit_order("SAP", seller.name, f"PO-{index:03d}", _lines(index))
        run_community(enterprises)
    booked = sum(backend.order_count() for backend in seller.backends.values())
    assert booked == ORDERS
    for enterprise in enterprises:
        assert not enterprise.b2b.open_conversations()
        assert enterprise.b2b.faults == []


def _assert_unchanged(watch):
    sealed, unsealed_stores = watch
    assert len(sealed) > 10 * ORDERS
    changed = [document for document, content in sealed
               if pickle.dumps(document.data) != content]
    assert changed == []
    assert all(document.sealed for document, _ in sealed)
    assert unsealed_stores == []


def test_rosettanet_pair(watch):
    pair = build_two_enterprise_pair("rosettanet")
    _drive([pair.buyer], pair.seller, pair.enterprises())
    _assert_unchanged(watch)


def test_fig15_community(watch):
    community = build_fig15_community()
    _drive(list(community.buyers.values()), community.seller, community.enterprises())
    _assert_unchanged(watch)


def test_lossy_journaled_pair(watch, tmp_path):
    pair = build_two_enterprise_pair(
        "rosettanet", conditions=LOSSY, seed=3, retry_policy=RETRIES
    )
    journal = attach_journal(pair.runtime, tmp_path / "journal")
    try:
        _drive([pair.buyer], pair.seller, pair.enterprises())
    finally:
        journal.close()
    _assert_unchanged(watch)
