"""Seeded order traffic for the benchmark workloads.

The benchmark takes a seed; the hub only ever sees the orders generated
from it.  Every property the hub's cost or behaviour depends on is drawn
here, independently per order:

* line count: 1-12 lines, uniform, as in the measured prototype of this
  benchmark, plus a long tail by choice (``LONG_TAIL_SHARE`` of the
  orders carry 13-60 lines, log-uniform), because line count drives the
  codecs, the transforms and the workflow-DB snapshots;
* order amount, log-uniform from a tenth of the lowest approval
  threshold in ``repro.analysis.scenarios`` to twice the highest, so
  orders fall on both sides of the buyers' 10 000 and the sellers'
  10 000 / 40 000 / 55 000 thresholds and both the straight-through and
  the worklist branch run;
* which buyer sends each order;
* for bursty traffic, arrival times: orders arrive as a Poisson process
  and the hub drains once per period, so a burst is the orders that
  arrived in one period (``BURST_MEAN`` on average, empty periods
  skipped);
* the seed of the simulated network (latency jitter, loss, duplication).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["Order", "Traffic", "generate"]

BODY_LINES = (1, 12)
LONG_TAIL_SHARE = 0.1
LONG_TAIL_LINES = (13, 60)
APPROVAL_THRESHOLDS = (10_000.0, 40_000.0, 55_000.0)
AMOUNT_RANGE = (min(APPROVAL_THRESHOLDS) / 10, max(APPROVAL_THRESHOLDS) * 2)
BURST_MEAN = 12.0


@dataclass(frozen=True)
class Order:
    """One purchase order as the buyer's ERP user enters it."""

    po_number: str
    buyer: str
    lines: tuple[dict, ...]
    amount: float

    def line_dicts(self) -> list[dict]:
        """Fresh line dicts for ``Enterprise.submit_order``."""
        return [dict(line) for line in self.lines]


@dataclass(frozen=True)
class Traffic:
    """The orders of one batch, grouped into bursts, plus the network seed.

    A closed loop is the special case of bursts of one order.
    """

    seed: int
    batch: int
    bursts: tuple[tuple[Order, ...], ...]
    network_seed: int

    @property
    def orders(self) -> list[Order]:
        return [order for burst in self.bursts for order in burst]


def _line_count(rng: random.Random) -> int:
    if rng.random() >= LONG_TAIL_SHARE:
        return rng.randint(*BODY_LINES)
    low, high = LONG_TAIL_LINES
    return round(low * (high / low) ** rng.random())


def _amount(rng: random.Random) -> float:
    low, high = AMOUNT_RANGE
    return low * (high / low) ** rng.random()


def _lines(rng: random.Random, count: int, target: float) -> tuple[dict, ...]:
    """``count`` lines whose quantity x price adds up to about ``target``."""
    weights = [rng.uniform(0.5, 1.5) for _ in range(count)]
    total_weight = sum(weights)
    lines = []
    for number, weight in enumerate(weights, start=1):
        price = round(rng.uniform(2.0, 400.0), 2)
        quantity = max(1, round(target * weight / total_weight / price))
        lines.append(
            {
                "line_no": number,
                "sku": f"SKU-{rng.randrange(100_000):05d}",
                "description": f"item {number}",
                "quantity": quantity,
                "unit_price": price,
            }
        )
    return tuple(lines)


def _bursts(rng: random.Random, orders: list[Order]) -> list[tuple[Order, ...]]:
    """Group orders by drain period of a Poisson arrival process whose
    period holds ``BURST_MEAN`` orders on average."""
    bursts: dict[int, list[Order]] = {}
    arrival = 0.0
    for order in orders:
        arrival += rng.expovariate(BURST_MEAN)
        bursts.setdefault(int(arrival), []).append(order)
    return [tuple(burst) for _, burst in sorted(bursts.items())]


def generate(
    seed: int,
    batch: int,
    order_count: int,
    buyers: tuple[str, ...] = ("TP1",),
    bursty: bool = False,
) -> Traffic:
    """Order batch number ``batch`` of the traffic for ``seed``.

    Each order's buyer is drawn from ``buyers``; with ``bursty`` the
    orders arrive in bursts, otherwise one at a time.
    """
    if order_count < 1:
        raise ValueError("order_count must be >= 1")
    rng = random.Random(f"{seed}/{batch}")
    network_seed = rng.getrandbits(31)
    orders = []
    for index in range(order_count):
        buyer = rng.choice(buyers)
        lines = _lines(rng, _line_count(rng), _amount(rng))
        amount = round(sum(line["quantity"] * line["unit_price"] for line in lines), 2)
        orders.append(Order(f"PO-{seed}-{batch}-{index + 1:05d}", buyer, lines, amount))
    if bursty:
        bursts = _bursts(rng, orders)
    else:
        bursts = [(order,) for order in orders]
    return Traffic(seed, batch, tuple(bursts), network_seed)
