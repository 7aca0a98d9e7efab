"""Host-speed calibration interleaved with the measured work.

The benchmark host's speed drifts by a third within a minute, and CPU
time tracks wall time, so neither repeating runs nor reading CPU time
steadies the numbers.  Instead, between orders the benchmark runs a
fixed unit of pure-Python work that shares no code with the hub (JSON
round trip, deep copy, string formatting and sorting of a small order
document) and times it.  A round's *host factor* is the reference unit
time divided by the measured one; every wall time of the round is
multiplied by it, which reports it in seconds of a host that runs the
unit in ``REFERENCE_UNIT_NS``.  A faster hub still shows in full; a
slower moment of the host cancels out.

The unit runs with the garbage collector off, so its time does not
depend on how much the hub keeps alive: a change to the hub's retained
heap moves the hub's time only, not the factor it is scaled by.
"""

from __future__ import annotations

import copy
import gc
import json
from time import perf_counter_ns

__all__ = ["REFERENCE_UNIT_NS", "Calibration"]

# One unit on a reference host: 0.5 ms.
REFERENCE_UNIT_NS = 500_000
_ITERATIONS = 8

_DOCUMENT = {
    "header": {"po_number": "PO-1", "buyer": "TP1", "amount": 1234.5},
    "lines": [
        {"sku": f"SKU-{index:05d}", "quantity": index, "unit_price": index * 1.5,
         "description": "item"}
        for index in range(6)
    ],
}


def _unit() -> list[str]:
    result: list[str] = []
    for _ in range(_ITERATIONS):
        document = copy.deepcopy(json.loads(json.dumps(_DOCUMENT, sort_keys=True)))
        result = sorted(f"{line['sku']}:{line['quantity']}" for line in document["lines"])
    return result


class Calibration:
    """Accumulates timed calibration units over one round."""

    def __init__(self) -> None:
        self.units = 0
        self.elapsed_ns = 0

    def run(self, units: int) -> None:
        """Run and time ``units`` calibration units."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(units):
                started = perf_counter_ns()
                _unit()
                self.elapsed_ns += perf_counter_ns() - started
        finally:
            if enabled:
                gc.enable()
        self.units += units

    def unit_ms(self) -> float:
        """Mean measured time of one unit, in ms."""
        return self.elapsed_ns / self.units / 1e6

    def factor(self) -> float:
        """Reference unit time over measured unit time."""
        return REFERENCE_UNIT_NS * self.units / self.elapsed_ns
