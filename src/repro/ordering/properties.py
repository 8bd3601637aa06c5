"""Delivery logs, and the total-order property the CO service does not promise.

The §2.2 log properties of the CO service — information-, local-order- and
causality-preservation — are checked in one pass by
:func:`repro.ordering.checker.verify_run`.  What stays here serves the
total-order extension: per-entity delivery sequences, and the pairs on which
two of them disagree.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence, Tuple

from repro.ordering.checker import CausalPass, MessageId
from repro.sim.trace import TraceLog


def delivery_logs(trace: TraceLog, n: int) -> List[List[MessageId]]:
    """Per-entity delivery sequences, in delivery order."""
    return CausalPass(trace, n).logs


def total_order_agreement(
    logs: Sequence[Sequence[MessageId]],
) -> List[Tuple[int, int, MessageId, MessageId]]:
    """Pairs on which two logs disagree about relative delivery order.

    Not a CO-service requirement (only the TO service demands it); used to
    *demonstrate* that CO is weaker than TO, and by the total-order
    extension's tests where the result must be empty.
    """
    positions = [{m: k for k, m in enumerate(log)} for log in logs]
    disagreements = []
    for i, j in combinations(range(len(logs)), 2):
        common = [m for m in logs[i] if m in positions[j]]
        for p, q in combinations(common, 2):
            if positions[j][p] > positions[j][q]:
                disagreements.append((i, j, p, q))
    return disagreements
