"""Correctness oracle that trusts nothing but what the applications saw.

Every payload the harness submits carries ``(src, k)`` — the sender and its
k-th message — plus ``counts``: how many messages from each source the
sender's own application had been handed when it submitted.  Those
messages happened-before this one, so every member must be handed them
first.  From each member's delivery sequence alone the oracle checks

* exactly once: per source, ``k`` arrives as 0, 1, 2, … with no repeat;
* per-source FIFO: no ``k`` overtakes a smaller one;
* causal order: when ``(src, k, counts)`` is handed over, the member has
  already been handed ``counts[j]`` messages of every source ``j``;
* completeness: every submitted message reached every member.

It never reads the program's trace, counters or logs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

Stamp = Tuple[int, int, Tuple[int, ...]]

MAX_REPORTED = 20


def encode_payload(src: int, k: int, counts: Sequence[int], size: int) -> bytes:
    """The stamp as bytes (what the UDP codec carries), padded to ``size``."""
    body = struct.pack(f"<HI{len(counts)}I", src, k, *counts)
    return body.ljust(size, b"\0")


def decode_payload(data: bytes, n: int) -> Stamp:
    src, k, *counts = struct.unpack_from(f"<HI{n}I", data)
    return src, k, tuple(counts)


@dataclass
class OracleReport:
    attempted_pairs: int = 0
    delivered_pairs: int = 0
    #: Messages that reached *every* member (the goodput numerator).
    delivered_everywhere: int = 0
    violations: List[str] = field(default_factory=list)
    violation_count: int = 0

    @property
    def undelivered_pairs(self) -> int:
        return self.attempted_pairs - self.delivered_pairs

    @property
    def ok(self) -> bool:
        return self.violation_count == 0 and self.undelivered_pairs == 0

    def violate(self, text: str) -> None:
        self.violation_count += 1
        if len(self.violations) < MAX_REPORTED:
            self.violations.append(text)


def check(delivered: Sequence[Sequence[Stamp]], submitted: Sequence[int]) -> OracleReport:
    """Check every member's delivery sequence.

    ``delivered[m]`` is what member ``m``'s application was handed, in
    order; ``submitted[src]`` is how many messages source ``src`` submitted.
    """
    n = len(submitted)
    report = OracleReport(attempted_pairs=sum(submitted) * len(delivered))
    reached = list(submitted)
    for m, sequence in enumerate(delivered):
        seen = [0] * n
        for src, k, counts in sequence:
            if k < seen[src]:
                report.violate(f"member {m}: ({src},{k}) delivered twice")
                continue
            if k > seen[src]:
                report.violate(
                    f"member {m}: ({src},{k}) delivered before ({src},{seen[src]})")
            for j in range(n):
                if seen[j] < counts[j]:
                    report.violate(
                        f"member {m}: ({src},{k}) delivered before its cause "
                        f"({j},{counts[j] - 1})")
                    break
            seen[src] = k + 1
            if k < submitted[src]:
                report.delivered_pairs += 1
            else:
                report.violate(f"member {m}: ({src},{k}) was never submitted")
        reached = [min(r, s) for r, s in zip(reached, seen)]
    report.delivered_everywhere = sum(reached)
    return report
