"""Time-bucketed series over a run's trace.

Whole-run summaries hide dynamics — a loss burst shows up as a latency
tail, not as the throughput dip it actually was.  These helpers bucket
trace events over simulated time so experiments can look at behaviour
*during* recovery, congestion or a crash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.metrics.collector import collect_lifecycles
from repro.sim.trace import TraceLog


@dataclass(frozen=True)
class Series:
    """A uniformly bucketed time series."""

    bucket: float
    start: float
    values: Tuple[float, ...]

    def times(self) -> List[float]:
        """Bucket start times."""
        return [self.start + i * self.bucket for i in range(len(self.values))]

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def peak(self) -> float:
        return max(self.values) if self.values else 0.0


def _bucketize(
    samples: List[Tuple[float, float]],
    bucket: float,
    combine: str,
    start: Optional[float] = None,
) -> Series:
    if bucket <= 0:
        raise ValueError(f"bucket must be positive, got {bucket}")
    if not samples:
        return Series(bucket=bucket, start=0.0, values=())
    # The series starts at ``start`` (series shown side by side share one)
    # or else at the bucket that holds the first sample, on the grid of
    # whole buckets.  Anchoring at t = 0 would cost one slot per bucket of
    # clock before it: a UDP recording's times count the host's uptime
    # (loop.time()), tens of millions of empty slots.
    first = min(t for t, _ in samples)
    if start is None or start > first:
        start = math.floor(first / bucket) * bucket
    end = max(t for t, _ in samples)
    slots = int((end - start) / bucket) + 1
    sums = [0.0] * slots
    counts = [0] * slots
    for t, value in samples:
        index = min(int((t - start) / bucket), slots - 1)
        sums[index] += value
        counts[index] += 1
    if combine == "count":
        values = tuple(float(c) for c in counts)
    elif combine == "mean":
        values = tuple(
            (s / c if c else 0.0) for s, c in zip(sums, counts)
        )
    else:
        raise ValueError(f"unknown combine mode: {combine}")
    return Series(bucket=bucket, start=start, values=values)


def event_rate_series(
    trace: TraceLog,
    category: str,
    bucket: float,
    entity: Optional[int] = None,
    start: Optional[float] = None,
) -> Series:
    """Events of ``category`` per bucket (e.g. deliveries, drops, RETs)."""
    samples = [
        (rec.time, 1.0)
        for rec in trace.select(category=category, entity=entity)
    ]
    return _bucketize(samples, bucket, combine="count", start=start)


def delivery_latency_series(trace: TraceLog, bucket: float) -> Series:
    """Mean submit→deliver latency of the messages delivered per bucket."""
    lifecycles = collect_lifecycles(trace)
    samples: List[Tuple[float, float]] = []
    for lc in lifecycles.values():
        for entity, when in lc.deliver_times.items():
            latency = lc.delivery_latency(entity)
            if latency is not None:
                samples.append((when, latency))
    return _bucketize(samples, bucket, combine="mean")


def gauge_series(
    trace: TraceLog,
    key: str,
    bucket: float,
    entity: Optional[int] = None,
    start: Optional[float] = None,
) -> Series:
    """Mean value of one host-sampled gauge per bucket.

    Gauges are point-in-time samples (the ``gauge`` trace category), so
    bucket means — not counts — are the faithful reduction.  Negative
    samples are the schema's "unknown" convention (docs/PROTOCOL.md §13:
    ``min_buf`` is -1 until a buffer advertisement has been seen) and are
    dropped, not averaged — a cold-start placeholder is not a measurement
    and must not drag percentiles or sparklines.
    """
    samples = [
        (rec.time, value)
        for rec in trace.select(category="gauge", entity=entity)
        for value in (rec.get(key),)
        if value is not None and float(value) >= 0.0
    ]
    samples = [(t, float(v)) for t, v in samples]
    return _bucketize(samples, bucket, combine="mean", start=start)


def gauge_entities(trace: TraceLog) -> List[int]:
    """The entities that contributed gauge samples to a trace."""
    return sorted({rec.entity for rec in trace.select(category="gauge")})


def resident_series(trace: TraceLog, bucket: float) -> Dict[str, Series]:
    """Protocol activity per bucket: acceptances, pre-acks, acks.

    The gap between the accept and ack curves visualises the two-phase
    pipeline depth over time.
    """
    return {
        category: event_rate_series(trace, category, bucket)
        for category in ("accept", "preack", "ack")
    }
