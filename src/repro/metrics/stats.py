"""Statistical summaries over metric samples (standard library only).

Two consumers: the harness (summaries for report tables) and the shape
assertions in benchmarks — Figure 8 claims *linear* growth in ``n``, which
:func:`linear_fit` quantifies with a least-squares slope and R².
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import fsum
from typing import Any, Dict, Iterable, List, Sequence


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of one sample set."""

    count: int
    mean: float
    p50: float
    p95: float
    minimum: float
    maximum: float

    def scaled(self, factor: float) -> "Summary":
        """The same summary in different units (e.g. seconds → ms)."""
        return Summary(
            count=self.count,
            mean=self.mean * factor,
            p50=self.p50 * factor,
            p95=self.p95 * factor,
            minimum=self.minimum * factor,
            maximum=self.maximum * factor,
        )


def summarize(samples: Sequence[float]) -> Summary:
    """Summary statistics; an empty sample set yields all-zero (count 0)."""
    if not samples:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    values = sorted(float(v) for v in samples)
    return Summary(
        count=len(values),
        mean=fsum(values) / len(values),
        p50=_percentile(values, 50),
        p95=_percentile(values, 95),
        minimum=values[0],
        maximum=values[-1],
    )


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default) over
    sorted samples, in the form that never leaves the two samples it
    interpolates between.  ``statistics.quantiles``' weighted sum can land
    an ulp outside them when they are equal."""
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    t = position - lower
    a = ordered[lower]
    if t == 0:
        return a
    b = ordered[lower + 1]
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


class Histogram:
    """A fixed-bucket histogram with O(1) memory — the aggregation the
    flight-recorder pipeline uses for latency and queue-depth samples.

    ``edges`` are the bucket upper bounds; a value lands in the first
    bucket whose edge is >= value, and values beyond the last edge land in
    an unbounded overflow bucket.  Unlike raw sample lists, a histogram's
    size is independent of run length, so live runtimes can keep one per
    metric forever.

    >>> h = Histogram([1.0, 10.0])
    >>> for v in (0.5, 0.7, 5.0, 50.0): h.add(v)
    >>> h.counts
    [2, 1, 1]
    """

    def __init__(self, edges: Sequence[float]):
        if not edges:
            raise ValueError("a histogram needs at least one bucket edge")
        ordered = list(edges)
        if any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise ValueError(f"edges must be strictly increasing: {ordered}")
        self.edges: List[float] = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.total = 0
        self.sum = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    @classmethod
    def exponential(cls, start: float, factor: float = 2.0, buckets: int = 16) -> "Histogram":
        """Geometric edges ``start, start*factor, ...`` — the default shape
        for latencies, which span orders of magnitude."""
        if start <= 0 or factor <= 1:
            raise ValueError("start must be > 0 and factor > 1")
        return cls([start * factor ** i for i in range(buckets)])

    def add(self, value: float) -> None:
        self.counts[bisect_right(self.edges, value)] += 1
        self.total += 1
        self.sum += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def add_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def percentile(self, q: float) -> float:
        """Upper-edge estimate of the ``q``-th percentile (0 <= q <= 100).

        Conservative by construction: the true value is at or below the
        reported edge.  The overflow bucket reports the observed maximum.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.total == 0:
            return 0.0
        rank = q / 100.0 * self.total
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank and count:
                if index < len(self.edges):
                    return self.edges[index]
                return self.maximum
        return self.maximum

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical edges into this one."""
        if other.edges != self.edges:
            raise ValueError("cannot merge histograms with different edges")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.sum += other.sum
        if other.total:
            self.minimum = min(self.minimum, other.minimum)
            self.maximum = max(self.maximum, other.maximum)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "min": self.minimum if self.total else None,
            "max": self.maximum if self.total else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        h = cls(data["edges"])
        h.counts = list(data["counts"])
        h.total = int(data["total"])
        h.sum = float(data["sum"])
        h.minimum = float("inf") if data.get("min") is None else float(data["min"])
        h.maximum = float("-inf") if data.get("max") is None else float(data["max"])
        return h

    def summary(self) -> Summary:
        """The five-number view other report code already understands."""
        if self.total == 0:
            return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return Summary(
            count=self.total,
            mean=self.mean,
            p50=self.percentile(50),
            p95=self.percentile(95),
            minimum=self.minimum,
            maximum=self.maximum,
        )


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line ``y = slope * x + intercept`` with fit quality."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Fit a line through (xs, ys); used for the O(n) shape checks.

    An R² close to 1 with positive slope supports "grows linearly"; the
    benchmarks also compare against a quadratic fit where the claim is
    specifically *not* superlinear.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a line")
    mean_x = fsum(xs) / len(xs)
    mean_y = fsum(ys) / len(ys)
    sxx = fsum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("xs must not all be equal")
    sxy = fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = fsum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope, intercept, r_squared)


def growth_ratio(xs: Sequence[float], ys: Sequence[float]) -> float:
    """``(y_last / y_first) / (x_last / x_first)``: ≈1 for linear growth,
    ≈x_ratio for quadratic, ≈0 for constant.  A coarse shape fingerprint
    robust to noise in small sweeps."""
    if len(xs) < 2:
        raise ValueError("need at least two points")
    if ys[0] == 0 or xs[0] == 0:
        raise ValueError("first sample must be non-zero")
    return (ys[-1] / ys[0]) / (xs[-1] / xs[0])
