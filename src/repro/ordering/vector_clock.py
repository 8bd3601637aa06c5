"""Vector clocks.

The comparison technology the paper positions itself *against*: ISIS CBCAST
timestamps every message with a vector clock and orders deliveries by it.
We implement them as the substrate of the CBCAST baseline
(:mod:`repro.baselines.isis_cbcast`).

A vector clock over ``n`` processes maps process index → event count.  For
clocks ``a`` and ``b``:

* ``a < b``  (``a`` happened-before ``b``): ``a[i] <= b[i]`` everywhere and
  ``a != b``;
* ``a || b`` (concurrent): neither ``a < b`` nor ``b < a``.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple


class VectorClock:
    """An immutable vector clock.

    Instances support ``<`` / ``<=`` with happened-before semantics (note:
    this is a *partial* order — ``not (a < b)`` does not imply ``b <= a``),
    ``|`` for component-wise merge, and :meth:`tick` for local events.
    """

    __slots__ = ("_v",)

    def __init__(self, components: Sequence[int]):
        if any(c < 0 for c in components):
            raise ValueError(f"clock components must be non-negative: {components}")
        self._v: Tuple[int, ...] = tuple(components)

    @classmethod
    def zero(cls, n: int) -> "VectorClock":
        """The origin clock for ``n`` processes."""
        return cls((0,) * n)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def tick(self, index: int) -> "VectorClock":
        """The clock after one local event at process ``index``."""
        v = list(self._v)
        v[index] += 1
        return VectorClock(v)

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Component-wise maximum (the receive rule)."""
        if len(other._v) != len(self._v):
            raise ValueError("cannot merge clocks of different widths")
        return VectorClock(tuple(max(a, b) for a, b in zip(self._v, other._v)))

    def __or__(self, other: "VectorClock") -> "VectorClock":
        return self.merge(other)

    # ------------------------------------------------------------------
    # Comparison (partial order)
    # ------------------------------------------------------------------
    def __le__(self, other: "VectorClock") -> bool:
        return all(a <= b for a, b in zip(self._v, other._v))

    def __lt__(self, other: "VectorClock") -> bool:
        return self._v != other._v and self <= other

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorClock) and self._v == other._v

    def __hash__(self) -> int:
        return hash(self._v)

    def concurrent_with(self, other: "VectorClock") -> bool:
        """Neither clock happened-before the other."""
        return not self < other and not other < self and self != other

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __getitem__(self, index: int) -> int:
        return self._v[index]

    def __len__(self) -> int:
        return len(self._v)

    def __iter__(self) -> Iterator[int]:
        return iter(self._v)

    def as_tuple(self) -> Tuple[int, ...]:
        return self._v

    def __repr__(self) -> str:
        return f"VC{list(self._v)}"
