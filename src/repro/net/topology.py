"""Cluster topologies: per-pair propagation delays.

§5 of the paper reasons about latency in terms of ``R``, *the maximum
propagation delay among the entities*: pre-acknowledgment of a PDU follows
its acceptance by ``R`` and acknowledgment by ``2R`` when confirmations flow
in parallel.  A :class:`Topology` is therefore just a symmetric delay matrix
plus that derived maximum.

Constructors cover the configurations used by the experiments:

* :meth:`Topology.uniform` — every pair at the same delay (the paper's
  single-Ethernet setting, and the cleanest way to observe the R/2R ratio);
* :meth:`Topology.random_plane` — entities placed in a unit square, delay
  proportional to Euclidean distance (heterogeneous LAN);
* :meth:`Topology.from_graph` — shortest-path delays over a weighted
  ``networkx`` graph (arbitrary interconnects);
* :meth:`Topology.from_matrix` — explicit matrix for scripted tests.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence


class Topology:
    """A symmetric matrix of propagation delays between ``n`` entities.

    ``delay(i, i)`` is 0 by construction: an entity hears its own broadcast
    immediately (the engine also self-accepts at send time, see
    :mod:`repro.core.entity`).
    """

    def __init__(self, delays: Sequence[Sequence[float]]):
        n = len(delays)
        if n < 1:
            raise ValueError("topology needs at least one entity")
        matrix: List[List[float]] = []
        for i, row in enumerate(delays):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            matrix.append([float(x) for x in row])
        for i in range(n):
            if matrix[i][i] != 0.0:
                raise ValueError(f"self-delay of entity {i} must be 0")
            for j in range(n):
                if matrix[i][j] < 0:
                    raise ValueError(f"negative delay between {i} and {j}")
                if not math.isclose(matrix[i][j], matrix[j][i]):
                    raise ValueError(f"delay matrix not symmetric at ({i},{j})")
        self._matrix = matrix
        self.n = n

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def delay(self, src: int, dst: int) -> float:
        """Propagation delay from ``src`` to ``dst``."""
        return self._matrix[src][dst]

    def delays_from(self, src: int) -> Sequence[float]:
        """The live row of delays from ``src`` to every entity (read-only:
        the network's per-copy loop indexes it instead of calling
        :meth:`delay` once per destination)."""
        return self._matrix[src]

    @property
    def max_delay(self) -> float:
        """The paper's ``R``: the largest pairwise delay in the cluster."""
        return max(max(row) for row in self._matrix)

    @property
    def mean_delay(self) -> float:
        """Mean delay over distinct pairs (0 for a single entity)."""
        if self.n < 2:
            return 0.0
        total = sum(
            self._matrix[i][j]
            for i in range(self.n)
            for j in range(self.n)
            if i != j
        )
        return total / (self.n * (self.n - 1))

    def as_matrix(self) -> List[List[float]]:
        """A defensive copy of the delay matrix."""
        return [row[:] for row in self._matrix]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, n: int, delay: float) -> "Topology":
        """All distinct pairs at the same ``delay`` (so ``R == delay``)."""
        matrix = [
            [0.0 if i == j else delay for j in range(n)]
            for i in range(n)
        ]
        return cls(matrix)

    @classmethod
    def from_matrix(cls, delays: Sequence[Sequence[float]]) -> "Topology":
        """Explicit matrix (validated for symmetry and zero diagonal)."""
        return cls(delays)

    @classmethod
    def random_plane(
        cls,
        n: int,
        rng: random.Random,
        scale: float = 1e-3,
        min_delay: float = 1e-5,
    ) -> "Topology":
        """Entities at random points of a unit square.

        The delay of a pair is ``max(min_delay, distance * scale)``; with the
        defaults a unit square spans about a millisecond corner to corner.
        """
        points = [(rng.random(), rng.random()) for _ in range(n)]
        matrix = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    row.append(0.0)
                    continue
                dx = points[i][0] - points[j][0]
                dy = points[i][1] - points[j][1]
                row.append(max(min_delay, math.hypot(dx, dy) * scale))
            matrix.append(row)
        return cls(matrix)

    @classmethod
    def from_graph(cls, graph, weight: str = "delay") -> "Topology":
        """Shortest-path delays over a weighted undirected graph.

        ``graph`` is a ``networkx.Graph`` whose nodes are ``0..n-1`` and whose
        edges carry a ``weight`` attribute in seconds.  The cluster is fully
        connected at the service level; the graph only shapes the delays.
        """
        import networkx as nx

        n = graph.number_of_nodes()
        if sorted(graph.nodes) != list(range(n)):
            raise ValueError("graph nodes must be 0..n-1")
        lengths = dict(nx.all_pairs_dijkstra_path_length(graph, weight=weight))
        matrix = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    row.append(0.0)
                    continue
                if j not in lengths.get(i, {}):
                    raise ValueError(f"graph is disconnected: no path {i} -> {j}")
                row.append(float(lengths[i][j]))
            matrix.append(row)
        return cls(matrix)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Topology(n={self.n}, R={self.max_delay:.6g})"
