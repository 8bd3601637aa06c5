"""The causality DAG of a run's messages.

Nodes are message ids ``(src, seq)``; there is an edge ``p -> q`` whenever
``p ≺ q`` by the send stamps of :class:`~repro.ordering.checker.CausalPass`.
:func:`build_causal_graph` returns the transitive *reduction* by default
(the Hasse diagram — what you would draw), since the full relation is
quadratic and visually useless.

The statistics quantify how "causal" a workload actually was: a workload of
independent senders produces a wide, shallow DAG (most pairs concurrent),
while request-reply chains produce deep, narrow ones — which is exactly the
regime where CO ordering differs observably from FIFO.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterator, Tuple

import networkx as nx

from repro.ordering.checker import CausalPass, MessageId
from repro.sim.trace import TraceLog


def causal_pairs(
    stamps: Dict[MessageId, Tuple[int, ...]],
) -> Iterator[Tuple[MessageId, MessageId]]:
    """Every ordered pair ``(p, q)`` with ``p ≺ q``.  O(m²).

    A stamp's entry for source ``s`` is the highest seq of ``s`` its message
    causally follows (or is), so ``(s, x) ≺ q`` iff ``x <= stamp(q)[s]``.
    """
    for p, q in combinations(stamps, 2):
        if p[1] <= stamps[q][p[0]]:
            yield (p, q)
        elif q[1] <= stamps[p][q[0]]:
            yield (q, p)


def _graph(stamps: Dict[MessageId, Tuple[int, ...]]) -> "nx.DiGraph":
    graph = nx.DiGraph()
    graph.add_nodes_from((message, {"stamp": stamp}) for message, stamp in stamps.items())
    graph.add_edges_from(causal_pairs(stamps))
    return graph


def _reduce(graph: "nx.DiGraph") -> "nx.DiGraph":
    if not graph.number_of_edges():
        return graph
    reduced = nx.transitive_reduction(graph)
    # transitive_reduction drops node attributes; restore them.
    for node, data in graph.nodes(data=True):
        reduced.nodes[node].update(data)
    return reduced


def build_causal_graph(trace: TraceLog, n: int, reduce: bool = True) -> "nx.DiGraph":
    """The causality digraph of every data message in the trace.

    With ``reduce`` (default) the transitive reduction is returned; nodes
    carry a ``stamp`` attribute (the vector timestamp as a tuple).
    """
    graph = _graph(CausalPass(trace, n).stamps)
    return _reduce(graph) if reduce else graph


@dataclass(frozen=True)
class CausalGraphStats:
    """Structural fingerprint of a run's causality."""

    messages: int
    edges: int
    #: Longest causal chain (number of messages in it).
    depth: int
    #: Largest antichain lower bound: max messages with identical depth.
    width: int
    #: Fraction of ordered pairs that are concurrent (0 = total order,
    #: 1 = fully independent).
    concurrency_ratio: float
    #: Messages with no causal predecessor (roots of the DAG).
    roots: int

    def describe(self) -> str:
        return (
            f"{self.messages} messages, causal depth {self.depth}, "
            f"width {self.width}, {self.concurrency_ratio:.0%} of pairs "
            f"concurrent, {self.roots} independent roots"
        )


def causal_graph_stats(trace: TraceLog, n: int) -> CausalGraphStats:
    """Compute structural statistics from the (reduced) causal graph."""
    full = _graph(CausalPass(trace, n).stamps)
    count = full.number_of_nodes()
    if count == 0:
        return CausalGraphStats(0, 0, 0, 0, 0.0, 0)
    graph = _reduce(full)
    # A node's generation is the longest causal chain ending at it; the
    # first generation is the roots.
    levels = [len(level) for level in nx.topological_generations(graph)]
    total_pairs = count * (count - 1) // 2
    concurrency = 1.0 - full.number_of_edges() / total_pairs if total_pairs else 0.0
    return CausalGraphStats(
        messages=count,
        edges=graph.number_of_edges(),
        depth=len(levels),
        width=max(levels),
        concurrency_ratio=concurrency,
        roots=levels[0],
    )
