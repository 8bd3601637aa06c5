"""Post-run analysis of protocol traces.

Tools a user points at a finished run's :class:`~repro.sim.trace.TraceLog`:

* :mod:`repro.analysis.causal_graph` — the messages' causality DAG as a
  ``networkx`` digraph, built from the send stamps of the ordering
  checker's pass, with structural statistics (depth, width, degree of
  concurrency) and a transitive reduction for visualisation;
* :mod:`repro.analysis.timeline` — text timelines: one PDU's life across
  all entities, or one entity's event stream;
* :mod:`repro.analysis.summary` — a one-call run summary combining traffic,
  recovery, latency and verification into a printable report;
* :mod:`repro.analysis.recording` — summarize a dumped flight recording
  (the ``repro inspect`` backend).
"""

from repro.analysis.causal_graph import CausalGraphStats, build_causal_graph, causal_graph_stats
from repro.analysis.knowledge import ReceiptLadder, ladder_spans, receipt_ladder
from repro.analysis.recording import inspect_path, summarize_recording
from repro.analysis.summary import RunSummary, summarize_run
from repro.analysis.timeline import entity_timeline, message_timeline

__all__ = [
    "CausalGraphStats",
    "ReceiptLadder",
    "RunSummary",
    "build_causal_graph",
    "causal_graph_stats",
    "entity_timeline",
    "inspect_path",
    "ladder_spans",
    "message_timeline",
    "receipt_ladder",
    "summarize_recording",
    "summarize_run",
]
