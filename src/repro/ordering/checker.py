"""One-call verification of a whole run.

:func:`verify_run` reconstructs every entity's delivery log from a trace,
builds the independent happened-before oracle, and checks the full CO
service contract of §2.3:

1. every data PDU broadcast is delivered at **every** entity exactly once
   (information preservation + atomicity);
2. each delivery log is local-order-preserved;
3. each delivery log is causality-preserved w.r.t. the *oracle* relation
   (not the protocol's own Theorem 4.1 arithmetic);
4. optionally, Theorem 4.1's sequence-number predicate is cross-checked
   against the oracle on every message pair for which ACK vectors are
   available.

Integration tests call ``verify_run(...).assert_ok()`` after every scenario;
the harness records the report alongside the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.errors import DeliveryOrderError, IncompleteRecordingError
from repro.ordering.events import (
    MessageId,
    delivery_logs,
    extract_events,
    sent_messages,
)
from repro.ordering.happened_before import CausalOrderOracle
from repro.ordering.properties import (
    causality_violations,
    duplicate_deliveries,
    local_order_violations,
    missing_deliveries,
)
from repro.sim.trace import TraceLog


@dataclass
class RunReport:
    """Verification outcome for one run."""

    n: int
    messages_sent: int
    deliveries: List[int]
    missing: Dict[int, List[MessageId]] = field(default_factory=dict)
    duplicates: Dict[int, List[MessageId]] = field(default_factory=dict)
    local_order: Dict[int, List[Tuple[MessageId, MessageId]]] = field(default_factory=dict)
    causality: Dict[int, List[Tuple[MessageId, MessageId]]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not (self.missing or self.duplicates or self.local_order or self.causality)

    def assert_ok(self) -> None:
        """Raise :class:`DeliveryOrderError` describing the first defects."""
        if self.ok:
            return
        problems = []
        for name, table in (
            ("missing deliveries", self.missing),
            ("duplicate deliveries", self.duplicates),
            ("local-order violations", self.local_order),
            ("causality violations", self.causality),
        ):
            for entity, items in table.items():
                problems.append(f"{name} at E{entity}: {items[:5]}")
        raise DeliveryOrderError("; ".join(problems))

    def summary(self) -> str:
        status = "OK" if self.ok else "VIOLATIONS"
        return (
            f"[{status}] n={self.n} sent={self.messages_sent} "
            f"delivered={self.deliveries} "
            f"missing={sum(len(v) for v in self.missing.values())} "
            f"dup={sum(len(v) for v in self.duplicates.values())} "
            f"fifo={sum(len(v) for v in self.local_order.values())} "
            f"causal={sum(len(v) for v in self.causality.values())}"
        )


def verify_run(
    trace: TraceLog,
    n: int,
    expect_all_delivered: bool = True,
) -> RunReport:
    """Check the CO service contract over a finished run's trace.

    ``expect_all_delivered=False`` relaxes check (1) to "whatever was
    delivered is ordered correctly" — used for baselines that are *expected*
    to lose or reorder (unordered broadcast, PO under loss), where the point
    is counting the violations rather than failing.

    A bounded recorder that shed records cannot be verified: the missing
    head of the run would read as undelivered messages and broken causal
    chains.  That is an incomplete recording, not a protocol defect, and
    is reported as one.
    """
    evicted = getattr(trace, "evicted", 0)
    if evicted:
        raise IncompleteRecordingError(
            f"incomplete recording: the trace shed {evicted} records, so the "
            "run cannot be verified — record into a TraceLog() or a larger "
            "FlightRecorder"
        )
    events = extract_events(trace)
    oracle = CausalOrderOracle(events, n)
    logs = delivery_logs(trace, n)
    expected = sent_messages(trace) if expect_all_delivered else []

    report = RunReport(
        n=n,
        messages_sent=len(sent_messages(trace)),
        deliveries=[len(log) for log in logs],
    )
    known = set(oracle.messages())

    def precedes(p: MessageId, q: MessageId) -> bool:
        if p not in known or q not in known:
            return False
        return oracle.precedes(p, q)

    for i, log in enumerate(logs):
        if expect_all_delivered:
            miss = missing_deliveries(log, expected)
            if miss:
                report.missing[i] = miss
        dup = duplicate_deliveries(log)
        if dup:
            report.duplicates[i] = dup
        fifo = local_order_violations(log)
        if fifo:
            report.local_order[i] = fifo
        causal = causality_violations(log, precedes)
        if causal:
            report.causality[i] = causal
    return report


def count_causal_anomalies(trace: TraceLog, n: int) -> int:
    """Total causality violations across all entities (baseline metric)."""
    report = verify_run(trace, n, expect_all_delivered=False)
    return sum(len(v) for v in report.causality.values())
