"""Flight-recording inspection: summarize a JSONL trace dump as text.

``python -m repro inspect RECORDING.jsonl`` renders, from nothing but the
recording:

* the recording header (bound, evictions, time span, entities seen);
* per-phase latency percentiles (submit→deliver, accept→pre-ack,
  accept→ack) — the Figure 8 / claim C2 view of the captured window;
* the PDU census (broadcasts, accepts, drops, RETs, retransmits, ...);
  a bounded ring keeps no per-PDU records, so for its recordings these
  two say so in one line instead of printing half-empty tables;
* the repair-activity ledger (digests, pulls by trigger, ranges and bytes
  served, delta bursts) when the anti-entropy layer was on;
* overrun / retransmission timelines as bucketed sparklines — the "when
  did it go wrong" view;
* per-entity gauge sparklines (receive-buffer occupancy, PRL/RRL depth,
  gap backlog, flow in-flight) from the hosts' tick samples.

Everything is computed from the trace alone so a recording dumped by a
failing nemesis run in CI can be inspected on any machine.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.metrics.collector import collect_lifecycles, latency_samples, pdu_census
from repro.metrics.reporting import format_table, sparkline
from repro.metrics.stats import summarize
from repro.metrics.timeseries import event_rate_series, gauge_entities, gauge_series
from repro.sim.trace import TraceLog, load_jsonl

#: Timeline categories worth a sparkline, in display order.
TIMELINE_CATEGORIES = (
    "accept", "deliver", "drop", "gap", "ret", "retransmit", "duplicate",
    "pull", "delta",
)

#: Gauge keys worth a per-entity sparkline, in display order.  ``min_buf``
#: samples of -1 ("no advertisement seen yet") are dropped by
#: :func:`~repro.metrics.timeseries.gauge_series` before bucketing.
GAUGE_KEYS = (
    "buf_used", "min_buf", "rrl", "prl", "gap_backlog", "in_flight",
    "sending_log", "phi_max_decis", "detector_suspected",
)

#: Sparkline width (buckets) when the caller does not pick a bucket size.
DEFAULT_BUCKETS = 60


def _span(trace: TraceLog) -> Tuple[float, float]:
    times = [rec.time for rec in trace]
    if not times:
        return (0.0, 0.0)
    return (min(times), max(times))


def _auto_bucket(trace: TraceLog) -> float:
    start, end = _span(trace)
    span = end - start
    if span <= 0:
        return 1e-3
    return span / DEFAULT_BUCKETS


def summarize_recording(
    trace: TraceLog,
    meta: Optional[Dict[str, Any]] = None,
    bucket: Optional[float] = None,
) -> str:
    """The full text summary of one recording."""
    meta = meta or {}
    bucket = bucket if bucket is not None else _auto_bucket(trace)
    if meta.get("per_pdu", True):
        per_pdu = [_latency_section(trace), _census_section(trace)]
    else:
        per_pdu = ["per-PDU records not kept (a bounded ring keeps faults and "
                   "decisions): no phase latencies or PDU census"]
    sections: List[str] = [
        _header_section(trace, meta),
        *per_pdu,
        _repair_section(trace),
        _detector_section(trace),
        _timeline_section(trace, bucket),
        _gauge_section(trace, bucket),
    ]
    return "\n\n".join(s for s in sections if s)


def _header_section(trace: TraceLog, meta: Dict[str, Any]) -> str:
    start, end = _span(trace)
    entities = sorted({rec.entity for rec in trace})
    lines = [
        f"records: {len(trace)}"
        + (f" (of {meta['recorded_total']} recorded, {meta['evicted']} "
           f"evicted by the {meta['capacity']}-record ring)"
           if meta.get("kind") == "flight-recorder" and meta.get("evicted")
           else ""),
        f"span: {start:.6f} .. {end:.6f} ({(end - start) * 1e3:.2f} ms)",
        f"entities: {entities}",
    ]
    return "\n".join(lines)


def _latency_section(trace: TraceLog) -> str:
    lifecycles = collect_lifecycles(trace)
    if not lifecycles:
        return ""
    rows = []
    for kind, label in (("delivery", "submit -> deliver"),
                        ("preack", "accept -> pre-ack"),
                        ("ack", "accept -> ack")):
        s = summarize([x.value for x in latency_samples(lifecycles, kind)])
        if s.count == 0:
            continue
        scaled = s.scaled(1e3)  # ms
        rows.append([label, s.count, f"{scaled.mean:.3f}", f"{scaled.p50:.3f}",
                     f"{scaled.p95:.3f}", f"{scaled.maximum:.3f}"])
    if not rows:
        return ""
    return format_table(
        ["phase", "samples", "mean ms", "p50 ms", "p95 ms", "max ms"],
        rows, title="-- phase latencies --",
    )


def _census_section(trace: TraceLog) -> str:
    census = pdu_census(trace)
    rows = [[category, count] for category, count in census.items() if count]
    if not rows:
        return ""
    return format_table(["event", "count"], rows, title="-- PDU census --")


def _repair_section(trace: TraceLog) -> str:
    """Anti-entropy activity (docs/PROTOCOL.md §15): what the repair layer
    did during the captured window, reconstructed from the trace alone."""
    pulls = [r for r in trace if r.category == "pull"]
    serves = [r for r in trace if r.category == "pull-serve"]
    deltas = [r for r in trace if r.category == "delta"]
    stash_drops = [r for r in trace if r.category == "stash-drop"]
    digests = trace.count("digest")
    if not (digests or pulls or serves or deltas or stash_drops):
        return ""
    escalations = sum(
        1 for r in pulls if r.details.get("reason") == "escalate"
    )
    repaired_bytes = sum(r.details.get("bytes", 0) for r in serves)
    repaired_bytes += sum(r.details.get("bytes", 0) for r in deltas)
    rows = [
        ["digests sent", digests],
        ["pulls sent", len(pulls)],
        ["  .. from digest compare", len(pulls) - escalations],
        ["  .. from RET escalation", escalations],
        ["pull ranges requested",
         sum(r.details.get("ranges", 0) for r in pulls)],
        ["pull ranges served",
         sum(r.details.get("ranges", 0) for r in serves)],
        ["pull PDUs served", sum(r.details.get("pdus", 0) for r in serves)],
        ["delta bursts", len(deltas)],
        ["delta PDUs pushed", sum(r.details.get("pdus", 0) for r in deltas)],
        ["bytes repaired", repaired_bytes],
        ["evicted-source stash drops",
         sum(r.details.get("count", 0) for r in stash_drops)],
    ]
    rows = [row for row in rows if row[1]]
    return format_table(["repair activity", "count"], rows,
                        title="-- repair activity --")


def _detector_section(trace: TraceLog) -> str:
    """Failure-detection activity (docs/PROTOCOL.md §17): suspicion churn
    and — in adaptive mode — the phi scores the verdicts carried."""
    suspects = [r for r in trace if r.category == "suspect"]
    unsuspects = trace.count("unsuspect")
    if not suspects and not unsuspects:
        return ""
    scored = [
        r.details["phi"] for r in suspects
        if r.details.get("phi") is not None
    ]
    rows = [
        ["suspicions", len(suspects)],
        ["  .. phi-scored (adaptive)", len(scored)],
        ["revocations (unsuspect)", unsuspects],
    ]
    rows = [row for row in rows if row[1]]
    if scored:
        rows.append(["peak phi at suspicion", f"{max(scored):.1f}"])
    return format_table(["failure detection", "count"], rows,
                        title="-- failure detection --")


def _timeline_section(trace: TraceLog, bucket: float) -> str:
    lines = [f"-- event timelines (bucket = {bucket * 1e3:.3f} ms) --"]
    width = max(len(c) for c in TIMELINE_CATEGORIES)
    any_rows = False
    for category in TIMELINE_CATEGORIES:
        series = event_rate_series(trace, category, bucket)
        if series.total == 0:
            continue
        any_rows = True
        lines.append(
            f"{category.ljust(width)}  {sparkline(series.values)} "
            f"(total {int(series.total)}, peak {int(series.peak)}/bucket)"
        )
    return "\n".join(lines) if any_rows else ""


def _gauge_section(trace: TraceLog, bucket: float) -> str:
    entities = gauge_entities(trace)
    if not entities:
        return ""
    lines = [f"-- gauges (bucket = {bucket * 1e3:.3f} ms) --"]
    for key in GAUGE_KEYS:
        shown = False
        for entity in entities:
            series = gauge_series(trace, key, bucket, entity=entity)
            if not series.values or series.peak == 0:
                continue
            if not shown:
                lines.append(f"{key}:")
                shown = True
            lines.append(
                f"  E{entity}  {sparkline(series.values)} "
                f"(peak {series.peak:.0f})"
            )
    return "\n".join(lines) if len(lines) > 1 else ""


def inspect_path(path: str, bucket: Optional[float] = None) -> str:
    """Load a JSONL recording and summarize it (the CLI entry point)."""
    trace, meta = load_jsonl(path)
    header = f"flight recording: {path}"
    return header + "\n" + "=" * len(header) + "\n" + summarize_recording(
        trace, meta, bucket=bucket,
    )
