"""Per-PDU lifecycle reconstruction from a run trace.

Figure 8's two curves are latencies over this lifecycle:

* ``Tco`` — processing time per PDU inside a CO entity (we report the
  modelled CPU service time from the hosts, and the benchmarks additionally
  measure real Python time per PDU);
* ``Tap`` — transmission delay between *application* entities: from the DT
  request (``submit``) to delivery at a destination.

§5's claim C2 concerns two other spans: acceptance → pre-acknowledgment
(should be ≈ R) and acceptance → acknowledgment (≈ 2R).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.metrics.stats import Histogram
from repro.sim.trace import TraceLog

MessageId = Tuple[int, int]


@dataclass
class MessageLifecycle:
    """Every timestamp in one data PDU's life, per entity where relevant."""

    message: MessageId
    submit_time: Optional[float] = None
    broadcast_time: Optional[float] = None
    accept_times: Dict[int, float] = field(default_factory=dict)
    preack_times: Dict[int, float] = field(default_factory=dict)
    ack_times: Dict[int, float] = field(default_factory=dict)
    deliver_times: Dict[int, float] = field(default_factory=dict)

    @property
    def fully_delivered(self) -> bool:
        return bool(self.deliver_times)

    def delivery_latency(self, entity: int) -> Optional[float]:
        """submit → delivery at ``entity`` (the Tap sample)."""
        start = self.submit_time if self.submit_time is not None else self.broadcast_time
        end = self.deliver_times.get(entity)
        if start is None or end is None:
            return None
        return end - start

    def max_delivery_latency(self) -> Optional[float]:
        """submit → delivery at the slowest destination."""
        if not self.deliver_times:
            return None
        start = self.submit_time if self.submit_time is not None else self.broadcast_time
        if start is None:
            return None
        return max(self.deliver_times.values()) - start

    def preack_after_accept(self, entity: int) -> Optional[float]:
        a = self.accept_times.get(entity)
        p = self.preack_times.get(entity)
        if a is None or p is None:
            return None
        return p - a

    def ack_after_accept(self, entity: int) -> Optional[float]:
        a = self.accept_times.get(entity)
        k = self.ack_times.get(entity)
        if a is None or k is None:
            return None
        return k - a


def collect_lifecycles(trace: TraceLog) -> Dict[MessageId, MessageLifecycle]:
    """Walk a trace once and build the lifecycle of every data PDU.

    ``submit`` records are matched to broadcasts in FIFO order per entity
    (the engine transmits pending requests in submission order).
    """
    lifecycles: Dict[MessageId, MessageLifecycle] = {}
    pending_submits: Dict[int, List[float]] = {}

    def get(message: MessageId) -> MessageLifecycle:
        lc = lifecycles.get(message)
        if lc is None:
            lc = MessageLifecycle(message)
            lifecycles[message] = lc
        return lc

    for rec in trace:
        category = rec.category
        if category == "submit":
            pending_submits.setdefault(rec.entity, []).append(rec.time)
        elif category == "broadcast":
            if rec.get("kind") == "BatchPdu":
                # One frame, several data PDUs: each gets its own lifecycle,
                # all sharing the frame's transmission time.
                seqs = tuple(rec.get("seqs") or ())
            else:
                seq = rec.get("seq")
                if seq is None:
                    continue
                seqs = (seq,)
            for seq in seqs:
                message = (rec.entity, seq)
                lc = get(message)
                if lc.broadcast_time is None:
                    lc.broadcast_time = rec.time
                    queue = pending_submits.get(rec.entity)
                    if queue:
                        lc.submit_time = queue.pop(0)
        elif category in ("accept", "preack", "ack", "deliver"):
            message = (rec.get("src"), rec.get("seq"))
            lc = get(message)
            table = {
                "accept": lc.accept_times,
                "preack": lc.preack_times,
                "ack": lc.ack_times,
                "deliver": lc.deliver_times,
            }[category]
            table.setdefault(rec.entity, rec.time)
    return lifecycles


@dataclass(frozen=True)
class LatencySample:
    """One latency observation with its message and entity."""

    message: MessageId
    entity: int
    value: float


def latency_samples(
    lifecycles: Dict[MessageId, MessageLifecycle], kind: str
) -> List[LatencySample]:
    """Flatten lifecycles into samples of one latency ``kind``.

    Kinds: ``delivery`` (submit→deliver, the Tap metric),
    ``preack`` (accept→pre-ack), ``ack`` (accept→ack).
    """
    samples: List[LatencySample] = []
    for message, lc in lifecycles.items():
        if kind == "delivery":
            for entity in lc.deliver_times:
                value = lc.delivery_latency(entity)
                if value is not None:
                    samples.append(LatencySample(message, entity, value))
        elif kind == "preack":
            for entity in lc.preack_times:
                value = lc.preack_after_accept(entity)
                if value is not None:
                    samples.append(LatencySample(message, entity, value))
        elif kind == "ack":
            for entity in lc.ack_times:
                value = lc.ack_after_accept(entity)
                if value is not None:
                    samples.append(LatencySample(message, entity, value))
        else:
            raise ValueError(f"unknown latency kind: {kind}")
    return samples


def latency_histogram(
    lifecycles: Dict[MessageId, MessageLifecycle],
    kind: str,
    histogram: Optional[Histogram] = None,
) -> Histogram:
    """Aggregate one latency kind into a fixed-memory histogram.

    Same kinds as :func:`latency_samples`; the default bucket shape spans
    10 µs … ~5 min geometrically, wide enough for both the simulator's
    sub-millisecond runs and wall-clock UDP runs.  Pass an existing
    ``histogram`` to accumulate across traces (edges must match).
    """
    if histogram is None:
        histogram = Histogram.exponential(start=10e-6, factor=2.0, buckets=25)
    histogram.add_many(s.value for s in latency_samples(lifecycles, kind))
    return histogram


def gauge_histogram(
    trace: TraceLog,
    key: str,
    entity: Optional[int] = None,
    histogram: Optional[Histogram] = None,
) -> Histogram:
    """Distribution of one gauge (queue depth, occupancy) over a run.

    Reads the ``gauge`` samples the hosts record on their tick — the
    §2.1 buffer-occupancy signal and its siblings (``prl``, ``rrl``,
    ``gap_backlog``, ...).
    """
    if histogram is None:
        histogram = Histogram([1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
                               1024, 4096, 16384])
    histogram.add_many(
        float(rec.get(key))
        for rec in trace.select(category="gauge", entity=entity)
        if rec.get(key) is not None
    )
    return histogram


def hot_path_stats(entity_counters: Dict[str, int]) -> Dict[str, float]:
    """Scan-efficiency metrics of the PACK/ACK hot path.

    ``entity_counters`` is the cluster-aggregated ``EntityCounters``
    snapshot (as found in ``ExperimentResult.entity_counters``).  Derived
    ratios quantify how much work the incremental pipeline does per PDU:

    * ``pack_source_scans_per_accept`` — receipt sublogs examined per
      accepted PDU.  The event-driven scan visits only *dirty* sources, so
      this stays O(1)-ish; the old fixpoint visited all n every time.
    * ``dep_blocks_per_preack`` — how often a sublog head had to wait for a
      causal predecessor from another source.
    """
    accepted = entity_counters.get("accepted", 0)
    preacked = entity_counters.get("preacknowledged", 0)
    return {
        "pack_source_scans": float(entity_counters.get("pack_source_scans", 0)),
        "pack_source_scans_per_accept": (
            entity_counters.get("pack_source_scans", 0) / accepted if accepted else 0.0
        ),
        "dep_blocks_per_preack": (
            entity_counters.get("pack_dep_blocks", 0) / preacked if preacked else 0.0
        ),
        # Timer-driven RET re-requests (the adaptive-backoff satellite):
        # bounded and decaying under a crashed source instead of a fixed-
        # cadence storm.
        "ret_retries": float(entity_counters.get("ret_retries", 0)),
    }


def recovery_stats(entity_counters: Dict[str, int]) -> Dict[str, int]:
    """Crash-recovery subsystem counters, cluster-aggregated.

    Pulls the view-change / rejoin counters out of an ``EntityCounters``
    snapshot so experiment reports can show the recovery machinery's
    footprint next to the hot-path stats.
    """
    keys = (
        "fenced",
        "view_proposals",
        "view_installs",
        "evictions",
        "joins_sent",
        "state_transfers",
        "ret_retries",
    )
    return {key: int(entity_counters.get(key, 0)) for key in keys}


def detector_stats(entity_counters: Dict[str, int]) -> Dict[str, int]:
    """Adaptive failure-detection counters, cluster-aggregated
    (docs/PROTOCOL.md §17).

    All zero in fixed-timeout mode; in phi mode the degraded/suspect split
    shows the hysteresis absorbing warnings, ``phi_cooldown_blocks`` the
    flap suppression, and ``phi_samples_clamped`` the heartbeat-loss
    tolerance protecting the learned windows.
    """
    keys = (
        "phi_degraded",
        "phi_suspects",
        "phi_evict_ready",
        "phi_cooldown_blocks",
        "phi_samples_clamped",
        "phi_fallback_suspects",
    )
    return {key: int(entity_counters.get(key, 0)) for key in keys}


def pdu_census(trace: TraceLog) -> Dict[str, int]:
    """Counts of interesting trace events, for message-complexity claims."""
    interesting = (
        "broadcast", "accept", "drop", "duplicate", "gap",
        "ret", "retransmit", "heartbeat", "deliver",
        "view-install", "evict", "fence", "join", "state-transfer",
    )
    return {category: trace.count(category) for category in interesting}
