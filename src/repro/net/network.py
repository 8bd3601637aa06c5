"""The multi-channel (MC) broadcast network.

The MC service of §2.3 guarantees exactly one thing: every receipt log is
**local-order-preserved** — PDUs from one source arrive at any destination in
sending order.  It does *not* guarantee information preservation (receivers
may lose PDUs) nor any cross-source ordering (different destinations may
interleave sources differently).

:class:`MCNetwork` realizes this: each broadcast fans out one copy per other
entity, each copy travels its pair's propagation delay, an injectable
:class:`~repro.net.loss.LossModel` may discard copies in flight, and arrival
order per (src, dst) pair is clamped to FIFO.  Destination-side buffer
overrun — the paper's primary loss mechanism — happens *after* arrival, in
the entity host (:mod:`repro.core.cluster`), not here: the medium itself is
error-free.

One broadcast is ``n - 1`` copies and the simulator pays for each, so
:meth:`MCNetwork._send_copies` works out what is the same for the whole
frame (wire size, send time, the source's delay and FIFO rows, whether the
loss model can drop at all) once; a copy then costs a few local reads and
one ``schedule_at`` (DESIGN.md §16).  Each seeded stream is drawn in the
order it always was: destinations ascending, a duplicate before its original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.net.delay import DelayModel
from repro.net.loss import DuplicatingChannel, LossModel, NoLoss
from repro.net.topology import Topology
from repro.sim.kernel import Simulator
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog

#: An attached receiver: called as ``sink(pdu)`` at arrival time.
Sink = Callable[[Any], None]


@dataclass
class NetworkStats:
    """Traffic counters for one run."""

    broadcasts: int = 0
    unicasts: int = 0
    copies_sent: int = 0
    copies_delivered: int = 0
    copies_dropped: int = 0
    copies_duplicated: int = 0
    data_pdus: int = 0
    control_pdus: int = 0
    bytes_sent: int = 0
    #: Batch frames broadcast (each counts once in data/control_pdus too).
    batch_frames: int = 0
    #: Data PDUs that travelled inside batch frames.
    batched_data_pdus: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


def pdu_wire_size(pdu: Any) -> int:
    """Wire size of a PDU in bytes, if it knows how to report one."""
    sizer = getattr(pdu, "wire_size", None)
    if callable(sizer):
        return int(sizer())
    return 0


class MCNetwork(SimProcess):
    """Broadcast network with per-pair delays, FIFO links and injectable loss.

    Entities register with :meth:`attach` before traffic starts.  The sender
    does **not** receive its own copy through the network — the protocol
    engines self-accept at send time, matching a host that hands its own
    broadcast straight to its system entity.
    """

    def __init__(
        self,
        sim: Simulator,
        trace: TraceLog,
        topology: Topology,
        loss: Optional[LossModel] = None,
        rngs: Optional[RngRegistry] = None,
        bandwidth_bytes_per_s: Optional[float] = None,
        jitter: float = 0.0,
        duplication: Optional[DuplicatingChannel] = None,
        delay_model: Optional[DelayModel] = None,
    ):
        """``bandwidth_bytes_per_s`` adds a serialisation delay of
        ``wire_size / bandwidth`` per PDU at the sender's interface (all
        copies of a broadcast share one serialisation — it is one frame on
        the medium).  ``jitter`` adds an exponential random extra delay with
        that mean per copy; arrival order per (src, dst) pair is still
        clamped to FIFO, preserving the MC model's local-order guarantee.
        ``duplication`` occasionally schedules bounded extra copies of a
        PDU per destination (fault injection; the engines' acceptance
        condition filters the duplicates).  ``delay_model`` adds per-link
        extra delay (:mod:`repro.net.delay`, gray-failure injection); FIFO
        clamping applies after it, so a spike holds back the copies behind
        it like a congested queue."""
        super().__init__(sim, trace, index=-1)
        self.topology = topology
        self.loss = loss if loss is not None else NoLoss()
        self.duplication = duplication
        self.delay_model = delay_model
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        self.jitter = jitter
        registry = rngs or RngRegistry()
        self._rng = registry.stream("network-loss")
        self._jitter_rng = registry.stream("network-jitter")
        self._dup_rng = registry.stream("network-dup")
        self._delay_rng = registry.stream("network-delay")
        self._sinks: Dict[int, Sink] = {}
        # Last scheduled arrival time per pair, ``[src][dst]``, to clamp
        # links to FIFO whatever jitter or delay model reordered the draws.
        self._last_arrival = [[0.0] * topology.n for _ in range(topology.n)]
        self._in_flight = 0
        self.stats = NetworkStats()

    @property
    def in_flight(self) -> int:
        """Copies currently travelling (scheduled but not yet arrived)."""
        return self._in_flight

    @property
    def n(self) -> int:
        return self.topology.n

    @property
    def max_delay(self) -> float:
        """The paper's ``R``."""
        return self.topology.max_delay

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, index: int, sink: Sink) -> None:
        """Register the receive path of entity ``index``."""
        if not 0 <= index < self.n:
            raise ValueError(f"entity index {index} outside cluster of {self.n}")
        if index in self._sinks:
            raise ValueError(f"entity {index} already attached")
        self._sinks[index] = sink

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def broadcast(self, src: int, pdu: Any) -> None:
        """Fan a PDU out to every other attached entity."""
        self.stats.broadcasts += 1
        self._census(pdu)
        self.trace.record(
            self.now, "broadcast", src,
            kind=type(pdu).__name__, **_pdu_trace_fields(pdu),
        )
        self._send_copies(src, [d for d in range(self.n) if d != src], pdu)

    def unicast(self, src: int, dst: int, pdu: Any) -> None:
        """Send a PDU to a single destination (probe answers, relays)."""
        if dst == src:
            raise ValueError("unicast to self is not modelled")
        self.stats.unicasts += 1
        self._census(pdu)
        self.trace.record(
            self.now, "unicast", src, dst=dst,
            kind=type(pdu).__name__, **_pdu_trace_fields(pdu),
        )
        self._send_copies(src, (dst,), pdu)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _census(self, pdu: Any) -> None:
        """Classify one transmitted frame for the traffic counters."""
        if getattr(pdu, "is_control", False):
            self.stats.control_pdus += 1
        else:
            self.stats.data_pdus += 1
        # A relay wrapper is the wire form of the frame it carries; census
        # the inner frame's batching shape, not the wrapper's.
        inner = getattr(pdu, "frame", pdu)
        if hasattr(inner, "pdus"):
            self.stats.batch_frames += 1
            self.stats.batched_data_pdus += inner.pdu_count

    def _send_copies(self, src: int, dsts: Sequence[int], pdu: Any) -> None:
        """Put one copy of a frame in flight towards each of ``dsts``."""
        stats = self.stats
        if self.duplication is not None:
            # Each duplicate runs the normal copy path (own loss draw, own
            # delay) just before its original; FIFO clamping keeps the
            # pair's local order intact.
            expanded: List[int] = []
            for dst in dsts:
                extra = self.duplication.extra_copies(src, dst, pdu, self._dup_rng)
                stats.copies_duplicated += extra
                expanded += [dst] * (extra + 1)
            dsts = expanded
        now = self.sim.now
        size = pdu_wire_size(pdu)
        bandwidth = self.bandwidth_bytes_per_s
        serialisation = size / bandwidth if bandwidth else 0.0
        jitter = self.jitter
        delay_model = self.delay_model
        loss = self.loss
        lossy = type(loss) is not NoLoss  # NoLoss draws nothing: skip the call
        delays = self.topology.delays_from(src)
        last = self._last_arrival[src]
        schedule_at = self.sim.schedule_at
        arrive = self._arrive
        dropped = 0
        for dst in dsts:
            if lossy and loss.should_drop(src, dst, pdu, self._rng):
                dropped += 1
                fields = _pdu_trace_fields(pdu)
                fields.setdefault("src", src)
                self.trace.record(now, "drop", dst, reason="injected", **fields)
                continue
            # Keep this order of additions: floats do not associate, and
            # arrival times are reproducible to the bit.
            arrival = now + delays[dst]
            if serialisation:
                arrival += serialisation
            if jitter:
                arrival += self._jitter_rng.expovariate(1.0 / jitter)
            if delay_model is not None:
                arrival += delay_model.extra_delay(src, dst, pdu, self._delay_rng)
            if arrival < last[dst]:
                arrival = last[dst]  # clamp: links are FIFO in the MC model
            last[dst] = arrival
            schedule_at(arrival, arrive, src, dst, pdu)
        stats.copies_sent += len(dsts)
        stats.bytes_sent += len(dsts) * size
        stats.copies_dropped += dropped
        self._in_flight += len(dsts) - dropped

    def _arrive(self, src: int, dst: int, pdu: Any) -> None:
        self._in_flight -= 1
        sink = self._sinks.get(dst)
        if sink is None:
            raise RuntimeError(f"PDU arrived at unattached entity {dst}")
        self.stats.copies_delivered += 1
        sink(pdu)


def _pdu_trace_fields(pdu: Any) -> Dict[str, Any]:
    fields = {}
    for attr in ("src", "seq", "pdu_id"):
        value = getattr(pdu, attr, None)
        if value is not None:
            fields[attr] = value
    seqs = getattr(pdu, "seqs", None)
    if seqs is not None:
        # Batch frame: record the carried sequence numbers so the ordering
        # oracle can attribute one send event to every inner data PDU.
        fields["seqs"] = list(seqs)
    return fields
