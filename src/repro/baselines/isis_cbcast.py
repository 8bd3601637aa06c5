"""ISIS CBCAST: vector-clock causal broadcast (Birman–Schiper–Stephenson).

§1 of the paper positions the CO protocol against ISIS's CBCAST:

* CBCAST assumes a **reliable** transport ("every PDU is guaranteed to be
  delivered"); the CO protocol runs on the lossy MC service.
* CBCAST timestamps messages with **virtual (vector) clocks** that must be
  maintained and compared; the CO protocol gets causality from sequence
  numbers it needs anyway.
* §5: "PDU loss can be detected by using SEQ ... the PDU loss cannot be
  detected by the virtual clocks in ISIS."  A vector timestamp with a gap is
  indistinguishable from a timestamp whose predecessor is merely slow, so
  CBCAST on a lossy network silently *stalls* instead of recovering —
  the ``c5-vs-isis`` benchmark demonstrates exactly this.

The delivery rule (per BSS) for a message ``m`` from ``src`` at receiver
``i`` with delivered-clock ``VC_i``::

    m.vt[src] == VC_i[src] + 1           # next from that sender
    m.vt[k]   <= VC_i[k]   for k != src  # all of m's causal past delivered

Undeliverable messages wait in a delay queue that is re-scanned after every
delivery.  There is no acknowledgment phase: CBCAST delivers at receipt,
which is why its latency is ~``R`` where CO's acknowledged delivery is
~``2R`` + deferred windows (the price of atomicity — §5 / claim C2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.core.entity import DeliveredMessage, DeliverFn, SendFn
from repro.core.errors import ProtocolError
from repro.ordering.vector_clock import VectorClock
from repro.sim.trace import TraceLog

_INT_BYTES = 4


@dataclass(frozen=True)
class CbcastMessage:
    """A CBCAST message: source, vector timestamp, payload."""

    src: int
    vt: Tuple[int, ...]
    data: Any
    data_size: int = 0

    is_control = False

    @property
    def seq(self) -> int:
        """Per-source sequence number — the source's own timestamp entry."""
        return self.vt[self.src]

    @property
    def pdu_id(self) -> Tuple[int, int]:
        return (self.src, self.seq)

    def wire_size(self) -> int:
        # SRC + the full vector timestamp + payload.
        return (1 + len(self.vt)) * _INT_BYTES + self.data_size


class CbcastEntity:
    """One CBCAST process.  Speaks the sans-I/O host interface.

    ``clock``/``trace``/``advertised_buf`` mirror the CO engine's signature
    so :func:`repro.core.cluster.build_cluster` can build CBCAST clusters
    with an ``engine_factory``; ``advertised_buf`` is accepted and ignored
    (CBCAST has no flow control tied to buffers).
    """

    def __init__(
        self,
        index: int,
        n: int,
        config: Any = None,
        clock: Optional[Callable[[], float]] = None,
        trace: Optional[TraceLog] = None,
        advertised_buf: Optional[Callable[[], int]] = None,
    ):
        self.index = index
        self.n = n
        self._clock = clock or (lambda: 0.0)
        self._trace = trace if trace is not None else TraceLog(enabled=False)
        self.vc = VectorClock.zero(n)
        #: Messages whose causal past has not been delivered yet.
        self.delay_queue: List[CbcastMessage] = []
        self.sent = 0
        self.delivered_count = 0
        #: Vector-component comparisons performed (the "computation" §5
        #: claims CO avoids) — fodder for the c5 benchmark.
        self.comparisons = 0
        self._send_fn: Optional[SendFn] = None
        self._deliver_fn: Optional[DeliverFn] = None

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def bind(self, send: SendFn, deliver: DeliverFn) -> None:
        self._send_fn = send
        self._deliver_fn = deliver

    @property
    def now(self) -> float:
        return self._clock()

    def submit(self, data: Any, size: int = 0) -> None:
        """Broadcast: tick own clock, stamp, send, deliver to self."""
        if self._send_fn is None or self._deliver_fn is None:
            raise ProtocolError("engine used before bind()")
        self.vc = self.vc.tick(self.index)
        message = CbcastMessage(self.index, self.vc.as_tuple(), data, size)
        self.sent += 1
        self._trace.record(self.now, "submit", self.index, size=size)
        self._send_fn(message)
        # Own messages are causally deliverable immediately.
        self._deliver(message)

    def on_pdu(self, pdu: Any) -> None:
        if not isinstance(pdu, CbcastMessage):
            raise ProtocolError(f"CBCAST received {type(pdu).__name__}")
        if self._deliverable(pdu):
            self._deliver(pdu)
            self._drain_delay_queue()
        else:
            self.delay_queue.append(pdu)

    def on_tick(self) -> None:
        """CBCAST has no timers: the reliable network needs no recovery."""

    # ------------------------------------------------------------------
    # Delivery rule
    # ------------------------------------------------------------------
    def _deliverable(self, m: CbcastMessage) -> bool:
        src = m.src
        self.comparisons += self.n
        if m.vt[src] != self.vc[src] + 1:
            return False
        return all(
            m.vt[k] <= self.vc[k]
            for k in range(self.n)
            if k != src
        )

    def _deliver(self, m: CbcastMessage) -> None:
        if m.src == self.index:
            # vc already reflects the send tick.
            merged = self.vc
        else:
            merged = self.vc.merge(VectorClock(m.vt))
        self.vc = merged
        self.delivered_count += 1
        # "accept" feeds the causal-order checker; for CBCAST acceptance
        # and delivery coincide.
        self._trace.record(self.now, "accept", self.index, src=m.src, seq=m.seq, null=False)
        self._trace.record(self.now, "deliver", self.index, src=m.src, seq=m.seq)
        self._deliver_fn(
            DeliveredMessage(data=m.data, src=m.src, seq=m.seq, delivered_at=self.now)
        )

    def _drain_delay_queue(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for i, m in enumerate(self.delay_queue):
                if self._deliverable(m):
                    del self.delay_queue[i]
                    self._deliver(m)
                    progressed = True
                    break

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def quiescent(self) -> bool:
        """CBCAST is quiescent when nothing is stuck in the delay queue.

        On a lossy network this can be permanently ``False`` — which is the
        §5 point about undetectable loss.
        """
        return not self.delay_queue

    @property
    def stalled_messages(self) -> int:
        """Messages waiting on causal predecessors that may never arrive."""
        return len(self.delay_queue)
