"""The asyncio host for the sans-I/O CO engine.

One :class:`AsyncEntityHost` owns an engine, hands its ``on_pdu`` to its
:class:`~repro.runtime.udp.UdpTransport` as the plain-callable sink,
advertises that endpoint's inbox headroom as ``BUF``, drives the
housekeeping tick from absolute ``loop.call_at`` deadlines, and exposes
the delivery stream.  It owns no task and no coroutine: every entry into
the engine is one synchronous call.

Everything protocol-visible still happens inside the engine — the host is
pure plumbing, mirroring :class:`repro.core.cluster.EntityHost` for the
simulator.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.core.cluster import GAUGE_EVERY
from repro.core.config import ProtocolConfig
from repro.core.entity import COEntity, DeliveredMessage
from repro.sim.trace import TraceLog

if TYPE_CHECKING:
    from repro.runtime.udp import UdpTransport


#: What the wall-clock runtime (:class:`~repro.runtime.udp.UdpMember`,
#: :func:`~repro.runtime.udp.udp_cluster`) runs when handed no config.  It
#: ticks faster than the LAN-simulation defaults so recovery reacts within
#: human-scale test budgets, and a pump's output shares one frame of up to
#: 8 PDUs — the default ``window``, the most one pump can release.
DEFAULT_RUNTIME_CONFIG = ProtocolConfig(
    tick_interval=2e-3, deferred_interval=4e-3, ret_timeout=10e-3,
    batch_max_pdus=8,
)


def lazy_loop_clock() -> Callable[[], float]:
    """A monotonic clock that binds to the running loop's clock on first
    in-loop call.

    Hosts are constructed *before* ``asyncio.run`` starts the loop, so the
    old ``lambda: 0.0`` placeholder stamped every engine's liveness state
    (``_last_heard``, last-send time) at t=0 — the first real tick then saw
    hours of apparent silence and suspected every peer at once.  This clock
    returns ``time.monotonic()`` until a loop is running (the same epoch as
    the default loop's clock), then pins ``loop.time`` permanently.
    """
    pinned: List[Callable[[], float]] = []

    def clock() -> float:
        if not pinned:
            try:
                pinned.append(asyncio.get_running_loop().time)
            except RuntimeError:
                return time.monotonic()
        return pinned[0]()

    return clock


class AsyncEntityHost:
    """One live member on an event loop, over its UDP endpoint."""

    def __init__(
        self,
        config: ProtocolConfig,
        transport: "UdpTransport",
        trace: TraceLog,
    ):
        self.index = index = transport.index
        self.transport = transport
        self.trace = trace
        # The engine stamps its liveness state at construction, before any
        # loop runs: see lazy_loop_clock.
        self._clock = clock = lazy_loop_clock()
        inbox = transport.inbox
        self.engine = COEntity(
            index, len(transport.addresses), config, clock=clock, trace=trace,
            # The real §4.2 BUF advertisement: peers size their flow
            # windows from this member's actual inbox headroom.
            advertised_buf=lambda: inbox.free_units,
        )
        self.engine.bind(
            send=self._send, deliver=self._on_deliver, unicast=self._unicast,
        )
        self.delivered: List[DeliveredMessage] = []
        self._delivery_listeners: List[Callable[[DeliveredMessage], None]] = []
        self._tick_handle: Optional[asyncio.TimerHandle] = None
        self._tick_due = 0.0
        self._tick_interval = config.tick_interval
        self._ticks = 0
        transport.attach(self.engine.on_pdu)
        transport.on_drop = self._record_drop

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._tick_due = loop.time() + self._tick_interval
        self._tick_handle = loop.call_at(self._tick_due, self._on_tick, loop)

    def stop(self) -> None:
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None

    def _on_tick(self, loop: asyncio.AbstractEventLoop) -> None:
        self.engine.on_tick()
        self._ticks += 1
        if self._ticks % GAUGE_EVERY == 0:
            self.sample_gauges()
        # Absolute deadlines: a tick that ran late does not push the later
        # ones back (sleeping ``interval`` after each tick adds the tick's
        # lateness to the period, and under load costs a whole extra loop
        # iteration per tick).  A host that fell more than a period behind
        # ticks again at once but replays nothing further — the engine's
        # timers read the clock, not a tick count.
        self._tick_due = max(self._tick_due + self._tick_interval, loop.time())
        self._tick_handle = loop.call_at(self._tick_due, self._on_tick, loop)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def sample_gauges(self) -> None:
        """Record the engine's live occupancy gauges plus the inbox's
        occupancy as a ``gauge`` trace record."""
        inbox = self.transport.inbox
        self.trace.record(
            self._clock(), "gauge", self.index, **self.engine.gauges(),
            buf_used=inbox.used_units, buf_free=inbox.free_units,
        )

    def counters(self) -> Dict[str, Dict[str, Any]]:
        """The unified counters dict every runtime exports.

        Same schema as the simulator's ``EntityHost.counters()``:
        ``{"engine": ..., "buffer": ..., "transport": ...}`` (see
        docs/PROTOCOL.md §13).
        """
        return {
            "engine": self.engine.counters.snapshot(),
            "buffer": self.transport.inbox.stats.snapshot(),
            "transport": self.transport.counters(),
        }

    def _record_drop(self, reason: str, **details: Any) -> None:
        self.trace.record(self._clock(), "drop", self.index,
                          reason=reason, **details)

    # ------------------------------------------------------------------
    # Application side
    # ------------------------------------------------------------------
    def submit(self, data: Any, size: int = 0) -> None:
        self.engine.submit(data, size)

    def add_delivery_listener(self, listener: Callable[[DeliveredMessage], None]) -> None:
        self._delivery_listeners.append(listener)

    def _on_deliver(self, message: DeliveredMessage) -> None:
        self.delivered.append(message)
        for listener in self._delivery_listeners:
            listener(message)

    # ------------------------------------------------------------------
    # Network side
    # ------------------------------------------------------------------
    def _send(self, pdu: Any) -> None:
        self.transport.broadcast(self.index, pdu)

    def _unicast(self, dst: int, pdu: Any) -> None:
        self.transport.unicast(self.index, dst, pdu)
