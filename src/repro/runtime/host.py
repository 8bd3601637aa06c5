"""Asyncio hosts for the sans-I/O CO engine.

One :class:`AsyncEntityHost` owns an engine, hands its ``on_pdu`` to the
transport as the plain-callable sink, drives the housekeeping tick from
absolute ``loop.call_at`` deadlines, and exposes the delivery stream.  It
owns no task and no coroutine: every entry into the engine is one
synchronous call.  :class:`AsyncCluster` assembles a whole group on one
event loop.

Everything protocol-visible still happens inside the engine — the host is
pure plumbing, mirroring :class:`repro.core.cluster.EntityHost` for the
simulator.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import ProtocolConfig
from repro.core.entity import COEntity, DeliveredMessage
from repro.runtime.transport import LocalAsyncTransport
from repro.sim.trace import FlightRecorder, TraceLog


#: What the wall-clock runtimes (:class:`AsyncCluster`,
#: :class:`~repro.runtime.udp.UdpMember`) run when handed no config.  They
#: tick faster than the LAN-simulation defaults so recovery reacts within
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
    """One live member of an asyncio cluster."""

    def __init__(
        self,
        index: int,
        n: int,
        config: ProtocolConfig,
        transport: LocalAsyncTransport,
        trace: TraceLog,
        clock: Callable[[], float],
        advertised_buf: Optional[Callable[[], int]] = None,
        gauge_every: int = 8,
    ):
        self.index = index
        self.transport = transport
        self.trace = trace
        self._clock = clock
        self.engine = COEntity(
            index, n, config, clock=clock, trace=trace,
            advertised_buf=advertised_buf,
        )
        # Offer the unicast path only when the transport has one — the
        # engine falls back to flooding otherwise.
        unicast = (
            self._unicast if callable(getattr(transport, "unicast", None))
            else None
        )
        self.engine.bind(
            send=self._send, deliver=self._on_deliver, unicast=unicast,
        )
        self.delivered: List[DeliveredMessage] = []
        self._delivery_listeners: List[Callable[[DeliveredMessage], None]] = []
        self._tick_handle: Optional[asyncio.TimerHandle] = None
        self._tick_due = 0.0
        self._tick_interval = config.tick_interval
        self.gauge_every = gauge_every
        self._ticks = 0
        transport.attach(index, self.engine.on_pdu)

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
        if self.gauge_every and self._ticks % self.gauge_every == 0:
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
        """Record the engine's live occupancy gauges as a ``gauge`` trace
        record (plus inbox occupancy when the transport has a per-member
        receive buffer, as :class:`~repro.runtime.udp.UdpTransport` does).
        """
        sample = dict(self.engine.gauges())
        inbox = getattr(self.transport, "inbox", None)
        if inbox is not None:
            sample["buf_used"] = inbox.used_units
            sample["buf_free"] = inbox.free_units
        self.trace.record(self._clock(), "gauge", self.index, **sample)

    def counters(self) -> Dict[str, Dict[str, Any]]:
        """The unified counters dict every runtime exports.

        Same schema as the simulator's ``EntityHost.counters()``:
        ``{"engine": ..., "buffer": ..., "transport": ...}`` (see
        docs/PROTOCOL.md §13).
        """
        inbox = getattr(self.transport, "inbox", None)
        transport_counters = getattr(self.transport, "counters", None)
        return {
            "engine": self.engine.counters.snapshot(),
            "buffer": inbox.stats.snapshot() if inbox is not None else {},
            "transport": transport_counters() if callable(transport_counters) else {},
        }

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


class AsyncCluster:
    """A CO cluster on a real event loop.

    >>> async def demo():
    ...     cluster = AsyncCluster(n=3, loss_rate=0.05, seed=1)
    ...     await cluster.start()
    ...     cluster.broadcast(0, "hello")
    ...     await cluster.quiesce()
    ...     await cluster.stop()
    ...     return [m.data for m in cluster.delivered(2)]
    >>> asyncio.run(demo())
    ['hello']
    """

    def __init__(
        self,
        n: int,
        config: Optional[ProtocolConfig] = None,
        loss_rate: float = 0.0,
        delay: float = 0.0,
        seed: int = 0,
        trace: Optional[TraceLog] = None,
        gauge_every: int = 8,
    ):
        if n < 2:
            raise ValueError(f"a cluster needs at least 2 members, got {n}")
        self.config = config or DEFAULT_RUNTIME_CONFIG
        # Bounded by default, like every wall-clock runtime: pass
        # ``TraceLog()`` for a complete log (see UdpMember).
        self.trace = trace if trace is not None else FlightRecorder()
        self.transport = LocalAsyncTransport(
            n, loss_rate=loss_rate, delay=delay, seed=seed,
        )
        self._clock = lazy_loop_clock()
        self.hosts = [
            AsyncEntityHost(
                i, n, self.config, self.transport, self.trace,
                clock=self._clock, gauge_every=gauge_every,
            )
            for i in range(n)
        ]

    @property
    def n(self) -> int:
        return len(self.hosts)

    @property
    def engines(self) -> List[COEntity]:
        return [host.engine for host in self.hosts]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.transport.start()
        for host in self.hosts:
            host.start()

    async def stop(self) -> None:
        for host in self.hosts:
            host.stop()
        await self.transport.stop()

    # ------------------------------------------------------------------
    # Use
    # ------------------------------------------------------------------
    def broadcast(self, member: int, data: Any, size: int = 0) -> None:
        self.hosts[member].submit(data, size)

    def delivered(self, member: int) -> List[DeliveredMessage]:
        return list(self.hosts[member].delivered)

    def counters(self) -> List[Dict[str, Dict[str, Any]]]:
        """Per-member unified counters dicts (docs/PROTOCOL.md §13)."""
        return [host.counters() for host in self.hosts]

    async def quiesce(self, timeout: float = 10.0, settle: float = 0.02) -> None:
        """Wait until every engine drains and the transport empties.

        Raises ``asyncio.TimeoutError`` if that takes longer than
        ``timeout`` wall-clock seconds.
        """

        async def wait() -> None:
            streak = 0
            while True:
                quiet = self.transport.idle and all(
                    engine.quiescent for engine in self.engines
                )
                if quiet:
                    streak += 1
                    if streak >= 2:
                        return
                else:
                    streak = 0
                await asyncio.sleep(settle)

        await asyncio.wait_for(wait(), timeout=timeout)
