"""In-process asyncio transport with MC-service semantics.

Each (src, dst) pair is one FIFO ``asyncio.Queue`` — per-source order is
preserved (the MC guarantee) while cross-pair interleaving is whatever the
event loop does.  Optional uniform loss and delay make the real-clock runs
exercise the recovery machinery too.

A production deployment would replace this class with a UDP/multicast
transport speaking :mod:`repro.core.codec`; the host layer only needs
``attach`` and ``broadcast``.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Callable, Dict, List

#: A member's receive path: a plain callable the transport invokes with one
#: decoded PDU, which runs the engine to completion before it returns.
Sink = Callable[[Any], None]


class LocalAsyncTransport:
    """Loopback transport for ``n`` members on one event loop."""

    def __init__(
        self,
        n: int,
        loss_rate: float = 0.0,
        delay: float = 0.0,
        seed: int = 0,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.n = n
        self.loss_rate = loss_rate
        self.delay = delay
        self._rng = random.Random(seed)
        self._queues: Dict[int, "asyncio.Queue[Any]"] = {}
        self._pumps: List["asyncio.Task"] = []
        self._sinks: Dict[int, Sink] = {}
        self.copies_sent = 0
        self.copies_dropped = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, index: int, sink: Sink) -> None:
        """Register member ``index``'s receive path."""
        if index in self._sinks:
            raise ValueError(f"member {index} already attached")
        self._sinks[index] = sink

    async def start(self) -> None:
        """Create queues and pump tasks (call from a running loop)."""
        for index in range(self.n):
            if index not in self._sinks:
                raise RuntimeError(f"member {index} not attached")
            queue: "asyncio.Queue[Any]" = asyncio.Queue()
            self._queues[index] = queue
            self._pumps.append(asyncio.ensure_future(self._pump(index, queue)))

    async def stop(self) -> None:
        for task in self._pumps:
            task.cancel()
        await asyncio.gather(*self._pumps, return_exceptions=True)
        self._pumps.clear()

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def broadcast(self, src: int, pdu: Any) -> None:
        """Fan out one PDU (synchronous, as the engine expects)."""
        for dst in range(self.n):
            if dst == src:
                continue
            self._offer(dst, pdu)

    def unicast(self, src: int, dst: int, pdu: Any) -> None:
        """Send one PDU to a single member (dissemination topologies)."""
        if dst == src:
            raise ValueError("unicast to self is not modelled")
        if not 0 <= dst < self.n:
            raise ValueError(f"unicast destination {dst} outside cluster of {self.n}")
        self._offer(dst, pdu)

    def _offer(self, dst: int, pdu: Any) -> None:
        self.copies_sent += 1
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self.copies_dropped += 1
            return
        self._queues[dst].put_nowait(pdu)

    async def _pump(self, index: int, queue: "asyncio.Queue[Any]") -> None:
        sink = self._sinks[index]
        while True:
            pdu = await queue.get()
            if self.delay:
                await asyncio.sleep(self.delay)
            sink(pdu)

    @property
    def idle(self) -> bool:
        """True when no copies are waiting in any queue."""
        return all(q.empty() for q in self._queues.values())
