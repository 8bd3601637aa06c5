"""Asyncio runtime: the CO protocol outside the simulator, over UDP.

The protocol engine is sans-I/O, so nothing ties it to the discrete-event
kernel.  This package hosts the same :class:`~repro.core.entity.COEntity`
on ``asyncio`` with real wall-clock timers and real UDP sockets, PDUs
encoded with :mod:`repro.core.codec`.  Each member's receive path is the
paper's bounded §2.1 buffer and its advertised ``BUF`` is that buffer's
real headroom, so the §4.2 flow window engages exactly as the paper
describes.

* :class:`~repro.runtime.udp.UdpTransport` — one member's endpoint: a
  non-blocking socket on ``loop.add_reader``, burst-drained into the
  bounded inbox and run through the engine to completion;
* :class:`~repro.runtime.host.AsyncEntityHost` — the engine over that
  endpoint: ``on_pdu`` as the plain-callable sink, a ``loop.call_at`` tick
  on absolute deadlines, the delivery stream (no task, no coroutine per
  PDU);
* :class:`~repro.runtime.udp.UdpMember` — one complete member, and
  :func:`~repro.runtime.udp.udp_cluster` — a loopback group in one call.

Wall-clock runs have no natural end, so members record into a bounded
:class:`~repro.sim.trace.FlightRecorder` unless handed an explicit
``TraceLog()``.  The ring keeps faults and decisions (drops, gaps, RETs,
suspicions, view changes, gauges), not the per-PDU happy path, so its
memory stays a fixed cost; the causal-order checker needs the complete
``TraceLog()``.

Determinism note: asyncio scheduling is *not* deterministic, which is
exactly why the evaluation lives on the simulator.  The runtime's tests
assert outcomes (everything delivered, causally ordered), never timings.
"""

from repro.runtime.host import AsyncEntityHost
from repro.runtime.udp import UdpMember, UdpTransport, udp_cluster

__all__ = [
    "AsyncEntityHost",
    "UdpMember",
    "UdpTransport",
    "udp_cluster",
]
