"""Asyncio runtime: the CO protocol outside the simulator.

The protocol engine is sans-I/O, so nothing ties it to the discrete-event
kernel.  This package hosts the same :class:`~repro.core.entity.COEntity`
on ``asyncio``, with real wall-clock timers and an in-process transport
(per-pair FIFO queues with optional delay and loss — the MC service again,
just on a real clock).  It is both a demonstration that the engine is
deployable and the integration seam for a UDP/multicast transport.

* :class:`~repro.runtime.transport.LocalAsyncTransport` — queues + loss;
* :class:`~repro.runtime.host.AsyncEntityHost` — one member: the engine's
  ``on_pdu`` as the transport's plain-callable sink, a ``loop.call_at``
  tick on absolute deadlines, the delivery stream (no task, no coroutine
  per PDU);
* :class:`~repro.runtime.host.AsyncCluster` — build/start/stop the group;
* :mod:`repro.runtime.udp` — the same stack over real UDP sockets, PDUs
  encoded with :mod:`repro.core.codec`: a non-blocking socket on
  ``loop.add_reader``, burst-drained into the bounded §2.1 inbox and run
  through the engine to completion (``udp_cluster`` assembles a loopback
  group in one call).

Wall-clock runs have no natural end, so every runtime here records into a
bounded :class:`~repro.sim.trace.FlightRecorder` unless handed an explicit
``TraceLog()`` (which the happened-before oracle needs for long runs).

Determinism note: asyncio scheduling is *not* deterministic, which is
exactly why the evaluation lives on the simulator.  The runtime's tests
assert outcomes (everything delivered, causally ordered), never timings.
"""

from repro.runtime.host import AsyncCluster, AsyncEntityHost
from repro.runtime.transport import LocalAsyncTransport
from repro.runtime.udp import UdpMember, UdpTransport, udp_cluster

__all__ = [
    "AsyncCluster",
    "AsyncEntityHost",
    "LocalAsyncTransport",
    "UdpMember",
    "UdpTransport",
    "udp_cluster",
]
