"""UDP transport: the CO protocol over real sockets.

Each member binds one UDP socket; "broadcast" is n-1 unicasts to the other
members' addresses (the paper's Ethernet would do this in one frame — UDP
multicast could too, but unicast fan-out works everywhere, including the
loopback tests).  PDUs travel as :mod:`repro.core.codec` bytes, so
application payloads must be ``bytes``/``str``.

UDP gives exactly the MC failure model for free: datagrams can be dropped
(full socket buffers) and the protocol's own sequence numbers detect and
repair it.  An extra ``loss_rate`` can inject drops for testing.

The datagram path runs to completion.  The socket is non-blocking and
registered with ``loop.add_reader``; one readable callback moves a bounded
burst of datagrams (:data:`RECV_BURST`) into the inbox, then pops, decodes
and hands each to the engine synchronously until the inbox is empty — no
event, no dispatch task, no coroutine per PDU.  That drain is one engine
*turn*: each PDU runs only its intake, and the engine speaks once, after
the burst's last PDU.  A member therefore folds everything its peers sent
since its last turn before it speaks, so its confirmations ride on its
next data PDU instead of going out as one heartbeat per datagram.  Sends
are direct ``sendto`` calls; a full kernel send buffer
(``EAGAIN``/``ENOBUFS``) is one more dropped datagram, never an exception
inside the engine.

The inbox between the socket and the engine is a bounded
:class:`~repro.net.buffers.ReceiveBuffer` — the paper's §2.1 receive
buffer, not an unbounded queue.  A datagram arriving when the inbox is
full is a counted overrun (``buffer_overruns``); the engine's gap
detection and RET selective retransmission repair it, and because the
member advertises the inbox's free units in every PDU's ``BUF`` field,
peers' flow windows (§4.2) throttle before the next one.

Usage::

    member = UdpMember(0, peers=["127.0.0.1:9001", "127.0.0.1:9002", ...])
    await member.start()
    # or use udp_cluster() to assemble a loopback group in one call.
"""

from __future__ import annotations

import asyncio
import errno
import random
import socket
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.codec import (
    datagram_pdu_count, decode_pdu_safe, encode_pdu_view, split_batch,
)
from repro.core.pdu import BatchPdu
from repro.core.config import ProtocolConfig
from repro.core.entity import COEntity, DeliveredMessage
from repro.net.buffers import ReceiveBuffer
from repro.net.network import Sink
from repro.runtime.host import DEFAULT_RUNTIME_CONFIG, AsyncEntityHost
from repro.sim.trace import FlightRecorder, TraceLog

Address = Tuple[str, int]

#: Datagrams one readable callback moves from the socket into the inbox
#: before it runs the engine over them.  Everything a callback admits is
#: processed before the loop gets control back, so this bounds one member's
#: turn: at the measured ~50 us per datagram (decode, ``on_pdu`` and the
#: sends it triggers) 32 datagrams is ~1.6 ms, under the 2 ms tick interval
#: of the wall-clock configs.  A drain is one engine turn, so the budget
#: is also how much one turn folds: goodput is flat from 32 to 48 and
#: falls at 16, where a turn ends before it has heard a round of its
#: peers (measurements in DESIGN.md §15).
RECV_BURST = 32

#: Larger than any UDP payload, so ``recv`` never truncates a datagram.
_MAX_DATAGRAM = 65536


class _DatagramInbox(ReceiveBuffer):
    """The §2.1 inbox of raw datagrams.  A batch frame occupies one PDU's
    worth of units per data PDU it carries, as a decoded frame does in the
    simulator's buffer — so the BUF this member advertises counts the data
    PDUs it has yet to read, not the datagrams they came in."""

    def _units(self, data: bytes) -> int:
        return self.units_per_pdu * datagram_pdu_count(data)


def _nothing() -> None:
    pass


def _parse(address: str) -> Address:
    host, _, port = address.rpartition(":")
    return (host or "127.0.0.1", int(port))


class UdpTransport:
    """One member's UDP endpoint.

    ``peers`` lists every member's ``host:port`` in cluster order; entry
    ``index`` is this member's own bind address.
    """

    def __init__(
        self,
        index: int,
        peers: Sequence[str],
        loss_rate: float = 0.0,
        seed: int = 0,
        inbox_capacity_units: int = 4096,
        units_per_pdu: int = 1,
        max_frame_bytes: int = 1400,
    ):
        if not 0 <= index < len(peers):
            raise ValueError(f"index {index} outside peer list of {len(peers)}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if max_frame_bytes <= 0:
            raise ValueError(f"max_frame_bytes must be positive, got {max_frame_bytes}")
        self.index = index
        self.addresses: List[Address] = [_parse(p) for p in peers]
        self.loss_rate = loss_rate
        #: MTU budget for one datagram: batch frames whose encoding would
        #: exceed it are split into several smaller frames, each a valid
        #: BatchPdu repeating the confirmation header (folding it twice is
        #: idempotent).  Non-batch PDUs are never split.
        self.max_frame_bytes = max_frame_bytes
        #: Batch frames split because they outgrew ``max_frame_bytes``.
        self.frames_split = 0
        self._rng = random.Random(seed)
        self._sink: Optional[Sink] = None
        self._end_turn: Callable[[], None] = _nothing
        self._sock: Optional[socket.socket] = None
        #: Bounded receive buffer between the socket and the engine — the
        #: §2.1 model made literal.  Frames arriving when it is full are
        #: overruns (counted in ``inbox.stats``), exactly the loss the
        #: protocol's RET machinery repairs.
        self.inbox = _DatagramInbox(
            capacity_units=inbox_capacity_units, units_per_pdu=units_per_pdu,
        )
        #: Called with a reason (and details) for every datagram dropped on
        #: the receive path — inbox overrun, undecodable (``corrupt``),
        #: engine rejection; the member wires this to a ``drop`` trace
        #: record.
        self.on_drop: Optional[Callable[..., None]] = None
        self.datagrams_sent = 0
        #: Datagrams counted as sent that never reached the wire: injected
        #: loss, the ones the kernel refused (``send_blocked``) and any sent
        #: while no socket is open (before :meth:`start`, after :meth:`stop`).
        self.datagrams_dropped = 0
        #: Datagrams the kernel refused because the socket's send buffer
        #: was full (``EAGAIN``/``ENOBUFS``) — sender-side overrun.
        self.send_blocked = 0
        self.decode_errors = 0
        #: Well-formed frames the engine raised on (see :meth:`on_readable`).
        self.sink_errors = 0
        #: Frames rejected by the codec, broken down by cause (the CRC
        #: trailer rejects corrupted datagrams before they reach the engine).
        self.codec_counters = {"codec_corrupt_frames": 0}
        self.errors = 0

    @property
    def buffer_overruns(self) -> int:
        """Datagrams dropped because the inbox was full."""
        return self.inbox.stats.overruns

    def counters(self) -> dict:
        """Medium-specific counters (the ``transport`` leg of the unified
        counters schema, docs/PROTOCOL.md §13)."""
        return {
            "datagrams_sent": self.datagrams_sent,
            "datagrams_dropped": self.datagrams_dropped,
            "send_blocked": self.send_blocked,
            "decode_errors": self.decode_errors,
            "sink_errors": self.sink_errors,
            "socket_errors": self.errors,
            "frames_split": self.frames_split,
            **self.codec_counters,
        }

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def attach(self, sink: Sink, end_turn: Callable[[], None] = _nothing) -> None:
        """Set this endpoint's receive path (once).  ``end_turn`` runs after
        every drain (see :meth:`on_readable`)."""
        if self._sink is not None:
            raise ValueError("already attached")
        self._sink = sink
        self._end_turn = end_turn

    def start(self) -> None:
        if self._sink is None:
            raise RuntimeError("attach a sink before starting")
        address = self.addresses[self.index]
        # The bind address picks the family, so an IPv6 peer list works.
        family = socket.getaddrinfo(*address, type=socket.SOCK_DGRAM)[0][0]
        sock = socket.socket(family, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            sock.bind(address)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        asyncio.get_running_loop().add_reader(sock, self.on_readable)

    def stop(self) -> None:
        """Unregister the reader, then close the socket (in that order: a
        closed descriptor cannot be removed from the selector).  Safe to
        call twice, or without a successful :meth:`start`."""
        sock, self._sock = self._sock, None
        if sock is not None:
            asyncio.get_running_loop().remove_reader(sock)
            sock.close()

    def broadcast(self, src: int, pdu: Any) -> None:
        """Encode once, unicast to every peer.

        Batch frames larger than ``max_frame_bytes`` go out as several
        datagrams (each a self-contained BatchPdu chunk); losing one chunk
        loses only its inner PDUs, repaired by the normal RET machinery.
        """
        if isinstance(pdu, BatchPdu):
            chunks = split_batch(pdu, self.max_frame_bytes)
            if len(chunks) > 1:
                self.frames_split += 1
        else:
            chunks = [pdu]
        for chunk in chunks:
            # Encode each chunk once into the codec's scratch buffer and
            # fan the view out to every peer — sendto copies the buffer
            # into the kernel synchronously, so the view never outlives
            # the scratch contents.
            payload = encode_pdu_view(chunk)
            for dst, address in enumerate(self.addresses):
                if dst != src:
                    self._sendto(payload, address)

    def unicast(self, src: int, dst: int, pdu: Any) -> None:
        """Encode and send one PDU to a single peer (probe answers,
        docs/PROTOCOL.md §7; dissemination topologies, §16).

        Relay wrappers are never split, so a relayed batch may exceed
        ``max_frame_bytes``; only :meth:`broadcast` splits a batch frame.
        """
        if dst == src:
            raise ValueError("unicast to self is not modelled")
        if not 0 <= dst < len(self.addresses):
            raise ValueError(
                f"unicast destination {dst} outside peer list of "
                f"{len(self.addresses)}"
            )
        self._sendto(encode_pdu_view(pdu), self.addresses[dst])

    def _sendto(self, payload: Any, address: Address) -> None:
        """Hand one datagram to the kernel; a datagram it will not take is
        lost like any other (the engine must never see a socket error)."""
        self.datagrams_sent += 1
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self.datagrams_dropped += 1
            return
        try:
            self._sock.sendto(payload, address)
        except OSError as exc:
            if isinstance(exc, BlockingIOError) or exc.errno == errno.ENOBUFS:
                self.send_blocked += 1
                self.datagrams_dropped += 1
            else:
                self.errors += 1
        except AttributeError:
            # No socket (``_sock`` is None): never started, or stopped.
            self.datagrams_dropped += 1

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_readable(self) -> None:
        """The socket is readable (or the host is about to tick): admit a
        bounded burst to the inbox, then run the engine over the inbox
        until it is empty — one turn.  The engine settles the turn inside
        the last PDU's sink call; when that datagram does not decode, the
        sink raises on it or it owes nothing itself, the ``end_turn``
        callback settles it instead."""
        sock = self._sock
        if sock is None:
            return  # never started, or stopped: a host tick reads nothing
        for _ in range(RECV_BURST):
            try:
                data = sock.recv(_MAX_DATAGRAM)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self.errors += 1
                break
            self._on_datagram(data)
        inbox = self.inbox
        try:
            while not inbox.empty:
                # The engine speaks from inside the sink, so the BUF it
                # advertises there is the inbox's occupancy mid-burst.
                pdu = decode_pdu_safe(inbox.pop(), self.codec_counters)
                if pdu is None:
                    self.decode_errors += 1
                    if self.on_drop is not None:
                        self.on_drop("corrupt")
                    continue
                try:
                    self._sink(pdu)
                except Exception as exc:
                    # Well-formed on the wire, refused by the engine (a
                    # source index or vector length that lies about the
                    # cluster): any host that can reach the port is a peer,
                    # and one such frame must not strand the rest of the
                    # burst in the inbox.
                    self.sink_errors += 1
                    if self.on_drop is not None:
                        self.on_drop("sink-error", error=repr(exc))
        finally:
            self._end_turn()

    def _on_datagram(self, data: bytes) -> None:
        if not self.inbox.offer(data):
            # Buffer overrun: the datagram is gone, exactly as in §2.1.
            # The sender's sequence numbers make the loss detectable and
            # the RET path repairs it.
            if self.on_drop is not None:
                self.on_drop("inbox-overrun")


class UdpMember:
    """One complete member: engine + host + UDP endpoint."""

    def __init__(
        self,
        index: int,
        peers: Sequence[str],
        config: Optional[ProtocolConfig] = None,
        loss_rate: float = 0.0,
        seed: int = 0,
        trace: Optional[TraceLog] = None,
        inbox_capacity_units: int = 4096,
        max_frame_bytes: int = 1400,
    ):
        self.config = config or DEFAULT_RUNTIME_CONFIG
        self.index = index
        # A wall-clock run has no natural end, so the default trace is the
        # bounded recorder, which keeps faults and decisions only; pass
        # ``TraceLog()`` to keep every record (the causal-order checker
        # needs the complete log).
        self.trace = trace if trace is not None else FlightRecorder()
        self.transport = UdpTransport(
            index, peers, loss_rate=loss_rate, seed=seed + index,
            inbox_capacity_units=inbox_capacity_units,
            units_per_pdu=self.config.units_per_pdu,
            max_frame_bytes=max_frame_bytes,
        )
        self.host = AsyncEntityHost(self.config, self.transport, self.trace)

    @property
    def engine(self) -> COEntity:
        return self.host.engine

    @property
    def delivered(self) -> List[DeliveredMessage]:
        return self.host.delivered

    @property
    def buffer_overruns(self) -> int:
        return self.transport.buffer_overruns

    def counters(self) -> dict:
        """The unified counters dict (docs/PROTOCOL.md §13)."""
        return self.host.counters()

    async def start(self) -> None:
        self.transport.start()
        self.host.start()

    async def stop(self) -> None:
        self.host.stop()
        self.transport.stop()

    def broadcast(self, data: Any, size: int = 0) -> None:
        self.host.submit(data, size)


async def udp_cluster(
    n: int,
    base_port: int = 19870,
    config: Optional[ProtocolConfig] = None,
    loss_rate: float = 0.0,
    seed: int = 0,
    inbox_capacity_units: int = 4096,
    max_frame_bytes: int = 1400,
    trace: Optional[TraceLog] = None,
) -> List[UdpMember]:
    """Assemble and start a loopback UDP cluster.

    All members log into one shared ``trace``.  By default that is a
    bounded :class:`~repro.sim.trace.FlightRecorder`, which keeps faults
    and decisions but no per-PDU records; pass ``trace=TraceLog()`` to
    keep every record, as the causal-order checker needs.
    """
    peers = [f"127.0.0.1:{base_port + i}" for i in range(n)]
    trace = trace if trace is not None else FlightRecorder()
    members = [
        UdpMember(i, peers, config=config, loss_rate=loss_rate, seed=seed,
                  trace=trace,
                  inbox_capacity_units=inbox_capacity_units,
                  max_frame_bytes=max_frame_bytes)
        for i in range(n)
    ]
    try:
        for member in members:
            await member.start()
    except BaseException:
        # A later member's bind failed: the earlier ones hold sockets and
        # tick timers nobody else has a handle to (stop() is a no-op on
        # the members that never started).
        for member in members:
            await member.stop()
        raise
    return members
