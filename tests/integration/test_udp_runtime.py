"""Integration tests: the CO protocol over real UDP sockets on loopback.

These exercise the full stack — engine, codec, datagram sockets — with
wall-clock timers.  Assertions are about outcomes only; each test uses its
own port range so parallel pytest workers cannot collide.
"""

import asyncio
import errno
import socket
import time
from collections import Counter

import pytest

from repro.analysis.recording import inspect_path
from repro.core.codec import decode_pdu, encode_pdu
from repro.core.config import DisseminationMode, ProtocolConfig
from repro.core.pdu import DataPdu, HeartbeatPdu
from repro.ordering.checker import verify_run
from repro.runtime.host import lazy_loop_clock
from repro.runtime.udp import RECV_BURST, UdpMember, UdpTransport, udp_cluster
from repro.sim.trace import PER_PDU_CATEGORIES, FlightRecorder, TraceLog


def run(coroutine):
    return asyncio.run(coroutine)


async def quiesce(members, timeout=20.0):
    async def wait():
        streak = 0
        while True:
            quiet = all(m.engine.quiescent for m in members)
            if quiet:
                streak += 1
                if streak >= 2:
                    return
            else:
                streak = 0
            await asyncio.sleep(0.02)

    await asyncio.wait_for(wait(), timeout=timeout)


async def stop_all(members):
    for member in members:
        await member.stop()


class TestUdpCluster:
    def test_broadcast_over_real_sockets(self):
        async def scenario():
            members = await udp_cluster(3, base_port=19900, seed=1)
            try:
                members[0].broadcast(b"over the wire")
                await quiesce(members)
            finally:
                await stop_all(members)
            return members

        members = run(scenario())
        for member in members:
            payloads = [m.data for m in member.delivered]
            assert payloads == [b"over the wire"]

    def test_concurrent_senders(self):
        async def scenario():
            members = await udp_cluster(3, base_port=19910, seed=2, trace=TraceLog())
            try:
                for k in range(6):
                    members[k % 3].broadcast(f"m{k}".encode())
                await quiesce(members)
            finally:
                await stop_all(members)
            return members

        members = run(scenario())
        for member in members:
            assert len(member.delivered) == 6
        verify_run(members[0].trace, 3).assert_ok()

    def test_injected_datagram_loss_recovered(self):
        async def scenario():
            members = await udp_cluster(
                3, base_port=19920, seed=3, loss_rate=0.15, trace=TraceLog(),
            )
            try:
                for k in range(8):
                    members[k % 3].broadcast(f"x{k}".encode())
                await quiesce(members, timeout=30.0)
            finally:
                await stop_all(members)
            return members

        members = run(scenario())
        dropped = sum(m.transport.datagrams_dropped for m in members)
        assert dropped > 0
        for member in members:
            assert len(member.delivered) == 8
        verify_run(members[0].trace, 3).assert_ok()

    def test_causal_order_over_udp(self):
        async def scenario():
            members = await udp_cluster(3, base_port=19930, seed=4)
            try:
                members[0].broadcast(b"cause")
                await quiesce(members)
                members[1].broadcast(b"effect")
                await quiesce(members)
            finally:
                await stop_all(members)
            return members

        members = run(scenario())
        for member in members:
            payloads = [m.data for m in member.delivered]
            assert payloads.index(b"cause") < payloads.index(b"effect")

    def test_ring_dissemination_over_real_sockets(self):
        """The §16 ring over UDP: relay wrappers must survive the codec
        and the per-destination datagram path, and every member still
        delivers everything in causal order."""
        config = ProtocolConfig(
            tick_interval=2e-3, deferred_interval=4e-3, ret_timeout=10e-3,
            dissemination=DisseminationMode.RING,
        )
        async def scenario():
            members = await udp_cluster(3, base_port=19960, seed=6,
                                        config=config, trace=TraceLog())
            try:
                for k in range(6):
                    members[k % 3].broadcast(f"r{k}".encode())
                await quiesce(members)
            finally:
                await stop_all(members)
            return members

        members = run(scenario())
        for member in members:
            assert len(member.delivered) == 6
        verify_run(members[0].trace, 3).assert_ok()
        assert sum(m.engine.counters.relays_sent for m in members) == 6
        assert sum(m.engine.counters.relay_forwards for m in members) > 0

    def test_gossip_dissemination_over_real_sockets(self):
        """The §16 gossip relay over UDP: data travels as relay hops, and
        every member still delivers everything in causal order."""
        n, rounds = 4, 3
        config = ProtocolConfig(
            tick_interval=2e-3, deferred_interval=4e-3, ret_timeout=10e-3,
            dissemination=DisseminationMode.GOSSIP,
            gossip_fanout=2, gossip_seed=9, anti_entropy_interval=20e-3,
        )

        async def scenario():
            members = await udp_cluster(n, base_port=20110, seed=6,
                                        config=config, trace=TraceLog())
            try:
                for round_ in range(rounds):
                    for member in members:
                        member.broadcast(f"m{member.index}.{round_}".encode())
                await quiesce(members, timeout=30.0)
            finally:
                await stop_all(members)
            return members

        members = run(scenario())
        for member in members:
            assert len(member.delivered) == n * rounds
        verify_run(members[0].trace, n).assert_ok()
        # One first hop per broadcast.
        assert sum(m.engine.counters.relays_sent for m in members) == n * rounds

    def test_delivery_listener(self):
        async def scenario():
            members = await udp_cluster(2, base_port=20120, seed=5)
            seen = []
            members[1].host.add_delivery_listener(lambda m: seen.append(m.data))
            try:
                members[0].broadcast(b"ping")
                await quiesce(members)
            finally:
                await stop_all(members)
            return seen

        assert run(scenario()) == [b"ping"]

    def test_split_frame_raises_no_retransmission_request(self):
        """A frame split over several datagrams must not read as loss: an
        early chunk's header once named the seqs of the chunk behind it, and
        every receiver requested them the moment it read the first chunk."""
        n, burst = 4, 40
        config = ProtocolConfig(
            tick_interval=2e-3, deferred_interval=4e-3, ret_timeout=10e-3,
            batch_max_pdus=8,
        )

        async def scenario():
            members = await udp_cluster(n, base_port=20050, seed=7,
                                        config=config, trace=TraceLog())
            try:
                # Deeper than the window, so frames of up to eight 256 B
                # PDUs form — past the 1400 B datagram budget.
                for member in members:
                    for k in range(burst):
                        member.broadcast(
                            bytes([member.index, k]) + b"s" * 254)
                await quiesce(members)
            finally:
                await stop_all(members)
            return members

        members = run(scenario())
        assert sum(m.transport.frames_split for m in members) > 0
        for member in members:
            assert member.engine.counters.sent_rets == 0
            assert member.engine.counters.duplicates == 0
            for src in range(n):
                assert [m.data[1] for m in member.delivered
                        if m.data[0] == src] == list(range(burst))
        verify_run(members[0].trace, n, expect_all_delivered=True).assert_ok()

    def test_garbage_datagrams_ignored(self):
        async def scenario():
            members = await udp_cluster(2, base_port=19940, seed=5)
            try:
                # Fire junk at member 1's socket.
                loop = asyncio.get_event_loop()
                junk_transport, _ = await loop.create_datagram_endpoint(
                    asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0),
                )
                junk_transport.sendto(b"\xff\x00garbage", ("127.0.0.1", 19941))
                junk_transport.sendto(b"", ("127.0.0.1", 19941))
                members[0].broadcast(b"real")
                await quiesce(members)
                junk_transport.close()
            finally:
                await stop_all(members)
            return members

        members = run(scenario())
        assert members[1].transport.decode_errors >= 1
        assert [m.data for m in members[1].delivered] == [b"real"]

    @pytest.mark.parametrize("src, width, port", [
        pytest.param(7, 2, 20060, id="src-outside-cluster"),
        pytest.param(0, 5, 19964, id="vectors-longer-than-n"),
    ])
    def test_frame_the_engine_raises_on_does_not_strand_the_burst(
            self, src, width, port):
        """A well-formed frame that makes ``on_pdu`` raise is counted and
        traced as a drop; the good frame queued behind it in the same burst
        is still read and delivered."""
        async def scenario():
            members = await udp_cluster(2, base_port=port, seed=5)
            try:
                hostile = HeartbeatPdu(
                    cid=members[1].config.cluster_id, src=src,
                    ack=(1,) * width, pack=(1,) * width, buf=64,
                )
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as raw:
                    raw.sendto(encode_pdu(hostile), ("127.0.0.1", port + 1))
                # No await in between: both datagrams are on member 1's
                # socket before its readable callback runs.
                members[0].broadcast(b"real")
                await quiesce(members)
            finally:
                await stop_all(members)
            return members

        members = run(scenario())
        victim = members[1]
        assert victim.transport.sink_errors == 1
        assert victim.counters()["transport"]["sink_errors"] == 1
        assert victim.transport.decode_errors == 0
        drops = victim.trace.select("drop", entity=1)
        assert [r.get("reason") for r in drops] == ["sink-error"]
        assert "IndexError" in drops[0].get("error")
        assert [m.data for m in victim.delivered] == [b"real"]
        assert len(victim.transport.inbox) == 0

    @pytest.mark.parametrize("last, reason, port", [
        pytest.param("raises", "sink-error", 20220, id="engine-raises"),
        pytest.param("undecodable", "corrupt", 20224, id="undecodable"),
    ])
    def test_a_burst_whose_last_datagram_fails_still_settles(
            self, last, reason, port):
        """The burst's speaking steps run in its last ``on_pdu``; when that
        datagram raises or does not decode, the drain's close runs them.
        Member 1's host never ticks here, so its confirmation and delivery
        can only come from the drain itself."""
        async def scenario():
            member = UdpMember(1, [f"127.0.0.1:{port}", f"127.0.0.1:{port + 1}"],
                               trace=TraceLog())
            cid = member.config.cluster_id
            bad = (encode_pdu(HeartbeatPdu(cid=cid, src=7, ack=(1, 1),
                                           pack=(1, 1), buf=64))
                   if last == "raises" else b"\xff\x00garbage")
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as peer:
                peer.bind(("127.0.0.1", port))
                peer.setblocking(False)
                member.transport.start()
                try:
                    victim = ("127.0.0.1", port + 1)
                    for frame in (
                        encode_pdu(DataPdu(cid=cid, src=0, seq=1, ack=(1, 1),
                                           buf=64, data=b"real")),
                        encode_pdu(HeartbeatPdu(cid=cid, src=0, ack=(2, 1),
                                                pack=(2, 1), buf=64)),
                        bad,
                    ):
                        peer.sendto(frame, victim)
                    deadline = time.monotonic() + 5.0
                    while True:
                        try:
                            heard = decode_pdu(peer.recv(65536))
                            break
                        except BlockingIOError:
                            assert time.monotonic() < deadline, "no confirmation"
                            await asyncio.sleep(0.01)
                finally:
                    member.transport.stop()
            return member, heard

        member, heard = run(scenario())
        assert [m.data for m in member.delivered] == [b"real"]
        assert isinstance(heard, HeartbeatPdu)
        assert (heard.ack, heard.pack) == ((2, 1), (2, 1))   # post-scan
        assert member.engine.counters.sent_heartbeats == 1
        assert [r.get("reason") for r in member.trace.select("drop")] == [reason]
        assert not member.engine._owed

    def test_a_corrupted_datagram_is_traced_as_a_drop(self):
        async def scenario():
            members = await udp_cluster(2, base_port=20228, seed=5)
            try:
                frame = bytearray(encode_pdu(HeartbeatPdu(
                    cid=members[1].config.cluster_id, src=0,
                    ack=(1, 1), pack=(1, 1), buf=64,
                )))
                frame[-1] ^= 0xFF   # the CRC trailer no longer matches
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as raw:
                    raw.sendto(bytes(frame), ("127.0.0.1", 20229))
                deadline = time.monotonic() + 5.0
                while (not members[1].transport.decode_errors
                       and time.monotonic() < deadline):
                    await asyncio.sleep(0.01)
            finally:
                await stop_all(members)
            return members[1]

        victim = run(scenario())
        assert victim.transport.codec_counters["codec_corrupt_frames"] == 1
        drops = victim.trace.select("drop", entity=1)
        assert [r.get("reason") for r in drops] == ["corrupt"]


class TestBoundedInbox:
    def test_overrun_then_selective_retransmission_recovers(self):
        """A burst larger than the inbox, already queued on the socket when
        the member's readable callback runs, must drop frames (counted
        overruns, the §2.1 failure model) yet still converge: the engines'
        gap detection and RET machinery repair every loss."""
        # capacity 12 with n=3 keeps the §4.2 window positive
        # (12 // (1*2*3) = 2) once BUF is known.
        capacity = 12
        assert RECV_BURST > capacity  # one callback must admit past the bound

        async def scenario():
            members = await udp_cluster(
                3, base_port=19950, seed=6, inbox_capacity_units=capacity,
                trace=TraceLog(),
            )
            try:
                # No await between the submits: members 0 and 1 each put 8
                # data PDUs on the wire at once (the cold-start window is
                # W=8 until a BUF is heard), so 16 datagrams sit on member
                # 2's socket before the loop next polls it.
                for k in range(16):
                    members[k % 2].broadcast(f"burst-{k}".encode())
                await quiesce(members, timeout=30.0)
            finally:
                await stop_all(members)
            return members

        members = run(scenario())
        assert members[2].buffer_overruns >= 16 - capacity
        assert members[2].counters()["buffer"]["overruns"] >= 16 - capacity
        # Every overrun-dropped PDU was repaired: full delivery everywhere.
        for member in members:
            assert len(member.delivered) == 16
        assert members[2].trace.count("drop", entity=2) > 0
        verify_run(members[0].trace, 3).assert_ok()

    def test_inbox_free_units_are_advertised_as_buf(self):
        member = UdpMember(0, ["127.0.0.1:1", "127.0.0.1:2"])
        inbox = member.transport.inbox
        assert member.engine._advertised_buf() == inbox.free_units
        inbox.offer(b"frame")
        assert member.engine._advertised_buf() == inbox.free_units


    def test_batch_datagram_is_charged_per_data_pdu(self):
        """A datagram of k data PDUs occupies k PDUs' worth of the inbox, so
        the advertised BUF counts unread data PDUs, not datagrams."""
        from repro.core.pdu import BatchPdu, DataPdu

        transport = UdpTransport(
            0, ["127.0.0.1:1", "127.0.0.1:2"],
            inbox_capacity_units=16, units_per_pdu=2,
        )
        inbox = transport.inbox

        def batch(count):
            return encode_pdu(BatchPdu(
                cid=1, src=1, ack=(1, 1), pack=(1, 1), buf=0,
                pdus=tuple(
                    DataPdu(cid=1, src=1, seq=s, ack=(1, 1), buf=0, data=b"d")
                    for s in range(1, count + 1)
                ),
            ))

        transport._on_datagram(batch(3))
        assert inbox.used_units == 6
        # Everything else — an empty batch included — charges as one PDU.
        transport._on_datagram(batch(0))
        transport._on_datagram(encode_pdu(HeartbeatPdu(
            cid=1, src=1, ack=(1, 1), pack=(1, 1), buf=0)))
        transport._on_datagram(b"\x07")
        assert inbox.used_units == 12
        # The count is read before the CRC is checked: a header claiming
        # more PDUs than the datagram could hold is clamped to its length.
        lying = bytearray(batch(1))
        lying[10:12] = (0xFFFF).to_bytes(2, "big")
        transport._on_datagram(bytes(lying))
        assert inbox.used_units == 14
        # A frame that needs more than is free is one overrun, whole.
        transport._on_datagram(batch(2))
        assert (inbox.used_units, inbox.stats.overruns) == (14, 1)
        for _ in range(5):
            inbox.pop()
        assert inbox.used_units == 0


class TestRunToCompletion:
    """The datagram path: burst-drain on readable, engine called
    synchronously, direct sends that never raise into the engine."""

    def test_one_callback_drains_a_burst_and_buf_tracks_occupancy(self):
        async def scenario():
            members = await udp_cluster(2, base_port=20010, seed=7)
            receiver = members[1]
            engine_sink = receiver.transport._sink
            seen = []

            def probe(pdu):
                inbox = receiver.transport.inbox
                seen.append((len(inbox), receiver.engine._advertised_buf(),
                             inbox.free_units))
                engine_sink(pdu)

            receiver.transport._sink = probe
            try:
                # Five data PDUs queued on the receiver's socket before the
                # loop polls it again.
                for k in range(5):
                    members[0].broadcast(f"q{k}".encode())
                await quiesce(members)
            finally:
                await stop_all(members)
            return members, seen

        members, seen = run(scenario())
        assert len(members[1].delivered) == 5
        # The first PDU reached the engine with the other four already in
        # the inbox: one readable callback admitted all five.
        depths = [depth for depth, _, _ in seen[:5]]
        assert depths == [4, 3, 2, 1, 0]
        # ...and what the engine would advertise as BUF at that moment is
        # the inbox's real headroom, not its empty size.
        capacity = members[1].transport.inbox.capacity_units
        assert [buf for _, buf, _ in seen[:5]] == [capacity - d for d in depths]
        assert all(buf == free for _, buf, free in seen)

    def test_no_task_per_transport_or_host(self):
        async def scenario():
            before = asyncio.all_tasks()
            members = await udp_cluster(3, base_port=20020, seed=8)
            try:
                return asyncio.all_tasks() - before
            finally:
                await stop_all(members)

        assert run(scenario()) == set()

    @pytest.mark.parametrize("error", [
        BlockingIOError(errno.EAGAIN, "send buffer full"),
        OSError(errno.ENOBUFS, "no buffer space"),
    ])
    def test_refused_send_is_a_counted_drop_not_an_exception(self, error):
        class FullSocket:
            def sendto(self, payload, address):
                raise error

        member = UdpMember(0, ["127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"])
        member.transport._sock = FullSocket()
        member.broadcast(b"into a full socket")  # must not raise
        counters = member.counters()["transport"]
        assert counters["datagrams_sent"] == 2
        assert counters["send_blocked"] == 2
        assert counters["datagrams_dropped"] == 2
        assert counters["socket_errors"] == 0

    def test_other_socket_errors_are_counted_too(self):
        class BrokenSocket:
            def sendto(self, payload, address):
                raise OSError(errno.ENETUNREACH, "network unreachable")

        member = UdpMember(0, ["127.0.0.1:1", "127.0.0.1:2"])
        member.transport._sock = BrokenSocket()
        member.broadcast(b"nowhere")
        counters = member.counters()["transport"]
        assert counters["socket_errors"] == 1
        assert counters["send_blocked"] == 0

    def test_send_without_a_socket_is_a_counted_drop(self):
        """Regression: a send on a member that is stopped, or was never
        started, raised ``AttributeError`` out of ``_sendto`` into the
        engine mid-submit."""
        async def scenario():
            members = await udp_cluster(2, base_port=20130, seed=11)
            await stop_all(members)
            return members[0]

        stopped = run(scenario())
        unstarted = UdpMember(0, ["127.0.0.1:1", "127.0.0.1:2"])
        for member in (stopped, unstarted):
            before = member.counters()["transport"]
            member.broadcast(b"no socket")  # must not raise
            after = member.counters()["transport"]
            sent = after["datagrams_sent"] - before["datagrams_sent"]
            assert sent >= 1
            assert after["datagrams_dropped"] - before["datagrams_dropped"] == sent
            assert after["send_blocked"] == before["send_blocked"]
            assert after["socket_errors"] == before["socket_errors"]
            assert member.engine.counters.sent_data == 1

    def test_a_tick_without_a_socket_reads_nothing_and_keeps_ticking(self):
        """The host drains its socket before each tick; with no socket
        open that read is a no-op, not an ``AttributeError`` that would
        stop the tick from re-arming."""
        async def scenario():
            member = UdpMember(0, ["127.0.0.1:1", "127.0.0.1:2"])
            member.host.start()
            await asyncio.sleep(0.02)
            member.host.stop()
            return member

        assert run(scenario()).host._ticks >= 2

    def test_stop_unregisters_the_reader_and_is_idempotent(self):
        async def scenario():
            transport = UdpTransport(index=0, peers=["127.0.0.1:20040",
                                                     "127.0.0.1:20041"])
            transport.attach(lambda pdu: None)
            transport.stop()  # never started: nothing to do
            transport.start()
            fd = transport._sock.fileno()
            transport.stop()
            transport.stop()
            # Nothing left registered for the descriptor.
            return asyncio.get_running_loop().remove_reader(fd)

        assert run(scenario()) is False

    def test_bind_failure_releases_the_members_already_started(self):
        async def scenario():
            base = 20080
            squatter = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            squatter.bind(("127.0.0.1", base + 2))
            try:
                with pytest.raises(OSError):
                    await udp_cluster(3, base_port=base, seed=9)
                # Members 0 and 1 had bound before member 2 failed: their
                # ports must be free again.
                for port in (base, base + 1):
                    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                    try:
                        probe.bind(("127.0.0.1", port))
                    finally:
                        probe.close()
            finally:
                squatter.close()

        run(scenario())


class TestBulkUnderLoss:
    @pytest.mark.slow  # ~4 s per run: CI's faults job runs it, tier-1 does not
    @pytest.mark.parametrize("loss", [0.0, 0.05])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_closed_loop_bulk_delivers_everything_in_causal_order(self, seed, loss):
        """Four members, every sender keeping 16 messages outstanding for
        2 s: flow-paced batches and multi-PDU turns, under injected loss
        too.  Every message reaches every member, in causal order."""
        n, outstanding, seconds = 4, 16, 2.0
        port = 20240 + 8 * (seed - 1) + (4 if loss else 0)

        async def scenario():
            trace = TraceLog()
            peers = [f"127.0.0.1:{port + i}" for i in range(n)]
            members = [UdpMember(i, peers, loss_rate=loss, seed=seed, trace=trace)
                       for i in range(n)]
            loop = asyncio.get_running_loop()
            end = loop.time() + seconds
            sent = [0] * n

            def submit(src):
                if loop.time() < end:
                    members[src].broadcast(bytes([src]) + sent[src].to_bytes(4, "big"))
                    sent[src] += 1

            for member in members:
                # Deferred out of the delivery callback: the next submit
                # never re-enters the engine.
                member.host.add_delivery_listener(
                    lambda m, i=member.index: m.src == i and loop.call_soon(submit, i))
                await member.start()
            try:
                for _ in range(outstanding):
                    for src in range(n):
                        submit(src)
                await asyncio.sleep(seconds)
                await quiesce(members, timeout=30.0)
            finally:
                await stop_all(members)
            return members, sent, trace

        members, sent, trace = run(scenario())
        assert min(sent) > outstanding
        for member in members:
            for src in range(n):
                got = [int.from_bytes(m.data[1:], "big")
                       for m in member.delivered if m.src == src]
                assert got == list(range(sent[src])), (member.index, src)
        if loss:
            assert sum(m.transport.datagrams_dropped for m in members) > 0
        verify_run(trace, n, expect_all_delivered=True).assert_ok()


class TestHostTick:
    def test_ticks_keep_their_period_skip_a_stall_and_stop(self):
        async def scenario():
            members = await udp_cluster(2, base_port=20100, seed=7)
            host = members[0].host
            interval = members[0].config.tick_interval
            try:
                await asyncio.sleep(25 * interval)
                assert host._ticks >= 10  # late ticks allowed, lost ones not
                # Stall the loop for 25 periods: the host must not replay
                # them, only tick once late and once more to catch up.
                before = host._ticks
                time.sleep(25 * interval)
                resumed_at = time.monotonic()
                await asyncio.sleep(2 * interval)
                after_stall = host._ticks - before
                allowed = 2 + (time.monotonic() - resumed_at) / interval
                assert 1 <= after_stall <= allowed, (after_stall, allowed)
            finally:
                await stop_all(members)
            stopped = host._ticks
            await asyncio.sleep(5 * interval)
            return host._ticks - stopped

        assert run(scenario()) == 0


class TestDefaultTrace:
    def test_default_trace_is_bounded(self):
        member = UdpMember(0, ["127.0.0.1:1", "127.0.0.1:2"])
        assert isinstance(member.trace, FlightRecorder)
        assert isinstance(member.host.trace, FlightRecorder)

    def test_explicit_tracelog_is_kept_complete(self):
        full = TraceLog()
        member = UdpMember(0, ["127.0.0.1:1", "127.0.0.1:2"], trace=full)
        assert member.trace is full
        assert member.host.trace is full
        assert not isinstance(full, FlightRecorder)

    def test_udp_cluster_shares_one_bounded_recorder(self):
        async def scenario():
            members = await udp_cluster(2, base_port=20030, seed=10)
            await stop_all(members)
            return members

        members = run(scenario())
        assert isinstance(members[0].trace, FlightRecorder)
        assert members[0].trace is members[1].trace


async def paced_run(base_port, trace=None, n=4, rounds=25):
    """``rounds`` rounds of one broadcast per member, 5 ms apart, then
    quiescence: a short paced ``udp_cluster(n)`` run."""
    members = await udp_cluster(n, base_port=base_port, seed=13, trace=trace)
    try:
        for round_ in range(rounds):
            for member in members:
                member.broadcast(f"p{member.index}.{round_}".encode())
            await asyncio.sleep(0.005)
        await quiesce(members)
    finally:
        await stop_all(members)
    for member in members:
        assert len(member.delivered) == n * rounds
    return members


def delivered_pairs(members):
    """Every delivered (member, source, seq) triple."""
    return {(m.index, d.src, d.seq) for m in members for d in m.delivered}


class TestRecordsPerDeliveredPair:
    def test_default_ring_keeps_at_most_one_record_per_delivered_pair(self):
        """The ring keeps faults and decisions, not the per-PDU happy path:
        on a clean paced run that is the hosts' gauge samples."""
        members = run(paced_run(20300))
        ring = members[0].trace
        assert isinstance(ring, FlightRecorder) and ring.evicted == 0
        assert 0 < ring.recorded_total <= len(delivered_pairs(members))
        happy = [rec for rec in ring if rec.category in PER_PDU_CATEGORIES
                 and not (rec.category == "heartbeat" and rec.get("probe"))]
        assert happy == []
        assert ring.count("gauge") > 0

    def test_a_tracelog_keeps_one_record_per_phase_per_delivered_pair(self):
        trace = TraceLog()
        members = run(paced_run(20310, trace=trace))
        pairs = delivered_pairs(members)
        for category in ("accept", "preack", "ack", "deliver"):
            seen = Counter((rec.entity, rec.get("src"), rec.get("seq"))
                           for rec in trace.select(category))
            assert {pair: seen[pair] for pair in pairs} \
                == dict.fromkeys(pairs, 1), category
        verify_run(trace, 4).assert_ok()

    def test_inspect_says_what_a_udp_ring_did_not_keep(self, tmp_path):
        members = run(paced_run(20320, rounds=5))
        path = members[0].trace.dump_jsonl(str(tmp_path / "ring.jsonl"))
        text = inspect_path(path)
        assert "per-PDU records not kept" in text
        assert "-- phase latencies --" not in text
        assert "-- PDU census --" not in text
        assert "gauges" in text


class TestLazyClock:
    def test_member_liveness_stamps_not_frozen_at_zero(self):
        """Regression: members are constructed before the loop runs, and the
        old ``lambda: 0.0`` placeholder stamped ``_last_heard`` at t=0 — the
        first tick then saw the whole loop epoch as silence and suspected
        every peer at once."""
        before = time.monotonic()
        member = UdpMember(0, ["127.0.0.1:1", "127.0.0.1:2"])
        after = time.monotonic()
        for stamp in member.engine._last_heard:
            assert before <= stamp <= after

    def test_lazy_clock_pins_running_loop_time(self):
        clock = lazy_loop_clock()
        assert clock() > 0.0  # pre-loop fallback: time.monotonic epoch

        async def sample():
            loop_now = asyncio.get_running_loop().time()
            return clock(), loop_now

        pinned, loop_now = asyncio.run(sample())
        assert abs(pinned - loop_now) < 0.05


class TestUdpTransportValidation:
    def test_index_bounds(self):
        with pytest.raises(ValueError):
            UdpTransport(index=2, peers=["127.0.0.1:1", "127.0.0.1:2"])

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            UdpTransport(index=0, peers=["127.0.0.1:1", "127.0.0.1:2"], loss_rate=1.0)

    def test_second_attach_rejected(self):
        transport = UdpTransport(index=0, peers=["127.0.0.1:1", "127.0.0.1:2"])
        transport.attach(lambda pdu: None)
        with pytest.raises(ValueError):
            transport.attach(lambda pdu: None)

    def test_start_needs_a_sink(self):
        async def scenario():
            transport = UdpTransport(index=0, peers=["127.0.0.1:20140",
                                                     "127.0.0.1:20141"])
            with pytest.raises(RuntimeError):
                transport.start()

        run(scenario())
