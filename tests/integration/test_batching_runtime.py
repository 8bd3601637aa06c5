"""Integration tests for the batching layer across the runtimes.

The headline regression: a batch frame lost to a §2.1 receive-buffer
overrun takes *several* data PDUs down at once, and the gap-detection /
selective-RET machinery must repair all of them (retransmissions travel as
single PDUs, so repair always fits the buffer that just overran).

Plus the UDP path: batched frames over real loopback sockets, including
the MTU split of an oversized frame into several datagrams.
"""

import asyncio

import pytest

from repro.core.cluster import CpuModel, build_cluster
from repro.core.config import ProtocolConfig
from repro.core.pdu import BatchPdu, DataPdu
from repro.ordering.checker import verify_run
from repro.runtime.udp import udp_cluster
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog


def _engine_totals(cluster):
    totals = {}
    for member in cluster.counters():
        for key, value in member["engine"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


class TestBatchOverrunRepair:
    def test_batch_frame_lost_to_overrun_is_repaired(self):
        """A storm overruns small receive buffers while the senders batch;
        every PDU of every lost frame must still reach every entity."""
        n = 4
        per_entity = 24  # three windows deep, so multi-PDU frames form
        cluster = build_cluster(
            n,
            config=ProtocolConfig(batch_max_pdus=4, window=8),
            # Small enough to overrun under the storm, large enough that the
            # BUF-scaled window (§4.2) still lets two PDUs out at once.
            buffer_capacity=5 * n,
            cpu=CpuModel(base=400e-6, per_entity=80e-6),  # slow receivers
            rngs=RngRegistry(2),
        )
        for k in range(per_entity):
            for i in range(n):
                cluster.submit(i, f"storm-{i}-{k}")
        cluster.run_until_quiescent(max_time=60.0)

        overruns = sum(h.buffer.stats.overruns for h in cluster.hosts)
        assert overruns > 0, "scenario failed to overrun any buffer"
        assert cluster.network.stats.batch_frames > 0
        totals = _engine_totals(cluster)
        assert totals.get("retransmissions", 0) > 0, (
            "overruns happened but nothing was ever repaired via RET"
        )
        verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
        for i in range(n):
            assert len(cluster.delivered(i)) == n * per_entity

    def test_batch_frame_charges_per_pdu_units(self):
        """The buffer accounting batching must not cheat: k PDUs in one
        frame occupy k PDUs' worth of units."""
        from repro.net.buffers import ReceiveBuffer

        buf = ReceiveBuffer(capacity_units=8, units_per_pdu=2)
        inner = tuple(
            DataPdu(cid=1, src=0, seq=s, ack=(1, 1), buf=0, data=None)
            for s in (1, 2, 3)
        )
        frame = BatchPdu(cid=1, src=0, ack=(1, 1), pack=(1, 1), buf=0, pdus=inner)
        assert buf.offer(frame)          # 3 PDUs * 2 units = 6 of 8
        assert buf.free_units == 2
        assert not buf.offer(frame)      # another frame cannot fit
        assert buf.stats.overruns == 1
        assert buf.pop() is frame
        assert buf.free_units == 8


class TestUdpBatching:
    def _run(self, coroutine):
        return asyncio.run(coroutine)

    async def _quiesce(self, members, timeout=20.0):
        async def wait():
            streak = 0
            while True:
                if all(m.engine.quiescent for m in members):
                    streak += 1
                    if streak >= 2:
                        return
                else:
                    streak = 0
                await asyncio.sleep(0.02)

        await asyncio.wait_for(wait(), timeout=timeout)

    def test_batched_traffic_over_loopback(self):
        async def scenario():
            members = await udp_cluster(
                3, base_port=20070, seed=4, trace=TraceLog(),
                config=ProtocolConfig(
                    tick_interval=2e-3, deferred_interval=4e-3,
                    ret_timeout=10e-3, batch_max_pdus=4,
                ),
            )
            try:
                # Three windows' worth per member: frames form once the
                # flow window is what paces them.
                for k in range(72):
                    members[k % 3].broadcast(f"udp-batch-{k}".encode())
                await self._quiesce(members)
            finally:
                for member in members:
                    await member.stop()
            return members

        members = self._run(scenario())
        for member in members:
            assert len(member.delivered) == 72
            assert member.engine.counters.sent_batches > 0
        report = verify_run(members[0].trace, 3, expect_all_delivered=True)
        report.assert_ok()

    def test_oversized_frame_splits_into_datagrams(self):
        async def scenario():
            # A tiny MTU forces every multi-PDU frame apart; payloads are
            # big enough that even two inner PDUs exceed it.  The burst is
            # three windows deep so that multi-PDU frames form at all.
            members = await udp_cluster(
                3, base_port=19970, seed=9, max_frame_bytes=300,
                trace=TraceLog(),
                config=ProtocolConfig(
                    tick_interval=2e-3, deferred_interval=4e-3,
                    ret_timeout=10e-3, batch_max_pdus=4,
                ),
            )
            try:
                for k in range(24):
                    members[0].broadcast(("x" * 150 + f"-{k:02d}").encode())
                await self._quiesce(members)
            finally:
                for member in members:
                    await member.stop()
            return members

        members = self._run(scenario())
        for member in members:
            payloads = [m.data for m in member.delivered]
            assert len(payloads) == 24
            assert payloads == sorted(payloads)  # FIFO from the one sender
        assert members[0].transport.frames_split > 0
        report = verify_run(members[0].trace, 3, expect_all_delivered=True)
        report.assert_ok()
