"""Integration tests for the asyncio runtime.

Real event loop, real wall-clock timers, nondeterministic scheduling — so
the assertions are about outcomes (delivery, ordering, recovery), never
timings.  The shared trace still feeds the happened-before oracle.
"""

import asyncio
import time

import pytest

from repro.core.config import DisseminationMode, ProtocolConfig
from repro.ordering.checker import verify_run
from repro.runtime import AsyncCluster, LocalAsyncTransport


def run(coroutine):
    return asyncio.run(coroutine)


class TestAsyncCluster:
    def test_single_broadcast_delivered_everywhere(self):
        async def scenario():
            cluster = AsyncCluster(n=3, seed=1)
            await cluster.start()
            try:
                cluster.broadcast(0, "hello")
                await cluster.quiesce()
            finally:
                await cluster.stop()
            return cluster

        cluster = run(scenario())
        for member in range(3):
            assert [m.data for m in cluster.delivered(member)] == ["hello"]

    def test_concurrent_senders_all_delivered(self):
        async def scenario():
            cluster = AsyncCluster(n=4, seed=2)
            await cluster.start()
            try:
                for round_ in range(5):
                    for member in range(4):
                        cluster.broadcast(member, f"m{member}.{round_}")
                await cluster.quiesce()
            finally:
                await cluster.stop()
            return cluster

        cluster = run(scenario())
        for member in range(4):
            assert len(cluster.delivered(member)) == 20
        verify_run(cluster.trace, 4).assert_ok()

    def test_loss_is_recovered_on_the_real_clock(self):
        async def scenario():
            cluster = AsyncCluster(n=3, loss_rate=0.15, seed=3)
            await cluster.start()
            try:
                for k in range(10):
                    cluster.broadcast(k % 3, f"x{k}")
                await cluster.quiesce(timeout=30.0)
            finally:
                await cluster.stop()
            return cluster

        cluster = run(scenario())
        assert cluster.transport.copies_dropped > 0
        for member in range(3):
            assert len(cluster.delivered(member)) == 10
        verify_run(cluster.trace, 3).assert_ok()

    def test_causal_chain_ordered_everywhere(self):
        async def scenario():
            cluster = AsyncCluster(n=3, seed=4)
            await cluster.start()
            try:
                cluster.broadcast(0, "question")
                await cluster.quiesce()
                cluster.broadcast(1, "answer")
                await cluster.quiesce()
            finally:
                await cluster.stop()
            return cluster

        cluster = run(scenario())
        for member in range(3):
            payloads = [m.data for m in cluster.delivered(member)]
            assert payloads.index("question") < payloads.index("answer")

    def test_delivery_listener(self):
        async def scenario():
            cluster = AsyncCluster(n=2, seed=5)
            seen = []
            cluster.hosts[1].add_delivery_listener(lambda m: seen.append(m.data))
            await cluster.start()
            try:
                cluster.broadcast(0, "ping")
                await cluster.quiesce()
            finally:
                await cluster.stop()
            return seen

        assert run(scenario()) == ["ping"]

    def test_needs_two_members(self):
        with pytest.raises(ValueError):
            AsyncCluster(n=1)


class TestHostTick:
    def test_ticks_keep_their_period_skip_a_stall_and_stop(self):
        async def scenario():
            cluster = AsyncCluster(n=2, seed=7)
            interval = cluster.config.tick_interval
            host = cluster.hosts[0]
            await cluster.start()
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
                await cluster.stop()
            stopped = host._ticks
            await asyncio.sleep(5 * interval)
            return host._ticks - stopped

        assert run(scenario()) == 0


class TestDisseminationOverAsyncio:
    """The §16 relay topologies on a real event loop.

    The strategy layer only engages when the transport offers unicast, so
    these prove the asyncio binding actually wires it: data must travel as
    relay hops (counters), yet delivery and causal order must match what
    flooding would produce (oracle).
    """

    @staticmethod
    def _config(mode, **overrides):
        return ProtocolConfig(
            tick_interval=2e-3, deferred_interval=4e-3, ret_timeout=10e-3,
            dissemination=mode, **overrides,
        )

    def _run(self, config, n=4, rounds=3, seed=6):
        async def scenario():
            cluster = AsyncCluster(n=n, config=config, seed=seed)
            await cluster.start()
            try:
                for round_ in range(rounds):
                    for member in range(n):
                        cluster.broadcast(member, f"m{member}.{round_}")
                await cluster.quiesce(timeout=30.0)
            finally:
                await cluster.stop()
            return cluster

        return run(scenario())

    def test_ring_delivers_everything_via_relays(self):
        cluster = self._run(self._config(DisseminationMode.RING))
        for member in range(4):
            assert len(cluster.delivered(member)) == 12
        verify_run(cluster.trace, 4).assert_ok()
        relays = sum(h.engine.counters.relays_sent for h in cluster.hosts)
        forwards = sum(h.engine.counters.relay_forwards for h in cluster.hosts)
        assert relays == 12          # one first hop per broadcast
        assert forwards > 0          # and the ring actually circulated

    def test_gossip_delivers_everything_via_relays(self):
        cluster = self._run(self._config(
            DisseminationMode.GOSSIP,
            gossip_fanout=2, gossip_seed=9, anti_entropy_interval=20e-3,
        ))
        for member in range(4):
            assert len(cluster.delivered(member)) == 12
        verify_run(cluster.trace, 4).assert_ok()
        assert sum(h.engine.counters.relays_sent for h in cluster.hosts) == 12


class TestLocalAsyncTransport:
    def test_validation(self):
        with pytest.raises(ValueError):
            LocalAsyncTransport(2, loss_rate=1.0)
        with pytest.raises(ValueError):
            LocalAsyncTransport(2, delay=-1.0)

    def test_unattached_member_rejected_at_start(self):
        async def scenario():
            transport = LocalAsyncTransport(2)
            transport.attach(0, lambda pdu: None)
            with pytest.raises(RuntimeError):
                await transport.start()

        run(scenario())

    def test_duplicate_attach_rejected(self):
        transport = LocalAsyncTransport(2)
        transport.attach(0, lambda pdu: None)
        with pytest.raises(ValueError):
            transport.attach(0, lambda pdu: None)

    def test_fifo_per_pair(self):
        async def scenario():
            transport = LocalAsyncTransport(2)
            received = []
            transport.attach(0, lambda pdu: None)
            transport.attach(1, received.append)
            await transport.start()
            for k in range(50):
                transport.broadcast(0, k)
            while not transport.idle:
                await asyncio.sleep(0.001)
            await asyncio.sleep(0.01)
            await transport.stop()
            return received

        received = run(scenario())
        assert received == sorted(received)
