"""Integration tests for the asyncio runtime: a ``udp_cluster`` on loopback.

Real event loop, real wall-clock timers, nondeterministic scheduling — so
the assertions are about outcomes (delivery, ordering, recovery), never
timings.  A shared complete ``TraceLog`` feeds the causal-order checker.  Each
test uses its own port range so parallel pytest workers cannot collide.
"""

import asyncio

from repro.core.config import DisseminationMode, ProtocolConfig
from repro.ordering.checker import verify_run
from repro.runtime.udp import udp_cluster
from repro.sim.trace import TraceLog
from tests.integration.test_udp_runtime import quiesce, stop_all


def run(coroutine):
    return asyncio.run(coroutine)


class TestAsyncCluster:
    def test_single_broadcast_delivered_everywhere(self):
        async def scenario():
            members = await udp_cluster(3, base_port=20150, seed=1)
            try:
                members[0].broadcast(b"hello")
                await quiesce(members)
            finally:
                await stop_all(members)
            return members

        members = run(scenario())
        for member in members:
            assert [m.data for m in member.delivered] == [b"hello"]

    def test_concurrent_senders_all_delivered(self):
        async def scenario():
            members = await udp_cluster(4, base_port=20160, seed=2, trace=TraceLog())
            try:
                for round_ in range(5):
                    for member in members:
                        member.broadcast(f"m{member.index}.{round_}".encode())
                await quiesce(members)
            finally:
                await stop_all(members)
            return members

        members = run(scenario())
        for member in members:
            assert len(member.delivered) == 20
        verify_run(members[0].trace, 4).assert_ok()

    def test_loss_is_recovered_on_the_real_clock(self):
        async def scenario():
            members = await udp_cluster(
                3, base_port=20170, seed=3, loss_rate=0.15, trace=TraceLog(),
            )
            try:
                for k in range(10):
                    members[k % 3].broadcast(f"x{k}".encode())
                await quiesce(members, timeout=30.0)
            finally:
                await stop_all(members)
            return members

        members = run(scenario())
        assert sum(m.transport.datagrams_dropped for m in members) > 0
        for member in members:
            assert len(member.delivered) == 10
        verify_run(members[0].trace, 3).assert_ok()

    def test_causal_chain_ordered_everywhere(self):
        async def scenario():
            members = await udp_cluster(3, base_port=20180, seed=4)
            try:
                members[0].broadcast(b"question")
                await quiesce(members)
                members[1].broadcast(b"answer")
                await quiesce(members)
            finally:
                await stop_all(members)
            return members

        members = run(scenario())
        for member in members:
            payloads = [m.data for m in member.delivered]
            assert payloads.index(b"question") < payloads.index(b"answer")


class TestDisseminationOverAsyncio:
    """The §16 ring relay on a real event loop with four members.

    Data must travel as relay hops (counters), yet delivery and causal
    order must match what flooding would produce (oracle).
    """

    def test_ring_delivers_everything_via_relays(self):
        n, rounds = 4, 3
        config = ProtocolConfig(
            tick_interval=2e-3, deferred_interval=4e-3, ret_timeout=10e-3,
            dissemination=DisseminationMode.RING,
        )

        async def scenario():
            members = await udp_cluster(n, base_port=20190, seed=6,
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
        # One first hop per broadcast, and the ring actually circulated.
        assert sum(m.engine.counters.relays_sent for m in members) == n * rounds
        assert sum(m.engine.counters.relay_forwards for m in members) > 0
