#!/usr/bin/env python3
"""The CO engine on a real event loop: a tiny group chat over UDP.

Everything else in this repository runs on the deterministic simulator;
this example runs the *same* protocol engine on asyncio with wall-clock
timers and real UDP sockets on loopback — the deployment shape a real
application would use.  PDUs cross the sockets as ``repro.core.codec``
bytes, so the chat lines are ``bytes`` too.

Three chatters exchange messages; replies are only typed after the message
they answer was delivered locally, and the causal order holds on every
screen despite 10% injected datagram loss on a real clock.

Run:  python examples/asyncio_chat.py
"""

import asyncio
from typing import List

from repro.ordering.checker import verify_run
from repro.runtime import UdpMember, udp_cluster
from repro.sim.trace import TraceLog

NAMES = ["ana", "bo", "cy"]


async def quiesce(members: List[UdpMember], timeout: float = 30.0) -> None:
    """Wait until every engine has drained (twice in a row, 20 ms apart)."""

    async def wait() -> None:
        streak = 0
        while streak < 2:
            streak = streak + 1 if all(m.engine.quiescent for m in members) else 0
            await asyncio.sleep(0.02)

    await asyncio.wait_for(wait(), timeout=timeout)


async def chat() -> List[UdpMember]:
    # A complete TraceLog, not the default ring: the causal-order checker
    # reads every acceptance and delivery.
    members = await udp_cluster(3, loss_rate=0.10, seed=9, trace=TraceLog())
    ana, bo, cy = members
    try:
        ana.broadcast(b"ana: anyone up for lunch?")
        await quiesce(members)

        bo.broadcast(b"bo: yes! the noodle place?")
        cy.broadcast(b"cy: can't today, deadline :(")
        await quiesce(members)

        ana.broadcast(b"ana: noodles it is, bo. good luck cy!")
        await quiesce(members)
    finally:
        for member in members:
            await member.stop()
    return members


def main() -> None:
    members = asyncio.run(chat())

    for member, name in zip(members, NAMES):
        print(f"--- {name}'s screen " + "-" * 30)
        for message in member.delivered:
            print(f"  {message.data.decode()}")
        print()

    dropped = sum(m.transport.datagrams_dropped for m in members)
    sent = sum(m.transport.datagrams_sent for m in members)
    verify_run(members[0].trace, 3).assert_ok()
    print(f"UDP dropped {dropped}/{sent} datagrams on the real clock;")
    print("every screen shows the opener first and the wrap-up last —")
    print("verified causally ordered by the causal-order checker.")


if __name__ == "__main__":
    main()
