#!/usr/bin/env python3
"""Crash-stop fault tolerance (membership extension).

The paper motivates the CO service with fault-tolerant systems but assumes
a fixed, healthy cluster.  This example shows the repository's membership
extension keeping a group alive through a crash:

1. four members gossip; member 3 crash-stops mid-run;
2. the survivors *suspect* it after a silence threshold, exclude it from
   the acknowledgment conditions, and re-serve its PDUs to each other
   (peer-assisted retransmission);
3. the group quiesces with every pre-crash message delivered at every
   survivor — including a message of the dead member that only one
   survivor had received.

Run:  python examples/crash_tolerance.py
"""

from repro.analysis.summary import summarize_run
from repro.core.cluster import build_cluster
from repro.core.config import ProtocolConfig
from repro.net.loss import ScriptedLoss


def main() -> None:
    config = ProtocolConfig(suspect_timeout=0.02)
    # Stage the interesting case: E3's second PDU is lost on its way to
    # E1 and E2 — only E0 receives it before E3 dies.
    loss = ScriptedLoss([(3, 2, 1), (3, 2, 2)])
    cluster = build_cluster(4, config=config, loss=loss)

    for k in range(3):
        cluster.submit(k, f"chatter-{k}")
    cluster.submit(3, "last words #1")
    cluster.run_for(0.004)
    cluster.submit(3, "last words #2")   # reaches only E0
    cluster.run_for(0.0005)

    print(f"t={cluster.sim.now * 1e3:.2f} ms: member 3 crashes")
    cluster.crash(3)

    for k in range(3):
        cluster.submit(k, f"post-crash-{k}")
    cluster.run_until_quiescent(max_time=30.0)

    suspects = [sorted(host.engine.suspected) for host in cluster.hosts[:3]]
    print(f"survivors' suspect lists: {suspects}")

    for i in range(3):
        payloads = [m.data for m in cluster.delivered(i)]
        print(f"survivor E{i} delivered ({len(payloads)}): {payloads}")

    assisted = [
        r for r in cluster.trace.select("retransmit")
        if r.get("on_behalf_of") == 3
    ]
    print(f"\npeer-assisted retransmissions on behalf of the dead member: "
          f"{len(assisted)}")

    for i in range(3):
        payloads = [m.data for m in cluster.delivered(i)]
        assert "last words #2" in payloads, "peer assist failed"
    summary = summarize_run(cluster.trace, 4, expect_all_delivered=False)
    assert summary.ok
    print("every survivor delivered both of the dead member's messages,")
    print("in causal order — verified by the causal-order checker.")


if __name__ == "__main__":
    main()
