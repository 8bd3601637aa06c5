#!/usr/bin/env python3
"""View-change eviction and crash-recovery rejoin (recovery extension).

Where ``crash_tolerance.py`` shows survivors merely *suspecting* a dead
member (keeping its stores pinned forever, in case it was only slow), this
example runs the full crash-recovery subsystem:

1. four members gossip; member 2 crash-stops mid-run;
2. once every survivor has suspected it past ``evict_timeout``, the
   coordinator runs the three-phase view change — propose, agree, install —
   flushing the old view's stable PDUs everywhere before installing the
   shrunken membership (view 1, members {0, 1, 3});
3. post-eviction traffic reaches the *acknowledged* level with three
   members, and the survivors' sending logs prune back to empty;
4. the crashed member restarts, asks to rejoin, receives a state snapshot
   from the coordinator (its REQ frontier: everything below it is
   recovered out of band), and a second view change re-admits it (view 2,
   members {0, 1, 2, 3});
5. the returnee broadcasts again — causal order intact across its two
   incarnations.

Run:  python examples/view_change_rejoin.py
"""

from repro.core.cluster import build_cluster
from repro.core.config import ProtocolConfig
from repro.ordering.checker import verify_run


def main() -> None:
    config = ProtocolConfig(suspect_timeout=0.02, evict_timeout=0.05)
    cluster = build_cluster(4, config=config)

    for k in range(4):
        cluster.submit(k, f"chatter-{k}")
    cluster.run_for(0.01)

    print(f"t={cluster.sim.now * 1e3:.1f} ms: member 2 crashes")
    cluster.crash(2)
    cluster.run_for(0.7)  # suspicion ripens, the eviction round installs

    survivors = [0, 1, 3]
    for i in survivors:
        engine = cluster.hosts[i].engine
        print(f"E{i}: view={engine.view} members={sorted(engine.members)} "
              f"evicted={sorted(engine.evicted)}")

    cluster.submit(0, "life goes on")
    cluster.submit(1, "without number two")
    cluster.run_until_quiescent(max_time=30.0)
    retained = [cluster.hosts[i].engine.sl.retained for i in survivors]
    print(f"post-eviction traffic acknowledged; retained sent PDUs: {retained}")

    print(f"\nt={cluster.sim.now * 1e3:.1f} ms: member 2 restarts and rejoins")
    cluster.restart(2)
    cluster.run_until_quiescent(max_time=30.0)

    returnee = cluster.hosts[2].engine
    print(f"E2: view={returnee.view} members={sorted(returnee.members)} "
          f"recovered frontier={list(returnee.recovered_frontier)}")

    cluster.submit(2, "i am back")
    cluster.run_until_quiescent(max_time=30.0)
    for i in range(4):
        last = [m.data for m in cluster.delivered(i)][-3:]
        print(f"E{i} view_log={cluster.hosts[i].engine.view_log} last={last}")

    verify_run(cluster.trace, 4, expect_all_delivered=False).assert_ok()
    print("\nordering oracle: clean — causal order held across crash, "
          "eviction and rejoin")


if __name__ == "__main__":
    main()
