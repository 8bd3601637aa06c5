#!/usr/bin/env python3
"""Fault-tolerant replicated state machine on the total-order extension.

The paper's other motivation (§1): "In order to realize fault-tolerant
systems, the same events have to occur in the same order in each entity."
Causal order alone is not enough for a state machine — concurrent updates
must also be sequenced identically.  The total-order extension
(:mod:`repro.extensions.total_order`) ranks acknowledged PDUs by a
deterministic key derived from their ACK vectors, giving every replica the
same delivery order with no extra messages.

Four bank replicas apply deposits/withdrawals arriving at different sites,
over a lossy network; afterwards all replicas hold identical balances.

Run:  python examples/replicated_bank.py
"""

from dataclasses import dataclass

from repro.core.cluster import build_cluster
from repro.extensions.total_order import TotalOrderEntity
from repro.net.loss import BernoulliLoss
from repro.ordering.properties import delivery_logs, total_order_agreement
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class Op:
    account: str
    amount: int  # positive = deposit, negative = withdrawal


class BankReplica:
    """Applies operations in delivery order; rejects overdrafts."""

    def __init__(self) -> None:
        self.balances = {}
        self.rejected = 0

    def apply(self, op: Op) -> None:
        balance = self.balances.get(op.account, 0)
        if balance + op.amount < 0:
            self.rejected += 1      # deterministic given a total order
            return
        self.balances[op.account] = balance + op.amount


def main() -> None:
    n = 4
    cluster = build_cluster(
        n,
        engine_factory=TotalOrderEntity,
        loss=BernoulliLoss(0.07, protect_control=True),
        rngs=RngRegistry(21),
    )
    replicas = [BankReplica() for _ in range(n)]
    for i, host in enumerate(cluster.hosts):
        host.add_delivery_listener(
            lambda message, replica=replicas[i]: replica.apply(message.data)
        )

    # Clients hit different replicas concurrently — including conflicting
    # withdrawals that only a total order can arbitrate identically.
    operations = [
        (0, Op("acc-1", +100)),
        (1, Op("acc-2", +50)),
        (2, Op("acc-1", -80)),
        (3, Op("acc-1", -80)),     # one of the two withdrawals must lose
        (0, Op("acc-2", -20)),
        (1, Op("acc-1", +5)),
        (2, Op("acc-2", +10)),
        (3, Op("acc-2", -45)),
    ]
    for site, op in operations:
        cluster.submit(site, op)
    # Keep a trickle of traffic so the rank frontier advances past the tail.
    for r in range(3):
        for i in range(n):
            cluster.submit(i, Op("noop", 0))
    cluster.run_until_quiescent(max_time=30.0)

    print("replica balances:")
    for i, replica in enumerate(replicas):
        interesting = {k: v for k, v in replica.balances.items() if k != "noop"}
        print(f"  replica {i}: {interesting}  (rejected: {replica.rejected})")

    states = [
        (tuple(sorted(r.balances.items())), r.rejected) for r in replicas
    ]
    assert len(set(states)) == 1, "replicas diverged!"
    logs = delivery_logs(cluster.trace, n)
    assert total_order_agreement(logs) == []
    print("\nall replicas identical; delivery order agreed at every site")
    drops = cluster.network.stats.copies_dropped
    print(f"(network dropped {drops} copies along the way)")


if __name__ == "__main__":
    main()
