"""Conformance: the simulator is bit-for-bit deterministic across perf PRs.

Four seeded runs are pinned to literals: the number of kernel events, the
final simulated clock, every network counter, the per-category trace census
and a SHA-256 over each host's ``(src, seq, delivered_at)`` sequence.
``jitter`` is as captured on the commit *before* the per-copy path of the
simulator stack was rewritten (ISSUE 20); ``lossy`` was re-captured when
the probe / answer plane was replaced (ISSUE 21: probes only when stuck,
answers unicast to the prober); ``sparse`` was captured on the parent of
ISSUE 23 (a backlogged member defers its timer confirmation) before any
``src/`` edit, and ``jitter``, ``lossy`` and ``sparse`` all passed that
change as captured — at n ≤ 8 with these loads no inbox ever holds a round
of unread input.  ``overrun`` was re-shaped and re-captured by ISSUE 23: at
n=20 the gate removed so many stale confirmations that 256-unit buffers
stopped overrunning altogether.  ``jitter``, ``lossy`` and ``overrun`` were
re-captured when the simulator host began to fold the input waiting at a
turn's start into one engine turn (docs/PROTOCOL.md §7); ``sparse`` held,
since its inboxes are read empty between arrivals.  A perf change to ``sim/``, ``net/`` or
``core/cluster.py`` that reorders one same-instant event, draws one RNG
value out of order or shifts one arrival by an ulp fails here, in tier-1,
not only in the end-to-end comparison.

* ``jitter`` — the ``sim_wide`` recipe at n=8: seeded 20 µs exponential
  jitter on every link, 4096-unit buffers, nothing lost.
* ``lossy`` — 5 % Bernoulli loss on the default 256-unit buffers: gap
  detection, stashing, RETs, retransmissions and the loss stream's draw
  order.  (At n=8 the flow condition keeps the buffers from overrunning —
  ``overruns`` is pinned at 0.)
* ``overrun`` — the same loss at n=20, 3 messages per sender, on 128-unit
  buffers: 20 senders do overrun those, so the paper's own loss mechanism
  (§2.1), the ``drop reason=overrun`` path of the host and the recovery
  from it are pinned as well.
* ``sparse`` — n=4, 400 submissions round robin at 400 msg/s (64 B, one
  every 2.5 ms), default buffers: the simulator's ``udp_steady``.  Every
  inbox is read empty between arrivals, so this run is the executable
  statement that an unsaturated cluster never meets the backlog gate.

``arrive`` records are excluded from the census: the category was dropped
by the same change (nothing ever read it), and the goldens must hold on
both sides of that deletion.

To re-capture after an *intended* behaviour change:
``PYTHONPATH=src python tests/conformance/test_sim_golden.py``.
"""

import hashlib
from collections import Counter

import pytest

from repro.core.cluster import build_cluster
from repro.net.delay import JitterDelay
from repro.net.loss import BernoulliLoss
from repro.ordering.checker import verify_run
from repro.sim.rng import RngRegistry
from repro.workloads.generators import ContinuousWorkload

SEED = 7

#: scenario -> (n, ContinuousWorkload arguments, build_cluster arguments)
SCENARIOS = {
    "jitter": (8, dict(messages_per_entity=4), lambda: dict(
        delay_model=JitterDelay(20e-6), buffer_capacity=4096)),
    "lossy": (8, dict(messages_per_entity=4),
              lambda: dict(loss=BernoulliLoss(0.05))),
    "overrun": (20, dict(messages_per_entity=3), lambda: dict(
        loss=BernoulliLoss(0.05), buffer_capacity=128)),
    "sparse": (4, dict(messages_per_entity=100, interval=10e-3,
                       stagger=2.5e-3, payload_size=64), dict),
}


def fingerprint(scenario):
    n, workload, kwargs = SCENARIOS[scenario]
    rngs = RngRegistry(SEED)
    cluster = build_cluster(n, rngs=rngs, **kwargs())
    ContinuousWorkload(**workload).install(cluster, rngs)
    cluster.run_until_quiescent(max_time=60.0)
    verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
    digest = hashlib.sha256()
    for host in cluster.hosts:
        for m in host.delivered:
            digest.update(repr((m.src, m.seq, m.delivered_at)).encode())
        digest.update(b"|")
    census = Counter(rec.category for rec in cluster.trace)
    census.pop("arrive", None)
    return {
        "events_executed": cluster.sim.events_executed,
        "now": cluster.sim.now,
        "network": cluster.network.stats.snapshot(),
        "overruns": sum(h.buffer.stats.overruns for h in cluster.hosts),
        "trace": dict(sorted(census.items())),
        "deliveries_sha256": digest.hexdigest(),
    }


GOLDEN = {
    'jitter': {
        'events_executed': 1310,
        'now': 0.025202999999999996,
        'overruns': 0,
        'network': {
            'batch_frames': 0, 'batched_data_pdus': 0, 'broadcasts': 77,
            'bytes_sent': 150640, 'control_pdus': 45, 'copies_delivered': 539,
            'copies_dropped': 0, 'copies_duplicated': 0, 'copies_sent': 539,
            'data_pdus': 32, 'unicasts': 0,
        },
        'trace': {
            'accept': 256, 'ack': 256, 'broadcast': 77, 'deliver': 256,
            'gauge': 24, 'heartbeat': 45, 'preack': 256, 'submit': 32,
        },
        'deliveries_sha256':
            '5b67bddc30c05fc324e4d63944fd42f0b8b4e6ece57a7255b5601319db887a67',
    },
    'lossy': {
        'events_executed': 1704,
        'now': 0.033603999999999995,
        'overruns': 0,
        'network': {
            'batch_frames': 0, 'batched_data_pdus': 0, 'broadcasts': 98,
            'bytes_sent': 217424, 'control_pdus': 105,
            'copies_delivered': 704, 'copies_dropped': 37,
            'copies_duplicated': 0, 'copies_sent': 741, 'data_pdus': 48,
            'unicasts': 55,
        },
        'trace': {
            'accept': 256, 'ack': 256, 'broadcast': 98, 'deliver': 256,
            'drop': 37, 'duplicate': 93, 'gap': 146, 'gauge': 32,
            'heartbeat': 89, 'preack': 256, 'ret': 16, 'retransmit': 16,
            'stash': 9, 'submit': 32, 'unicast': 55,
        },
        'deliveries_sha256':
            'b92e98068dd829857eb2aeb93e3b1cd405ddea48d5626f09b12ae8a447c5b14a',
    },
    'overrun': {
        'events_executed': 21971,
        'now': 0.08400999999999997,
        'overruns': 281,
        'network': {
            'batch_frames': 0, 'batched_data_pdus': 0, 'broadcasts': 525,
            'bytes_sent': 3556096, 'control_pdus': 1103,
            'copies_delivered': 10256, 'copies_dropped': 532,
            'copies_duplicated': 0, 'copies_sent': 10788, 'data_pdus': 235,
            'unicasts': 813,
        },
        'trace': {
            'accept': 1200, 'ack': 1200, 'broadcast': 525, 'deliver': 1200,
            'drop': 813, 'duplicate': 2961, 'gap': 4855, 'gauge': 200,
            'heartbeat': 915, 'preack': 1200, 'ret': 188, 'retransmit': 175,
            'stash': 54, 'submit': 60, 'unicast': 813,
        },
        'deliveries_sha256':
            '37eef671326a901265d42582e3a58050968a1f73e98f990a90b7c0593f66aa3c',
    },
    'sparse': {
        'events_executed': 23670,
        'now': 1.0165209999999993,
        'overruns': 0,
        'network': {
            'batch_frames': 0, 'batched_data_pdus': 0, 'broadcasts': 3201,
            'bytes_sent': 518544, 'control_pdus': 2801,
            'copies_delivered': 9603, 'copies_dropped': 0,
            'copies_duplicated': 0, 'copies_sent': 9603, 'data_pdus': 400,
            'unicasts': 0,
        },
        'trace': {
            'accept': 1600, 'ack': 1600, 'broadcast': 3201, 'deliver': 1600,
            'gauge': 508, 'heartbeat': 2801, 'preack': 1600, 'submit': 400,
        },
        'deliveries_sha256':
            'e637978a27be3192a6876298a38e3f363ac31fe92b0e5777a5160ea64615edd6',
    },
}



@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_seeded_run_matches_golden(scenario):
    got = fingerprint(scenario)
    for key, want in GOLDEN[scenario].items():   # key by key: readable diffs
        assert got.pop(key) == want, key
    assert not got


if __name__ == "__main__":
    import pprint

    pprint.pprint({s: fingerprint(s) for s in SCENARIOS}, width=78)
