"""Golden histories: every nemesis scenario replays bit-for-bit from its seed.

Each of the scenarios is pinned at seed 0 and at seed 1009 (the second
round of a ``--seed 0`` campaign) to a SHA-256 over its observable history
— every engine's view log and every entity's delivery ids — plus the
simulated ``converge_time`` / ``detect_latency`` where the scenario
reports one.  The literals were captured before the scenarios became
declarative specs driven by one runner and pass unchanged after it: a
change to the harness that reorders one same-instant fault, moves one
submission or draws one RNG value out of order fails here.  Eighteen
cases were re-captured when the simulator host began to fold the input
waiting at a turn's start into one engine turn (docs/PROTOCOL.md §7): the
same view logs and delivered sets, with concurrent messages interleaved
differently, three converge times one 20 ms polling chunk apart and four
detect latencies one or two ticks apart.

To re-capture after an *intended* behaviour change:
``PYTHONPATH=src python tests/integration/test_nemesis_golden.py``.
"""

import hashlib

import pytest

from repro.harness.nemesis import SCENARIOS, run_nemesis

SEEDS = (0, 1009)


def fingerprint(name, seed):
    outcome = run_nemesis([name], seed=seed)[0]
    assert outcome.ok, outcome.summary()
    obs = outcome.observations
    history = repr((obs["view_logs"], obs["deliveries"])).encode()
    got = {"history_sha256": hashlib.sha256(history).hexdigest()}
    for key in ("converge_time", "detect_latency"):
        if key in obs:
            got[key] = obs[key]
    return got


GOLDEN = {
    ('asymmetric-link', 0): {
        'history_sha256':
            'ee410dd62caedd8f7697f0e96f4a6b418dce557ef892d36303ccd492593a431c',
        'converge_time': 0.0,
        'detect_latency': 0.01200000000000001,
    },
    ('asymmetric-link', 1009): {
        'history_sha256':
            'ee410dd62caedd8f7697f0e96f4a6b418dce557ef892d36303ccd492593a431c',
        'converge_time': 0.0,
        'detect_latency': 0.01200000000000001,
    },
    ('batching', 0): {
        'history_sha256':
            '40edb26d445e1eec55b09e2f459d069102d7d7ca1046efd94e55a81baad0c6ff',
    },
    ('batching', 1009): {
        'history_sha256':
            '6fc73d0aa132c0fd74299de0202a38b9be848e1779936569bb5be57aec3bb967',
    },
    ('bridge-failover', 0): {
        'history_sha256':
            '80e2222ea57e8cff18d7fc251247c7fafc5f09f78692b3040ebce58b7a98d6c2',
        'converge_time': 0.0,
    },
    ('bridge-failover', 1009): {
        'history_sha256':
            '80e2222ea57e8cff18d7fc251247c7fafc5f09f78692b3040ebce58b7a98d6c2',
        'converge_time': 0.0,
    },
    ('combo', 0): {
        'history_sha256':
            'af64bfa78c27409c49caf08a7ae7de5804dc38591aafa218fbe85e531b7a678e',
    },
    ('combo', 1009): {
        'history_sha256':
            '47f3f7f8a9d64d3b8b7efeeb0aa70894a97c4b2f0ed4560cf41fb8d0df047d46',
    },
    ('corruption', 0): {
        'history_sha256':
            '6ed07465b7b9ed7c07fb5a4bf580c2b71a99e8dba0475451b5bdaf201ffa026c',
    },
    ('corruption', 1009): {
        'history_sha256':
            'a8718d802bd55fded5909db5f83d10fcba966d7c8f724ba6849897195885d52e',
    },
    ('crash-evict-rejoin', 0): {
        'history_sha256':
            '8ba50ee5aae6b3b4d08c877c6992c0457a6acaa452ad6e4c828452d3dfe6bbe0',
    },
    ('crash-evict-rejoin', 1009): {
        'history_sha256':
            '4cf99d2ffea67286888971acbba4fcbe9357e260b9b8a7dd93a55db37b6036a8',
    },
    ('duplication', 0): {
        'history_sha256':
            '5920cdf522e7c6ccbfe9a454b3e5866a9a0ed92c7ba6fd9dced56d5648d0a1e0',
    },
    ('duplication', 1009): {
        'history_sha256':
            '166366b5bddecd0a474da3f18a40ea237c1519d35e90e7469f61d2dc941cdcb2',
    },
    ('gossip-loss-storm', 0): {
        'history_sha256':
            '9a465a5bddd7d9838c484b6b79fdfc9968f11d64e154b1dba340752494306517',
        'converge_time': 0.0,
    },
    ('gossip-loss-storm', 1009): {
        'history_sha256':
            'd22231beedb5e9e625fbf9e5521ea6e9f528f6226171cfd38ab9aca1fa8a885a',
        'converge_time': 0.020000000000000018,
    },
    ('intergroup-partition', 0): {
        'history_sha256':
            '7cf727660ca5bd446ff3c4d5a55f8397543222d5273959a7c34f8a338b33aca0',
        'converge_time': 0.0,
    },
    ('intergroup-partition', 1009): {
        'history_sha256':
            '7cf727660ca5bd446ff3c4d5a55f8397543222d5273959a7c34f8a338b33aca0',
        'converge_time': 0.0,
    },
    ('jittery-link', 0): {
        'history_sha256':
            '6e117fefcb31fce5cfc0944c38c5cdeb2e74699eb7ef3f1a5d371e023c4271f6',
        'converge_time': 0.0,
        'detect_latency': 0.009000000000000008,
    },
    ('jittery-link', 1009): {
        'history_sha256':
            '6e117fefcb31fce5cfc0944c38c5cdeb2e74699eb7ef3f1a5d371e023c4271f6',
        'converge_time': 0.0,
        'detect_latency': 0.009000000000000008,
    },
    ('loss-storm', 0): {
        'history_sha256':
            'f149db86e1da0b7093a8d3460f6f529e91b423784e3abe3a2f60b0c383091d49',
        'converge_time': 0.020000000000000018,
    },
    ('loss-storm', 1009): {
        'history_sha256':
            '006ee193bfbc2c03f82241213f0a1c33239a7ccc8e888871a70f791886fc093f',
        'converge_time': 0.020000000000000018,
    },
    ('partition-flapping', 0): {
        'history_sha256':
            '6d58f6b5a5aa56ca0786fc84b013c403acda6ae6d0ea09d007dc7682c97a28ef',
        'converge_time': 0.0,
    },
    ('partition-flapping', 1009): {
        'history_sha256':
            '6d58f6b5a5aa56ca0786fc84b013c403acda6ae6d0ea09d007dc7682c97a28ef',
        'converge_time': 0.0,
    },
    ('partition-heal', 0): {
        'history_sha256':
            'c681c929c8998bf05984f2741518e5c2c9ba19e01df8b8af8abd4c7b5ecdbe36',
    },
    ('partition-heal', 1009): {
        'history_sha256':
            'c681c929c8998bf05984f2741518e5c2c9ba19e01df8b8af8abd4c7b5ecdbe36',
    },
    ('partition-stale', 0): {
        'history_sha256':
            'e03be7dd1488b77294af0ba85358b37ee9b142eefd5e84ccc69979dca3207cdc',
        'converge_time': 0.020000000000000018,
    },
    ('partition-stale', 1009): {
        'history_sha256':
            'e03be7dd1488b77294af0ba85358b37ee9b142eefd5e84ccc69979dca3207cdc',
        'converge_time': 0.020000000000000018,
    },
    ('pause-resume', 0): {
        'history_sha256':
            '0e1f7feab43b23ba0c3c72bda2dd52c08256aef9c928e8a8a5ad53e29bb56ee7',
        'converge_time': 0.0,
        'detect_latency': 0.01200000000000001,
    },
    ('pause-resume', 1009): {
        'history_sha256':
            '0e1f7feab43b23ba0c3c72bda2dd52c08256aef9c928e8a8a5ad53e29bb56ee7',
        'converge_time': 0.0,
        'detect_latency': 0.01200000000000001,
    },
    ('ring-partition', 0): {
        'history_sha256':
            'aba45e20eddcb0394f3d7da428c2766d4763064f9f78bfa8daeb513588bae813',
        'converge_time': 0.01999999999999999,
    },
    ('ring-partition', 1009): {
        'history_sha256':
            'aba45e20eddcb0394f3d7da428c2766d4763064f9f78bfa8daeb513588bae813',
        'converge_time': 0.01999999999999999,
    },
    ('slow-node', 0): {
        'history_sha256':
            '7fefec0340835d322e4c885d6ab58aea68b14d229acffed6d3015c2a4812bb17',
        'converge_time': 0.0,
        'detect_latency': 0.014000000000000012,
    },
    ('slow-node', 1009): {
        'history_sha256':
            '7fefec0340835d322e4c885d6ab58aea68b14d229acffed6d3015c2a4812bb17',
        'converge_time': 0.0,
        'detect_latency': 0.014000000000000012,
    },
}



def test_every_scenario_is_pinned():
    assert {name for name, _seed in GOLDEN} == set(SCENARIOS)


@pytest.mark.parametrize(
    "name,seed", sorted(GOLDEN), ids=[f"{n}-{s}" for n, s in sorted(GOLDEN)],
)
def test_scenario_history_matches_golden(name, seed):
    got = fingerprint(name, seed)
    for key, want in GOLDEN[(name, seed)].items():   # key by key: readable diffs
        assert got.pop(key) == want, key
    assert not got


if __name__ == "__main__":
    import pprint

    pprint.pprint(
        {(name, seed): fingerprint(name, seed)
         for name in SCENARIOS for seed in SEEDS},
        width=78, sort_dicts=True,
    )
