"""Golden histories: every nemesis scenario replays bit-for-bit from its seed.

Each of the scenarios is pinned at seed 0 and at seed 1009 (the second
round of a ``--seed 0`` campaign) to a SHA-256 over its observable history
— every engine's view log and every entity's delivery ids — plus the
simulated ``converge_time`` / ``detect_latency`` where the scenario
reports one.  The literals were captured before the scenarios became
declarative specs driven by one runner and pass unchanged after it: a
change to the harness that reorders one same-instant fault, moves one
submission or draws one RNG value out of order fails here.

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
            '189d8cc82a1da58310cb351d83021d0af971dc236a072f94b71c55db06e9a904',
    },
    ('batching', 1009): {
        'history_sha256':
            '4c6ee60116f739b4b966379bec91421b7d399d749c7f4143b1037e245025996a',
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
            '2a1c94836a19ee1bb067ef890d6466df3142c907071011e9b47591ef72489725',
    },
    ('combo', 1009): {
        'history_sha256':
            'cc43b3be68ece760200d1dc8ccd430493d953113377421a4b98d7dde33c9001f',
    },
    ('corruption', 0): {
        'history_sha256':
            '625c1e84c40b39e459bb95fff5f8017f232c7b6a30c89b596f0ac26327d0a89c',
    },
    ('corruption', 1009): {
        'history_sha256':
            'a712890329f5084af4d78d07f11208f30b8b23cbd2f5701145e16ebebd24b535',
    },
    ('crash-evict-rejoin', 0): {
        'history_sha256':
            'ce407ae03c13bf44fd15805e6e86068c8acc79ad0519cd0138e83a1761e2171a',
    },
    ('crash-evict-rejoin', 1009): {
        'history_sha256':
            '043da5b8de735604ad939d1ab7a42bc2714c65aa8c0b9ea79ca75b5967cc7b27',
    },
    ('duplication', 0): {
        'history_sha256':
            '89d09d570fd5962b000620a74e58b92f31726375c0b3bc54b6d8c908cb198b05',
    },
    ('duplication', 1009): {
        'history_sha256':
            '37908cdbd71977eff9feac32a168d459be046a6752a15d286911f0eab4cf9dfd',
    },
    ('gossip-loss-storm', 0): {
        'history_sha256':
            'f149db86e1da0b7093a8d3460f6f529e91b423784e3abe3a2f60b0c383091d49',
        'converge_time': 0.020000000000000018,
    },
    ('gossip-loss-storm', 1009): {
        'history_sha256':
            'f149db86e1da0b7093a8d3460f6f529e91b423784e3abe3a2f60b0c383091d49',
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
            '86e33a4832ba6037d65970da5d996e638334415d96e35a3f2ec506e640eb14d1',
        'converge_time': 0.0,
    },
    ('loss-storm', 1009): {
        'history_sha256':
            '006ee193bfbc2c03f82241213f0a1c33239a7ccc8e888871a70f791886fc093f',
        'converge_time': 0.0,
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
        'detect_latency': 0.01100000000000001,
    },
    ('pause-resume', 1009): {
        'history_sha256':
            '0e1f7feab43b23ba0c3c72bda2dd52c08256aef9c928e8a8a5ad53e29bb56ee7',
        'converge_time': 0.0,
        'detect_latency': 0.01100000000000001,
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
            '581c91abf84b2912be68a298745c79d24f8391e98352d04657b6fc71457a017d',
        'converge_time': 0.0,
        'detect_latency': 0.016000000000000014,
    },
    ('slow-node', 1009): {
        'history_sha256':
            '581c91abf84b2912be68a298745c79d24f8391e98352d04657b6fc71457a017d',
        'converge_time': 0.0,
        'detect_latency': 0.016000000000000014,
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
