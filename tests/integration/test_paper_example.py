"""Integration test: the paper's worked example, end to end.

Reproduces Table 1, Examples 4.1 and 4.2 and Figure 7 exactly — every SEQ
and ACK field, the evolution of REQ / AL, the pre-acknowledgment sets and
the CPI insertions ending in ``PRL = <a c b d e>``, then drives the
confirmation rounds to full acknowledgment and checks the delivery order at
all three entities.
"""

import pytest

from repro.core.causality import causally_coincident, causally_precedes
from repro.workloads.scenarios import run_fig7_example

#: Table 1, 0-based sources (paper's E1/E2/E3 = 0/1/2).
TABLE_1 = {
    "a": (0, 1, (1, 1, 1)),
    "b": (2, 1, (2, 1, 1)),
    "c": (0, 2, (2, 1, 1)),
    "d": (1, 1, (3, 1, 2)),
    "e": (0, 3, (3, 2, 2)),
    "f": (0, 4, (4, 2, 2)),
    "g": (1, 2, (4, 2, 2)),
    "h": (2, 2, (5, 3, 2)),
}


@pytest.fixture(scope="module")
def fig7():
    return run_fig7_example()


def acknowledged(fig7, engine):
    """The ids ``engine`` acknowledged, in order: its ``ack`` records."""
    records = fig7["cluster"].trace.select("ack", entity=engine.index)
    return [(r.get("src"), r.get("seq")) for r in records]


def test_table_1_fields_exact(fig7):
    for name, (src, seq, ack) in TABLE_1.items():
        p = fig7["pdus"][name]
        assert (p.src, p.seq, p.ack) == (src, seq, ack), name


def test_req_after_h_matches_example(fig7):
    # Example 4.1: "When h is accepted, REQ = <5, 3, 3>".
    for engine in fig7["cluster"].engines:
        assert engine.state.req == [5, 3, 3]


def test_min_al_after_h_matches_example(fig7):
    # With AL rows from g (<4,2,2>), h (<5,3,2>) and own REQ (<5,3,3>):
    # minAL = <4, 2, 2>, so b, c, d, e join a as pre-acknowledged.
    e0 = fig7["cluster"].engines[0]
    assert [e0.state.min_al(k) for k in range(3)] == [4, 2, 2]


def test_preacknowledged_set_matches_example(fig7):
    # a..e pre-acknowledged; f, g, h not yet (seq >= minAL of their source).
    for engine in fig7["cluster"].engines:
        moved = {p.pdu_id for p in engine.prl} | set(acknowledged(fig7, engine))
        assert moved == {(0, 1), (0, 2), (0, 3), (1, 1), (2, 1)}
        assert engine.rrl.total == 3  # f, g, h still in RRL


def test_prl_is_the_paper_cpi_order(fig7):
    # Figure 7(b): <a c b d e>; `a` may already be acknowledged (its ACK
    # condition holds as soon as minPAL_1 reaches 2), so check the
    # acknowledged order followed by PRL.
    names = {TABLE_1[k][:2]: k for k in TABLE_1}
    ids = {v: k for k, v in names.items()}
    for engine in fig7["cluster"].engines:
        sequence = [names[pdu_id] for pdu_id in acknowledged(fig7, engine)] + [
            names[(p.src, p.seq)] for p in engine.prl
        ]
        assert sequence == ["a", "c", "b", "d", "e"]


def test_causality_relations_of_example(fig7):
    p = fig7["pdus"]
    assert causally_precedes(p["a"], p["b"])
    assert causally_coincident(p["b"], p["c"])
    assert causally_precedes(p["c"], p["d"])   # c.seq < d.ack[0]
    assert causally_precedes(p["b"], p["d"])
    assert causally_precedes(p["d"], p["e"])
    assert causally_precedes(p["a"], p["h"])


def test_full_acknowledgment_and_delivery_order(fig7):
    # Example 4.2 continued: the confirmation rounds acknowledge everything
    # and every entity delivers in the same causality-consistent order
    # a c b d e f g h (b ~ c resolved by CPI arrival order).
    cluster = fig7["cluster"]
    cluster.advance(1.0)
    cluster.flush_control(rounds=5)
    for i in range(3):
        assert [m.data for m in cluster.delivered[i]] == list("acbdefgh")


def test_all_engines_drained_after_flush(fig7):
    for engine in fig7["cluster"].engines:
        assert engine.quiescent
        assert engine.counters.acknowledged == 8
