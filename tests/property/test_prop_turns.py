"""Property test: a turn reads what the one-by-one feed reads.

Member 0 of a seeded simulated cluster (others sending, loss on or off)
records every PDU it was handed.  Two fresh engines replay that input: one
PDU per turn, and cut into random bursts that each run as one turn
(docs/PROTOCOL.md §7).  Knowledge is a max-merge and the PACK / ACK
conditions are monotone in it, so both must end with the same REQ, the
same AL and PAL matrices, the same pre-acknowledged backlog and the same
deliveries, each source's in sequence order.
"""

from hypothesis import given, settings, strategies as st

from repro.core.cluster import build_cluster
from repro.core.config import ProtocolConfig
from repro.core.entity import COEntity
from repro.net.loss import BernoulliLoss
from repro.sim.rng import RngRegistry
from tests.conftest import EngineDriver


def _recorded_input(seed, n, cap, loss_rate, bursts):
    """Every PDU member 0 was handed in one seeded run; it sends no data."""
    seen = []

    class Recording(COEntity):
        def on_pdu(self, pdu):
            if self.index == 0:
                seen.append(pdu)
            super().on_pdu(pdu)

    cluster = build_cluster(
        n,
        config=ProtocolConfig(batch_max_pdus=cap, window=4),
        loss=BernoulliLoss(loss_rate, protect_control=True) if loss_rate else None,
        rngs=RngRegistry(seed),
        engine_factory=Recording,
    )
    for b, (member, count, start_ms) in enumerate(bursts):
        for k in range(count):
            cluster.sim.schedule(
                start_ms * 1e-3, cluster.submit, 1 + member % (n - 1), f"b{b}-{k}",
            )
    cluster.run_until_quiescent(max_time=60.0)
    return seen


def _end_state(driver):
    engine = driver.engine
    per_source = {}
    for m in driver.delivered:
        per_source.setdefault(m.src, []).append(m.seq)
    return {
        "req": engine.state.req_vector(),
        "al": [list(row) for row in engine.state.al],
        "pal": [list(row) for row in engine.state.pal],
        "prl": sorted(p.pdu_id for p in engine.prl),
        "delivered": per_source,
    }


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    n=st.integers(min_value=2, max_value=5),
    cap=st.integers(min_value=1, max_value=8),
    loss_rate=st.sampled_from((0.0, 0.05)),
    bursts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),      # sender (mod n-1, never 0)
            st.integers(min_value=1, max_value=10),     # messages
            st.integers(min_value=0, max_value=10),     # start, in ms
        ),
        min_size=1, max_size=4,
    ),
    cuts=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=50),
)
def test_bursts_as_turns_end_where_the_one_by_one_feed_ends(
    seed, n, cap, loss_rate, bursts, cuts
):
    pdus = _recorded_input(seed, n, cap, loss_rate, bursts)
    config = ProtocolConfig(batch_max_pdus=cap, window=4)
    one_by_one, turns = EngineDriver(0, n, config), EngineDriver(0, n, config)
    for pdu in pdus:
        one_by_one.receive(pdu)
    start, k = 0, 0
    while start < len(pdus):
        size = cuts[k % len(cuts)]
        turns.receive_turn(pdus[start:start + size])
        start, k = start + size, k + 1
    expected = _end_state(one_by_one)
    assert _end_state(turns) == expected
    for seqs in expected["delivered"].values():
        assert seqs == sorted(seqs)
    # Turns fold heard-from-all rounds; they never add one.
    assert len(turns.heartbeats_sent) <= len(one_by_one.heartbeats_sent)
