"""Property-based tests for the anti-entropy repair layer.

Two families:

* codec properties — digest and repair-pull frames round-trip
  byte-exactly through the wire codec for arbitrary vectors and range
  lists;
* protocol properties — a repair-enabled cluster under heavy loss (control
  PDUs included, so digests and pulls get lost too) delivers exactly the
  loss-free sequence: same messages, same per-source order, at every
  entity.  The repair tiers may only *heal* — never duplicate, reorder or
  invent deliveries.
"""

from hypothesis import given, settings, strategies as st

from repro.core.cluster import build_cluster
from repro.core.codec import decode_pdu, encode_pdu
from repro.core.config import ProtocolConfig
from repro.core.pdu import DigestPdu, RepairPullPdu
from repro.net.loss import BernoulliLoss, TargetedLoss
from repro.ordering.checker import verify_run
from repro.sim.rng import RngRegistry

U32 = st.integers(min_value=1, max_value=2 ** 32 - 1)
U32_0 = st.integers(min_value=0, max_value=2 ** 32 - 1)
U16 = st.integers(min_value=0, max_value=2 ** 16 - 1)


@st.composite
def digest_pdus(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    return DigestPdu(
        cid=draw(U32_0),
        src=draw(st.integers(min_value=0, max_value=n - 1)),
        target=draw(U16),
        view=draw(U32_0),
        ack=tuple(draw(st.lists(U32, min_size=n, max_size=n))),
        delivered=tuple(draw(st.lists(U32, min_size=n, max_size=n))),
        buf=draw(U32_0),
    )


@st.composite
def repair_pull_pdus(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    count = draw(st.integers(min_value=0, max_value=8))
    ranges = []
    for _ in range(count):
        lo = draw(st.integers(min_value=1, max_value=2 ** 32 - 2))
        hi = draw(st.integers(min_value=lo + 1, max_value=2 ** 32 - 1))
        ranges.append((draw(U16), lo, hi))
    return RepairPullPdu(
        cid=draw(U32_0),
        src=draw(st.integers(min_value=0, max_value=n - 1)),
        target=draw(U16),
        ranges=tuple(ranges),
        ack=tuple(draw(st.lists(U32, min_size=n, max_size=n))),
        buf=draw(U32_0),
    )


# ----------------------------------------------------------------------
# Codec properties
# ----------------------------------------------------------------------
@given(digest_pdus())
def test_digest_roundtrip_byte_exact(pdu):
    frame = encode_pdu(pdu)
    decoded = decode_pdu(frame)
    assert isinstance(decoded, DigestPdu)
    assert decoded == pdu
    assert encode_pdu(decoded) == frame


@given(repair_pull_pdus())
def test_repair_pull_roundtrip_byte_exact(pdu):
    frame = encode_pdu(pdu)
    decoded = decode_pdu(frame)
    assert isinstance(decoded, RepairPullPdu)
    assert decoded == pdu
    assert encode_pdu(decoded) == frame
    assert decoded.requested_pdus == pdu.requested_pdus


@given(digest_pdus(), repair_pull_pdus())
def test_repair_frames_are_control_and_compact(digest, pull):
    assert digest.is_control and pull.is_control
    # Exact codec footprint (fixed header + vectors + buf + CRC trailer):
    # digests stay O(n); pulls stay O(n + ranges) — the whole point of the
    # lazy tiers is that neither grows with the amount of repaired data.
    n = len(digest.ack)
    assert len(encode_pdu(digest)) == 16 + 8 * n + 8
    m, r = len(pull.ack), len(pull.ranges)
    assert len(encode_pdu(pull)) == 14 + 4 * m + 10 * r + 8
    # The modelled byte accounting (wire_size is a 4-byte-int field model,
    # like every other PDU type) tracks the same asymptotics.
    assert digest.wire_size() == (5 + 2 * n) * 4
    assert pull.wire_size() == (4 + m + 3 * r) * 4


# ----------------------------------------------------------------------
# Protocol properties
# ----------------------------------------------------------------------
def _per_source_tables(cluster, n):
    """Per-entity, per-source ``(seq, payload)`` delivery projections.

    The protocol orders *causally*, not totally: concurrent messages from
    different sources may legitimately interleave differently between a
    lossy and a loss-free run (arrival order changes which PACK fires
    first).  What must be byte-identical is each source's subsequence —
    same seqs, same payloads, same order, nothing missing or invented.
    """
    tables = []
    for i in range(n):
        rows = [[] for _ in range(n)]
        for m in cluster.delivered(i):
            rows[m.src].append((m.seq, m.data))
        tables.append(rows)
    return tables


def _run_workload(seed, n, per_entity, loss, repair):
    config = ProtocolConfig(
        suspect_timeout=0.05,
        anti_entropy_interval=0.01 if repair else None,
        delta_sync_threshold=6,
    )
    cluster = build_cluster(
        n, config=config, loss=loss, rngs=RngRegistry(seed),
    )
    for k in range(per_entity):
        for i in range(n):
            cluster.submit(i, f"m-{i}-{k}")
    cluster.run_until_quiescent(max_time=120.0)
    return cluster


@settings(deadline=None, max_examples=15)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    n=st.integers(min_value=2, max_value=5),
    per_entity=st.integers(min_value=1, max_value=6),
    loss_rate=st.sampled_from((0.1, 0.25)),
)
def test_repaired_deliveries_match_loss_free_run(seed, n, per_entity, loss_rate):
    """The end-to-end equivalence oracle: a lossy repair-enabled run ends
    with every entity's per-source delivery projection byte-identical to
    the loss-free run of the same workload — repair heals, and never
    duplicates, reorders within a source, or invents deliveries.

    Loss is unprotected: digests, pulls and delta bursts drop too, so the
    repair machinery must also recover from losing itself.
    """
    reference = _run_workload(seed, n, per_entity, loss=None, repair=False)
    lossy = _run_workload(
        seed, n, per_entity,
        loss=BernoulliLoss(loss_rate, protect_control=False), repair=True,
    )
    assert _per_source_tables(lossy, n) == _per_source_tables(reference, n)
    verify_run(lossy.trace, n, expect_all_delivered=True).assert_ok()


@settings(deadline=None, max_examples=10)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    rate=st.sampled_from((0.4, 0.6)),
)
def test_storm_victim_converges_with_repair(seed, rate):
    """A victim losing most inbound traffic still converges to per-source
    projections byte-identical to the loss-free run."""
    n = 4
    reference = _run_workload(seed, n, 4, loss=None, repair=False)
    lossy = _run_workload(
        seed, n, 4, loss=TargetedLoss({n - 1}, rate=rate), repair=True,
    )
    assert _per_source_tables(lossy, n) == _per_source_tables(reference, n)
    verify_run(lossy.trace, n, expect_all_delivered=True).assert_ok()


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(min_value=0, max_value=2 ** 16))
def test_repair_layer_is_quiet_without_staleness(seed):
    """On a loss-free run the repair layer sends digests but never needs a
    pull or a delta — anti-entropy must not manufacture repair traffic."""
    cluster = _run_workload(seed, 4, 3, loss=None, repair=True)
    totals = {}
    for member in cluster.counters():
        for key, value in member["engine"].items():
            totals[key] = totals.get(key, 0) + value
    assert totals["digests_sent"] > 0
    assert totals["pulls_sent"] == 0
    assert totals["delta_pdus_sent"] == 0
    assert totals["repair_escalations"] == 0
