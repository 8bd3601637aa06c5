"""Property-based tests for frame batching.

Two families:

* codec properties — batch frames round-trip byte-exactly through the wire
  codec, including MTU splits and the empty (pure-confirmation) frame;
* protocol properties — a cluster mixing batched and unbatched senders
  under injected loss and duplication still satisfies the full CO service
  contract as judged by the independent causal-order checker, and a run
  capped at k PDUs per frame delivers what the one-PDU-per-frame run does.

A frame is what one pump of the send queue releases, so the protocol
properties draw the flow window too: bursts deeper than it are what make
multi-PDU frames.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.cluster import build_cluster
from repro.core.codec import decode_pdu, encode_pdu, split_batch
from repro.core.config import ProtocolConfig
from repro.core.entity import COEntity
from repro.core.pdu import BatchPdu, DataPdu
from repro.net.loss import BernoulliLoss, DuplicatingChannel
from repro.ordering.checker import verify_run
from repro.sim.rng import RngRegistry

U32 = st.integers(min_value=1, max_value=2 ** 32 - 1)
U32_0 = st.integers(min_value=0, max_value=2 ** 32 - 1)


@st.composite
def batch_pdus(draw, min_inner=0, max_inner=6):
    n = draw(st.integers(min_value=1, max_value=8))
    cid = draw(U32_0)
    src = draw(st.integers(min_value=0, max_value=n - 1))
    count = draw(st.integers(min_value=min_inner, max_value=max_inner))
    start = draw(st.integers(min_value=1, max_value=2 ** 32 - 1001))
    seqs = sorted(draw(st.sets(
        st.integers(min_value=start, max_value=start + 1000),
        min_size=count, max_size=count,
    )))
    inners = tuple(
        DataPdu(
            cid=cid, src=src, seq=seq,
            ack=tuple(draw(st.lists(U32, min_size=n, max_size=n))),
            buf=draw(U32_0),
            data=draw(st.one_of(st.none(), st.binary(max_size=120))),
        )
        for seq in seqs
    )
    return BatchPdu(
        cid=cid, src=src,
        ack=tuple(draw(st.lists(U32, min_size=n, max_size=n))),
        pack=tuple(draw(st.lists(U32_0, min_size=n, max_size=n))),
        buf=draw(U32_0),
        pdus=inners,
    )


# ----------------------------------------------------------------------
# Codec properties
# ----------------------------------------------------------------------
@given(batch_pdus())
def test_batch_roundtrip_byte_exact(pdu):
    frame = encode_pdu(pdu)
    decoded = decode_pdu(frame)
    assert isinstance(decoded, BatchPdu)
    assert decoded.cid == pdu.cid
    assert decoded.src == pdu.src
    assert decoded.ack == pdu.ack
    assert decoded.pack == pdu.pack
    assert decoded.buf == pdu.buf
    assert decoded.seqs == pdu.seqs
    for got, want in zip(decoded.pdus, pdu.pdus):
        assert got.ack == want.ack
        assert got.is_null == want.is_null
    # Byte-exact: re-encoding the decoded frame reproduces the wire image.
    assert encode_pdu(decoded) == frame


@given(st.tuples(U32_0, st.integers(0, 7)))
def test_empty_batch_is_a_control_frame(fields):
    cid, src = fields
    pdu = BatchPdu(cid=cid, src=src, ack=(1,) * 8, pack=(0,) * 8, buf=42)
    assert pdu.is_control and pdu.pdu_count == 0
    decoded = decode_pdu(encode_pdu(pdu))
    assert decoded == pdu
    assert encode_pdu(decoded) == encode_pdu(pdu)


@given(batch_pdus(min_inner=1), st.integers(min_value=1, max_value=400))
def test_split_batch_preserves_content(pdu, mtu):
    chunks = split_batch(pdu, mtu)
    # The final chunk carries the original header; every earlier one
    # differs in ``ack[src]`` alone, capped at its own last seq + 1 so it
    # never names a seq that travels in a later chunk.
    assert replace(chunks[-1], pdus=pdu.pdus) == pdu
    src = pdu.src
    recovered = []
    previous_cap = 0
    for chunk in chunks:
        cap = chunk.ack[src]
        assert replace(
            chunk, ack=pdu.ack, pdus=pdu.pdus,
        ) == pdu, "header differs outside ack[src]"
        if chunk is not chunks[-1]:
            assert cap == min(pdu.ack[src], chunk.seqs[-1] + 1)
        assert previous_cap <= cap
        previous_cap = cap
        assert chunk.pdu_count >= 1
        decoded = decode_pdu(encode_pdu(chunk))
        assert encode_pdu(decoded) == encode_pdu(chunk)
        recovered.extend(chunk.seqs)
    # The union of the chunks is exactly the original batch, in order.
    assert tuple(recovered) == pdu.seqs
    # Chunks respect the MTU unless a single inner PDU alone exceeds it.
    for chunk in chunks:
        if chunk.pdu_count > 1:
            assert len(encode_pdu(chunk)) <= mtu


@given(batch_pdus())
def test_split_fits_means_identity(pdu):
    frame = encode_pdu(pdu)
    assert split_batch(pdu, len(frame)) == [pdu]


# ----------------------------------------------------------------------
# Protocol properties
# ----------------------------------------------------------------------
def _mixed_factory(index, n, config, clock, trace, advertised_buf, joining=False):
    """Even entities batch, odd entities send classic one-PDU frames."""
    cfg = config if index % 2 == 0 else config.with_(batch_max_pdus=1)
    return COEntity(index, n, cfg, clock, trace, advertised_buf, joining=joining)


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    n=st.integers(min_value=2, max_value=5),
    batch=st.integers(min_value=2, max_value=6),
    loss_rate=st.sampled_from((0.0, 0.05, 0.15)),
    duplicate=st.booleans(),
    per_entity=st.integers(min_value=1, max_value=8),
    window=st.integers(min_value=1, max_value=8),
)
def test_mixed_batching_preserves_causal_order(
    seed, n, batch, loss_rate, duplicate, per_entity, window
):
    cluster = build_cluster(
        n,
        config=ProtocolConfig(batch_max_pdus=batch, window=window),
        loss=BernoulliLoss(loss_rate, protect_control=True) if loss_rate else None,
        duplication=DuplicatingChannel(rate=0.2, max_extra=1) if duplicate else None,
        rngs=RngRegistry(seed),
        engine_factory=_mixed_factory,
    )
    for k in range(per_entity):
        for i in range(n):
            cluster.submit(i, f"m-{i}-{k}")
    cluster.run_until_quiescent(max_time=60.0)
    verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()


@settings(deadline=None, max_examples=10)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    batch=st.integers(min_value=2, max_value=8),
)
def test_batching_under_loss_delivers_everything(seed, batch):
    """Losing whole frames (several PDUs at once) still repairs via RET."""
    n = 4
    cluster = build_cluster(
        n,
        config=ProtocolConfig(batch_max_pdus=batch, window=2),
        loss=BernoulliLoss(0.2, protect_control=True),
        rngs=RngRegistry(seed),
    )
    for k in range(3 * n):
        cluster.submit(k % n, f"lossy-{k}")
    cluster.run_until_quiescent(max_time=60.0)
    verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
    for i in range(n):
        assert len(cluster.delivered(i)) == 3 * n


def _outcome(cluster):
    """What the service pins down: per member, the delivered set, each
    source's delivery order, and the final PACK floor and REQ vector."""
    out = []
    for host in cluster.hosts:
        per_source = [[] for _ in range(cluster.n)]
        for m in cluster.delivered(host.index):
            per_source[m.src].append(m.seq)
        out.append((
            per_source,
            tuple(host.engine._preack_floor),
            tuple(host.engine.state.req),
        ))
    return out


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    n=st.integers(min_value=2, max_value=5),
    window=st.integers(min_value=1, max_value=8),
    cap=st.integers(min_value=2, max_value=8),
    bursts=st.lists(st.integers(min_value=0, max_value=20), min_size=5, max_size=5),
    loss_rate=st.sampled_from((0.0, 0.02, 0.1)),
)
def test_capped_run_agrees_with_the_one_pdu_per_frame_run(
    seed, n, window, cap, bursts, loss_rate
):
    def run(batch_max_pdus):
        cluster = build_cluster(
            n,
            config=ProtocolConfig(batch_max_pdus=batch_max_pdus, window=window),
            loss=BernoulliLoss(loss_rate, protect_control=True) if loss_rate else None,
            rngs=RngRegistry(seed),
        )
        for i in range(n):
            for k in range(bursts[i]):
                cluster.submit(i, f"b-{i}-{k}")
        cluster.run_until_quiescent(max_time=120.0)
        verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
        return cluster

    assert _outcome(run(cap)) == _outcome(run(1))
