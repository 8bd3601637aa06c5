"""Property tests for the hierarchical sharding layer (PROTOCOL.md §18).

Three independent properties:

* **Cross-group causal safety** — for randomized group shapes, submission
  schedules and (optionally) a backbone partition window, no entity ever
  delivers a message before one of its causal predecessors, judged by
  :func:`~repro.ordering.checker.verify_run` over an application-level
  event log rebuilt *independently* of the engines (delivered-before-
  submitted edges, a sound subset of the protocol's acceptance-based
  relation).

* **InterGroupPdu codec totality** — every syntactically valid barrier
  frame round-trips bit-exactly, and *every* strict prefix of an encoded
  frame is rejected with :class:`CodecError`, never mis-decoded.

* **View-local state is pure bookkeeping** — a :class:`KnowledgeState`
  constructed over an arbitrary roster behaves identically to the
  identity-roster state under any op sequence; the roster only adds the
  ``row_of``/``global_of`` bijection.  This is the refactor-safety claim
  behind sizing the matrices to the membership view.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.codec import CodecError, decode_pdu, encode_pdu
from repro.core.config import ProtocolConfig
from repro.core.groups import (
    GroupPartition,
    HierarchicalCluster,
    build_hierarchical_cluster,
)
from repro.core.pdu import InterGroupPdu
from repro.core.state import KnowledgeState
from repro.ordering.checker import verify_run
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog

U32 = st.integers(min_value=1, max_value=2 ** 32 - 1)
U32_0 = st.integers(min_value=0, max_value=2 ** 32 - 1)
U16 = st.integers(min_value=0, max_value=2 ** 16 - 1)


# ----------------------------------------------------------------------
# Cross-group causal order under randomized runs
# ----------------------------------------------------------------------
@st.composite
def hierarchy_runs(draw):
    n = draw(st.integers(min_value=6, max_value=10))
    group_size = draw(st.integers(min_value=2, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    messages = draw(st.integers(min_value=6, max_value=14))
    partition_window = draw(st.one_of(
        st.none(),
        st.tuples(
            st.floats(min_value=0.001, max_value=0.02),
            st.floats(min_value=0.025, max_value=0.06),
        ),
    ))
    return n, group_size, seed, messages, partition_window


@settings(max_examples=10, deadline=None)
@given(hierarchy_runs())
def test_randomized_runs_never_violate_cross_group_causality(params):
    n, group_size, seed, messages, window = params
    schedule_rng = random.Random(seed)
    backbone = GroupPartition()
    cluster = build_hierarchical_cluster(
        n,
        config=ProtocolConfig(group_size=group_size),
        rngs=RngRegistry(seed),
        backbone_loss=backbone,
    )
    assert isinstance(cluster, HierarchicalCluster)
    G = len(cluster.groups)
    if window is not None and G >= 2:
        cut, heal = window
        a, b = schedule_rng.sample(range(G), 2)
        cluster.sim.schedule(cut, lambda: backbone.partition(a, b))
        cluster.sim.schedule(heal, backbone.heal)
    # Random submission schedule; app-level ids are (sender, k-th own
    # submission *in time order* — the id scheme delivered() renumbers to).
    schedule = sorted(
        (schedule_rng.uniform(0.0, 0.05), schedule_rng.randrange(n))
        for _ in range(messages)
    )
    submits = []
    counts = [0] * n
    for at, sender in schedule:
        counts[sender] += 1
        message = (sender, counts[sender])
        submits.append((at, message))
        cluster.sim.schedule_at(
            at, cluster.submit, sender, f"m-{message[0]}-{message[1]}",
        )
    # Step past the whole schedule (and any heal) before asking for
    # quiescence — a sparse schedule has idle gaps wider than the
    # quiescence detector's settle window.
    cluster.run_for(0.07)
    cluster.run_until_quiescent(max_time=60.0)

    everything = {message for _, message in submits}
    sequences = {
        i: [(m.src, m.seq) for m in cluster.delivered(i)] for i in range(n)
    }
    for i in range(n):
        assert set(sequences[i]) == everything, f"entity {i} is missing messages"

    # Rebuild happened-before independently of the engines: a message
    # "accepted" (delivered) at its future sender before the send is a
    # causal predecessor.  Sound subset of acceptance-based causality.
    synth = TraceLog()
    events = []
    for at, (src, seq) in submits:
        events.append((at, 0, "broadcast", src, {"kind": "DataPdu", "seq": seq}))
    for i in range(n):
        for m in cluster.delivered(i):
            for category in ("accept", "deliver"):
                events.append(
                    (m.delivered_at, 1, category, i, {"src": m.src, "seq": m.seq}),
                )
    events.sort(key=lambda e: (e[0], e[1]))
    for at, _, category, entity, fields in events:
        synth.record(at, category, entity, **fields)
    verify_run(synth, n).assert_ok()

    # And the relay layer itself drained: no inter-group stream has gaps.
    for origin, owner in enumerate(cluster.bridges):
        for bridge in cluster.bridges:
            assert bridge.seen[origin] == owner.seen[origin]
            assert not bridge.pending[origin]


# ----------------------------------------------------------------------
# InterGroupPdu codec round-trip and truncation
# ----------------------------------------------------------------------
@st.composite
def intergroup_pdus(draw):
    if draw(st.booleans()):
        return InterGroupPdu(
            cid=draw(U32_0),
            origin_group=draw(U16),
            sender_group=draw(U16),
            src=0,
            seq=1,
            gseq=draw(U32),
            barrier=(),
            buf=draw(U32_0),
            ack=True,
        )
    barrier = tuple(draw(st.lists(U32_0, min_size=1, max_size=12)))
    payload = draw(st.one_of(st.none(), st.binary(max_size=120)))
    return InterGroupPdu(
        cid=draw(U32_0),
        origin_group=draw(U16),
        sender_group=draw(U16),
        src=draw(U16),
        seq=draw(U32),
        gseq=draw(U32),
        barrier=barrier,
        buf=draw(U32_0),
        data=payload,
        data_size=0 if payload is None else len(payload),
    )


@settings(max_examples=200, deadline=None)
@given(intergroup_pdus())
def test_intergroup_roundtrip(pdu):
    frame = encode_pdu(pdu)
    decoded = decode_pdu(frame)
    assert decoded == pdu
    assert encode_pdu(decoded) == frame


@settings(max_examples=60, deadline=None)
@given(intergroup_pdus(), st.data())
def test_intergroup_truncation_rejected(pdu, data):
    frame = encode_pdu(pdu)
    cut = data.draw(st.integers(min_value=1, max_value=len(frame) - 1))
    try:
        decode_pdu(frame[:cut])
    except CodecError:
        return
    raise AssertionError(f"truncated frame of {cut}/{len(frame)} bytes decoded")


# ----------------------------------------------------------------------
# View-local KnowledgeState: the roster is pure bookkeeping
# ----------------------------------------------------------------------
@st.composite
def roster_op_sequences(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    index = draw(st.integers(min_value=0, max_value=n - 1))
    # An arbitrary injective global roster, e.g. members (17, 3, 42, ...).
    roster = draw(st.permutations(range(50)).map(lambda p: tuple(p[:n])))
    others = [j for j in range(n) if j != index]
    vector = st.lists(
        st.integers(min_value=1, max_value=30), min_size=n, max_size=n,
    )
    observer = st.integers(min_value=0, max_value=n - 1)
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("al"), observer, vector),
            st.tuples(st.just("pal"), observer, vector),
            st.tuples(st.just("buf"), observer,
                      st.integers(min_value=0, max_value=40)),
            st.tuples(st.just("accept"), observer, st.just(None)),
            st.tuples(st.just("excl"), st.sampled_from(others), st.booleans()),
        ),
        min_size=1, max_size=40,
    ))
    return n, index, roster, ops


@settings(max_examples=150, deadline=None)
@given(roster_op_sequences())
def test_roster_state_matches_identity_state(params):
    n, index, roster, ops = params
    local = KnowledgeState(n, index, roster=roster)
    ident = KnowledgeState(n, index)
    for kind, target, arg in ops:
        if kind in ("al", "pal"):
            merge_l = local.merge_al if kind == "al" else local.merge_pal
            merge_i = ident.merge_al if kind == "al" else ident.merge_pal
            out_l, out_i = merge_l(target, arg), merge_i(target, arg)
            assert (out_l.changed, out_l.dirty) == (out_i.changed, out_i.dirty)
        elif kind == "buf":
            local.update_buf(target, arg)
            ident.update_buf(target, arg)
        elif kind == "accept":
            seq = ident.req[target]
            out_l, out_i = local.accept(target, seq), ident.accept(target, seq)
            assert (out_l.changed, out_l.dirty) == (out_i.changed, out_i.dirty)
        else:
            local.set_excluded(target, arg)
            ident.set_excluded(target, arg)
        snap_l, snap_i = local.snapshot(), ident.snapshot()
        assert snap_l.pop("roster") == list(roster)
        assert snap_i.pop("roster") == list(range(n))
        assert snap_l == snap_i
    # The membership map is the advertised bijection.
    for row, member in enumerate(roster):
        assert local.row_of(member) == row
        assert local.global_of(row) == member
