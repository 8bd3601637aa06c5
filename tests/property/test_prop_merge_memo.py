"""Property tests: verbatim repeats of confirmation vectors change nothing.

On sparse traffic most received ACK / PACK vectors equal the previous one
from the same member (tick probes and their answers).  ``KnowledgeState``
remembers the last tuple folded into each AL / PAL row and the engine the
last ACK tuple per carrier that named no gap, and both skip an equal one
(DESIGN.md §16).  The skip is sound because rows and REQ only grow; these
tests hold it to that:

* a stream with verbatim repeats interleaved leaves the state exactly
  where the stream without them does, and every non-repeat reports the
  same ``MergeResult``;
* an engine with the memos in place is indistinguishable — sent PDUs,
  trace records, counters, gaps, state — from one whose memos forget
  everything, on arbitrary streams with repeats anywhere;
* a list that was mutated between two merges is folded again, never
  answered from the memo.
"""

from hypothesis import given, settings, strategies as st

from repro.core.pdu import HeartbeatPdu, RetPdu
from repro.core.state import UNCHANGED, KnowledgeState
from tests.conftest import EngineDriver, make_pdu


# ----------------------------------------------------------------------
# KnowledgeState: with repeats == without repeats
# ----------------------------------------------------------------------

@st.composite
def merge_streams(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    index = draw(st.integers(min_value=0, max_value=n - 1))
    others = [j for j in range(n) if j != index]
    vector = st.lists(
        st.integers(min_value=1, max_value=30), min_size=n, max_size=n,
    ).map(tuple)
    observer = st.integers(min_value=0, max_value=n - 1)
    ops = draw(st.lists(
        st.tuples(
            st.one_of(
                st.tuples(st.sampled_from(["al", "pal"]), observer, vector),
                st.tuples(st.just("accept"), observer, st.none()),
                st.tuples(st.just("excl"), st.sampled_from(others), st.booleans()),
                st.tuples(st.just("evict"), st.sampled_from(others), st.booleans()),
            ),
            # How many verbatim repeats follow this op in the second stream.
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1, max_size=50,
    ))
    return n, index, ops


def _apply(state, op):
    kind, target, arg = op
    if kind == "al":
        return state.merge_al(target, arg)
    if kind == "pal":
        return state.merge_pal(target, arg)
    if kind == "accept":
        return state.accept(target, state.req[target])
    if kind == "excl":
        return state.set_excluded(target, arg)
    return state.set_evicted(target, arg)


@settings(max_examples=100, deadline=None)
@given(merge_streams())
def test_state_with_repeats_equals_state_without(stream):
    n, index, ops = stream
    plain = KnowledgeState(n, index)
    repeated = KnowledgeState(n, index)
    for op, repeats in ops:
        want = _apply(plain, op)
        got = _apply(repeated, op)
        if op[0] in ("al", "pal", "accept"):
            assert (got.changed, got.dirty) == (want.changed, want.dirty)
        if op[0] in ("al", "pal"):
            for _ in range(repeats):
                assert _apply(repeated, op) is UNCHANGED
        assert repeated.snapshot() == plain.snapshot()
        assert repeated.check_cache_consistency() == {}
        assert repeated.drain_al_all_dirty() == plain.drain_al_all_dirty()


def test_memo_survives_membership_changes_because_rows_only_grow():
    """Excluding, evicting and re-admitting an observer rebuilds the minima
    but never lowers a cell, so the repeat stays a no-op throughout."""
    state = KnowledgeState(3, 0)
    vec = (4, 5, 6)
    assert state.merge_al(1, vec).changed
    state.set_excluded(1, True)
    assert state.merge_al(1, vec) is UNCHANGED
    state.set_evicted(1, True)
    assert state.merge_al(1, vec) is UNCHANGED
    state.set_evicted(1, False)
    assert state.merge_al(1, vec) is UNCHANGED
    assert list(state.al[1]) == [4, 5, 6]
    assert state.check_cache_consistency() == {}


def test_mutated_list_is_never_served_from_the_memo():
    state = KnowledgeState(3, 0)
    vec = [2, 2, 2]
    assert state.merge_al(1, vec).changed
    assert state.merge_pal(1, vec).changed
    vec[2] = 9                               # same object, new content
    assert state.merge_al(1, vec).changed
    assert state.merge_pal(1, vec).changed
    assert list(state.al[1]) == list(state.pal[1]) == [2, 2, 9]
    # A tuple equal to a list folded earlier is folded the slow way (the
    # list was never remembered) and, rows being monotone, changes nothing.
    assert not state.merge_al(1, (2, 2, 9)).changed
    # ...and only now is it the remembered vector.
    assert state.merge_al(1, (2, 2, 9)) is UNCHANGED
    assert state.merge_al(1, (2, 3, 9)).changed


def test_an_older_vector_between_two_equal_ones_is_handled():
    """Only the *last* tuple is remembered; an older one in between goes
    through the fold (a no-op, rows being monotone) and replaces it."""
    state = KnowledgeState(3, 0)
    new, old = (5, 5, 5), (3, 3, 3)
    assert state.merge_pal(2, old).changed
    assert state.merge_pal(2, new).changed
    assert not state.merge_pal(2, old).changed
    assert not state.merge_pal(2, new).changed
    assert list(state.pal[2]) == [5, 5, 5]
    assert state.check_cache_consistency() == {}


# ----------------------------------------------------------------------
# Engine: memos in place == memos that forget everything
# ----------------------------------------------------------------------

class _ForgetfulDict(dict):
    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


class _ForgetfulList(list):
    def __getitem__(self, i):
        return None

    def __setitem__(self, i, value):
        pass


def _forgetful_driver(n):
    """An engine whose three memos never remember: the behaviour before
    they existed, whatever the stream."""
    driver = EngineDriver(0, n)
    engine = driver.engine
    engine._gapless_ack = _ForgetfulDict()
    engine.state._last_al = _ForgetfulList([None] * n)
    engine.state._last_pal = _ForgetfulList([None] * n)
    return driver


@st.composite
def engine_streams(draw):
    n = draw(st.integers(min_value=3, max_value=4))
    peers = st.integers(min_value=1, max_value=n - 1)
    vector = st.lists(
        st.integers(min_value=1, max_value=5), min_size=n, max_size=n,
    ).map(tuple)
    event = st.one_of(
        st.tuples(st.just("hb"), peers, vector, vector, st.booleans()),
        st.tuples(st.just("data"), peers, st.integers(min_value=1, max_value=5), vector),
        st.tuples(st.just("ret"), peers, st.integers(min_value=0, max_value=n - 1),
                  st.integers(min_value=1, max_value=5), vector),
        st.tuples(st.just("tick"), st.sampled_from([0.0, 0.002, 0.02])),
        st.tuples(st.just("submit"),),
    )
    events = draw(st.lists(event, min_size=1, max_size=40))
    # Verbatim repeats: right behind the original, and of any earlier event.
    stream = []
    for ev in events:
        stream.append(ev)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            stream.append(ev)
        if draw(st.booleans()):
            stream.append(draw(st.sampled_from(stream)))
    return n, stream


def _feed(driver, ev):
    kind = ev[0]
    if kind == "hb":
        _, src, ack, pack, probe = ev
        driver.receive(HeartbeatPdu(cid=1, src=src, ack=ack, pack=pack,
                                    buf=10 ** 6, probe=probe))
    elif kind == "data":
        _, src, seq, ack = ev
        driver.receive(make_pdu(src, seq, ack))
    elif kind == "ret":
        _, src, lsrc, lseq, ack = ev
        driver.receive(RetPdu(cid=1, src=src, lsrc=lsrc, lseq=lseq,
                              ack=ack, buf=10 ** 6))
    elif kind == "tick":
        driver.tick(ev[1])
    else:
        driver.submit("payload")


def _f2(trace):
    return [rec for rec in trace.select("gap") if rec.get("kind") == "F2"]


@settings(max_examples=120, deadline=None)
@given(engine_streams())
def test_engine_with_memos_is_indistinguishable_from_one_without(stream):
    n, events = stream
    memo, reference = EngineDriver(0, n), _forgetful_driver(n)
    for ev in events:
        _feed(memo, ev)
        _feed(reference, ev)
        assert memo.sent == reference.sent
    assert list(memo.trace) == list(reference.trace)
    assert _f2(memo.trace) == _f2(reference.trace)
    assert memo.engine.gaps._gaps == reference.engine.gaps._gaps
    assert memo.engine.state.snapshot() == reference.engine.state.snapshot()
    assert memo.engine.state.check_cache_consistency() == {}
    assert memo.engine.counters.snapshot() == reference.engine.counters.snapshot()
    assert memo.delivered == reference.delivered


@st.composite
def heartbeat_streams(draw):
    n = draw(st.integers(min_value=3, max_value=4))
    vector = st.lists(
        st.integers(min_value=1, max_value=4), min_size=n, max_size=n,
    ).map(tuple)
    beats = draw(st.lists(
        st.tuples(st.integers(min_value=1, max_value=n - 1), vector, vector,
                  st.integers(min_value=0, max_value=3)),
        min_size=1, max_size=25,
    ))
    return n, beats


@settings(max_examples=60, deadline=None)
@given(heartbeat_streams())
def test_repeated_heartbeats_leave_knowledge_and_gaps_where_they_were(stream):
    """The issue's form of the property, on the engine: feed each heartbeat
    once, or once plus verbatim repeats at the same instant — the knowledge
    state, the open gaps and the distinct F2 records come out the same (a
    repeat that *does* name a gap re-records it, exactly as it always did;
    only gapless repeats are skipped)."""
    n, beats = stream
    once, repeated = EngineDriver(0, n), EngineDriver(0, n)
    for src, ack, pack, repeats in beats:
        pdu = HeartbeatPdu(cid=1, src=src, ack=ack, pack=pack, buf=10 ** 6)
        once.receive(pdu)
        for _ in range(1 + repeats):
            repeated.receive(pdu)
        assert repeated.engine.state.snapshot() == once.engine.state.snapshot()
        assert repeated.engine.gaps._gaps == once.engine.gaps._gaps
    assert repeated.engine.state.check_cache_consistency() == {}

    def distinct(records):
        out = []
        for rec in records:
            if rec not in out:
                out.append(rec)
        return out

    assert distinct(_f2(repeated.trace)) == distinct(_f2(once.trace))


def test_gapless_memo_is_dropped_when_a_snapshot_replaces_req():
    """REQ is *replaced* (not grown) when a rejoining incarnation applies a
    sponsor's snapshot: the one place the "named no gap" memo could go
    stale, so it is cleared there."""
    from repro.core.pdu import StatePdu

    driver = EngineDriver(0, 3)
    engine = driver.engine
    ack = (1, 1, 1)
    engine._check_ack_gaps(ack, carrier=1)
    assert engine._gapless_ack == {1: ack}
    engine.joining = True
    engine._apply_snapshot(StatePdu(
        cid=1, src=1, joiner=0, view=1, members=(0, 1, 2),
        ack=(1, 1, 1), pack=(1, 1, 1), buf=10 ** 6,
    ))
    assert engine._gapless_ack == {}
