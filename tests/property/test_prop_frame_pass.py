"""Property tests: one pass per frame is the per-PDU engine, record for record.

The engine folds per-PDU work into one step per input: one PAL merge per
source per PACK pass (the column-wise maximum of the dequeued ACK vectors),
one window evaluation per pump (re-read only at the boundary it spent),
and acceptance bookkeeping — gap close, liveness and probe stamps, the
resident high-water mark — once per batch frame.  The reference below keeps
the per-PDU form of each: a PAL merge per pre-acknowledged PDU, a
``FlowController.check`` per sent PDU, the bookkeeping per accepted PDU.
Both run the same seeded clusters; traces (``flow-blocked`` records
included), knowledge state, cache consistency, counters, resident peaks and
deliveries must come out identical.
"""

from hypothesis import given, settings, strategies as st

from repro.core.cluster import build_cluster
from repro.core.config import ProtocolConfig
from repro.core.entity import COEntity
from repro.core.pdu import BatchPdu, DataPdu, HeartbeatPdu
from repro.net.loss import BernoulliLoss, ScriptedLoss
from repro.sim.rng import RngRegistry
from tests.conftest import EngineDriver, make_pdu


class PerPduEntity(COEntity):
    """The engine with every fold undone: per-PDU merge, check, bookkeeping.
    Turns are the host's, not a fold, so both engines take the same ones."""

    def _pump(self) -> int:
        sent = 0
        while self._pending:
            decision = self.flow.check(self.sl.next_seq)
            if not decision.allowed:
                if not self._flow_block_announced:
                    self.counters.flow_blocked += 1
                    self._trace.record(
                        self._now, "flow-blocked", self.index,
                        seq=decision.seq, reason=decision.reason,
                        window=decision.effective_window,
                    )
                    self._flow_block_announced = True
                break
            data, size = self._pending.popleft()
            self._broadcast_data(data, size)
            sent += 1
        if sent:
            self._flow_block_announced = False
            self._flush_batch()
            self._pack_action()
        return sent

    def _accept(self, p: DataPdu, folded: bool = False) -> None:
        outcome = self.state.accept(p.src, p.seq)
        if outcome.dirty:
            self._pack_dirty.update(outcome.dirty)
        if not folded:
            self._merge_al(p.src, p.ack)
            if p.src != self.index:
                self.state.update_buf(p.src, p.buf)
        self.rrl.enqueue(p)
        self._pack_dirty.add(p.src)
        if p.src != self.index:
            self._peer_store[p.src][p.seq] = p
        self.gaps.close_below(p.src, self.state.req[p.src])
        self.counters.accepted += 1
        self._last_learned = self._now
        self._trace.record(
            self._now, "accept", self.index, src=p.src, seq=p.seq, null=p.is_null,
        )
        if p.src != self.index:
            self._heard_from.add(p.src)
        self._probe_backoff = 1
        resident = self.resident_pdus
        if resident > self._resident_high_water:
            self._resident_high_water = resident

    def _on_batch(self, b: BatchPdu) -> None:
        self.counters.recv_batches += 1
        removed = self._is_removed(b.src)
        if not removed:
            self._merge_al(b.src, b.fold_ack())
            self.state.update_buf(b.src, b.buf)
        for p in b.pdus:
            if removed and not self._fence_admits(b.src, p):
                continue
            self.counters.recv_batched_pdus += 1
            self._on_data(p, folded=not removed)
        if removed:
            return
        self._merge_pal(b.src, b.pack)
        self._check_ack_gaps(b.ack, carrier=b.src)
        self._heard_from.add(b.src)
        self._owe(confirm=True)

    def _pack_action(self) -> None:
        newly = []
        work = self._pack_dirty
        while work:
            j = min(work)
            work.discard(j)
            self.counters.pack_source_scans += 1
            threshold = self.state.min_al(j)
            top = self.rrl.top(j)
            while top is not None and top.seq < threshold:
                blocker = self._first_unmet_dep(top)
                if blocker is not None:
                    self.counters.pack_dep_blocks += 1
                    self._dep_waiters[blocker].add(j)
                    break
                p = self.rrl.dequeue(j)
                self._preack_floor[j] = p.seq + 1
                self.state.merge_pal(j, p.ack)
                newly.append(p)
                waiters = self._dep_waiters[j]
                if waiters:
                    work.update(waiters)
                    waiters.clear()
                top = self.rrl.top(j)
        if newly:
            for p in newly:
                self.prl.insert(p)
                self.counters.preacknowledged += 1
                self._trace.record(
                    self._now, "preack", self.index, src=p.src, seq=p.seq,
                )
            self.counters.cpi_fast_appends = self.prl.fast_appends
            self.counters.cpi_scan_inserts = self.prl.scan_inserts
            self.state.merge_pal(self.index, tuple(self._preack_floor))
        self._ack_action()


def _assert_same(got, ref):
    assert list(got.trace) == list(ref.trace)
    assert got.trace.select("flow-blocked") == ref.trace.select("flow-blocked")
    for a, b in zip(got.engines, ref.engines):
        assert a.state.snapshot() == b.state.snapshot()
        assert a.state.check_cache_consistency() == {}
        assert b.state.check_cache_consistency() == {}
        assert a.resident_high_water == b.resident_high_water
        assert a.counters.snapshot() == b.counters.snapshot()
    for i in range(got.n):
        assert got.delivered(i) == ref.delivered(i)


def _pair(**kwargs):
    return EngineDriver(0, 3, **kwargs), EngineDriver(0, 3, engine_cls=PerPduEntity, **kwargs)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    n=st.integers(min_value=2, max_value=5),
    window=st.integers(min_value=1, max_value=8),
    cap=st.integers(min_value=1, max_value=8),
    bursts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),      # member (mod n)
            st.integers(min_value=1, max_value=12),     # messages
            st.integers(min_value=0, max_value=20),     # start, in ms
        ),
        min_size=1, max_size=6,
    ),
    loss_rate=st.sampled_from((0.0, 0.02, 0.05, 0.1)),
)
def test_one_pass_per_frame_matches_the_per_pdu_reference(
    seed, n, window, cap, bursts, loss_rate
):
    def run(engine_cls):
        cluster = build_cluster(
            n,
            config=ProtocolConfig(batch_max_pdus=cap, window=window),
            loss=BernoulliLoss(loss_rate, protect_control=True) if loss_rate else None,
            rngs=RngRegistry(seed),
            engine_factory=engine_cls,
        )
        for b, (member, count, start_ms) in enumerate(bursts):
            for k in range(count):
                cluster.sim.schedule(
                    start_ms * 1e-3, cluster.submit, member % n, f"b{b}-{k}",
                )
        cluster.run_until_quiescent(max_time=120.0)
        return cluster

    _assert_same(run(COEntity), run(PerPduEntity))


def test_evict_rejoin_with_a_lower_first_ack_vector_matches_the_reference():
    """The victim's last two PDUs reach nobody before it crashes, so the
    agreed flush — and the rejoined incarnation's numbering — resumes two
    below where the old incarnation stopped: the new incarnation's first
    ACK vector sits below its predecessor's last in the victim's column."""
    n, victim = 4, 1
    survivors = [i for i in range(n) if i != victim]

    def run(engine_cls):
        cluster = build_cluster(
            n,
            config=ProtocolConfig(suspect_timeout=0.02, evict_timeout=0.05),
            loss=ScriptedLoss([(victim, seq, d) for seq in (5, 6) for d in survivors]),
            rngs=RngRegistry(3),
            engine_factory=engine_cls,
        )
        for k in range(6):
            cluster.submit(victim, f"old-{k}")
        for i in survivors:
            cluster.submit(i, f"pre-{i}")
        old = cluster.engines[victim]
        old_last = old.sl.get(6).ack
        cluster.run_for(1e-4)
        cluster.crash(victim)
        cluster.run_for(1.0)
        assert {cluster.engines[i].view for i in survivors} == {1}
        cluster.restart(victim)
        cluster.run_until_quiescent(max_time=60.0)
        new = cluster.engines[victim]
        assert new.view == 2 and not new.joining
        cluster.submit(victim, "new-0")
        first = new.sl.get(new.sl.next_seq - 1)
        assert first.seq == 5
        assert any(lo < hi for lo, hi in zip(first.ack, old_last))
        for i in survivors:
            cluster.submit(i, f"post-{i}")
        cluster.run_until_quiescent(max_time=60.0)
        return cluster

    _assert_same(run(COEntity), run(PerPduEntity))


def test_one_pack_pass_folds_a_lower_vector_after_a_higher_one():
    """Per-source ACK vectors need not grow: here source 1's second PDU
    names fewer of source 2's PDUs than its first, as when a snapshot
    replaced its REQ.  Both leave RRL in one PACK pass; PAL keeps the higher cell, as
    merging them one by one does — folding only the last would lower it."""
    got, ref = _pair()

    def feed(pdu):
        got.receive(pdu)
        ref.receive(pdu)

    for seq in (1, 2, 3, 4):
        feed(make_pdu(2, seq, (1, 1, seq)))
    feed(make_pdu(1, 1, (1, 1, 5)))
    feed(make_pdu(1, 2, (1, 2, 2)))
    feed(HeartbeatPdu(cid=1, src=1, ack=(1, 3, 5), pack=(1, 1, 1), buf=10 ** 6))
    assert len(got.engine.rrl.sublog(1)) == 2
    feed(HeartbeatPdu(cid=1, src=2, ack=(1, 3, 5), pack=(1, 1, 1), buf=10 ** 6))
    assert len(got.engine.rrl.sublog(1)) == 0
    assert got.engine.state.pal[1][2] == 5
    assert got.engine.state.snapshot() == ref.engine.state.snapshot()
    assert got.sent == ref.sent
    assert list(got.trace) == list(ref.trace)


def test_pump_spends_a_window_self_acceptance_reopens():
    """With every peer excluded our own row alone sets ``minAL_i``, so each
    self-accepted PDU raises the window base mid-pump: the pump re-reads
    the window at its boundary and sends all it holds, as the per-PDU
    check did."""
    got, ref = _pair(config=ProtocolConfig(window=2, batch_max_pdus=1))
    for driver in (got, ref):
        for peer in (1, 2):   # no free buffer: the window is shut
            driver.receive(HeartbeatPdu(cid=1, src=peer, ack=(1, 1, 1),
                                        pack=(1, 1, 1), buf=0))
        for k in range(7):
            driver.submit(f"m{k}")
        assert not driver.data_sent
        for peer in (1, 2):
            driver.engine.state.set_excluded(peer, True)
        driver.tick()
    assert len(got.data_sent) == 7
    assert got.sent == ref.sent
    assert list(got.trace) == list(ref.trace)


def test_a_batch_closes_gaps_and_raises_the_resident_peak_once():
    """The frame's bookkeeping lands once, after its inner PDUs: the gap
    they fill is closed and the resident peak counts all of them."""
    got, ref = _pair()
    feed = [
        # Source 2 has accepted source 1's PDUs 1 and 2: an F2 gap here.
        HeartbeatPdu(cid=1, src=2, ack=(1, 3, 1), pack=(1, 1, 1), buf=10 ** 6),
        BatchPdu(cid=1, src=1, ack=(1, 3, 1), pack=(1, 1, 1), buf=10 ** 6,
                 pdus=(make_pdu(1, 1, (1, 1, 1)), make_pdu(1, 2, (1, 2, 1)))),
    ]
    for pdu in feed:
        got.receive(pdu)
        ref.receive(pdu)
    assert got.engine.gaps.open_gaps == 0
    assert got.engine.resident_high_water == 2
    got.tick(1.0)
    ref.tick(1.0)
    assert got.engine.resident_high_water == ref.engine.resident_high_water
    assert got.engine.gaps._gaps == ref.engine.gaps._gaps
    assert got.sent == ref.sent
    assert list(got.trace) == list(ref.trace)
