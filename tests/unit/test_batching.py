"""Unit tests for the batching layer: BatchPdu, config, codec, engine.

The frame format; the one sender-side rule — what one pump of the send
queue releases is one frame, so only a sender whose flow window reopens by
several has several PDUs to pack — and the receiver-side unbatching path
with its inner-before-header fold order, each on a hand-driven engine.
"""

from dataclasses import replace

import pytest

from repro.core.codec import CodecError, decode_pdu, encode_pdu, split_batch
from repro.core.config import ProtocolConfig
from repro.core.errors import ConfigurationError
from repro.core.pdu import BatchPdu, DataPdu, HeartbeatPdu, RetPdu
from repro.runtime.host import DEFAULT_RUNTIME_CONFIG
from tests.conftest import EngineDriver


def make_inner(seq, src=0, cid=1, n=3, data=b"x"):
    return DataPdu(cid=cid, src=src, seq=seq, ack=(1,) * n, buf=9, data=data)


def make_batch(seqs=(1, 2), **kw):
    defaults = dict(
        cid=1, src=0, ack=(3, 1, 1), pack=(1, 1, 1), buf=7,
        pdus=tuple(make_inner(s) for s in seqs),
    )
    defaults.update(kw)
    return BatchPdu(**defaults)


class TestBatchPdu:
    def test_counts_and_seqs(self):
        b = make_batch(seqs=(4, 7, 9))
        assert b.pdu_count == 3
        assert b.seqs == (4, 7, 9)
        assert not b.is_control

    def test_empty_batch_is_control(self):
        b = make_batch(seqs=())
        assert b.is_control and b.pdu_count == 0

    def test_vector_lengths_must_match(self):
        with pytest.raises(ValueError):
            make_batch(pack=(1, 1))

    def test_inner_src_must_match_frame(self):
        with pytest.raises(ValueError):
            make_batch(pdus=(make_inner(1, src=2),))

    def test_inner_cid_must_match_frame(self):
        with pytest.raises(ValueError):
            make_batch(pdus=(make_inner(1, cid=9),))

    def test_seqs_must_strictly_ascend(self):
        with pytest.raises(ValueError):
            make_batch(seqs=(2, 2))
        with pytest.raises(ValueError):
            make_batch(seqs=(3, 1))

    def test_wire_size_sums_inners_plus_one_header(self):
        b = make_batch(seqs=(1, 2))
        inner_bytes = sum(p.wire_size() for p in b.pdus)
        header = b.wire_size() - inner_bytes
        assert header == (4 + 2 * 3) * 4  # fixed fields + ack + pack, u32s
        assert make_batch(seqs=()).wire_size() == header


class TestBatchConfig:
    def test_default_is_off(self):
        assert ProtocolConfig().batch_max_pdus == 1
        assert not ProtocolConfig().batching_enabled

    def test_enabled_above_one(self):
        assert ProtocolConfig(batch_max_pdus=4).batching_enabled

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(batch_max_pdus=0)

    def test_runtimes_default_to_one_window_per_frame(self):
        # A pump cannot release more than W, so cap = W never cuts a frame.
        assert DEFAULT_RUNTIME_CONFIG.batch_max_pdus == ProtocolConfig().window == 8

    def test_no_tick_flush_knob(self):
        assert not hasattr(ProtocolConfig(), "batch_flush_on_tick")

    def test_strict_paper_mode_forbids_batching(self):
        # Strict mode forbids PACK out of band; a batch header carries it.
        with pytest.raises(ConfigurationError):
            ProtocolConfig(batch_max_pdus=4, strict_paper_mode=True)


class TestBatchCodec:
    def test_inner_must_be_data_pdu(self):
        frame = make_batch(seqs=(1,))
        encoded = bytearray(encode_pdu(frame))
        # Corrupting the inner type byte must be caught (CRC first, and the
        # decoder's own inner-type check if the CRC were ever bypassed).
        from repro.core.codec import decode_pdu_safe
        offset = encoded.rindex(b"\x01x") - 20  # somewhere inside the body
        encoded[offset] ^= 0x55
        assert decode_pdu_safe(bytes(encoded)) is None

    def test_split_never_emits_empty_chunk(self):
        big = make_batch(
            pdus=tuple(make_inner(s, data=b"y" * 100) for s in (1, 2, 3)),
        )
        chunks = split_batch(big, 1)  # absurd MTU: one inner per chunk
        assert [c.seqs for c in chunks] == [(1,), (2,), (3,)]

    def test_decode_rejects_truncation(self):
        frame = encode_pdu(make_batch())
        with pytest.raises(CodecError):
            decode_pdu(frame[: len(frame) - 3])


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------
N = 3
WINDOW = 8
CID = ProtocolConfig().cluster_id


def make_driver(index=0, cap=4, **cfg):
    return EngineDriver(index, N, ProtocolConfig(batch_max_pdus=cap, **cfg))


def heartbeat(src, ack, pack=(1,) * N):
    return HeartbeatPdu(cid=CID, src=src, ack=tuple(ack), pack=tuple(pack), buf=10 ** 6)


def confirm(drv, upto):
    """Every peer reports it expects ``upto`` next from the driver's entity:
    the flow window's base moves there on the *last* peer's heartbeat."""
    me = drv.engine.index
    ack = [1] * N
    ack[me] = upto
    for peer in range(N):
        if peer != me:
            drv.receive(heartbeat(peer, ack))


def blocked_sender(backlog, cap=4, **cfg):
    """A sender with a full window on the wire and ``backlog`` requests
    waiting behind it."""
    drv = make_driver(cap=cap, **cfg)
    for k in range(WINDOW + backlog):
        drv.submit(f"m{k}")
    assert [p.seq for p in drv.sent] == list(range(1, WINDOW + 1))
    assert drv.engine.pending_requests == backlog
    del drv.sent[:]
    return drv


def frame_from(src, seqs):
    """The frame a flow-blocked ``src`` would emit for ``seqs``."""
    def ack(own):
        return tuple(own if j == src else 1 for j in range(N))
    return BatchPdu(
        cid=CID, src=src, ack=ack(seqs[-1] + 1), pack=(1,) * N, buf=10 ** 6,
        pdus=tuple(
            DataPdu(cid=CID, src=src, seq=s, ack=ack(s), buf=10 ** 6, data=f"d{s}")
            for s in seqs
        ),
    )


def log_calls(monkeypatch, engine, *names):
    """Record, in order, each call the engine makes to the named methods."""
    calls = []
    for name in names:
        original = getattr(engine, name)

        def logged(original=original, name=name):
            calls.append(name)
            return original()

        monkeypatch.setattr(engine, name, logged)
    return calls


def shapes(sent):
    return [p.seqs if isinstance(p, BatchPdu) else p.seq for p in sent
            if isinstance(p, (BatchPdu, DataPdu))]


class TestSenderAccumulation:
    @pytest.mark.parametrize("reopen_by, cap, expected", [
        (3, 4, [(9, 10, 11)]),
        (4, 4, [(9, 10, 11, 12)]),
        (6, 4, [(9, 10, 11, 12), (13, 14)]),
        (1, 4, [9]),
        (5, 4, [(9, 10, 11, 12), 13]),
        (8, 8, [tuple(range(9, 17))]),
        (3, 1, [9, 10, 11]),
    ])
    def test_reopened_window_emits_one_frame_of_min_k_cap(self, reopen_by, cap, expected):
        drv = blocked_sender(backlog=8, cap=cap)
        confirm(drv, 1 + reopen_by)
        assert shapes(drv.sent) == expected
        assert drv.heartbeats_sent == []   # the frame was the confirmation

    def test_submissions_accumulate_until_full(self):
        """A window-blocked backlog leaves in full frames when the whole
        window reopens at once."""
        drv = blocked_sender(backlog=8)
        confirm(drv, WINDOW + 1)
        assert shapes(drv.sent) == [(9, 10, 11, 12), (13, 14, 15, 16)]
        counters = drv.engine.counters
        assert counters.batch_flush_full == 2
        assert counters.sent_batches == 2
        assert counters.batched_pdus == 8
        assert [r.get("seqs") for r in drv.trace.select("batch")] == [
            [9, 10, 11, 12], [13, 14, 15, 16],
        ]

    def test_lone_submit_emits_the_bare_data_pdu_of_the_paper_wire(self):
        """An open window: the pump releases one PDU, which goes out at once
        and bare — byte for byte, and with the same confirmation
        bookkeeping, as ``batch_max_pdus=1``."""
        batched, plain = make_driver(cap=8), make_driver(cap=1)
        for drv in (batched, plain):
            drv.receive(DataPdu(cid=CID, src=1, seq=1, ack=(1, 1, 1), buf=7, data="in"))
            drv.clock = 0.5
            drv.submit("out")
        assert [type(p) for p in batched.sent] == [DataPdu]
        assert encode_pdu(batched.sent[0]) == encode_pdu(plain.sent[0])
        for field in ("_last_confirmed_req", "_last_confirmed_pack",
                      "_heard_from", "_last_send_time"):
            assert getattr(batched.engine, field) == getattr(plain.engine, field)
        # REQ as it stood before self-acceptance (Table 1's ACK_self = SEQ).
        assert batched.engine._last_confirmed_req == (1, 2, 1)
        assert batched.engine.counters.snapshot() == plain.engine.counters.snapshot()

    def test_header_carries_fresh_req_vector(self):
        drv = blocked_sender(backlog=3)
        drv.receive(DataPdu(cid=CID, src=2, seq=1, ack=(1, 1, 1), buf=7, data="in"))
        confirm(drv, 4)
        frame, = (p for p in drv.sent if isinstance(p, BatchPdu))
        # The header ACK covers the frame's own PDUs (req advanced at
        # self-acceptance), so no receiver ever RETs a frame against itself,
        # and everything accepted since the inner PDUs were built.
        assert frame.seqs == (9, 10, 11)
        assert frame.ack == (12, 1, 2)
        assert frame.pdus[0].ack == (9, 1, 2)

    def test_quiescent_only_after_flush(self):
        """Nothing is ever parked in the engine between calls: a request is
        either waiting for the window (``pending``) or on the wire."""
        drv = blocked_sender(backlog=2)
        assert not drv.engine.quiescent
        assert "batch_open" not in drv.engine.gauges()
        confirm(drv, WINDOW + 1)
        assert drv.engine.pending_requests == 0
        assert shapes(drv.sent) == [(9, 10)]


class TestReceiverUnbatching:
    def test_batch_accepts_all_inners_in_order(self):
        receiver = make_driver(index=1)
        receiver.receive(frame_from(0, (1, 2, 3, 4)))
        counters = receiver.engine.counters
        assert counters.recv_batches == 1
        assert counters.recv_batched_pdus == 4
        assert counters.accepted == 4
        assert receiver.engine.state.req[0] == 5

    def test_duplicate_frame_is_harmless(self):
        receiver = make_driver(index=1)
        frame = frame_from(0, (1, 2, 3, 4))
        receiver.receive(frame)
        receiver.receive(frame)
        assert receiver.engine.counters.accepted == 4
        assert receiver.engine.counters.duplicates == 4

    def test_own_frame_never_spuriously_rets(self):
        """Inner PDUs fold before the header: the header's ACK covers the
        frame's own seqs, which must not read as evidence of loss."""
        receiver = make_driver(index=1)
        receiver.receive(frame_from(0, (1, 2, 3, 4)))
        assert receiver.rets_sent == []

    def test_frame_that_starts_past_a_gap_is_stashed_and_the_gap_requested(self):
        receiver = make_driver(index=1)
        receiver.receive(frame_from(0, (2, 3, 4)))
        assert receiver.engine.counters.stashed == 3
        assert (receiver.rets_sent[0].lsrc, receiver.rets_sent[0].lseq) == (0, 2)
        receiver.receive(frame_from(0, (1,)))
        assert receiver.engine.state.req[0] == 5

    def test_folded_inner_runs_no_tail_of_its_own(self, monkeypatch):
        """One frame of k accepts is one PACK action, one confirmation
        decision and one pump — not k + 1 of each."""
        receiver = make_driver(index=1)
        calls = log_calls(
            monkeypatch, receiver.engine, "_pack_action", "_maybe_confirm", "_pump")
        receiver.receive(frame_from(0, (1, 2, 3, 4)))
        assert calls == ["_pack_action", "_maybe_confirm", "_pump"]
        assert receiver.engine.counters.accepted == 4


class TestAckCoalescing:
    def test_confirmation_rides_the_pump_frame_instead_of_heartbeat(self):
        """Hearing from every peer with data waiting: the round's
        confirmation is the frame the reopened window releases — its header
        carries the vectors a heartbeat would — and exactly one goes out."""
        drv = blocked_sender(backlog=2)
        ack = (3, 1, 1)
        drv.receive(heartbeat(1, ack))
        drv.receive(DataPdu(cid=CID, src=2, seq=1, ack=ack, buf=10 ** 6, data="in"))
        assert [type(p) for p in drv.sent] == [BatchPdu]
        assert drv.sent[0].seqs == (9, 10)
        assert drv.sent[0].ack == (11, 1, 2)   # post-acceptance REQ

    def test_heartbeat_equal_to_last_frame_header_is_suppressed(self):
        drv = blocked_sender(backlog=2)
        confirm(drv, 3)
        assert shapes(drv.sent) == [(9, 10)]
        engine = drv.engine
        assert engine._last_confirmed_req == engine.state.req_vector()
        assert engine._last_confirmed_pack == tuple(engine._preack_floor)
        drv.tick(dt=engine.config.deferred_interval + 1e-9)
        # Nothing changed since the header: the timer has no confirmation
        # to give.  (Still waiting on the cluster, it *probes* — a repeat
        # request, not a confirmation.)
        assert [hb.probe for hb in drv.heartbeats_sent] == [True]

    def test_no_open_batch_falls_back_to_heartbeat(self):
        drv = make_driver(index=1, deferred_interval=0.0)
        drv.receive(frame_from(0, (1,)))
        drv.tick()
        assert [hb.ack for hb in drv.heartbeats_sent if not hb.probe] == [(2, 1, 1)]


class TestRunToCompletion:
    def test_sender_packs_once_per_pump(self, monkeypatch):
        drv = blocked_sender(backlog=6, cap=8)
        packs = log_calls(monkeypatch, drv.engine, "_pack_action")
        confirm(drv, 7)   # two heartbeats; the second reopens the window by 6
        assert shapes(drv.sent) == [(9, 10, 11, 12, 13, 14)]
        # One per heartbeat handled, one for the pump's six PDUs.
        assert len(packs) == 3

    def test_data_released_by_a_tick_leaves_in_the_tick(self):
        """The tick's flow retry is a pump like any other: what it releases
        leaves as one frame before ``on_tick`` returns."""
        drv = blocked_sender(backlog=3)
        for peer in (1, 2):
            drv.engine.state.merge_al(peer, (4, 1, 1))  # knowledge, no pump
        assert drv.sent == []
        drv.tick()
        assert shapes(drv.sent) == [(9, 10, 11)]

    def test_control_pdu_and_released_data_leave_in_handling_order(self):
        """A frame that both opens a gap and reopens the window: the RETs go
        first, then the released data as one frame; nothing is held back
        for a later call."""
        drv = blocked_sender(backlog=2)
        drv.receive(heartbeat(1, (3, 1, 1)))
        drv.receive(replace(frame_from(2, (2, 3)), ack=(3, 1, 4)))
        kinds = [type(p) for p in drv.sent]
        assert kinds[0] is RetPdu and kinds.count(BatchPdu) == 1
        assert kinds[-1] is BatchPdu and drv.sent[-1].seqs == (9, 10)
