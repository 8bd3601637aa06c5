"""Unit tests for the batching layer: BatchPdu, config, codec, engine.

The frame format and sender-side accumulation rules; the receiver-side
unbatching path and inner-before-header fold order are exercised through a
small two-engine harness.
"""

import pytest

from repro.core.codec import CodecError, decode_pdu, encode_pdu, split_batch
from repro.core.config import ProtocolConfig
from repro.core.entity import COEntity
from repro.core.errors import ConfigurationError
from repro.core.pdu import BatchPdu, DataPdu, HeartbeatPdu
from repro.sim.trace import TraceLog


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

    def test_rejects_negative_byte_cap(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(batch_max_bytes=-1)

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
class Pipe:
    """Capture one engine's sends; deliver them to peers on demand."""

    def __init__(self):
        self.sent = []

    def __call__(self, pdu):
        self.sent.append(pdu)


def make_engine(index=0, n=3, **cfg):
    config = ProtocolConfig(batch_max_pdus=4, **cfg)
    clock = lambda: 0.0
    engine = COEntity(index, n, config, clock, TraceLog(), lambda: 1000)
    pipe = Pipe()
    engine.bind(send=pipe, deliver=lambda m: None)
    return engine, pipe


class TestSenderAccumulation:
    def test_submissions_accumulate_until_full(self):
        engine, pipe = make_engine()
        engine.submit("a")
        engine.submit("b")
        engine.submit("c")
        assert pipe.sent == []          # three PDUs parked in the open batch
        assert engine.gauges()["batch_open"] == 3
        engine.submit("d")              # 4 = batch_max_pdus: flush
        frames = [p for p in pipe.sent if isinstance(p, BatchPdu)]
        assert len(frames) == 1
        assert frames[0].seqs == (1, 2, 3, 4)
        assert engine.counters.batch_flush_full == 1
        assert engine.counters.sent_batches == 1
        assert engine.counters.batched_pdus == 4

    def test_byte_cap_flushes_early(self):
        engine, pipe = make_engine(batch_max_bytes=100)
        engine.submit("x" * 80, size=80)
        engine.submit("y" * 80, size=80)
        frames = [p for p in pipe.sent if isinstance(p, BatchPdu)]
        assert len(frames) >= 1

    def test_tick_flushes_open_batch(self):
        engine, pipe = make_engine()
        engine.submit("only one")
        assert pipe.sent == []
        engine.on_tick()
        frames = [p for p in pipe.sent if isinstance(p, BatchPdu)]
        assert len(frames) == 1 and frames[0].seqs == (1,)
        assert engine.counters.batch_flush_tick == 1

    def test_header_carries_fresh_req_vector(self):
        engine, pipe = make_engine()
        engine.submit("a")
        engine.submit("b")
        engine.on_tick()
        frame = next(p for p in pipe.sent if isinstance(p, BatchPdu))
        # The header ACK covers the batch's own PDUs (req advanced at
        # self-acceptance), so no receiver ever RETs a frame against itself.
        assert frame.ack[0] == 3

    def test_quiescent_only_after_flush(self):
        engine, pipe = make_engine()
        engine.submit("pending")
        assert not engine.quiescent
        engine.on_tick()


class TestReceiverUnbatching:
    def test_batch_accepts_all_inners_in_order(self):
        sender, s_pipe = make_engine(index=0)
        receiver, _ = make_engine(index=1)
        for payload in ("a", "b", "c", "d"):
            sender.submit(payload)
        frame = next(p for p in s_pipe.sent if isinstance(p, BatchPdu))
        receiver.on_pdu(frame)
        assert receiver.counters.recv_batches == 1
        assert receiver.counters.recv_batched_pdus == 4
        assert receiver.counters.accepted == 4
        assert receiver.state.req[0] == 5

    def test_duplicate_frame_is_harmless(self):
        sender, s_pipe = make_engine(index=0)
        receiver, _ = make_engine(index=1)
        for payload in ("a", "b", "c", "d"):
            sender.submit(payload)
        frame = next(p for p in s_pipe.sent if isinstance(p, BatchPdu))
        receiver.on_pdu(frame)
        receiver.on_pdu(frame)
        assert receiver.counters.accepted == 4
        assert receiver.counters.duplicates == 4

    def test_own_frame_never_spuriously_rets(self):
        """Inner PDUs fold before the header: the header's ACK covers the
        frame's own seqs, which must not read as evidence of loss."""
        sender, s_pipe = make_engine(index=0)
        receiver, r_pipe = make_engine(index=1)
        for payload in ("a", "b", "c", "d"):
            sender.submit(payload)
        frame = next(p for p in s_pipe.sent if isinstance(p, BatchPdu))
        receiver.on_pdu(frame)
        from repro.core.pdu import RetPdu
        rets = [p for p in r_pipe.sent if isinstance(p, RetPdu)]
        assert rets == []


class TestAckCoalescing:
    def test_confirmation_rides_open_batch_instead_of_heartbeat(self):
        engine, pipe = make_engine(index=1, deferred_interval=0.0)
        peer, p_pipe = make_engine(index=0)
        peer.submit("from peer")
        peer.on_tick()
        frame = next(p for p in p_pipe.sent if isinstance(p, BatchPdu))
        engine.submit("own traffic")      # opens a batch
        engine.on_pdu(frame)              # acceptance wants a confirmation
        engine.on_tick()                  # deferred timer fires
        confirmations = [
            p for p in pipe.sent
            if isinstance(p, HeartbeatPdu) and not p.probe
        ]
        assert confirmations == []
        # The pending confirmation rode the flushed batch header — counted
        # as a coalesced ACK or as the tick flush that pre-empted it,
        # depending on which fired first inside the tick.
        assert (engine.counters.acks_coalesced
                + engine.counters.batch_flush_tick) >= 1
        frames = [p for p in pipe.sent if isinstance(p, BatchPdu)]
        assert frames, "the coalesced confirmation must flush the batch"
        # The flushed header carries the post-acceptance REQ vector.
        assert frames[-1].ack[0] == 2

    def test_round_rule_with_open_batch_coalesces_exactly_once(self):
        """Deterministic engagement (the nemesis ``batching`` scenario only
        reports the counter): hearing from every peer while a batch is open
        flushes the batch as the confirmation — no heartbeat, one count."""
        engine, pipe = make_engine(index=1, n=2)
        peer, p_pipe = make_engine(index=0, n=2)
        peer.submit("from peer")
        peer.on_tick()
        frame = next(p for p in p_pipe.sent if isinstance(p, BatchPdu))
        engine.submit("own traffic")      # opens a batch, nothing on the wire
        assert pipe.sent == []
        engine.on_pdu(frame)              # heard from all: confirmation due
        assert engine.counters.acks_coalesced == 1
        assert engine.counters.batch_flush_tick == 0
        assert [type(p) for p in pipe.sent] == [BatchPdu]
        assert pipe.sent[0].ack[0] == 2   # post-acceptance REQ in the header

    def test_no_open_batch_falls_back_to_heartbeat(self):
        engine, pipe = make_engine(index=1, deferred_interval=0.0)
        peer, p_pipe = make_engine(index=0)
        peer.submit("from peer")
        peer.on_tick()
        frame = next(p for p in p_pipe.sent if isinstance(p, BatchPdu))
        engine.on_pdu(frame)
        engine.on_tick()
        assert any(isinstance(p, (HeartbeatPdu, BatchPdu)) for p in pipe.sent)


class TestInlineFlushOrdering:
    def test_control_pdu_cannot_overtake_open_batch(self):
        """Any non-batch send flushes the open batch first — control PDUs
        built after a batched PDU carry REQ entries covering its seqs, so
        FIFO on the wire is a correctness requirement, not a nicety."""
        engine, pipe = make_engine(index=1)
        peer, p_pipe = make_engine(index=0)
        # Create a gap so the engine wants to send a RET: peer sends seqs
        # 1..4, receiver only sees a frame that starts at seq 2.
        for payload in ("a", "b", "c", "d"):
            peer.submit(payload)
        frame = next(p for p in p_pipe.sent if isinstance(p, BatchPdu))
        tail = BatchPdu(
            cid=frame.cid, src=frame.src, ack=frame.ack, pack=frame.pack,
            buf=frame.buf, pdus=frame.pdus[1:],
        )
        engine.submit("batched first")    # opens the batch
        engine.on_pdu(tail)               # gap → RET wants out
        kinds = [type(p).__name__ for p in pipe.sent]
        assert "BatchPdu" in kinds
        assert kinds.index("BatchPdu") == 0, (
            f"open batch must flush before anything else, got {kinds}"
        )
        assert engine.counters.batch_flush_inline >= 1
