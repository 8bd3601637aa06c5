"""Property-based round-trip tests for the wire codec."""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.core.codec import CodecError, decode_pdu, encode_pdu, encoded_size
from repro.core.pdu import DataPdu, HeartbeatPdu, RetPdu

U32 = st.integers(min_value=1, max_value=2 ** 32 - 1)
U32_0 = st.integers(min_value=0, max_value=2 ** 32 - 1)
U16 = st.integers(min_value=0, max_value=2 ** 16 - 1)
VECTOR = st.lists(U32, min_size=1, max_size=16).map(tuple)


@st.composite
def data_pdus(draw):
    ack = draw(VECTOR)
    payload = draw(st.one_of(st.none(), st.binary(max_size=200)))
    return DataPdu(
        cid=draw(U32_0),
        src=draw(st.integers(min_value=0, max_value=len(ack) - 1)),
        seq=draw(U32),
        ack=ack,
        buf=draw(U32_0),
        data=payload,
        data_size=0 if payload is None else len(payload),
    )


@st.composite
def ret_pdus(draw):
    ack = draw(VECTOR)
    return RetPdu(
        cid=draw(U32_0),
        src=draw(U16),
        lsrc=draw(st.integers(min_value=0, max_value=len(ack) - 1)),
        lseq=draw(U32),
        ack=ack,
        buf=draw(U32_0),
    )


@st.composite
def heartbeat_pdus(draw):
    ack = draw(VECTOR)
    pack = tuple(draw(st.lists(U32, min_size=len(ack), max_size=len(ack))))
    return HeartbeatPdu(
        cid=draw(U32_0),
        src=draw(U16),
        ack=ack,
        pack=pack,
        buf=draw(U32_0),
        probe=draw(st.booleans()),
    )


@given(data_pdus())
def test_data_roundtrip(pdu):
    decoded = decode_pdu(encode_pdu(pdu))
    assert isinstance(decoded, DataPdu)
    assert decoded.cid == pdu.cid
    assert decoded.src == pdu.src
    assert decoded.seq == pdu.seq
    assert decoded.ack == pdu.ack
    assert decoded.buf == pdu.buf
    assert decoded.is_null == pdu.is_null
    if not pdu.is_null:
        expected = pdu.data if isinstance(pdu.data, bytes) else pdu.data.encode()
        assert decoded.data == expected


@given(ret_pdus())
def test_ret_roundtrip(pdu):
    decoded = decode_pdu(encode_pdu(pdu))
    assert decoded == pdu


@given(heartbeat_pdus())
def test_heartbeat_roundtrip(pdu):
    decoded = decode_pdu(encode_pdu(pdu))
    assert decoded == pdu


@given(data_pdus())
def test_encoded_size_linear_in_n(pdu):
    grown = DataPdu(
        cid=pdu.cid, src=pdu.src, seq=pdu.seq,
        ack=pdu.ack + (1,) * 4, buf=pdu.buf,
        data=pdu.data, data_size=pdu.data_size,
    )
    assert encoded_size(grown) - encoded_size(pdu) == 16  # 4 more u32 entries


@given(st.binary(max_size=64))
def test_decoder_never_crashes_on_garbage(blob):
    try:
        decode_pdu(blob)
    except CodecError:
        pass  # rejecting is fine; crashing is not


@given(data_pdus())
def test_truncation_is_detected_at_every_byte_offset(pdu):
    encoded = encode_pdu(pdu)
    for cut in range(len(encoded)):
        with pytest.raises(CodecError):
            decoded = decode_pdu(encoded[:cut])
            # Truncating the payload alone may still parse only if the
            # declared length matched -- it cannot, since we cut bytes.
            assert decoded is not None


@given(data_pdus())
def test_memoryview_truncation_is_detected_at_every_byte_offset(pdu):
    # The zero-copy decode path must reject truncation exactly like the
    # bytes path — memoryview slicing silently shortens instead of
    # raising, so every length check has to hold on views too.
    view = memoryview(encode_pdu(pdu))
    for cut in range(len(view)):
        with pytest.raises(CodecError):
            decode_pdu(view[:cut])


def test_str_payload_roundtrips_as_bytes():
    pdu = DataPdu(cid=1, src=0, seq=1, ack=(1, 1), buf=0, data="héllo", data_size=6)
    decoded = decode_pdu(encode_pdu(pdu))
    assert decoded.data == "héllo".encode("utf-8")


def test_unencodable_payload_rejected():
    pdu = DataPdu(cid=1, src=0, seq=1, ack=(1,), buf=0, data={"a": 1})
    with pytest.raises(CodecError):
        encode_pdu(pdu)


# ----------------------------------------------------------------------
# Membership-extension PDUs and the CRC trailer
# ----------------------------------------------------------------------
from repro.core.codec import decode_pdu_safe
from repro.core.pdu import JoinPdu, StatePdu, ViewChangePdu

MEMBERS = st.lists(U16, min_size=1, max_size=8, unique=True).map(
    lambda m: tuple(sorted(m))
)


@st.composite
def viewchange_pdus(draw):
    ack = draw(VECTOR)
    phase = draw(st.sampled_from(("propose", "agree", "install")))
    flush = ack if phase == "install" else ()
    return ViewChangePdu(
        cid=draw(U32_0), src=draw(U16), view=draw(st.integers(1, 2 ** 16)),
        phase=phase, members=draw(MEMBERS), ack=ack, buf=draw(U32_0),
        flush=flush,
    )


@st.composite
def state_pdus(draw):
    ack = draw(VECTOR)
    pack = tuple(draw(st.lists(U32_0, min_size=len(ack), max_size=len(ack))))
    return StatePdu(
        cid=draw(U32_0), src=draw(U16), joiner=draw(U16),
        view=draw(st.integers(0, 2 ** 16)), members=draw(MEMBERS),
        ack=ack, pack=pack, buf=draw(U32_0),
    )


@given(viewchange_pdus())
def test_viewchange_roundtrip(pdu):
    decoded = decode_pdu(encode_pdu(pdu))
    assert decoded == pdu


@given(st.tuples(U32_0, U16, U32_0, st.booleans()))
def test_join_roundtrip(fields):
    cid, src, buf, ready = fields
    pdu = JoinPdu(cid=cid, src=src, buf=buf, ready=ready)
    assert decode_pdu(encode_pdu(pdu)) == pdu


@given(state_pdus())
def test_state_roundtrip(pdu):
    decoded = decode_pdu(encode_pdu(pdu))
    assert decoded == pdu


@given(data_pdus())
def test_every_single_byte_flip_is_rejected(pdu):
    # The CRC trailer must catch any single-byte corruption anywhere in the
    # frame — header, vectors, payload or the checksum itself.
    frame = encode_pdu(pdu)
    for position in range(len(frame)):
        damaged = bytearray(frame)
        damaged[position] ^= 0xA5
        assert decode_pdu_safe(bytes(damaged)) is None


# ----------------------------------------------------------------------
# Dissemination relay wrapper (PR 8): nested-frame encoding
# ----------------------------------------------------------------------
from repro.core.pdu import BatchPdu, RelayPdu


@st.composite
def batch_pdus(draw):
    base = draw(data_pdus())
    count = draw(st.integers(min_value=0, max_value=3))
    pack = tuple(draw(st.lists(U32, min_size=len(base.ack), max_size=len(base.ack))))
    first_seq = min(base.seq, 2 ** 32 - 1 - count)
    pdus = tuple(
        DataPdu(cid=base.cid, src=base.src, seq=first_seq + i, ack=base.ack,
                buf=base.buf, data=base.data, data_size=base.data_size)
        for i in range(count)
    )
    return BatchPdu(cid=base.cid, src=base.src, ack=base.ack, pack=pack,
                    buf=base.buf, pdus=pdus)


@st.composite
def relay_pdus(draw):
    frame = draw(st.one_of(data_pdus(), batch_pdus()))
    n = draw(st.integers(min_value=1, max_value=16))
    min_ack = tuple(draw(st.lists(U32_0, min_size=n, max_size=n)))
    min_pack = tuple(draw(st.lists(U32_0, min_size=n, max_size=n)))
    path = tuple(draw(st.lists(U16, min_size=1, max_size=6, unique=True)))
    return RelayPdu(cid=draw(U32_0), src=path[-1], path=path,
                    min_ack=min_ack, min_pack=min_pack,
                    buf=draw(U32_0), frame=frame)


@given(relay_pdus())
def test_relay_roundtrip(pdu):
    assert decode_pdu(encode_pdu(pdu)) == pdu


@given(relay_pdus())
def test_relay_encoded_size_is_exact(pdu):
    assert encoded_size(pdu) == len(encode_pdu(pdu))


@given(relay_pdus())
def test_relay_truncation_is_detected_at_every_byte_offset(pdu):
    # The relay body carries an inner length prefix: truncating anywhere —
    # including inside the nested frame — must fail the outer CRC/length
    # checks, never return a half-decoded wrapper.
    encoded = encode_pdu(pdu)
    for cut in range(len(encoded)):
        with pytest.raises(CodecError):
            decode_pdu(encoded[:cut])


# ----------------------------------------------------------------------
# Zero-copy paths: memoryview inputs, in-place encoding, arithmetic sizes
# ----------------------------------------------------------------------
from repro.core.codec import encode_pdu_into, encode_pdu_view


@given(st.one_of(data_pdus(), ret_pdus(), heartbeat_pdus(),
                 viewchange_pdus(), state_pdus()))
def test_memoryview_decode_matches_bytes_decode(pdu):
    frame = encode_pdu(pdu)
    assert decode_pdu(memoryview(frame)) == decode_pdu(frame)
    assert decode_pdu(bytearray(frame)) == decode_pdu(frame)


@given(st.one_of(data_pdus(), ret_pdus(), heartbeat_pdus(),
                 viewchange_pdus(), state_pdus()))
def test_encoded_size_is_exact_without_encoding(pdu):
    assert encoded_size(pdu) == len(encode_pdu(pdu))


@given(data_pdus(), st.integers(min_value=0, max_value=37))
def test_encode_pdu_into_at_offset_round_trips(pdu, offset):
    buf = bytearray(offset)  # deliberately too small: must grow in place
    end = encode_pdu_into(pdu, buf, offset)
    assert end == offset + encoded_size(pdu)
    frame = bytes(buf[offset:end])
    assert frame == encode_pdu(pdu)
    assert decode_pdu(frame) == pdu


@given(data_pdus(), ret_pdus())
def test_encode_pdu_into_packs_frames_back_to_back(first, second):
    buf = bytearray()
    mid = encode_pdu_into(first, buf, 0)
    end = encode_pdu_into(second, buf, mid)
    assert decode_pdu(memoryview(buf)[:mid]) == decode_pdu(encode_pdu(first))
    assert decode_pdu(memoryview(buf)[mid:end]) == second


@given(data_pdus())
def test_encode_pdu_view_matches_encode_pdu(pdu):
    view = encode_pdu_view(pdu)
    assert view.readonly
    frame = bytes(view)  # consume immediately: valid until the next encode
    assert frame == encode_pdu(pdu)


@given(heartbeat_pdus())
def test_decode_pdu_safe_counts_corrupt_frames(pdu):
    frame = bytearray(encode_pdu(pdu))
    frame[len(frame) // 2] ^= 0xFF
    counters = {"codec_corrupt_frames": 0}
    assert decode_pdu_safe(bytes(frame), counters) is None
    assert counters["codec_corrupt_frames"] == 1
    # An intact frame decodes and leaves the counter alone.
    assert decode_pdu_safe(encode_pdu(pdu), counters) == pdu
    assert counters["codec_corrupt_frames"] == 1


def test_relays_nested_past_the_recursion_limit_are_one_rejected_frame():
    # A relay carries a data or batch body only.  A datagram of relays
    # wrapped around relays (44 KB here, within one UDP datagram) must be
    # refused at the second nested type byte, not recurse until Python's
    # recursion limit raises out of decode_pdu_safe.
    data = DataPdu(cid=7, src=0, seq=1, ack=(1,), buf=0, data=b"")
    relay = RelayPdu(cid=7, src=0, path=(0,), min_ack=(), min_pack=(),
                     buf=0, frame=data)
    inner = encode_pdu(data)[:-4]
    body = encode_pdu(relay)[:-4]
    head = body[:len(body) - len(inner) - 4]
    for _ in range(2000):
        body = head + len(body).to_bytes(4, "big") + body
    counters = {}
    assert decode_pdu_safe(body + zlib.crc32(body).to_bytes(4, "big"),
                           counters) is None
    assert counters == {"codec_corrupt_frames": 1}
