"""Hostile frames generated from the codec's wire table.

For every PDU type (each golden frame of ``test_codec_golden.py``) the
codec's own table says where each field of the frame ends and which
fields are counts or lengths.  From that:

* the body is truncated at every field boundary the table names, nested
  bodies included;
* every count and length field is set to one more than the largest value
  the frame could hold, and to the largest value its width can carry.

Every mutated body is re-sealed with a correct CRC, so what is tested is
the decoder's bounds checks behind the checksum, which random blobs almost
never reach.  Only :class:`CodecError` may come out, and
:func:`decode_pdu_safe` must return ``None`` and count the frame.
"""

import struct
import zlib

import pytest

from repro.core import codec
from repro.core.codec import CodecError, decode_pdu, decode_pdu_safe
from tests.unit.test_codec_golden import GOLDEN

ROWS = codec._BY_KIND
_U16_MAX, _U32_MAX = 0xFFFF, 0xFFFFFFFF


def _size(fmt: str) -> int:
    return struct.calcsize("!" + fmt)


def _fields(body: bytes, start: int, end: int):
    """Field ends and count fields of the PDU body in ``body[start:end]``.

    Returns ``(cuts, hostile)``: the offsets where a field ends, and
    ``(offset, format, too_big)`` for every count or length field, where
    ``too_big`` is one more than the largest value the bytes could hold.
    """
    row = ROWS[body[start]]
    at = start + 2
    cuts = [start + 1, at]
    for _, fmt in row.lead:
        at += _size(fmt)
        cuts.append(at)
    counts, count_at = {}, {}
    for name in row.counts_names:
        (counts[name],) = struct.unpack_from("!H", body, at)
        count_at[name] = at
        at += 2
        cuts.append(at)
    for _, fmt, count in row.vectors:
        at += counts[count] * _size(fmt)
        cuts.append(at)
    for _, fmt in row.trail:
        at += _size(fmt)
        cuts.append(at)
    hostile = []
    if row.tail_kind == "payload":  # its bytes run to ``end``
        at += 4
        cuts.append(at)
        hostile.append((at - 4, "!I", end - at + 1))
    # Each count's bytes: its vectors' entries, or at least a u32 length
    # prefix per nested body.
    for name in row.counts_names:
        unit = sum(_size(f) for _, f, c in row.vectors if c == name) or 4
        too_big = counts[name] + (end - at) // unit + 1
        hostile.append((count_at[name], "!H", too_big))
    if row.tail_kind == "body":
        single = row.tail_count is None
        for _ in range(1 if single else counts[row.counts_names[row.tail_count]]):
            (length,) = struct.unpack_from("!I", body, at)
            at += 4
            cuts.append(at)
            hostile.append((at - 4, "!I", end - at + 1))
            inner_cuts, inner_hostile = _fields(body, at, at + length)
            cuts += inner_cuts
            hostile += inner_hostile
            at += length
            cuts.append(at)
    return cuts, hostile


def _sealed(body: bytes) -> bytes:
    return body + struct.pack("!I", zlib.crc32(body))


def _assert_rejected(frame: bytes, what: str) -> None:
    with pytest.raises(CodecError):
        decode_pdu(frame)
        pytest.fail(f"{what} decoded")
    counters = {}
    assert decode_pdu_safe(frame, counters) is None, what
    assert counters == {"codec_corrupt_frames": 1}, what


def _frames():
    return {name: bytes.fromhex(frame) for name, frame in sorted(GOLDEN.items())}


def test_the_golden_frames_cover_every_row():
    assert {frame[0] for frame in _frames().values()} == set(ROWS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_truncation_at_every_field_boundary_is_rejected(name):
    body = _frames()[name][:-4]
    cuts, _ = _fields(body, 0, len(body))
    for cut in sorted({0, *cuts} - {len(body)}):
        _assert_rejected(_sealed(body[:cut]), f"{name} cut at {cut}")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_counts_the_frame_cannot_hold_are_rejected(name):
    body = _frames()[name][:-4]
    _, hostile = _fields(body, 0, len(body))
    for offset, fmt, too_big in hostile:
        widest = _U16_MAX if fmt == "!H" else _U32_MAX
        assert too_big <= widest, (name, offset)
        for value in {too_big, widest}:
            damaged = bytearray(body)
            struct.pack_into(fmt, damaged, offset, value)
            _assert_rejected(
                _sealed(bytes(damaged)), f"{name}: {value} at {offset}",
            )
