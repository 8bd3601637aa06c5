"""Binary wire codec for the PDU formats of Figures 4 and 5.

The simulator passes PDU objects by reference, but an open-source release
of the protocol needs a concrete encoding; this module provides one, and
the round-trip property tests pin it down.  Layout (network byte order):

Data PDU (Figure 4)::

    u8  type = 0x01
    u8  flags          bit 0: null (confirmation-only) PDU
    u32 cid
    u16 src
    u32 seq
    u16 n              length of the ACK vector
    u32 ack[n]
    u32 buf
    u32 payload_len    0 for null PDUs
    ..  payload        raw bytes (the application's serialisation)

RET PDU (Figure 5)::

    u8  type = 0x02
    u8  flags = 0
    u32 cid
    u16 src
    u16 lsrc
    u32 lseq
    u16 n
    u32 ack[n]
    u32 buf

Heartbeat (quiescence/membership extension)::

    u8  type = 0x03
    u8  flags          bit 0: probe
    u32 cid
    u16 src
    u16 n
    u32 ack[n]
    u32 pack[n]
    u32 buf
    u32 view

View-change PDU (membership extension)::

    u8  type = 0x04
    u8  phase          0: propose, 1: agree, 2: install
    u32 cid
    u16 src
    u32 view
    u16 m              member-set size
    u16 n              ACK-vector length
    u16 f              flush-vector length (0 except install)
    u16 members[m]
    u32 ack[n]
    u32 flush[f]
    u32 buf

Join PDU::

    u8  type = 0x05
    u8  flags          bit 0: ready (snapshot applied)
    u32 cid
    u16 src
    u32 buf

State-snapshot PDU (O(n): the frontier ``ack`` stands for every id the
joiner will never be handed, docs/PROTOCOL.md §11)::

    u8  type = 0x06
    u8  flags = 0
    u32 cid
    u16 src
    u16 joiner
    u32 view
    u16 m              member-set size
    u16 n              vector length
    u16 members[m]
    u32 ack[n]
    u32 pack[n]
    u32 buf

Batch frame (batching extension, docs/PROTOCOL.md §14)::

    u8  type = 0x07
    u8  flags = 0
    u32 cid
    u16 src
    u16 n              vector length
    u16 count          inner data-PDU count (0 = pure-confirmation frame)
    u32 ack[n]
    u32 pack[n]
    u32 buf
    (u32 body_len, body) * count   each body a type-0x01 data-PDU body
                                   (no per-PDU checksum; one frame CRC)

Anti-entropy digest (repair extension, docs/PROTOCOL.md §15)::

    u8  type = 0x08
    u8  flags = 0
    u32 cid
    u16 src
    u16 target
    u32 view
    u16 n              vector length
    u32 ack[n]
    u32 delivered[n]
    u32 buf

Repair-pull PDU::

    u8  type = 0x09
    u8  flags = 0
    u32 cid
    u16 src
    u16 target
    u16 n              ACK-vector length
    u16 r              range count
    u32 ack[n]
    (u16 lsrc, u32 lo, u32 hi) * r
    u32 buf

Relay frame (dissemination extension, docs/PROTOCOL.md §16)::

    u8  type = 0x0A
    u8  flags = 0
    u32 cid
    u16 src
    u16 h              path length (hop count, >= 1)
    u16 n              vector length
    u16 path[h]
    u32 min_ack[n]
    u32 min_pack[n]
    u32 buf
    u32 body_len
    ..  body           the origin's frame: a type-0x01 or 0x07 body
                       (no inner checksum; one frame CRC)

Inter-group frame (hierarchy tier, docs/PROTOCOL.md §18)::

    u8  type = 0x0B
    u8  flags          bit 0: ack (cumulative re-injection floor)
                       bit 1: null payload (None, not the empty string)
    u32 cid
    u16 origin_group
    u16 sender_group
    u16 src            global origin entity id (0 for acks)
    u32 seq            origin-local sequence number (0 for acks)
    u32 gseq           group-stream sequence number / acked floor
    u16 g              barrier length (the group count G; 0 for acks)
    u32 barrier[g]
    u32 buf
    u32 payload_len    0 for acks
    ..  payload

Every frame ends in a ``u32`` CRC-32 of everything before it.  The MC
medium itself is error-free in the paper's model, but real transports (and
the nemesis harness's bit-flip fault) are not; the checksum turns silent
corruption into a counted, rejected frame instead of a mis-parsed PDU.

Application payloads must be ``bytes`` (or ``str``, encoded as UTF-8 and
decoded back to ``bytes`` — the codec does not guess application types).

Hot-path mechanics
------------------

The wire format above is frozen (tests/unit/test_codec_golden.py pins
byte-identical frames), but the implementation assembles frames with
``struct.pack_into`` over a reusable module-level scratch ``bytearray``
instead of concatenating per-field ``bytes`` — one output allocation per
frame rather than one per field.  :func:`encode_pdu_into` exposes the
in-place form for callers that manage their own buffers, and
:func:`encode_pdu_view` hands out a read-only view of the scratch buffer
(valid until the next encode) for transports that copy-on-send anyway.
Decoding accepts any buffer and works over ``memoryview`` slices, so a
batch frame's inner bodies are parsed in place instead of being copied
out first.  The scratch buffer makes encoding non-reentrant and not
thread-safe — fine for the single-threaded engine loops, the only
callers.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import replace
from typing import Any, Dict, Optional, Union

from repro.core.errors import ReproError
from repro.core.pdu import (
    BatchPdu,
    DataPdu,
    DigestPdu,
    HeartbeatPdu,
    InterGroupPdu,
    JoinPdu,
    RelayPdu,
    RepairPullPdu,
    RetPdu,
    StatePdu,
    ViewChangePdu,
)

_TYPE_DATA = 0x01
_TYPE_RET = 0x02
_TYPE_HEARTBEAT = 0x03
_TYPE_VIEWCHANGE = 0x04
_TYPE_JOIN = 0x05
_TYPE_STATE = 0x06
_TYPE_BATCH = 0x07
_TYPE_DIGEST = 0x08
_TYPE_REPAIR_PULL = 0x09
_TYPE_RELAY = 0x0A
_TYPE_INTERGROUP = 0x0B

_FLAG_NULL = 0x01
_FLAG_PROBE = 0x01
_FLAG_READY = 0x01
_FLAG_IG_ACK = 0x01
_FLAG_IG_NULL = 0x02

_PHASE_CODES = {"propose": 0, "agree": 1, "install": 2}
_PHASE_NAMES = {code: name for name, code in _PHASE_CODES.items()}

#: Trailing CRC-32 length in bytes.
_CRC_BYTES = 4

AnyPdu = Union[
    DataPdu, RetPdu, HeartbeatPdu, ViewChangePdu, JoinPdu, StatePdu, BatchPdu,
    DigestPdu, RepairPullPdu, RelayPdu, InterGroupPdu,
]

Buffer = Union[bytes, bytearray, memoryview]


class CodecError(ReproError, ValueError):
    """Malformed bytes, or a PDU the codec cannot represent."""


# Precompiled fixed headers (struct.Struct avoids re-parsing format strings
# on every frame) and per-length vector formats, cached by length.
_S_DATA = struct.Struct("!BBIHIH")
_S_DATA_TAIL = struct.Struct("!II")
_S_RET = struct.Struct("!BBIHHIH")
_S_HEARTBEAT = struct.Struct("!BBIHH")
_S_VIEWCHANGE = struct.Struct("!BBIHIHHH")
_S_JOIN = struct.Struct("!BBIHI")
_S_STATE = struct.Struct("!BBIHHIHH")
_S_BATCH = struct.Struct("!BBIHHH")
_S_DIGEST = struct.Struct("!BBIHHIH")
_S_REPAIR_PULL = struct.Struct("!BBIHHHH")
_S_RELAY = struct.Struct("!BBIHHH")
_S_INTERGROUP = struct.Struct("!BBIHHHIIH")
_S_U32 = struct.Struct("!I")
_S_RANGE = struct.Struct("!HII")

_VEC_CACHE: Dict[int, struct.Struct] = {}
_MEM_CACHE: Dict[int, struct.Struct] = {}


def _vec(n: int) -> struct.Struct:
    s = _VEC_CACHE.get(n)
    if s is None:
        s = _VEC_CACHE[n] = struct.Struct(f"!{n}I")
    return s


def _mem(m: int) -> struct.Struct:
    s = _MEM_CACHE.get(m)
    if s is None:
        s = _MEM_CACHE[m] = struct.Struct(f"!{m}H")
    return s


def _payload_bytes(data: Any) -> bytes:
    if data is None:
        return b""
    if isinstance(data, bytes):
        return data
    if isinstance(data, str):
        return data.encode("utf-8")
    raise CodecError(
        f"only bytes/str payloads are encodable, got {type(data).__name__} "
        "(serialise application objects before broadcast)"
    )


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

#: Reusable scratch buffer for whole-frame assembly, with cached base
#: views: a fresh ``memoryview`` object costs ~184 bytes — more than a
#: small frame — so slicing cached views instead of materialising new
#: ones per encode is where the allocation-churn win actually comes from.
_SCRATCH = bytearray(2048)
_SCRATCH_MV = memoryview(_SCRATCH)
_SCRATCH_RO = _SCRATCH_MV.toreadonly()
#: Read-only scratch slices cached by frame length: steady-state traffic
#: has a handful of distinct frame sizes (fixed n), so the hot encode
#: path reuses the same view object instead of allocating one per frame.
_VIEW_CACHE: Dict[int, memoryview] = {}


def _scratch_for(need: int) -> bytearray:
    """The scratch buffer, guaranteed to hold ``need`` bytes.

    Growth *replaces* the buffer rather than resizing it: a caller may
    still hold the view returned by the previous :func:`encode_pdu_view`
    (e.g. a send loop's last payload), and ``bytearray.extend`` with an
    exported buffer raises ``BufferError`` — whereas after replacement the
    old view stays valid over the old buffer until dropped.
    """
    global _SCRATCH, _SCRATCH_MV, _SCRATCH_RO
    if len(_SCRATCH) < need:
        _SCRATCH = bytearray(max(need, 2 * len(_SCRATCH)))
        _SCRATCH_MV = memoryview(_SCRATCH)
        _SCRATCH_RO = _SCRATCH_MV.toreadonly()
        _VIEW_CACHE.clear()
    return _SCRATCH


def _scratch_view(end: int) -> memoryview:
    """Read-only view of the scratch's first ``end`` bytes, cached."""
    view = _VIEW_CACHE.get(end)
    if view is None:
        if len(_VIEW_CACHE) >= 64:
            _VIEW_CACHE.clear()
        view = _SCRATCH_RO[:end]
        _VIEW_CACHE[end] = view
    return view


def _encode_scratch(pdu: AnyPdu) -> int:
    """Encode a whole frame at offset 0 of the scratch; return its length."""
    buf = _scratch_for(encoded_size(pdu))
    body_end = _encode_body_into(pdu, buf, 0)
    # The CRC's body slice goes through the view cache too — it would
    # otherwise be the encode path's last per-frame allocation.
    _S_U32.pack_into(buf, body_end, zlib.crc32(_scratch_view(body_end)))
    return body_end + _CRC_BYTES


def encode_pdu(pdu: AnyPdu) -> bytes:
    """Serialise any PDU kind to bytes, with a trailing CRC-32."""
    return bytes(_scratch_view(_encode_scratch(pdu)))


def encode_pdu_view(pdu: AnyPdu) -> memoryview:
    """Encode into the shared scratch buffer, returning a read-only view.

    Allocation-free variant of :func:`encode_pdu` for send paths whose
    transport copies the buffer anyway (``socket.sendto`` does).  The view
    is only valid until the next encode call — callers must consume it
    immediately and never store it (a later encode of an equal-length
    frame returns the *same* view object over new contents).
    """
    return _scratch_view(_encode_scratch(pdu))


def encode_pdu_into(pdu: AnyPdu, buf: bytearray, offset: int = 0) -> int:
    """Encode ``pdu`` (body + CRC) into ``buf`` at ``offset`` in place.

    Grows ``buf`` as needed and returns the end offset of the frame, so
    several frames can be packed back to back into one buffer.
    """
    need = offset + encoded_size(pdu)
    if len(buf) < need:
        buf.extend(bytes(need - len(buf)))
    body_end = _encode_body_into(pdu, buf, offset)
    _S_U32.pack_into(
        buf, body_end, zlib.crc32(memoryview(buf)[offset:body_end]),
    )
    return body_end + _CRC_BYTES


def _encode_body_into(pdu: AnyPdu, buf: bytearray, offset: int) -> int:
    if isinstance(pdu, DataPdu):
        payload = _payload_bytes(pdu.data)
        n = len(pdu.ack)
        _S_DATA.pack_into(
            buf, offset, _TYPE_DATA, _FLAG_NULL if pdu.is_null else 0,
            pdu.cid, pdu.src, pdu.seq, n,
        )
        offset += _S_DATA.size
        _vec(n).pack_into(buf, offset, *pdu.ack)
        offset += 4 * n
        _S_DATA_TAIL.pack_into(buf, offset, pdu.buf, len(payload))
        offset += _S_DATA_TAIL.size
        buf[offset:offset + len(payload)] = payload
        return offset + len(payload)
    if isinstance(pdu, RetPdu):
        n = len(pdu.ack)
        _S_RET.pack_into(
            buf, offset, _TYPE_RET, 0, pdu.cid, pdu.src, pdu.lsrc, pdu.lseq, n,
        )
        offset += _S_RET.size
        _vec(n).pack_into(buf, offset, *pdu.ack)
        offset += 4 * n
        _S_U32.pack_into(buf, offset, pdu.buf)
        return offset + 4
    if isinstance(pdu, HeartbeatPdu):
        n = len(pdu.ack)
        _S_HEARTBEAT.pack_into(
            buf, offset, _TYPE_HEARTBEAT, _FLAG_PROBE if pdu.probe else 0,
            pdu.cid, pdu.src, n,
        )
        offset += _S_HEARTBEAT.size
        _vec(n).pack_into(buf, offset, *pdu.ack)
        offset += 4 * n
        _vec(n).pack_into(buf, offset, *pdu.pack)
        offset += 4 * n
        _S_DATA_TAIL.pack_into(buf, offset, pdu.buf, pdu.view)
        return offset + _S_DATA_TAIL.size
    if isinstance(pdu, ViewChangePdu):
        m, n, f = len(pdu.members), len(pdu.ack), len(pdu.flush)
        _S_VIEWCHANGE.pack_into(
            buf, offset, _TYPE_VIEWCHANGE, _PHASE_CODES[pdu.phase], pdu.cid,
            pdu.src, pdu.view, m, n, f,
        )
        offset += _S_VIEWCHANGE.size
        _mem(m).pack_into(buf, offset, *pdu.members)
        offset += 2 * m
        _vec(n).pack_into(buf, offset, *pdu.ack)
        offset += 4 * n
        _vec(f).pack_into(buf, offset, *pdu.flush)
        offset += 4 * f
        _S_U32.pack_into(buf, offset, pdu.buf)
        return offset + 4
    if isinstance(pdu, JoinPdu):
        _S_JOIN.pack_into(
            buf, offset, _TYPE_JOIN, _FLAG_READY if pdu.ready else 0,
            pdu.cid, pdu.src, pdu.buf,
        )
        return offset + _S_JOIN.size
    if isinstance(pdu, StatePdu):
        m, n = len(pdu.members), len(pdu.ack)
        _S_STATE.pack_into(
            buf, offset, _TYPE_STATE, 0, pdu.cid, pdu.src, pdu.joiner,
            pdu.view, m, n,
        )
        offset += _S_STATE.size
        _mem(m).pack_into(buf, offset, *pdu.members)
        offset += 2 * m
        _vec(n).pack_into(buf, offset, *pdu.ack)
        offset += 4 * n
        _vec(n).pack_into(buf, offset, *pdu.pack)
        offset += 4 * n
        _S_U32.pack_into(buf, offset, pdu.buf)
        return offset + 4
    if isinstance(pdu, DigestPdu):
        n = len(pdu.ack)
        _S_DIGEST.pack_into(
            buf, offset, _TYPE_DIGEST, 0, pdu.cid, pdu.src, pdu.target,
            pdu.view, n,
        )
        offset += _S_DIGEST.size
        _vec(n).pack_into(buf, offset, *pdu.ack)
        offset += 4 * n
        _vec(n).pack_into(buf, offset, *pdu.delivered)
        offset += 4 * n
        _S_U32.pack_into(buf, offset, pdu.buf)
        return offset + 4
    if isinstance(pdu, RepairPullPdu):
        n, r = len(pdu.ack), len(pdu.ranges)
        _S_REPAIR_PULL.pack_into(
            buf, offset, _TYPE_REPAIR_PULL, 0, pdu.cid, pdu.src, pdu.target,
            n, r,
        )
        offset += _S_REPAIR_PULL.size
        _vec(n).pack_into(buf, offset, *pdu.ack)
        offset += 4 * n
        for lsrc, lo, hi in pdu.ranges:
            _S_RANGE.pack_into(buf, offset, lsrc, lo, hi)
            offset += _S_RANGE.size
        _S_U32.pack_into(buf, offset, pdu.buf)
        return offset + 4
    if isinstance(pdu, RelayPdu):
        h, n = len(pdu.path), len(pdu.min_ack)
        _S_RELAY.pack_into(
            buf, offset, _TYPE_RELAY, 0, pdu.cid, pdu.src, h, n,
        )
        offset += _S_RELAY.size
        _mem(h).pack_into(buf, offset, *pdu.path)
        offset += 2 * h
        _vec(n).pack_into(buf, offset, *pdu.min_ack)
        offset += 4 * n
        _vec(n).pack_into(buf, offset, *pdu.min_pack)
        offset += 4 * n
        _S_U32.pack_into(buf, offset, pdu.buf)
        offset += 4
        # u32 length prefix, then the inner frame's body, as in batches.
        length_at = offset
        offset += 4
        body_end = _encode_body_into(pdu.frame, buf, offset)
        _S_U32.pack_into(buf, length_at, body_end - offset)
        return body_end
    if isinstance(pdu, BatchPdu):
        n = len(pdu.ack)
        _S_BATCH.pack_into(
            buf, offset, _TYPE_BATCH, 0, pdu.cid, pdu.src, n, len(pdu.pdus),
        )
        offset += _S_BATCH.size
        _vec(n).pack_into(buf, offset, *pdu.ack)
        offset += 4 * n
        _vec(n).pack_into(buf, offset, *pdu.pack)
        offset += 4 * n
        _S_U32.pack_into(buf, offset, pdu.buf)
        offset += 4
        for p in pdu.pdus:
            # Reserve the u32 length prefix, encode the body in place, then
            # backpatch the prefix with the measured body length.
            length_at = offset
            offset += 4
            body_end = _encode_body_into(p, buf, offset)
            _S_U32.pack_into(buf, length_at, body_end - offset)
            offset = body_end
        return offset
    if isinstance(pdu, InterGroupPdu):
        payload = _payload_bytes(pdu.data)
        g = len(pdu.barrier)
        flags = _FLAG_IG_ACK if pdu.ack else 0
        if pdu.data is None and not pdu.ack:
            flags |= _FLAG_IG_NULL
        _S_INTERGROUP.pack_into(
            buf, offset, _TYPE_INTERGROUP, flags,
            pdu.cid, pdu.origin_group, pdu.sender_group,
            pdu.src, pdu.seq, pdu.gseq, g,
        )
        offset += _S_INTERGROUP.size
        _vec(g).pack_into(buf, offset, *pdu.barrier)
        offset += 4 * g
        _S_DATA_TAIL.pack_into(buf, offset, pdu.buf, len(payload))
        offset += _S_DATA_TAIL.size
        buf[offset:offset + len(payload)] = payload
        return offset + len(payload)
    raise CodecError(f"cannot encode {type(pdu).__name__}")


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

def decode_pdu(data: Buffer) -> AnyPdu:
    """Parse a frame produced by :func:`encode_pdu`, verifying the CRC.

    Accepts ``bytes``, ``bytearray`` or ``memoryview``; batch frames'
    inner bodies are parsed through ``memoryview`` slices without copying.
    """
    try:
        return _decode(data, _checked_len(data))
    except CodecError:
        raise
    except (struct.error, IndexError, ValueError) as exc:
        # ValueError covers PDU-constructor validation (e.g. a frame whose
        # fields decode but violate a dataclass invariant).
        raise CodecError(f"truncated or malformed PDU: {exc}") from exc


def decode_pdu_safe(
    data: Buffer, counters: Optional[Dict[str, int]] = None
) -> Optional[AnyPdu]:
    """Like :func:`decode_pdu` but never raises mid-dispatch.

    Corrupted or malformed frames return ``None`` and bump
    ``counters["codec_corrupt_frames"]`` (when a counter dict is given) —
    the receive-loop-friendly entry point.
    """
    try:
        return decode_pdu(data)
    except CodecError:
        if counters is not None:
            counters["codec_corrupt_frames"] = (
                counters.get("codec_corrupt_frames", 0) + 1
            )
        return None


def _checked_len(data: Buffer) -> int:
    """Verify the trailing CRC; return the body length.

    The CRC's transient views are dropped before :func:`_decode` starts
    allocating the PDU object graph, and the body is never sliced off —
    ``_decode`` reads the original buffer against an explicit bound — so a
    decode's peak allocation is the PDU itself, not view bookkeeping.
    """
    total = len(data)
    if total <= _CRC_BYTES:
        raise CodecError("frame shorter than its checksum")
    body_len = total - _CRC_BYTES
    (expected,) = _S_U32.unpack_from(data, body_len)
    actual = zlib.crc32(memoryview(data)[:body_len])
    if actual != expected:
        raise CodecError(
            f"checksum mismatch: frame carries 0x{expected:08x}, "
            f"computed 0x{actual:08x} (corrupted or truncated frame)"
        )
    return body_len


def _decode(data: Buffer, end: int) -> AnyPdu:
    """Parse one PDU body from ``data[:end]``.

    ``data`` is the *original* input buffer (the CRC trailer is excluded
    by ``end``, not by slicing); every variable-length read is bounds-
    checked against ``end`` explicitly, so a malformed count field raises
    instead of silently consuming checksum bytes.  Slices — inner batch
    bodies, payloads — are cheap copies for ``bytes`` input and zero-copy
    views for ``memoryview`` input.
    """
    if end <= 0:
        raise CodecError("empty buffer")
    kind = data[0]
    if kind == _TYPE_DATA:
        if _S_DATA.size > end:
            raise CodecError("truncated data PDU header")
        _, flags, cid, src, seq, n = _S_DATA.unpack_from(data, 0)
        offset = _S_DATA.size + 4 * n
        if offset + _S_DATA_TAIL.size > end:
            raise CodecError("truncated data PDU")
        ack = _vec(n).unpack_from(data, _S_DATA.size)
        buf, payload_len = _S_DATA_TAIL.unpack_from(data, offset)
        offset += _S_DATA_TAIL.size
        if offset + payload_len > end:
            raise CodecError("payload shorter than its declared length")
        is_null = bool(flags & _FLAG_NULL)
        return DataPdu(
            cid=cid, src=src, seq=seq, ack=ack, buf=buf,
            data=None if is_null else bytes(data[offset:offset + payload_len]),
            data_size=payload_len,
        )
    if kind == _TYPE_RET:
        if _S_RET.size > end:
            raise CodecError("truncated RET PDU header")
        _, _, cid, src, lsrc, lseq, n = _S_RET.unpack_from(data, 0)
        offset = _S_RET.size + 4 * n
        if offset + 4 > end:
            raise CodecError("truncated RET PDU")
        ack = _vec(n).unpack_from(data, _S_RET.size)
        (buf,) = _S_U32.unpack_from(data, offset)
        return RetPdu(cid=cid, src=src, lsrc=lsrc, lseq=lseq, ack=ack, buf=buf)
    if kind == _TYPE_HEARTBEAT:
        if _S_HEARTBEAT.size > end:
            raise CodecError("truncated heartbeat header")
        _, flags, cid, src, n = _S_HEARTBEAT.unpack_from(data, 0)
        offset = _S_HEARTBEAT.size
        if offset + 8 * n + _S_DATA_TAIL.size > end:
            raise CodecError("truncated heartbeat")
        ack = _vec(n).unpack_from(data, offset)
        offset += 4 * n
        pack = _vec(n).unpack_from(data, offset)
        offset += 4 * n
        buf, view = _S_DATA_TAIL.unpack_from(data, offset)
        return HeartbeatPdu(
            cid=cid, src=src, ack=ack, pack=pack, buf=buf,
            probe=bool(flags & _FLAG_PROBE), view=view,
        )
    if kind == _TYPE_VIEWCHANGE:
        if _S_VIEWCHANGE.size > end:
            raise CodecError("truncated view-change header")
        _, phase_code, cid, src, view, m, n, f = _S_VIEWCHANGE.unpack_from(
            data, 0,
        )
        phase = _PHASE_NAMES.get(phase_code)
        if phase is None:
            raise CodecError(f"unknown view-change phase code {phase_code}")
        offset = _S_VIEWCHANGE.size
        if offset + 2 * m + 4 * n + 4 * f + 4 > end:
            raise CodecError("truncated view-change PDU")
        members = _mem(m).unpack_from(data, offset)
        offset += 2 * m
        ack = _vec(n).unpack_from(data, offset)
        offset += 4 * n
        flush = _vec(f).unpack_from(data, offset)
        offset += 4 * f
        (buf,) = _S_U32.unpack_from(data, offset)
        return ViewChangePdu(
            cid=cid, src=src, view=view, phase=phase, members=members,
            ack=ack, buf=buf, flush=flush,
        )
    if kind == _TYPE_JOIN:
        if _S_JOIN.size > end:
            raise CodecError("truncated join PDU")
        _, flags, cid, src, buf = _S_JOIN.unpack_from(data, 0)
        return JoinPdu(cid=cid, src=src, buf=buf, ready=bool(flags & _FLAG_READY))
    if kind == _TYPE_STATE:
        if _S_STATE.size > end:
            raise CodecError("truncated state header")
        _, _, cid, src, joiner, view, m, n = _S_STATE.unpack_from(data, 0)
        offset = _S_STATE.size
        if offset + 2 * m + 8 * n + 4 > end:
            raise CodecError("truncated state PDU")
        members = _mem(m).unpack_from(data, offset)
        offset += 2 * m
        ack = _vec(n).unpack_from(data, offset)
        offset += 4 * n
        pack = _vec(n).unpack_from(data, offset)
        offset += 4 * n
        (buf,) = _S_U32.unpack_from(data, offset)
        return StatePdu(
            cid=cid, src=src, joiner=joiner, view=view, members=members,
            ack=ack, pack=pack, buf=buf,
        )
    if kind == _TYPE_DIGEST:
        if _S_DIGEST.size > end:
            raise CodecError("truncated digest header")
        _, _, cid, src, target, view, n = _S_DIGEST.unpack_from(data, 0)
        offset = _S_DIGEST.size
        if offset + 8 * n + 4 > end:
            raise CodecError("truncated digest PDU")
        ack = _vec(n).unpack_from(data, offset)
        offset += 4 * n
        delivered = _vec(n).unpack_from(data, offset)
        offset += 4 * n
        (buf,) = _S_U32.unpack_from(data, offset)
        return DigestPdu(
            cid=cid, src=src, target=target, view=view,
            ack=ack, delivered=delivered, buf=buf,
        )
    if kind == _TYPE_REPAIR_PULL:
        if _S_REPAIR_PULL.size > end:
            raise CodecError("truncated repair-pull header")
        _, _, cid, src, target, n, r = _S_REPAIR_PULL.unpack_from(data, 0)
        offset = _S_REPAIR_PULL.size
        if offset + 4 * n + _S_RANGE.size * r + 4 > end:
            raise CodecError("truncated repair-pull PDU")
        ack = _vec(n).unpack_from(data, offset)
        offset += 4 * n
        ranges = []
        for _ in range(r):
            ranges.append(_S_RANGE.unpack_from(data, offset))
            offset += _S_RANGE.size
        (buf,) = _S_U32.unpack_from(data, offset)
        return RepairPullPdu(
            cid=cid, src=src, target=target, ranges=tuple(ranges),
            ack=ack, buf=buf,
        )
    if kind == _TYPE_RELAY:
        if _S_RELAY.size > end:
            raise CodecError("truncated relay header")
        _, _, cid, src, h, n = _S_RELAY.unpack_from(data, 0)
        if h < 1:
            raise CodecError("relay frame with an empty path")
        offset = _S_RELAY.size
        if offset + 2 * h + 8 * n + 8 > end:
            raise CodecError("truncated relay PDU")
        path = _mem(h).unpack_from(data, offset)
        offset += 2 * h
        min_ack = _vec(n).unpack_from(data, offset)
        offset += 4 * n
        min_pack = _vec(n).unpack_from(data, offset)
        offset += 4 * n
        (buf,) = _S_U32.unpack_from(data, offset)
        offset += 4
        (body_len,) = _S_U32.unpack_from(data, offset)
        offset += 4
        if offset + body_len > end:
            raise CodecError("relayed frame shorter than its declared length")
        frame = _decode(data[offset:offset + body_len], body_len)
        if not isinstance(frame, (DataPdu, BatchPdu)):
            raise CodecError(
                "relay frames carry data or batch PDUs only, got "
                f"{type(frame).__name__}"
            )
        return RelayPdu(
            cid=cid, src=src, path=path, min_ack=min_ack, min_pack=min_pack,
            buf=buf, frame=frame,
        )
    if kind == _TYPE_BATCH:
        if _S_BATCH.size > end:
            raise CodecError("truncated batch header")
        _, _, cid, src, n, count = _S_BATCH.unpack_from(data, 0)
        offset = _S_BATCH.size
        if offset + 8 * n + 4 > end:
            raise CodecError("truncated batch PDU")
        ack = _vec(n).unpack_from(data, offset)
        offset += 4 * n
        pack = _vec(n).unpack_from(data, offset)
        offset += 4 * n
        (buf,) = _S_U32.unpack_from(data, offset)
        offset += 4
        pdus = []
        for _ in range(count):
            if offset + 4 > end:
                raise CodecError("truncated inner PDU length")
            (body_len,) = _S_U32.unpack_from(data, offset)
            offset += 4
            if offset + body_len > end:
                raise CodecError("inner PDU shorter than its declared length")
            inner = _decode(data[offset:offset + body_len], body_len)
            offset += body_len
            if not isinstance(inner, DataPdu):
                raise CodecError(
                    "batch frames carry data PDUs only, got "
                    f"{type(inner).__name__}"
                )
            pdus.append(inner)
        return BatchPdu(
            cid=cid, src=src, ack=ack, pack=pack, buf=buf, pdus=tuple(pdus),
        )
    if kind == _TYPE_INTERGROUP:
        if _S_INTERGROUP.size > end:
            raise CodecError("truncated inter-group header")
        (
            _, flags, cid, origin_group, sender_group, src, seq, gseq, g,
        ) = _S_INTERGROUP.unpack_from(data, 0)
        offset = _S_INTERGROUP.size + 4 * g
        if offset + _S_DATA_TAIL.size > end:
            raise CodecError("truncated inter-group PDU")
        barrier = _vec(g).unpack_from(data, _S_INTERGROUP.size)
        buf, payload_len = _S_DATA_TAIL.unpack_from(data, offset)
        offset += _S_DATA_TAIL.size
        if offset + payload_len > end:
            raise CodecError("payload shorter than its declared length")
        is_ack = bool(flags & _FLAG_IG_ACK)
        is_null = is_ack or bool(flags & _FLAG_IG_NULL)
        return InterGroupPdu(
            cid=cid, origin_group=origin_group, sender_group=sender_group,
            src=src, seq=seq, gseq=gseq, barrier=barrier, buf=buf,
            data=None if is_null else bytes(data[offset:offset + payload_len]),
            data_size=payload_len, ack=is_ack,
        )
    raise CodecError(f"unknown PDU type byte 0x{kind:02x}")


# ----------------------------------------------------------------------
# Sizes and splitting
# ----------------------------------------------------------------------

def split_batch(pdu: BatchPdu, max_frame_bytes: int) -> "list[BatchPdu]":
    """Split a batch into frames whose encoding fits ``max_frame_bytes``.

    Every chunk carries the original header (idempotent to fold twice —
    receivers merge vectors element-wise max) and keeps the inner PDUs in
    sequence order, so per-source FIFO survives the split.  One entry
    differs on every chunk but the last: ``ack[src]`` is capped at that
    chunk's last inner seq + 1.  The whole-batch value names seqs that
    travel in a *later* chunk, and a receiver checking the header against
    what it holds (failure condition 2) would request them at once.  A
    chunk always carries at least one inner PDU even if that PDU alone
    exceeds the limit (an oversized application payload cannot be split at
    this layer), so the split always terminates.  An empty batch returns
    itself.
    """
    if max_frame_bytes < 1:
        raise CodecError(f"max_frame_bytes must be positive, got {max_frame_bytes}")
    if not pdu.pdus or encoded_size(pdu) <= max_frame_bytes:
        return [pdu]
    # Chunk header: batch head + two vectors + buf + frame CRC.
    header_size = _S_BATCH.size + 8 * len(pdu.ack) + 4 + _CRC_BYTES
    groups: "list[list[DataPdu]]" = [[]]
    size = header_size
    for p in pdu.pdus:
        # u32 length prefix + body (bodies carry no per-PDU CRC).
        cost = 4 + _body_size(p)
        if groups[-1] and size + cost > max_frame_bytes:
            groups.append([])
            size = header_size
        groups[-1].append(p)
        size += cost
    src = pdu.src
    chunks: "list[BatchPdu]" = []
    for group in groups[:-1]:
        ack = list(pdu.ack)
        ack[src] = min(ack[src], group[-1].seq + 1)
        chunks.append(replace(pdu, ack=tuple(ack), pdus=tuple(group)))
    chunks.append(replace(pdu, pdus=tuple(groups[-1])))
    return chunks


def datagram_pdu_count(data: Buffer) -> int:
    """Data PDUs a raw datagram claims to carry, read before any decoding.

    A batch frame says so in the ``count`` field of its fixed header, which
    is clamped to what the datagram's length could hold — the CRC has not
    been checked yet, and a lying header must not claim more receive buffer
    than its bytes could fill.  Everything else (other types, an empty
    batch, bytes too short to tell) counts as one.
    """
    if len(data) < _S_BATCH.size or data[0] != _TYPE_BATCH:
        return 1
    _, _, _, _, n, count = _S_BATCH.unpack_from(data, 0)
    room = len(data) - (_S_BATCH.size + 8 * n + 4 + _CRC_BYTES)
    # One inner PDU: u32 length prefix + a data body with an empty payload.
    inner = 4 + _S_DATA.size + 4 * n + _S_DATA_TAIL.size
    return max(1, min(count, room // inner))


def _body_size(pdu: AnyPdu) -> int:
    """Exact body length (no CRC trailer), computed arithmetically."""
    if isinstance(pdu, DataPdu):
        return (
            _S_DATA.size + 4 * len(pdu.ack) + _S_DATA_TAIL.size
            + len(_payload_bytes(pdu.data))
        )
    if isinstance(pdu, RetPdu):
        return _S_RET.size + 4 * len(pdu.ack) + 4
    if isinstance(pdu, HeartbeatPdu):
        return _S_HEARTBEAT.size + 8 * len(pdu.ack) + _S_DATA_TAIL.size
    if isinstance(pdu, ViewChangePdu):
        return (
            _S_VIEWCHANGE.size + 2 * len(pdu.members)
            + 4 * len(pdu.ack) + 4 * len(pdu.flush) + 4
        )
    if isinstance(pdu, JoinPdu):
        return _S_JOIN.size
    if isinstance(pdu, StatePdu):
        return _S_STATE.size + 2 * len(pdu.members) + 8 * len(pdu.ack) + 4
    if isinstance(pdu, BatchPdu):
        return (
            _S_BATCH.size + 8 * len(pdu.ack) + 4
            + sum(4 + _body_size(p) for p in pdu.pdus)
        )
    if isinstance(pdu, DigestPdu):
        return _S_DIGEST.size + 8 * len(pdu.ack) + 4
    if isinstance(pdu, RepairPullPdu):
        return (
            _S_REPAIR_PULL.size + 4 * len(pdu.ack)
            + _S_RANGE.size * len(pdu.ranges) + 4
        )
    if isinstance(pdu, RelayPdu):
        return (
            _S_RELAY.size + 2 * len(pdu.path) + 8 * len(pdu.min_ack)
            + 4 + 4 + _body_size(pdu.frame)
        )
    if isinstance(pdu, InterGroupPdu):
        return (
            _S_INTERGROUP.size + 4 * len(pdu.barrier) + _S_DATA_TAIL.size
            + len(_payload_bytes(pdu.data))
        )
    raise CodecError(f"cannot encode {type(pdu).__name__}")


def encoded_size(pdu: AnyPdu) -> int:
    """Exact wire length of the encoded PDU, without encoding it.

    Like the model in :mod:`repro.core.pdu`, this is linear in the cluster
    size — the §5 observation that the PDU length is O(n).
    """
    return _body_size(pdu) + _CRC_BYTES
