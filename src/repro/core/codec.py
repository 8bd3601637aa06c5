"""Binary wire codec for the PDU formats of Figures 4 and 5.

The simulator passes PDU objects by reference, but an open-source release
of the protocol needs a concrete encoding; this module provides one, and
the round-trip property tests pin it down.

Every frame is ``u8 type | u8 flags | fields | u32 CRC-32``, in network
byte order.  :data:`_LAYOUTS` is the one description of the fields: a row
per PDU type gives its type byte, what its flags byte carries, and its
fields in wire order.  One bounds-checked decoder reads that table, and
each row's encoder, which also sizes the frame, is generated from it at
import.  A row's field string is one ``name:kind`` per field:

* ``cid:I`` / ``src:H`` — a u32 / u16 scalar attribute of the PDU;
* ``n:#`` — a u16 count.  It is not an attribute: the encoder writes the
  length of the first field it sizes, and the decoder sizes every field
  that names it by the value it reads;
* ``ack:I*n`` / ``members:H*m`` / ``ranges:HII*r`` — ``n`` u32 entries,
  ``m`` u16 entries, ``r`` ``(u16 lsrc, u32 lo, u32 hi)`` triples;
* ``data:payload`` — ``u32 length`` then raw bytes: the attributes
  ``data`` (``None`` when the flags say null) and ``data_size``;
* ``frame:body`` / ``pdus:body*count`` — one / ``count`` nested PDU
  bodies, each ``u32 length`` then a frame of a type the row's
  ``carries`` names, without a CRC of its own (the frame's covers it).

A row lists its leading scalars, its counts, its vectors, its trailing
scalars and at most one length-prefixed tail, in that order, which is
also the order on the wire.  For each shape (row, counts) the fixed part
is one cached ``struct.Struct``; the decoder checks the header, then the
fixed part the counts imply, then every length it reads, against the
bytes it holds before it reads them, and it checks a nested body's type
byte against the row's ``carries`` before it parses the body.

Every frame ends in a ``u32`` CRC-32 of everything before it.  The MC
medium itself is error-free in the paper's model, but real transports (and
the nemesis harness's bit-flip fault) are not; the checksum turns silent
corruption into a counted, rejected frame instead of a mis-parsed PDU.

Application payloads must be ``bytes`` (or ``str``, encoded as UTF-8 and
decoded back to ``bytes`` — the codec does not guess application types).

Hot-path mechanics
------------------

The wire format is frozen (tests/unit/test_codec_golden.py pins
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

import dataclasses
import struct
import zlib
from dataclasses import replace
from itertools import chain
from operator import itemgetter, mul
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

#: A view-change PDU's flags byte is its phase's index here.
_PHASES = ("propose", "agree", "install")

#: Trailing CRC-32 length in bytes.
_CRC_BYTES = 4

#: Shapes cached per row.  Counts come off the wire, so the cache is
#: bounded like ``_VIEW_CACHE``: a stream of distinct counts refills it.
_SHAPE_CACHE = 64

AnyPdu = Union[
    DataPdu, RetPdu, HeartbeatPdu, ViewChangePdu, JoinPdu, StatePdu, BatchPdu,
    DigestPdu, RepairPullPdu, RelayPdu, InterGroupPdu,
]

Buffer = Union[bytes, bytearray, memoryview]

_S_U32 = struct.Struct("!I")


class CodecError(ReproError, ValueError):
    """Malformed bytes, or a PDU the codec cannot represent."""


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
# The flags byte.  Each row's entry is (PDU -> byte, (byte, tail values)
# -> tail values + flag values, names of the flag values).
# ----------------------------------------------------------------------

def _bit(name: str):
    """Bit 0 is the boolean attribute ``name``."""
    return (
        (lambda pdu: 1 if getattr(pdu, name) else 0),
        (lambda code, tail: (*tail, bool(code & 1))),
        (name,),
    )


def _unflag_null(code: int, tail: tuple) -> tuple:
    # bit 0: a null DataPdu (confirmation only, ``data is None``).
    return (None, tail[1]) if code & 1 else tail


def _unflag_phase(code: int, tail: tuple) -> tuple:
    if code >= len(_PHASES):
        raise CodecError(f"unknown view-change phase code {code}")
    return (*tail, _PHASES[code])


def _flag_intergroup(pdu: InterGroupPdu) -> int:
    # bit 0: an ack (cumulative re-injection floor); bit 1: a forward whose
    # payload is None rather than the empty string.
    return 1 if pdu.ack else 2 if pdu.data is None else 0


def _unflag_intergroup(code: int, tail: tuple) -> tuple:
    return (None if code & 3 else tail[0]), tail[1], bool(code & 1)


_NO_FLAGS = (lambda pdu: 0), (lambda code, tail: tail), ()
_NULL = (lambda pdu: 1 if pdu.data is None else 0), _unflag_null, ()
_PHASE = (lambda pdu: _PHASES.index(pdu.phase)), _unflag_phase, ("phase",)
_INTERGROUP = _flag_intergroup, _unflag_intergroup, ("ack",)


# ----------------------------------------------------------------------
# Encoding: each row's generated ``size`` and ``encode``
# ----------------------------------------------------------------------

def _row(pdu: AnyPdu) -> "_Layout":
    layout = _BY_TYPE.get(type(pdu))
    if layout is None:
        raise CodecError(f"cannot encode {type(pdu).__name__}")
    return layout


def _body_size(pdu: AnyPdu) -> int:
    """Exact body length (no CRC trailer), without encoding."""
    return _row(pdu).size(pdu)


def _encode_body_into(pdu: AnyPdu, buf: bytearray, offset: int) -> int:
    return _row(pdu).encode(pdu, buf, offset)


def _nest(inners: tuple, buf: bytearray, offset: int) -> int:
    """Encode length-prefixed nested bodies at ``offset``; return the end."""
    for inner in inners:
        # Reserve the u32 length prefix, encode the body in place, then
        # backpatch the prefix with the measured body length.
        start = offset + _S_U32.size
        offset = _encode_body_into(inner, buf, start)
        _S_U32.pack_into(buf, start - _S_U32.size, offset - start)
    return offset


#: Source of a row's ``size`` and ``encode``, generated from its fields
#: (see ``_Layout.compile``); ``{write}`` is one of the two below.
_ENCODER = """\
def size(pdu):
    {reads}
    counts = ({counts})
    return (shapes.get(counts) or shape(counts))[0].size{tail_size}

def encode(pdu, buf, offset):
    {reads}
    counts = ({counts})
    fixed = (shapes.get(counts) or shape(counts))[0]
{write}"""
_WRITE = """\
    fixed.pack_into(buf, offset, {args})
    return {end}"""
_WRITE_PAYLOAD = """\
    payload = {tail} if type({tail}) is bytes else payload_bytes({tail})
    fixed.pack_into(buf, offset, {args}, len(payload))
    offset += fixed.size
    buf[offset:offset + len(payload)] = payload
    return offset + len(payload)"""


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

class _Layout:
    """One row of the wire table, parsed (see the module docstring)."""

    def __init__(self, kind: int, cls: type, spec: str,
                 flags=_NO_FLAGS, carries: tuple = ()) -> None:
        self.kind = kind
        self.cls = cls
        self.name = cls.__name__
        self.flag_bits, self.unflag, flag_names = flags
        self.carries = carries
        self.shapes: Dict[tuple, tuple] = {}
        lead, counts, vectors, trail = [], [], [], []
        self.tail = self.tail_kind = tail_count = None
        for token in spec.split():
            name, _, kind_spec = token.partition(":")
            fmt, _, count = kind_spec.partition("*")
            if fmt == "#":
                counts.append(name)
            elif fmt in ("payload", "body"):
                self.tail, self.tail_kind, tail_count = name, fmt, count
            elif count:
                vectors.append((name, fmt, count))
            else:
                (trail if counts or vectors else lead).append((name, fmt))
        tokens = [f"{n}:{f}" for n, f in lead] + [f"{n}:#" for n in counts]
        tokens += [f"{n}:{f}*{c}" for n, f, c in vectors]
        tokens += [f"{n}:{f}" for n, f in trail]
        if tokens != spec.split()[:len(tokens)]:
            raise ValueError(f"{self.name}: fields are not in wire order")
        self.lead, self.counts_names = lead, counts
        self.vectors, self.trail = vectors, trail
        self.head_fmt = "!BB" + "".join(f for _, f in lead) + "H" * len(counts)
        self.trail_fmt = "".join(f for _, f in trail)
        if self.tail_kind == "payload":
            self.trail_fmt += "I"  # the payload's length prefix
        self.counts = struct.Struct("!" + "H" * len(counts))
        self.head_size = struct.calcsize(self.head_fmt)
        self.count_at = self.head_size - self.counts.size
        self.fixed = self.head_size + struct.calcsize("!" + self.trail_fmt)
        self.units = [
            sum(struct.calcsize("!" + f) for _, f, c in vectors if c == name)
            for name in counts
        ]
        self.tail_count = counts.index(tail_count) if tail_count else None
        # The decoder hands the constructor every value by position: the
        # wire's fields, then the tail's values, then the flags byte's.
        self.fields = [f.name for f in dataclasses.fields(cls)]
        self.after_wire = {
            None: [], "body": [self.tail],
            "payload": [self.tail, f"{self.tail}_size"],
        }[self.tail_kind] + list(flag_names)
        on_wire = [n for n, _ in lead + trail] + [n for n, _, _ in vectors]
        if sorted(on_wire + self.after_wire) != sorted(self.fields):
            raise ValueError(f"{self.name}: the row does not name every field")
        self.grouped = [(self.fields.index(n), len(f))
                        for n, f, _ in vectors if len(f) > 1]
        self.compile(tail_count)

    def compile(self, tail_count: Optional[str]) -> None:
        """Generate the row's ``size(pdu)`` (the body's length) and
        ``encode(pdu, buf, offset)`` (writes the body, returns its end).

        They are generated from the fields, as ``dataclasses`` generates
        ``__init__``: reading a row's vectors and spreading them into one
        ``pack_into`` through a loop over the fields costs about as much
        again as the whole encode (DESIGN.md §22).
        """
        reads = [n for n, _, _ in self.vectors] + [self.tail] * bool(self.tail)
        first: Dict[Optional[str], str] = {tail_count: self.tail}
        for name, _, count in reversed(self.vectors):
            first[count] = name
        args = [str(self.kind), "flag_bits(pdu)"]
        args += [f"pdu.{n}" for n, _ in self.lead] + ["*counts"]
        args += [f"*_{n}" if len(f) == 1 else f"*chain.from_iterable(_{n})"
                 for n, f, _ in self.vectors]
        args += [f"pdu.{n}" for n, _ in self.trail]
        tail = f"_{self.tail}"
        inners = tail if tail_count else f"({tail},)"
        if self.tail_kind == "payload":
            tail_size = (f" + len({tail} if type({tail}) is bytes"
                         f" else payload_bytes({tail}))")
            write = _WRITE_PAYLOAD.format(args=", ".join(args), tail=tail)
        elif self.tail_kind == "body":
            tail_size = f" + sum(prefix + body_size(p) for p in {inners})"
            write = _WRITE.format(args=", ".join(args),
                                  end=f"nest({inners}, buf, offset + fixed.size)")
        else:
            tail_size = ""
            write = _WRITE.format(args=", ".join(args), end="offset + fixed.size")
        source = _ENCODER.format(
            reads="".join(f"_{n}, " for n in reads) + "= "
            + "".join(f"pdu.{n}, " for n in reads) if reads else "pass",
            counts="".join(f"len(_{first[c]}), " for c in self.counts_names),
            tail_size=tail_size, write=write,
        )
        namespace = {
            "shapes": self.shapes, "shape": self.shape, "chain": chain,
            "flag_bits": self.flag_bits, "payload_bytes": _payload_bytes,
            "nest": _nest, "body_size": _body_size, "prefix": _S_U32.size,
        }
        exec(source, namespace)
        self.size, self.encode = namespace["size"], namespace["encode"]

    def size_for(self, counts: tuple) -> int:
        """Bytes of the fixed part at these counts, without building it."""
        return self.fixed + sum(map(mul, counts, self.units))

    def shape(self, counts: tuple) -> tuple:
        """``(Struct, picker)`` for the fixed part at these counts, cached.

        The struct covers type, flags, scalars, counts, vectors and the
        payload's length prefix.  The picker takes its values followed by
        the ``after_wire`` values and returns the constructor's arguments.
        """
        shape = self.shapes.get(counts)
        if shape is None:
            if len(self.shapes) >= _SHAPE_CACHE:
                self.shapes.clear()
            sizes = dict(zip(self.counts_names, counts))
            fmt = self.head_fmt
            where: Dict[str, Any] = {}
            for at, (name, _) in enumerate(self.lead, start=2):
                where[name] = at
            at = 2 + len(self.lead) + len(counts)
            for name, f, count in self.vectors:
                fmt += f * sizes[count]
                where[name] = slice(at, at + len(f) * sizes[count])
                at += len(f) * sizes[count]
            for name, _ in self.trail:
                where[name] = at
                at += 1
            at += self.tail_kind == "payload"  # the length prefix's value
            for name in self.after_wire:
                where[name] = at
                at += 1
            pick = itemgetter(*(where[name] for name in self.fields))
            shape = struct.Struct(fmt + self.trail_fmt), pick
            self.shapes[counts] = shape
        return shape


_LAYOUTS = (
    _Layout(0x01, DataPdu,
            "cid:I src:H seq:I n:# ack:I*n buf:I data:payload", flags=_NULL),
    _Layout(0x02, RetPdu, "cid:I src:H lsrc:H lseq:I n:# ack:I*n buf:I"),
    _Layout(0x03, HeartbeatPdu,
            "cid:I src:H n:# ack:I*n pack:I*n buf:I view:I",
            flags=_bit("probe")),
    _Layout(0x04, ViewChangePdu,
            "cid:I src:H view:I m:# n:# f:# members:H*m ack:I*n flush:I*f "
            "buf:I", flags=_PHASE),
    _Layout(0x05, JoinPdu, "cid:I src:H buf:I", flags=_bit("ready")),
    _Layout(0x06, StatePdu,
            "cid:I src:H joiner:H view:I m:# n:# members:H*m ack:I*n "
            "pack:I*n buf:I"),
    _Layout(0x07, BatchPdu,
            "cid:I src:H n:# count:# ack:I*n pack:I*n buf:I pdus:body*count",
            carries=(DataPdu,)),
    _Layout(0x08, DigestPdu,
            "cid:I src:H target:H view:I n:# ack:I*n delivered:I*n buf:I"),
    _Layout(0x09, RepairPullPdu,
            "cid:I src:H target:H n:# r:# ack:I*n ranges:HII*r buf:I"),
    _Layout(0x0A, RelayPdu,
            "cid:I src:H h:# n:# path:H*h min_ack:I*n min_pack:I*n buf:I "
            "frame:body", carries=(DataPdu, BatchPdu)),
    _Layout(0x0B, InterGroupPdu,
            "cid:I origin_group:H sender_group:H src:H seq:I gseq:I g:# "
            "barrier:I*g buf:I data:payload", flags=_INTERGROUP),
)
_BY_TYPE = {layout.cls: layout for layout in _LAYOUTS}
_BY_KIND = {layout.kind: layout for layout in _LAYOUTS}
_BATCH = _BY_TYPE[BatchPdu]
_DATA = _BY_TYPE[DataPdu]


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


def _decode(data: Buffer, end: int, carries: Optional[tuple] = None) -> AnyPdu:
    """Parse one PDU body from ``data[:end]``.

    ``data`` is the *original* input buffer (the CRC trailer is excluded
    by ``end``, not by slicing); every variable-length read is bounds-
    checked against ``end`` explicitly, so a malformed count field raises
    instead of silently consuming checksum bytes.  Slices — inner batch
    bodies, payloads — are cheap copies for ``bytes`` input and zero-copy
    views for ``memoryview`` input.  A nested body names its type before
    it is parsed, so ``carries`` bounds the nesting depth.
    """
    if end <= 0:
        raise CodecError("empty buffer")
    layout = _BY_KIND.get(data[0])
    if layout is None:
        raise CodecError(f"unknown PDU type byte 0x{data[0]:02x}")
    if carries is not None and layout.cls not in carries:
        raise CodecError(f"a {layout.name} cannot be nested here")
    if layout.head_size > end:
        raise CodecError(f"truncated {layout.name} header")
    counts = layout.counts.unpack_from(data, layout.count_at)
    shape = layout.shapes.get(counts)
    if (shape[0].size if shape else layout.size_for(counts)) > end:
        raise CodecError(f"truncated {layout.name}")
    fixed, pick = shape or layout.shape(counts)
    values = fixed.unpack_from(data, 0)
    offset = fixed.size
    tail: tuple = ()
    if layout.tail_kind == "payload":
        length = values[-1]
        if offset + length > end:
            raise CodecError("payload shorter than its declared length")
        tail = bytes(data[offset:offset + length]), length
    elif layout.tail_kind == "body":
        single = layout.tail_count is None
        bodies = []
        for _ in range(1 if single else counts[layout.tail_count]):
            if offset + _S_U32.size > end:
                raise CodecError("truncated nested body length")
            (length,) = _S_U32.unpack_from(data, offset)
            offset += _S_U32.size
            if offset + length > end:
                raise CodecError("nested body shorter than its declared length")
            bodies.append(
                _decode(data[offset:offset + length], length, layout.carries)
            )
            offset += length
        tail = (bodies[0] if single else tuple(bodies),)
    args = pick(values + layout.unflag(values[1], tail))
    if layout.grouped:
        args = list(args)
        for i, width in layout.grouped:
            args[i] = tuple(zip(*[iter(args[i])] * width))
    return layout.cls(*args)


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
    header_size = _BATCH.size_for((len(pdu.ack), 0)) + _CRC_BYTES
    groups: "list[list[DataPdu]]" = [[]]
    size = header_size
    for p in pdu.pdus:
        cost = _S_U32.size + _body_size(p)
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
    if len(data) < _BATCH.head_size or data[0] != _BATCH.kind:
        return 1
    n, count = _BATCH.counts.unpack_from(data, _BATCH.count_at)
    room = len(data) - (_BATCH.size_for((n, count)) + _CRC_BYTES)
    # One inner PDU: u32 length prefix + a data body with an empty payload.
    inner = _S_U32.size + _DATA.size_for((n,))
    return max(1, min(count, room // inner))


def encoded_size(pdu: AnyPdu) -> int:
    """Exact wire length of the encoded PDU, without encoding it.

    Like the model in :mod:`repro.core.pdu`, this is linear in the cluster
    size — the §5 observation that the PDU length is O(n).
    """
    return _body_size(pdu) + _CRC_BYTES
