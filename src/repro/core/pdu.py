"""PDU formats.

Figure 4 (data PDU)::

    CID | SRC | SEQ | ACK = <ACK_1 ... ACK_n> | BUF | DATA

Figure 5 (RET PDU)::

    CID | SRC | LSRC | LSEQ | ACK = <ACK_1 ... ACK_n> | BUF

plus the :class:`HeartbeatPdu` of the quiescence extension (DESIGN.md §2),
which is shaped like a RET without a retransmission request and additionally
carries the sender's pre-acknowledgment vector ``PACK``.

Field semantics (§4.1):

* ``seq`` — per-source sequence number, starting at 1.
* ``ack`` — tuple of length *n*; ``ack[j]`` is the sequence number the sender
  expects to receive next from entity *j*, i.e. the sender has accepted every
  PDU ``q`` from *j* with ``q.seq < ack[j]``.
* ``buf`` — free buffer units at the sender, feeding the flow condition.

Wire sizes are modelled, not marshalled: ``wire_size()`` assumes 4-byte
integer fields, so a data PDU header is ``O(n)`` bytes — exactly the §5
observation that "the length of PDU is O(n)".  The byte model feeds the
header-overhead benchmark against ISIS CBCAST (whose vector timestamp is the
same asymptotic size; the paper's argument is about computation and loss
detection, which the benchmark also measures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

#: Modelled size of one integer field on the wire.
_INT_BYTES = 4
#: CID + SRC + SEQ + BUF for data PDUs; CID + SRC + LSRC + LSEQ + BUF for RET.
_DATA_FIXED_FIELDS = 4
_RET_FIXED_FIELDS = 5
_HEARTBEAT_FIXED_FIELDS = 4  # CID + SRC + BUF + VIEW
_VIEWCHANGE_FIXED_FIELDS = 5  # CID + SRC + VIEW + PHASE + BUF
_JOIN_FIXED_FIELDS = 4  # CID + SRC + READY + BUF
_STATE_FIXED_FIELDS = 5  # CID + SRC + JOINER + VIEW + BUF
_BATCH_FIXED_FIELDS = 4  # CID + SRC + COUNT + BUF
_DIGEST_FIXED_FIELDS = 5  # CID + SRC + TARGET + VIEW + BUF
_REPAIR_PULL_FIXED_FIELDS = 4  # CID + SRC + TARGET + BUF
_RELAY_FIXED_FIELDS = 4  # CID + SRC + HOPS + BUF
_INTERGROUP_FIXED_FIELDS = 7  # CID + OGRP + SGRP + SRC + SEQ + GSEQ + BUF


@dataclass(frozen=True, slots=True)
class DataPdu:
    """A broadcast data unit (Figure 4).

    ``data is None`` marks a *null* PDU: a sequenced carrier of receipt
    confirmations sent by the deferred-confirmation rule in strict paper
    mode.  Null PDUs take part in every protocol action but deliver nothing
    to the application.
    """

    cid: int
    src: int
    seq: int
    ack: Tuple[int, ...]
    buf: int
    data: Optional[Any] = None
    #: Modelled payload size in bytes (0 for null PDUs).
    data_size: int = 0

    #: Control-plane flag used by loss models and traffic accounting.
    is_control = False

    def __post_init__(self) -> None:
        if self.seq < 1:
            raise ValueError(f"sequence numbers start at 1, got {self.seq}")
        if self.src < 0:
            raise ValueError(f"src must be a valid entity index, got {self.src}")
        if self.ack and min(self.ack) < 1:
            raise ValueError(f"ACK entries start at 1, got {self.ack}")

    @property
    def pdu_id(self) -> Tuple[int, int]:
        """Globally unique identity of the data unit: ``(src, seq)``.

        Retransmitted copies share the id of the original — they are the
        same PDU.
        """
        return (self.src, self.seq)

    @property
    def is_null(self) -> bool:
        """True for confirmation-only PDUs that carry no application data."""
        return self.data is None

    def wire_size(self) -> int:
        """Modelled bytes on the wire: fixed header + n ACK entries + data."""
        header = (_DATA_FIXED_FIELDS + len(self.ack)) * _INT_BYTES
        return header + self.data_size

    def __str__(self) -> str:
        payload = "null" if self.is_null else repr(self.data)
        return f"DATA(src=E{self.src}, seq={self.seq}, ack={list(self.ack)}, {payload})"


@dataclass(frozen=True)
class RetPdu:
    """A selective-retransmission request (Figure 5).

    Asks entity ``lsrc`` to rebroadcast the PDUs the sender found missing.
    The requested range is ``ack[lsrc] <= seq < lseq`` — ``lseq`` is treated
    as an *exclusive* upper bound: under failure condition (1) the triggering
    PDU ``p`` itself arrived (and is stashed), so ``lseq = p.seq``; under
    failure condition (2) ``lseq = q.ack[lsrc]`` is the first sequence number
    the evidence does not cover.  Duplicate copies are filtered by the
    acceptance condition at the receivers either way.

    RET PDUs also piggyback the sender's full ``ack`` vector and free buffer
    space, so they update knowledge like any other PDU (§4.3 shows them with
    the same ACK/BUF fields).
    """

    cid: int
    src: int
    lsrc: int
    lseq: int
    ack: Tuple[int, ...]
    buf: int

    is_control = True

    def __post_init__(self) -> None:
        if self.lsrc < 0:
            raise ValueError(f"lsrc must be a valid entity index, got {self.lsrc}")
        if self.lseq < 1:
            raise ValueError(f"lseq must be >= 1, got {self.lseq}")

    @property
    def requested_from(self) -> int:
        """First sequence number requested (inclusive)."""
        return self.ack[self.lsrc]

    @property
    def requested_upto(self) -> int:
        """One past the last sequence number requested (exclusive)."""
        return self.lseq

    def wire_size(self) -> int:
        return (_RET_FIXED_FIELDS + len(self.ack)) * _INT_BYTES

    def __str__(self) -> str:
        return (
            f"RET(src=E{self.src}, lsrc=E{self.lsrc}, "
            f"range=[{self.requested_from},{self.lseq}), ack={list(self.ack)})"
        )


@dataclass(frozen=True)
class HeartbeatPdu:
    """Unsequenced state-exchange PDU (quiescence extension, DESIGN.md §2).

    ``ack`` has the usual meaning.  ``pack[j]`` is the sender's
    pre-acknowledgment floor: the sender asserts it has *pre-acknowledged*
    every PDU from entity ``j`` with a smaller sequence number.  Receivers
    fold ``ack`` into their ``AL`` row and ``pack`` into their ``PAL`` row
    for the sender, with element-wise max.  Not sent in strict paper mode.

    ``probe`` marks a repeat transmission from an entity that is *stuck*
    waiting for knowledge (its logs are not drained and nothing has changed
    since its last heartbeat).  Heartbeats are unsequenced, so a lost one is
    undetectable by the receiver; probes shift the retry burden to the
    waiting side — every entity answers a probe with a fresh heartbeat,
    which carries exactly the vectors the prober may have missed.
    """

    cid: int
    src: int
    ack: Tuple[int, ...]
    pack: Tuple[int, ...]
    buf: int
    probe: bool = False
    #: The sender's installed view number (view-change extension).  Peers
    #: use it to detect members that missed a view installation and re-send
    #: the INSTALL; ``0`` is the initial (full-membership) view.
    view: int = 0

    is_control = True

    def __post_init__(self) -> None:
        if len(self.ack) != len(self.pack):
            raise ValueError("ack and pack vectors must have equal length")

    def wire_size(self) -> int:
        return (_HEARTBEAT_FIXED_FIELDS + 2 * len(self.ack)) * _INT_BYTES

    def __str__(self) -> str:
        return f"HB(src=E{self.src}, ack={list(self.ack)}, pack={list(self.pack)})"


@dataclass(frozen=True)
class ViewChangePdu:
    """Membership-agreement control PDU (view-change extension, DESIGN.md §8).

    One view change runs in three phases, all broadcast:

    * ``propose`` — the coordinator (lowest live member) names the next view
      ``view`` and its member set;
    * ``agree`` — each proposed member echoes the round and contributes its
      ``ack`` (REQ) vector, fencing the removed members' new data;
    * ``install`` — the coordinator publishes the **flush vector**: the
      element-wise max of every agreed ``ack``.  A member installs the view
      once its own ``REQ`` covers the flush vector, so every stable PDU of
      the old view is delivered at every surviving member before the
      membership shrinks (no delivery gap across views).

    ``ack`` always carries the sender's live REQ vector and is merged into
    knowledge like any other PDU's; ``flush`` is empty except on install.
    """

    cid: int
    src: int
    view: int
    phase: str  # "propose" | "agree" | "install"
    members: Tuple[int, ...]
    ack: Tuple[int, ...]
    buf: int
    flush: Tuple[int, ...] = ()

    is_control = True

    def __post_init__(self) -> None:
        if self.view < 1:
            raise ValueError(f"view numbers start at 1, got {self.view}")
        if self.phase not in ("propose", "agree", "install"):
            raise ValueError(f"unknown view-change phase {self.phase!r}")
        if self.phase == "install" and len(self.flush) != len(self.ack):
            raise ValueError("install PDUs must carry a full flush vector")

    def wire_size(self) -> int:
        vectors = len(self.members) + len(self.ack) + len(self.flush)
        return (_VIEWCHANGE_FIXED_FIELDS + vectors) * _INT_BYTES

    def __str__(self) -> str:
        return (
            f"VC(src=E{self.src}, view={self.view}, {self.phase}, "
            f"members={list(self.members)})"
        )


@dataclass(frozen=True)
class JoinPdu:
    """A restarted entity's request to re-enter the cluster.

    ``ready=False`` asks a live sponsor for a state snapshot;
    ``ready=True`` announces that the snapshot has been applied and the
    sender can take part in the re-admission view change.
    """

    cid: int
    src: int
    buf: int
    ready: bool = False

    is_control = True

    def wire_size(self) -> int:
        return _JOIN_FIXED_FIELDS * _INT_BYTES

    def __str__(self) -> str:
        return f"JOIN(src=E{self.src}, ready={self.ready})"


@dataclass(frozen=True)
class StatePdu:
    """A sponsor's state snapshot for a joining entity.

    Carries the sponsor's installed ``view`` and member set, its REQ
    frontier (``ack``) and pre-acknowledgment floor (``pack``): O(n),
    however long the sponsor has run.  The joiner resumes **at the
    frontier**: its next own sequence number is ``ack[joiner]`` (the
    eviction flush pinned every member's expectation there), and it will
    never be handed a PDU ``(src, seq)`` with ``seq < ack[src]`` — the
    application fetches those out of band.  Broadcast; entities other than
    ``joiner`` fold the vectors as ordinary knowledge.
    """

    cid: int
    src: int
    joiner: int
    view: int
    members: Tuple[int, ...]
    ack: Tuple[int, ...]
    pack: Tuple[int, ...]
    buf: int

    is_control = True

    def __post_init__(self) -> None:
        if len(self.ack) != len(self.pack):
            raise ValueError("ack and pack vectors must have equal length")

    def wire_size(self) -> int:
        vectors = len(self.members) + 2 * len(self.ack)
        return (_STATE_FIXED_FIELDS + vectors) * _INT_BYTES

    def __str__(self) -> str:
        return (
            f"STATE(src=E{self.src}, joiner=E{self.joiner}, view={self.view}, "
            f"frontier={list(self.ack)})"
        )


@dataclass(frozen=True)
class DigestPdu:
    """Anti-entropy digest (repair extension, docs/PROTOCOL.md §15).

    A compact summary of the sender's receipt state, addressed to one
    deterministically-rotated live peer (``target``) per anti-entropy
    interval.  ``ack`` is the sender's receipt frontier (its REQ vector);
    ``delivered[j]`` is one past the highest sequence number from ``E_j``
    the sender has *acknowledged* (= delivered at the default level).  The
    ``view`` field lets the comparison reject stale cross-view digests and
    doubles as a laggard detector for install re-sends.

    Broadcast like everything else on the MC medium: bystanders fold the
    ``ack`` vector as ordinary knowledge, only ``target`` runs the frontier
    comparison (issuing pulls and/or a delta sync back).
    """

    cid: int
    src: int
    target: int
    view: int
    ack: Tuple[int, ...]
    delivered: Tuple[int, ...]
    buf: int

    is_control = True

    def __post_init__(self) -> None:
        if self.target < 0:
            raise ValueError(f"target must be a valid entity index, got {self.target}")
        if len(self.ack) != len(self.delivered):
            raise ValueError("ack and delivered vectors must have equal length")
        if any(a < 1 for a in self.ack) or any(d < 1 for d in self.delivered):
            raise ValueError("frontier entries start at 1")

    def wire_size(self) -> int:
        return (_DIGEST_FIXED_FIELDS + 2 * len(self.ack)) * _INT_BYTES

    def __str__(self) -> str:
        return (
            f"DIGEST(src=E{self.src}, target=E{self.target}, view={self.view}, "
            f"ack={list(self.ack)}, delivered={list(self.delivered)})"
        )


@dataclass(frozen=True)
class RepairPullPdu:
    """Explicit range-repair request (repair extension, docs/PROTOCOL.md §15).

    Asks ``target`` to re-serve, for each ``(lsrc, lo, hi)`` entry, the
    PDUs originated by ``E_lsrc`` with ``lo <= seq < hi`` — from its
    sending log when ``lsrc == target``, from its peer store otherwise.
    Unlike a RET (which is addressed to the *source* and falls back to
    peer assist only for suspected members), a pull names the peer whose
    digest or frontier proved it holds the range, so repair works even
    when the original source is partitioned away or long evicted.

    Carries the usual ``ack``/``buf`` piggyback so it updates knowledge
    like any other control PDU.
    """

    cid: int
    src: int
    target: int
    ranges: Tuple[Tuple[int, int, int], ...]
    ack: Tuple[int, ...]
    buf: int

    is_control = True

    def __post_init__(self) -> None:
        if self.target < 0:
            raise ValueError(f"target must be a valid entity index, got {self.target}")
        for lsrc, lo, hi in self.ranges:
            if lsrc < 0:
                raise ValueError(f"range source must be a valid index, got {lsrc}")
            if lo < 1 or hi <= lo:
                raise ValueError(f"ranges must satisfy 1 <= lo < hi, got [{lo},{hi})")

    @property
    def requested_pdus(self) -> int:
        """Total PDUs the request covers (escalation accounting)."""
        return sum(hi - lo for _, lo, hi in self.ranges)

    def wire_size(self) -> int:
        vectors = len(self.ack) + 3 * len(self.ranges)
        return (_REPAIR_PULL_FIXED_FIELDS + vectors) * _INT_BYTES

    def __str__(self) -> str:
        spans = [f"E{s}:[{lo},{hi})" for s, lo, hi in self.ranges]
        return f"PULL(src=E{self.src}, target=E{self.target}, {' '.join(spans)})"


@dataclass(frozen=True)
class BatchPdu:
    """A frame carrying ≥0 data PDUs from one source plus one coalesced
    confirmation header (batching extension, docs/PROTOCOL.md §14).

    The inner PDUs are complete :class:`DataPdu` objects — each keeps the
    ACK vector stamped when it was built, because that vector is the PDU's
    causal coordinates (Theorem 4.1) and must not change between build and
    transmission.  The *header* ``ack``/``pack``/``buf`` are stamped at
    flush time: they are the sender's freshest receipt confirmation, making
    a separate heartbeat redundant (ACK coalescing).  Receivers process the
    inner PDUs first and fold the header afterwards — the header's
    ``ack[src]`` covers the batch's own sequence numbers, so folding it
    first would raise spurious failure-condition-(2) retransmission
    requests for PDUs sitting in the very same frame.

    An empty batch (``pdus == ()``) is semantically a heartbeat: pure
    coalesced confirmation, no application data.
    """

    cid: int
    src: int
    ack: Tuple[int, ...]
    pack: Tuple[int, ...]
    buf: int
    pdus: Tuple[DataPdu, ...] = ()

    def __post_init__(self) -> None:
        if len(self.ack) != len(self.pack):
            raise ValueError("ack and pack vectors must have equal length")
        prev = 0
        for p in self.pdus:
            if p.src != self.src:
                raise ValueError(
                    f"batch from E{self.src} cannot carry E{p.src}'s PDU "
                    "(one source per frame — the MC local-order guarantee "
                    "is per source)"
                )
            if p.cid != self.cid:
                raise ValueError("inner PDUs must share the frame's cluster id")
            if p.seq <= prev:
                raise ValueError(
                    f"inner seqs must ascend, got {p.seq} after {prev}"
                )
            prev = p.seq

    #: Control-plane flag: an empty batch is pure confirmation traffic.
    @property
    def is_control(self) -> bool:
        return not self.pdus

    @property
    def pdu_count(self) -> int:
        """Data PDUs in the frame (receive buffers charge this many units)."""
        return len(self.pdus)

    @property
    def seqs(self) -> Tuple[int, ...]:
        return tuple(p.seq for p in self.pdus)

    def fold_ack(self) -> Tuple[int, ...]:
        """Column-wise maximum of the header and every inner ACK vector.

        Per-source ACK vectors are monotone in send order, so the fold
        dominates each constituent and one element-wise-max merge of it is
        equivalent to merging all ``k+1`` vectors in turn — a receiver pays
        one knowledge-row walk per frame instead of one per inner PDU.
        (With a flush-stamped header the fold *is* the header vector; the
        explicit maximum keeps the equivalence exact for any frame decoded
        off the wire.)
        """
        if not self.pdus:
            return self.ack
        return tuple(map(max, self.ack, *(p.ack for p in self.pdus)))

    def wire_size(self) -> int:
        """Modelled bytes: one header + the inner PDUs' own sizes."""
        header = (_BATCH_FIXED_FIELDS + 2 * len(self.ack)) * _INT_BYTES
        return header + sum(p.wire_size() for p in self.pdus)

    def __str__(self) -> str:
        return (
            f"BATCH(src=E{self.src}, seqs={list(self.seqs)}, "
            f"ack={list(self.ack)}, pack={list(self.pack)})"
        )


@dataclass(frozen=True)
class RelayPdu:
    """A data frame in transit around a non-flood dissemination topology
    (docs/PROTOCOL.md §16).

    ``frame`` is the origin's :class:`DataPdu` or :class:`BatchPdu`,
    carried **verbatim** at every hop — its ACK vectors are the causal
    coordinates of Theorem 4.1 and must reach every entity unchanged, so
    CO safety is independent of the route.  ``path`` lists every entity
    the frame has passed through in hop order (``path[0]`` is the origin,
    ``path[-1] == src`` is the relayer that sent this copy).

    ``min_ack``/``min_pack`` piggyback knowledge hop-by-hop: they are the
    element-wise minima of the path members' REQ vectors and
    pre-acknowledgment floors, each taken at the moment that member
    wrapped the frame.  A receiver may fold ``min_ack`` into its AL row
    and ``min_pack`` into its PAL row *for every entity in the path*: each
    contributor's true vector is element-wise ≥ the minimum, and max-merge
    with a sound lower bound never overstates knowledge.  The explicit
    path keeps the attribution exact even when entities disagree about
    membership — no vector is ever credited to an entity that did not
    contribute to it.
    """

    cid: int
    src: int
    path: Tuple[int, ...]
    min_ack: Tuple[int, ...]
    min_pack: Tuple[int, ...]
    buf: int
    frame: "DataPdu | BatchPdu" = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("a relay must name at least its origin in path")
        if self.path[-1] != self.src:
            raise ValueError(
                f"path must end at the relayer: path={self.path}, src={self.src}"
            )
        if len(self.min_ack) != len(self.min_pack):
            raise ValueError("min_ack and min_pack vectors must have equal length")
        if not isinstance(self.frame, (DataPdu, BatchPdu)):
            raise ValueError(
                f"a relay carries a DataPdu or BatchPdu, got "
                f"{type(self.frame).__name__}"
            )

    #: The relayed frame carries application data, so the wrapper is
    #: data-plane traffic (an empty relayed batch degenerates to control).
    @property
    def is_control(self) -> bool:
        return bool(getattr(self.frame, "is_control", False))

    @property
    def pdu_count(self) -> int:
        """Data PDUs inside (receive buffers charge the inner frame's units)."""
        inner = getattr(self.frame, "pdu_count", None)
        return inner if inner is not None else 1

    @property
    def seqs(self) -> Tuple[int, ...]:
        """The carried sequence numbers (trace/oracle attribution)."""
        inner = getattr(self.frame, "seqs", None)
        if inner is not None:
            return tuple(inner)
        return (self.frame.seq,)

    @property
    def origin(self) -> int:
        """The entity whose frame this is (``path[0]`` by construction)."""
        return self.frame.src

    def wire_size(self) -> int:
        """Modelled bytes: wrapper header + path + two vectors + the frame."""
        vectors = len(self.path) + 2 * len(self.min_ack)
        return (_RELAY_FIXED_FIELDS + vectors) * _INT_BYTES + self.frame.wire_size()

    def __str__(self) -> str:
        return (
            f"RELAY(src=E{self.src}, path={list(self.path)}, "
            f"frame={self.frame})"
        )


@dataclass(frozen=True)
class InterGroupPdu:
    """A bridged message (or its acknowledgment) on the inter-group backbone
    (hierarchy tier, docs/PROTOCOL.md §18).

    The hierarchical cluster partitions membership into bounded subgroups,
    each running the full CO protocol internally; one designated *bridge*
    member per group relays locally-delivered messages to every other group.
    The causal coordinates carried here are **group-level**: ``barrier`` is a
    ``G``-sized vector (G = number of groups, not n entities), which is the
    constant-size inter-group control information of Nédelec et al. —
    the whole point of the tier.

    Forward frames (``ack=False``):

    * ``origin_group`` / ``sender_group`` — both the originating group;
    * ``src`` / ``seq`` — the *global* id of the originating entity and the
      message's origin-local sequence number (the pair is the message's
      cluster-wide identity, used for receiver-side dedupe);
    * ``gseq`` — the origin bridge's forward counter for its group's stream,
      starting at 1; receivers re-inject strictly in ``gseq`` order;
    * ``barrier[j]`` — how many group-``j`` messages the forwarding bridge
      had processed (delivered locally for ``j == origin_group``,
      re-injected for ``j != origin_group``) when it forwarded this one.  A
      receiving bridge holds re-injection until its own counts cover the
      barrier, which — by CO order inside the origin group — covers every
      causal predecessor of the message.

    Acknowledgment frames (``ack=True``) flow the other way: ``sender_group``
    acknowledges that it has re-injected every frame of ``origin_group``'s
    stream with ``gseq`` at or below the carried ``gseq`` (a cumulative
    floor; ``src``/``seq`` are 0 and ``barrier`` is empty).  The origin
    bridge prunes its forward log below the minimum acked floor and
    re-sends everything above it on a timeout — retransmit-until-acked is
    what closes cross-group partitions.
    """

    cid: int
    origin_group: int
    sender_group: int
    src: int
    seq: int
    gseq: int
    barrier: Tuple[int, ...]
    buf: int
    data: Optional[Any] = None
    #: Modelled payload size in bytes (0 for acks).
    data_size: int = 0
    ack: bool = False

    def __post_init__(self) -> None:
        if self.origin_group < 0 or self.sender_group < 0:
            raise ValueError(
                f"group ids must be non-negative, got "
                f"{self.origin_group}/{self.sender_group}"
            )
        if self.gseq < 1:
            raise ValueError(f"group sequence numbers start at 1, got {self.gseq}")
        if self.ack:
            if self.barrier:
                raise ValueError("ack frames carry no barrier vector")
        else:
            if self.src < 0:
                raise ValueError(f"src must be a valid entity id, got {self.src}")
            if self.seq < 1:
                raise ValueError(f"sequence numbers start at 1, got {self.seq}")
            if any(b < 0 for b in self.barrier):
                raise ValueError(f"barrier entries are counts, got {self.barrier}")

    #: Acks are pure control; forwards carry application data.
    @property
    def is_control(self) -> bool:
        return self.ack

    @property
    def pdu_id(self) -> "Optional[Tuple[int, int]]":
        """Cluster-wide identity of the carried message (None for acks)."""
        if self.ack:
            return None
        return (self.src, self.seq)

    def wire_size(self) -> int:
        """Modelled bytes: fixed header + G barrier entries + data.

        G-sized, not n-sized — the hierarchy's scalability claim in one
        line.
        """
        header = (_INTERGROUP_FIXED_FIELDS + len(self.barrier)) * _INT_BYTES
        return header + self.data_size

    def __str__(self) -> str:
        if self.ack:
            return (
                f"IG-ACK(G{self.sender_group}→G{self.origin_group}, "
                f"floor={self.gseq})"
            )
        return (
            f"IG(G{self.origin_group}, gseq={self.gseq}, src=E{self.src}, "
            f"seq={self.seq}, barrier={list(self.barrier)})"
        )
