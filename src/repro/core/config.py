"""Protocol configuration.

All tunables of the CO protocol live in one frozen dataclass so an
experiment's parameters can be recorded verbatim.  The paper's symbols map to
fields as follows:

===========  =========================  =======================================
Paper        Field                      Meaning
===========  =========================  =======================================
``W``        ``window``                 flow-control window size (§4.2)
``H``        ``units_per_pdu``          buffer units one PDU occupies (§4.2)
(implicit)   ``deferred_interval``      the "some predefined time" after which
                                        a deferred confirmation is sent (§5)
(implicit)   ``ret_timeout``            how long a gap may persist before the
                                        RET request is re-issued (RETs travel
                                        the same lossy world as everything
                                        else)
===========  =========================  =======================================

The ablation switches (:class:`RetransmissionScheme`,
:class:`ConfirmationMode`, :class:`DeliveryLevel`, ``strict_paper_mode``)
correspond to the design decisions called out in DESIGN.md §6.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.core.errors import ConfigurationError


class RetransmissionScheme(enum.Enum):
    """How a source answers a RET PDU (§4.3 vs the TO protocols of §5)."""

    #: Rebroadcast only the requested range; receivers stash out-of-order
    #: arrivals (the CO protocol's selective retransmission).
    SELECTIVE = "selective"
    #: Rebroadcast everything from the first missing PDU onward; receivers
    #: discard out-of-order arrivals (the go-back-n scheme of the TO
    #: protocols [14, 15, 17] that §5 argues against).
    GO_BACK_N = "go-back-n"


class ConfirmationMode(enum.Enum):
    """When receipt confirmations are transmitted (§5, claim C1)."""

    #: Send a confirming PDU only after hearing from every entity since the
    #: last transmission, or after ``deferred_interval`` — O(n) PDUs per
    #: broadcast round.
    DEFERRED = "deferred"
    #: Send a confirming PDU for every PDU received — O(n²) PDUs per round.
    #: Implemented only to measure the claim; never use it for real work.
    IMMEDIATE = "immediate"


class DisseminationMode(enum.Enum):
    """How data frames reach the other entities (docs/PROTOCOL.md §16).

    The CO knowledge machinery underneath is identical in every mode —
    only the *route* a data frame takes changes, so causal safety is
    topology-independent (Theorem 4.1 reasons about the frame's carried
    coordinates, never about who handed it over).
    """

    #: Every data frame fans out to all other entities at once (the paper's
    #: broadcast medium; the default).
    FLOOD = "flood"
    #: Data frames circulate pipeline-style around the deterministic ring of
    #: live members, each hop wrapped in a :class:`~repro.core.pdu.RelayPdu`
    #: that piggybacks the relayers' aggregated AL/PAL knowledge; forwarding
    #: stops when the frame would return to its origin.
    RING = "ring"
    #: Each entity pushes data frames to ``gossip_fanout`` peers chosen by
    #: seeded RNG; receivers re-push fresh frames once (infect-and-die).
    #: Probabilistic coverage — requires the anti-entropy repair layer as
    #: the deterministic completion path.
    GOSSIP = "gossip"


class FailureDetectorMode(enum.Enum):
    """How peer liveness is judged (docs/PROTOCOL.md §17).

    Both modes feed the same suspicion machinery (revocable exclusion,
    then the agreed view-change eviction); only the *judgement* differs.
    """

    #: Fixed wall-clock bound: silence past ``suspect_timeout`` suspects
    #: the peer (the membership extension's original rule, and the
    #: strict-paper-compatible default).
    FIXED = "fixed"
    #: Per-peer adaptive phi-accrual scoring over a sliding window of
    #: observed inter-arrival times, with a hysteresis state machine and
    #: re-suspect cool-down (:mod:`repro.core.detector`).  Falls back to
    #: the fixed bound until a peer's window is primed.
    PHI = "phi"


class DeliveryLevel(enum.Enum):
    """Which of §3's receipt criteria gates delivery to the application."""

    #: Deliver once the PDU is *acknowledged* (the paper's choice: the entity
    #: knows that every entity knows that every entity accepted it).
    ACKNOWLEDGED = "acknowledged"
    #: Deliver once *pre-acknowledged* (every entity accepted it).  Still
    #: causally ordered; trades one ``R`` of latency for weaker atomicity
    #: knowledge.  Used by the latency ablation.
    PREACKNOWLEDGED = "preacknowledged"


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunables of one CO entity (all entities of a cluster share one).

    Times are in the simulator's unit (seconds by convention).
    """

    #: Flow-control window ``W``: at most this many unconfirmed PDUs in
    #: flight per source.
    window: int = 8
    #: Buffer units one PDU occupies (the paper's ``H``).
    units_per_pdu: int = 1
    #: Deferred-confirmation window: after this long with unconfirmed receipt
    #: information, send a confirming PDU even if not every entity has been
    #: heard from.
    deferred_interval: float = 2e-3
    #: Re-issue a RET if a detected gap persists this long.
    ret_timeout: float = 4e-3
    #: Adaptive RET backoff: each fruitless re-request doubles the effective
    #: retry timeout up to ``ret_timeout * ret_backoff_cap``.  A crashed
    #: source never answers, so without backoff every survivor re-requests
    #: at a fixed cadence forever (a periodic REQ storm).  ``1`` disables
    #: backoff (the paper's fixed cadence).
    ret_backoff_cap: int = 8
    #: Deterministic jitter fraction added to backed-off retries (spreads
    #: survivors' re-requests so they do not synchronize).  Applied only
    #: from the second retry on; ``0`` disables.
    ret_backoff_jitter: float = 0.25
    #: A source ignores repeated RETs for the same PDU within this window
    #: (NAK-implosion suppression; several receivers may miss the same PDU).
    ret_suppression_interval: float = 1e-3
    #: How often the host drives the engine's housekeeping tick.
    tick_interval: float = 1e-3
    #: Retransmission scheme ablation (§5 claim C4).
    retransmission: RetransmissionScheme = RetransmissionScheme.SELECTIVE
    #: Confirmation-traffic ablation (§5 claim C1).
    confirmation: ConfirmationMode = ConfirmationMode.DEFERRED
    #: Delivery-gate ablation (§3 / §5 claim C2).
    delivery_level: DeliveryLevel = DeliveryLevel.ACKNOWLEDGED
    #: Strict paper mode: deferred confirmations are *sequenced* null-data
    #: PDUs and no PACK information is exchanged out of band.  Matches the
    #: paper exactly but only quiesces under continuous traffic (see
    #: DESIGN.md §2).  When ``False`` (default), confirmations are unsequenced
    #: heartbeat PDUs carrying both the ACK and the PACK vectors.
    strict_paper_mode: bool = False
    #: Crash-stop membership extension: an entity not heard from (any PDU)
    #: for this long is *suspected* — excluded from every knowledge minimum
    #: so the survivors keep delivering, with its PDUs re-served by peers
    #: that hold them.  ``None`` (default) disables suspicion entirely, the
    #: paper's fixed-membership model.  Delivery then means "accepted by
    #: every live member".  A suspected entity heard from again is
    #: re-included automatically.
    suspect_timeout: "float | None" = None
    #: View-change extension: an entity continuously suspected for this long
    #: is *evicted* by an agreed view change — its undelivered-but-stable
    #: PDUs are flushed consistently, its knowledge rows stop gating every
    #: condition (including pruning), and the effective membership shrinks.
    #: Eviction is permanent until the entity rejoins through the join /
    #: state-transfer protocol.  Requires ``suspect_timeout``.  ``None``
    #: (default) keeps the revocable suspect-only behaviour.
    evict_timeout: "float | None" = None
    #: Failure-detection mode (docs/PROTOCOL.md §17): ``FIXED`` (default)
    #: keeps the absolute ``suspect_timeout`` bound; ``PHI`` scores each
    #: peer's silence against its own recent inter-arrival distribution
    #: and only suspects statistically extraordinary silences.  ``PHI``
    #: requires ``suspect_timeout`` (it bootstraps from — and keeps the
    #: keepalive cadence of — the fixed bound) and is an extension, so
    #: strict paper mode rejects it.
    failure_detector: FailureDetectorMode = FailureDetectorMode.FIXED
    #: Suspect a peer once its phi score reaches this (phi == 8 means the
    #: silence had a one-in-10^8 chance under recent link behaviour).
    phi_suspect: float = 8.0
    #: Let a suspicion ripen into an eviction proposal only past this
    #: score; the band between the thresholds absorbs gray failures that
    #: deserve exclusion but not a view change.
    phi_evict: float = 12.0
    #: Sliding-window length (inter-arrival samples kept per peer).
    detector_window: int = 32
    #: Samples required before phi scoring engages; an unprimed peer is
    #: judged by the fixed ``suspect_timeout`` fallback.
    detector_min_samples: int = 4
    #: Deviation floor as a fraction of the window mean: at steady state
    #: the variance collapses and any hiccup would score astronomically;
    #: the floor keeps one lost heartbeat (≈ 2× mean silence) under
    #: ``phi_suspect``.
    detector_std_floor: float = 0.3
    #: Window samples are clamped to this multiple of the current mean so
    #: a dropped heartbeat cannot poison the learned history (``0``
    #: disables clamping).
    detector_sample_clamp: float = 3.0
    #: After an unsuspect, block re-suspecting the same peer for this
    #: long — the hysteresis that stops jittery links from flapping
    #: through repeated suspect/unsuspect cycles into eviction churn.
    #: ``0`` (default) disables the cool-down.
    resuspect_cooldown: float = 0.0
    #: Frame batching (docs/PROTOCOL.md §14): what one pump of the send
    #: queue releases — the data PDUs a reopened flow window lets out at
    #: once — travels as one :class:`~repro.core.pdu.BatchPdu` frame of at
    #: most this many PDUs.  Nothing waits to fill a frame: a pump that
    #: releases one PDU sends the bare data PDU.  ``1`` (default) is the
    #: paper's wire, one frame per data PDU, and the conformance baseline;
    #: the real-socket runtimes default to 8 (``DEFAULT_RUNTIME_CONFIG``).
    batch_max_pdus: int = 1
    #: Also cut a frame once its modelled wire size reaches this many
    #: bytes (``0`` disables the byte cap).  Only meaningful with
    #: ``batch_max_pdus > 1``.
    batch_max_bytes: int = 0
    #: Anti-entropy repair layer (docs/PROTOCOL.md §15): every this many
    #: seconds, send a compact digest (delivered + receipt frontiers + view
    #: id) to one deterministically-rotated live peer, who answers with a
    #: range pull and/or a bounded delta sync for whatever the digest shows
    #: missing.  ``None`` (default) disables the repair layer entirely —
    #: recovery then relies on the paper's RET machinery and, for rejoin,
    #: the full state snapshot.
    anti_entropy_interval: "float | None" = None
    #: Maximum ``(source, [from, to))`` ranges one RepairPull PDU may carry.
    #: Larger deficits are repaired across several digest rounds.
    pull_max_ranges: int = 16
    #: A gap escalates from RET to a repair pull after this many fruitless
    #: timer-driven RET retries (tier-2 escalation).  Only meaningful with
    #: ``anti_entropy_interval`` set.
    pull_after_retries: int = 2
    #: When a digest/pull exchange shows a peer missing at least this many
    #: PDUs, the serving side treats the answer as a *delta sync*: a bounded
    #: partial state transfer replacing the full-snapshot path for healed
    #: partitions and stale stragglers (tier-3 escalation).
    delta_sync_threshold: int = 24
    #: Upper bound on the data PDUs one delta-sync burst may re-send; a
    #: larger deficit drains across successive digest rounds.
    delta_sync_max_pdus: int = 128
    #: Dissemination topology (docs/PROTOCOL.md §16): how data frames reach
    #: the other entities.  ``FLOOD`` (default) broadcasts every frame;
    #: ``RING`` circulates frames hop-by-hop around the live members with
    #: knowledge piggybacked per relay; ``GOSSIP`` pushes to
    #: ``gossip_fanout`` seeded-random peers with the anti-entropy layer
    #: completing coverage.  Control traffic (heartbeats, RETs, view
    #: changes, digests, pulls) and retransmissions always flood.
    dissemination: DisseminationMode = DisseminationMode.FLOOD
    #: Peers each gossip push targets (origin and relays alike).  Only
    #: meaningful with ``dissemination=GOSSIP``.
    gossip_fanout: int = 3
    #: Seed for the per-entity gossip peer-sampling RNG, so runs replay
    #: deterministically.
    gossip_seed: int = 0
    #: Hierarchical sharding (docs/PROTOCOL.md §18): bound each subgroup to
    #: at most this many entities, every subgroup running the full CO
    #: protocol internally over a membership-view-local knowledge state,
    #: with designated bridge entities relaying inter-group traffic under a
    #: G-sized group-level causal barrier.  ``None`` (default) keeps the
    #: flat single-cluster layout.  An extension, so strict paper mode
    #: rejects it.
    group_size: "int | None" = None
    #: Bridge retransmit cadence: an inter-group forward unacknowledged by
    #: a peer group for this long is re-sent (retransmit-until-acked is the
    #: backbone's recovery path across losses and partitions).
    intergroup_ret_timeout: float = 4e-3
    #: How often a group's bridge layer re-evaluates which member fronts
    #: the group (failover off a crashed bridge).  ``None`` (default)
    #: follows ``suspect_timeout`` when set, else ``tick_interval``.
    bridge_tick_interval: "float | None" = None
    #: Cluster identifier placed in every PDU's ``CID`` field.
    cluster_id: int = 1

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.window}")
        if self.units_per_pdu < 1:
            raise ConfigurationError(
                f"units_per_pdu must be >= 1, got {self.units_per_pdu}"
            )
        for name in (
            "deferred_interval",
            "ret_timeout",
            "ret_suppression_interval",
            "tick_interval",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be non-negative, got {value}")
        if self.suspect_timeout is not None and self.suspect_timeout <= 0:
            raise ConfigurationError(
                f"suspect_timeout must be positive or None, got {self.suspect_timeout}"
            )
        if self.suspect_timeout is not None and self.strict_paper_mode:
            raise ConfigurationError(
                "the membership extension needs heartbeat keepalives, which "
                "strict paper mode disables; choose one"
            )
        if self.batch_max_pdus < 1:
            raise ConfigurationError(
                f"batch_max_pdus must be >= 1, got {self.batch_max_pdus}"
            )
        if self.batch_max_bytes < 0:
            raise ConfigurationError(
                f"batch_max_bytes must be non-negative, got {self.batch_max_bytes}"
            )
        if self.batching_enabled and self.strict_paper_mode:
            raise ConfigurationError(
                "batching coalesces the PACK vector into an out-of-band frame "
                "header, which strict paper mode forbids; choose one"
            )
        if self.ret_backoff_cap < 1:
            raise ConfigurationError(
                f"ret_backoff_cap must be >= 1, got {self.ret_backoff_cap}"
            )
        if not 0.0 <= self.ret_backoff_jitter <= 1.0:
            raise ConfigurationError(
                f"ret_backoff_jitter must be in [0, 1], got {self.ret_backoff_jitter}"
            )
        if self.evict_timeout is not None:
            if self.evict_timeout <= 0:
                raise ConfigurationError(
                    f"evict_timeout must be positive or None, got {self.evict_timeout}"
                )
            if self.suspect_timeout is None:
                raise ConfigurationError(
                    "evict_timeout needs suspect_timeout: eviction promotes a "
                    "suspicion, it cannot originate one"
                )
        if not isinstance(self.failure_detector, FailureDetectorMode):
            raise ConfigurationError(
                f"failure_detector must be a FailureDetectorMode, got "
                f"{self.failure_detector!r}"
            )
        if self.failure_detector is FailureDetectorMode.PHI:
            if self.strict_paper_mode:
                raise ConfigurationError(
                    "the adaptive detector is a membership extension, "
                    "which strict paper mode forbids; choose one"
                )
            if self.suspect_timeout is None:
                raise ConfigurationError(
                    "the phi detector bootstraps from (and keeps the "
                    "keepalive cadence of) suspect_timeout; set it"
                )
        if not 0.0 < self.phi_suspect <= self.phi_evict:
            raise ConfigurationError(
                f"need 0 < phi_suspect <= phi_evict, got "
                f"{self.phi_suspect} / {self.phi_evict}"
            )
        if self.detector_window < 2:
            raise ConfigurationError(
                f"detector_window must be >= 2, got {self.detector_window}"
            )
        if not 2 <= self.detector_min_samples <= self.detector_window:
            raise ConfigurationError(
                "detector_min_samples must be between 2 and "
                f"detector_window, got {self.detector_min_samples}"
            )
        if self.detector_std_floor <= 0:
            raise ConfigurationError(
                f"detector_std_floor must be positive, got "
                f"{self.detector_std_floor}"
            )
        if self.detector_sample_clamp != 0 and self.detector_sample_clamp < 1:
            raise ConfigurationError(
                "detector_sample_clamp must be 0 (off) or >= 1, got "
                f"{self.detector_sample_clamp}"
            )
        if self.resuspect_cooldown < 0:
            raise ConfigurationError(
                f"resuspect_cooldown must be non-negative, got "
                f"{self.resuspect_cooldown}"
            )
        if self.anti_entropy_interval is not None:
            if self.anti_entropy_interval <= 0:
                raise ConfigurationError(
                    "anti_entropy_interval must be positive or None, got "
                    f"{self.anti_entropy_interval}"
                )
            if self.strict_paper_mode:
                raise ConfigurationError(
                    "anti-entropy digests are out-of-band control frames, "
                    "which strict paper mode forbids; choose one"
                )
        for name in ("pull_max_ranges", "pull_after_retries",
                     "delta_sync_threshold", "delta_sync_max_pdus"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if not isinstance(self.dissemination, DisseminationMode):
            raise ConfigurationError(
                f"dissemination must be a DisseminationMode, got "
                f"{self.dissemination!r}"
            )
        if self.dissemination is not DisseminationMode.FLOOD:
            if self.strict_paper_mode:
                raise ConfigurationError(
                    "non-flood dissemination wraps data frames in relay "
                    "PDUs, which strict paper mode forbids; choose one"
                )
        if self.group_size is not None:
            if self.group_size < 2:
                raise ConfigurationError(
                    f"group_size must be >= 2 (a subgroup is a CO cluster, "
                    f"and a cluster needs at least 2 entities), got "
                    f"{self.group_size}"
                )
            if self.strict_paper_mode:
                raise ConfigurationError(
                    "hierarchical grouping relays messages through bridge "
                    "entities and out-of-band inter-group frames, which "
                    "strict paper mode forbids; choose one"
                )
        if self.intergroup_ret_timeout <= 0:
            raise ConfigurationError(
                f"intergroup_ret_timeout must be positive, got "
                f"{self.intergroup_ret_timeout}"
            )
        if self.bridge_tick_interval is not None and self.bridge_tick_interval <= 0:
            raise ConfigurationError(
                f"bridge_tick_interval must be positive or None, got "
                f"{self.bridge_tick_interval}"
            )
        if self.dissemination is DisseminationMode.GOSSIP:
            if self.gossip_fanout < 1:
                raise ConfigurationError(
                    f"gossip_fanout must be >= 1, got {self.gossip_fanout}"
                )
            if self.anti_entropy_interval is None:
                raise ConfigurationError(
                    "gossip dissemination is probabilistic; it needs the "
                    "anti-entropy repair layer (anti_entropy_interval) as "
                    "its deterministic completion path"
                )

    def with_(self, **changes) -> "ProtocolConfig":
        """A copy with the given fields replaced (sugar over ``replace``)."""
        return replace(self, **changes)

    @property
    def batching_enabled(self) -> bool:
        """True when one pump's data PDUs may share a batch frame."""
        return self.batch_max_pdus > 1

    @property
    def adaptive_detection_enabled(self) -> bool:
        """True when peer liveness is judged by the phi-accrual detector."""
        return (
            self.failure_detector is FailureDetectorMode.PHI
            and self.suspect_timeout is not None
        )

    @property
    def repair_enabled(self) -> bool:
        """True when the anti-entropy repair layer is active."""
        return self.anti_entropy_interval is not None

    @property
    def hierarchy_enabled(self) -> bool:
        """True when membership is sharded into bounded bridge-linked groups."""
        return self.group_size is not None

    @property
    def relaying_enabled(self) -> bool:
        """True when data frames travel a non-flood dissemination topology."""
        return self.dissemination is not DisseminationMode.FLOOD

    @property
    def paper_faithful(self) -> bool:
        """True when no extension or ablation deviates from the paper."""
        return (
            self.strict_paper_mode
            and self.retransmission is RetransmissionScheme.SELECTIVE
            and self.confirmation is ConfirmationMode.DEFERRED
            and self.delivery_level is DeliveryLevel.ACKNOWLEDGED
        )
