"""The CO protocol engine (§4).

:class:`COEntity` is a **sans-I/O state machine**: it never touches the
network or the clock directly.  A host (:mod:`repro.core.cluster`) feeds it
arriving PDUs via :meth:`COEntity.on_pdu`, drives housekeeping via
:meth:`COEntity.on_tick`, and receives outputs through two callbacks bound
with :meth:`COEntity.bind`:

* ``send(pdu)`` — broadcast a PDU on the cluster's network;
* ``deliver(message)`` — hand ordered application data up through the SAP.

This separation keeps the protocol logic synchronous, deterministic and unit
testable: the tests drive an engine directly with hand-built PDUs and
inspect its logs, exactly like working through the paper's Example 4.1.

The engine implements, in the paper's terms:

==============================  ==========================================
Paper action / condition        Method
==============================  ==========================================
DT request intake               :meth:`submit`
Flow condition (§4.2)           :class:`~repro.core.flow.FlowController`
Transmission action             :meth:`_broadcast_data`
Acceptance condition + action   :meth:`_on_data` / :meth:`_accept`
Failure condition (1)           :meth:`_on_data` (sequence gap)
Failure condition (2)           :meth:`_check_ack_gaps`
Retransmission action           :meth:`_send_ret` / :meth:`_on_ret`
PACK condition + action         :meth:`_pack_action`
ACK condition + action          :meth:`_ack_action`
Deferred confirmation (§5)      :meth:`_maybe_confirm` / :meth:`on_tick`
==============================  ==========================================

A *turn* is the input that was already waiting when it began.  The host
binds ``more_input`` to say whether any of it is still unread; while it is,
``on_pdu`` runs only a PDU's intake, and the speaking steps — PACK scan,
confirmation, probe and stale-peer answers, pump — run once, in the turn's
last ``on_pdu`` (:meth:`_settle`).

Self-delivery: the MC network does not loop a broadcast back to its sender;
instead the engine *self-accepts* each PDU it sends, at send time.  This
keeps the knowledge matrices uniform (the sender's own row of ``AL`` is just
its ``REQ`` vector) and matches a host handing its own broadcast straight to
its system entity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import (
    ConfirmationMode,
    DeliveryLevel,
    ProtocolConfig,
    RetransmissionScheme,
)
from repro.core.detector import PhiAccrualDetector
from repro.core.errors import ProtocolError
from repro.core.flow import FlowController
from repro.core.logs import CausalLog, ReceiptSublogs, SendingLog
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
from repro.core.repair import DELTA_SYNC_MAX_PDUS, RepairManager
from repro.core.retransmit import (
    RET_BACKOFF_CAP,
    RET_BACKOFF_JITTER,
    RET_SUPPRESSION_INTERVAL,
    GapTracker,
    RetransmitSuppressor,
)
from repro.core.state import KnowledgeState, MergeResult
from repro.net.dissemination import make_strategy
from repro.sim.trace import TraceLog

Clock = Callable[[], float]
SendFn = Callable[[Any], None]
#: Point-to-point send: (destination index, PDU).  Hosts that can address
#: individual peers bind one; probe answers travel over it, and it is what
#: engages non-flood dissemination.
UnicastFn = Callable[[int, Any], None]


def _nothing_waiting() -> bool:
    """``more_input`` for a host that binds none: every input is a turn."""
    return False


@dataclass(frozen=True, slots=True)
class DeliveredMessage:
    """One ordered application message handed up through the SAP."""

    data: Any
    src: int
    seq: int
    delivered_at: float


DeliverFn = Callable[[DeliveredMessage], None]


@dataclass
class EntityCounters:
    """Per-entity protocol statistics."""

    submitted: int = 0
    sent_data: int = 0
    sent_null: int = 0
    #: Every heartbeat frame sent, probes and probe answers included.
    sent_heartbeats: int = 0
    #: Heartbeats sent with ``probe`` set — "I am stuck, repeat yours".
    probes_sent: int = 0
    #: Probes answered (by unicast wherever the host bound that path).
    probe_answers_sent: int = 0
    sent_rets: int = 0
    retransmissions: int = 0
    retransmissions_suppressed: int = 0
    accepted: int = 0
    duplicates: int = 0
    stashed: int = 0
    discarded_out_of_order: int = 0
    preacknowledged: int = 0
    acknowledged: int = 0
    delivered: int = 0
    flow_blocked: int = 0
    foreign_cluster: int = 0
    #: Inter-group backbone frames handed off to the bridge layer
    #: (docs/PROTOCOL.md §18); zero unless this entity hosts a bridge.
    intergroup_received: int = 0
    #: Receipt sublogs examined by the event-driven PACK scan (the old
    #: fixpoint visited all n sublogs per round; this counts dirty visits).
    pack_source_scans: int = 0
    #: Times a sublog head satisfied the PACK threshold but had to wait for
    #: a causal predecessor from another source (the dependency gate).
    pack_dep_blocks: int = 0
    #: PRL insertions proven to be appends by the seq index (no log scan).
    cpi_fast_appends: int = 0
    #: PRL insertions that fell back to the linear CPI scan.
    cpi_scan_inserts: int = 0
    #: Timer-driven RET re-requests (the backed-off retries).
    ret_retries: int = 0
    #: PDUs from removed/evicted members dropped at the view fence.
    fenced: int = 0
    #: View-change rounds this entity proposed (as coordinator).
    view_proposals: int = 0
    #: Views installed (agreed membership changes applied).
    view_installs: int = 0
    #: Members evicted by installed views.
    evictions: int = 0
    #: Join requests broadcast while rejoining.
    joins_sent: int = 0
    #: State snapshots served to joining members (as sponsor).
    state_transfers: int = 0
    #: Batch frames sent (batching extension, docs/PROTOCOL.md §14).
    sent_batches: int = 0
    #: Data PDUs that travelled inside a batch frame.
    batched_pdus: int = 0
    #: Batch frames cut short because the pump's output reached
    #: ``batch_max_pdus`` (the rest went out in a further frame).
    batch_flush_full: int = 0
    #: Batch frames received.
    recv_batches: int = 0
    #: Data PDUs unbatched out of received frames.
    recv_batched_pdus: int = 0
    #: Anti-entropy digests sent (repair extension, docs/PROTOCOL.md §15).
    digests_sent: int = 0
    #: Digests received (as target or bystander).
    digests_received: int = 0
    #: Repair-pull requests sent (digest comparison or RET escalation).
    pulls_sent: int = 0
    #: Total ``(source, range)`` entries requested across sent pulls.
    pull_ranges_requested: int = 0
    #: Range entries this entity answered with at least one PDU.
    pull_ranges_served: int = 0
    #: Data PDUs re-sent in answer to repair pulls.
    pull_pdus_served: int = 0
    #: Gaps escalated from RET to pull after fruitless retries.
    repair_escalations: int = 0
    #: Delta-sync bursts served (pull or push side past the threshold).
    delta_syncs: int = 0
    #: Data PDUs re-sent inside delta-sync bursts (push side).
    delta_pdus_sent: int = 0
    #: Modelled bytes of repair traffic served (pull answers + deltas).
    repair_bytes: int = 0
    #: Relay wrappers originated for own data frames (non-flood
    #: dissemination, docs/PROTOCOL.md §16).
    relays_sent: int = 0
    #: Relay wrappers received from peers.
    relays_received: int = 0
    #: Relays forwarded onward (the frame was fresh here).
    relay_forwards: int = 0
    #: Relays not forwarded because the frame taught this entity nothing
    #: new — duplicate-forward suppression (infect-and-die).
    relay_forwards_suppressed: int = 0
    #: Healthy → degraded transitions of the phi-accrual detector
    #: (docs/PROTOCOL.md §17) — first threshold crossings, warnings only.
    phi_degraded: int = 0
    #: Suspicions raised by the adaptive detector (degraded → suspected).
    phi_suspects: int = 0
    #: Suspicions whose phi crossed ``phi_evict`` (eviction may ripen).
    phi_evict_ready: int = 0
    #: Suspicion promotions deferred by the re-suspect cool-down (the
    #: flap-damping hysteresis at work; counted per deferred poll).
    phi_cooldown_blocks: int = 0
    #: Window samples clamped by the heartbeat-loss tolerance.
    phi_samples_clamped: int = 0
    #: Adaptive-mode suspicions judged by the fixed-timeout bootstrap
    #: fallback (the peer's window was not yet primed).
    phi_fallback_suspects: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ViewChangeRound:
    """One in-progress membership agreement (view-change extension).

    ``agreed`` maps each member of the proposed view to the ACK (REQ)
    vector it contributed; once every member has agreed, the coordinator
    publishes ``flush`` — the element-wise max of the agreed vectors — and
    each member installs the view as soon as its own REQ covers it.
    """

    view_id: int
    members: Tuple[int, ...]
    proposer: int
    agreed: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    flush: Optional[Tuple[int, ...]] = None
    #: Last time this entity (re-)broadcast its phase PDU, for rate limits.
    last_sent: float = 0.0
    adopted_at: float = 0.0


class COEntity:
    """One system entity ``E_i`` running the CO protocol.

    Parameters
    ----------
    index:
        This entity's position in the cluster (0-based; the paper's 1-based
        ``E_i`` maps to index ``i-1``).
    n:
        Cluster size.
    config:
        Shared :class:`~repro.core.config.ProtocolConfig`.
    clock:
        Returns the current time; used for trace stamps and timeouts.
    trace:
        Shared :class:`~repro.sim.trace.TraceLog`.  The per-PDU happy path
        (``submit``, ``accept``, ``preack``, ``ack``, ``deliver``, non-probe
        ``heartbeat``, ``batch``, ``flow-blocked``) is recorded only when
        the log :attr:`~repro.sim.trace.TraceLog.keeps_per_pdu`.
    advertised_buf:
        Returns the free buffer units this entity advertises in its PDUs'
        ``BUF`` field (the host wires this to its receive buffer).
    joining:
        Start as a *rejoining* incarnation: stay passive, broadcast join
        requests until a sponsor's state snapshot arrives, then take part
        in the re-admission view change (crash-recovery extension).
    """

    def __init__(
        self,
        index: int,
        n: int,
        config: ProtocolConfig,
        clock: Clock,
        trace: TraceLog,
        advertised_buf: Optional[Callable[[], int]] = None,
        joining: bool = False,
        roster: Optional[Sequence[int]] = None,
    ):
        if n < 1:
            raise ProtocolError(f"cluster size must be >= 1, got {n}")
        self.index = index
        self.n = n
        self.config = config
        self._clock = clock
        #: The clock reading of the input being processed: ``submit``,
        #: ``on_pdu`` and ``on_tick`` each take exactly one, and everything
        #: the input does — trace records, timers, liveness stamps — uses it
        #: (docs/PROTOCOL.md §13).
        self._now: float = clock()
        self._trace = trace
        #: ``trace.record`` for the per-PDU happy path, or None when the log
        #: keeps faults and decisions only (a bounded ring): then those
        #: records cost no call at all (DESIGN.md §16).
        self._record_pdu = trace.record if trace.keeps_per_pdu else None
        self._advertised_buf = advertised_buf or (lambda: 10 ** 9)
        #: BUF of the empty inbox — every host builds its engine before any
        #: traffic; the shortfall against it is the unread input.
        self._buf_empty = self._advertised_buf()

        self.state = KnowledgeState(n, index, roster=roster)
        #: Handler the bridge layer installs to claim InterGroupPdu frames
        #: arriving on this entity's receive path (docs/PROTOCOL.md §18).
        self._intergroup_fn: Optional[Callable[[InterGroupPdu], None]] = None
        self.flow = FlowController(config, self.state)
        self.sl = SendingLog()
        self.rrl = ReceiptSublogs(n)
        #: Pre-acknowledged log, kept causality-ordered by CPI.
        self.prl: CausalLog = CausalLog()
        self.gaps = GapTracker(
            n,
            backoff_cap=RET_BACKOFF_CAP,
            backoff_jitter=RET_BACKOFF_JITTER,
            owner=index,
        )
        #: Anti-entropy repair bookkeeping (docs/PROTOCOL.md §15).  Inert
        #: (never consulted, never ticks) unless ``anti_entropy_interval``
        #: is configured.
        self.repair = RepairManager(index, n, config)
        #: delivered_floor[j]: every PDU from E_j with seq below this has
        #: been acknowledged (hence delivered) locally or recovered by a
        #: snapshot: the digest's delivered frontier, and the paper's ARL.
        self._delivered_floor: List[int] = [1] * n
        #: Rotation counter spreading escalated pulls over live peers.
        self._pull_rotation = 0
        #: preack_floor[j]: every PDU from E_j with seq below this has been
        #: pre-acknowledged locally (same-source pre-acks are in seq order).
        self._preack_floor: List[int] = [1] * n
        #: Sources whose PACK condition may have newly become true: their
        #: minAL rose, or their receipt sublog gained a head.  The PACK scan
        #: drains exactly this set (event-driven, not a fixpoint over all n).
        self._pack_dirty: Set[int] = set()
        #: _dep_waiters[k]: sources whose sublog head cleared the PACK
        #: threshold but waits on E_k's pre-acknowledgment floor; re-queued
        #: when that floor rises.
        self._dep_waiters: List[Set[int]] = [set() for _ in range(n)]
        #: _suppressors[j]: re-serve rate limit for E_j's PDUs (SL or store).
        self._suppressors = [
            RetransmitSuppressor(RET_SUPPRESSION_INTERVAL) for _ in range(n)
        ]
        #: Out-of-order arrivals per source (selective retransmission only).
        self._stash: List[Dict[int, DataPdu]] = [{} for _ in range(n)]
        #: Total stashed PDUs across sources, maintained at the stash /
        #: drain sites so resident_pdus stays O(1) per accepted PDU.
        self._stash_size = 0
        #: Per carrier, the last ACK tuple failure condition (2) found no
        #: gap in (:meth:`_check_ack_gaps`).
        self._gapless_ack: Dict[int, Tuple[int, ...]] = {}
        #: Accepted PDUs from peers, kept to re-serve RETs addressed to a
        #: suspected (crashed) source — the membership extension's
        #: peer-assisted retransmission.  Pruned below the live minAL.
        self._peer_store: List[Dict[int, DataPdu]] = [{} for _ in range(n)]
        #: _pruned_below[j]: the floor already applied to E_j's stores, so a
        #: prune pass only rescans a store when its floor actually rose.
        self._pruned_below: List[int] = [1] * n
        #: Membership extension state.
        self.suspected: Set[int] = set()
        self._last_heard: List[float] = [self._now] * n
        #: When each currently-suspected member was first suspected (drives
        #: the eviction timeout of the view-change extension).
        self._suspect_since: Dict[int, float] = {}
        #: View-change extension state.  ``view`` is the installed view
        #: number (0 = the initial full-membership view); ``members`` the
        #: installed member set; ``view_log`` the install history used by
        #: the view-safety invariants.
        self.view: int = 0
        self.members: Set[int] = set(range(n))
        self.evicted: Set[int] = set()
        self.view_log: List[Tuple[int, Tuple[int, ...]]] = [
            (0, tuple(range(n))),
        ]
        #: Highest view each peer has announced (heartbeat ``view`` field).
        self._peer_view: List[int] = [0] * n
        #: The in-progress membership agreement, if any.
        self._round: Optional[ViewChangeRound] = None
        #: Fence caps per removed member: data PDUs from ``m`` are admitted
        #: only below ``_flush_cap[m]`` (``None`` while the flush vector is
        #: still unknown — then nothing new from ``m`` is admitted).
        self._flush_cap: Dict[int, Optional[int]] = {}
        #: The install PDU of the last view this entity installed, re-sent
        #: while some live peer demonstrably lags behind the view.
        self._last_install_pdu: Optional[ViewChangePdu] = None
        self._install_resend_at: float = -1e18
        #: Rejoin (crash-recovery) state.
        self.joining = joining
        self._join_primed = False
        self._last_join_at: float = -1e18
        self._last_state_served_at: float = -1e18
        #: A rejoined incarnation's snapshot frontier: it is never handed
        #: ``(src, seq)`` with ``seq < recovered_frontier[src]``.
        self.recovered_frontier: Tuple[int, ...] = ()
        if joining and config.evict_timeout is None:
            raise ProtocolError(
                "a joining engine needs the view-change extension "
                "(config.evict_timeout) on the cluster"
            )
        #: Application data waiting for the flow condition: (data, size).
        self._pending: Deque[Tuple[Any, int]] = deque()
        #: The frame one :meth:`_pump` is filling (docs/PROTOCOL.md §14):
        #: own data PDUs built but not yet on the wire.  Empty whenever
        #: ``submit`` / ``on_pdu`` / ``on_tick`` returns.
        self._batch: List[DataPdu] = []
        #: Sources heard from since this entity's last transmission.
        self._heard_from: Set[int] = set()
        #: The open turn (docs/PROTOCOL.md §7): the speaking steps its
        #: PDUs' intakes owe, run once by :meth:`_settle` — the PACK scan
        #: and pump (``_owed``), the heard-from-all check, the probers to
        #: answer, each peer's last non-probe heartbeat (stale-peer answer)
        #: and an install re-send.  Empty whenever no input is waiting.
        self._more_input: Callable[[], bool] = _nothing_waiting
        self._owed = False
        self._owed_confirm = False
        self._owed_probes: List[int] = []
        self._owed_stale: Dict[int, HeartbeatPdu] = {}
        self._owed_install = False
        #: ``members - {self} - suspected``, the set the deferred rule waits
        #: to hear from; rebuilt on demand after a suspicion or view change.
        self._live_others: Optional[Set[int]] = None
        self._last_confirmed_req: Tuple[int, ...] = self.state.req_vector()
        self._last_confirmed_pack: Tuple[int, ...] = tuple(self._preack_floor)
        self._last_send_time: float = self._now
        self._flow_block_announced = False
        self._resident_high_water = 0
        # Probe state (see :meth:`on_tick`).  A probe goes out after
        # ``deferred_interval × _probe_backoff`` of *silence*: nothing sent
        # (``_last_send_time``) and nothing learned — no acceptance, no AL
        # or PAL cell raised — since ``_last_learned``.  The multiplier
        # doubles per probe sent (cap 64) and resets only on *progress* — a
        # new acceptance or a shrinking needy backlog (``_probe_load``) —
        # never on mere knowledge receipt: during cluster-wide convergence
        # every heartbeat twitches some matrix cell, and a twitch-triggered
        # reset pins every member at the maximum probe rate, n² chatter that
        # overruns the very receivers it is probing (whose full buffers then
        # advertise BUF=0 and keep the prober's window shut).
        self._probe_backoff = 1
        self._probe_load = 0
        self._last_learned: float = self._now
        self.counters = EntityCounters()
        #: Adaptive failure detection (docs/PROTOCOL.md §17).  ``None``
        #: keeps the fixed-timeout scan; the detector shares the engine's
        #: counters object so its statistics flow through every runtime's
        #: unified counters schema unchanged.
        self.detector: Optional[PhiAccrualDetector] = None
        if config.adaptive_detection_enabled:
            self.detector = PhiAccrualDetector(
                n,
                index,
                window=config.detector_window,
                resuspect_cooldown=config.resuspect_cooldown,
                bootstrap_timeout=config.suspect_timeout,
                start_time=self._now,
                counters=self.counters,
            )
        self._send_fn: Optional[SendFn] = None
        self._deliver_fn: Optional[DeliverFn] = None
        self._unicast_fn: Optional[UnicastFn] = None
        #: Dissemination strategy (docs/PROTOCOL.md §16).  ``None`` floods;
        #: set by :meth:`bind` when the host provides a unicast path.
        self._strategy = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(
        self,
        send: SendFn,
        deliver: DeliverFn,
        unicast: Optional[UnicastFn] = None,
        more_input: Callable[[], bool] = _nothing_waiting,
    ) -> None:
        """Attach the host's output callbacks.  Must precede any traffic.

        ``unicast`` is the point-to-point path probe answers and non-flood
        dissemination travel over; without one the engine floods both,
        regardless of the configured mode — a host that cannot address
        individual peers cannot run a ring or gossip topology.

        ``more_input`` tells whether PDUs of the current turn wait behind
        the one ``on_pdu`` is handling; the host calls :meth:`end_turn`
        after each turn.  Unbound, nothing waits: every input is a turn.
        """
        self._send_fn = send
        self._deliver_fn = deliver
        self._unicast_fn = unicast
        self._more_input = more_input
        self._strategy = (
            make_strategy(self.config, self.index) if unicast is not None else None
        )

    @property
    def now(self) -> float:
        """A live clock read, for callers outside an input (gauges, hosts).
        The engine itself uses the one reading its current input took."""
        return self._clock()

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def submit(self, data: Any, size: int = 0) -> None:
        """A data-transmission (DT) request from the application entity."""
        if data is None:
            raise ValueError("application data must not be None (reserved for null PDUs)")
        self._now = self._clock()
        self.counters.submitted += 1
        if self._record_pdu is not None:
            self._record_pdu(self._now, "submit", self.index, size=size)
        self._pending.append((data, size))
        self._pump()

    def end_turn(self) -> None:
        """Close a turn whose last PDU did not settle it — it did not
        decode, the engine raised on it, or its handling owes nothing (a
        fenced, foreign or join frame): run what the turn owes, as an input
        of its own with one clock read.  Nothing owed, nothing read."""
        if self._owed:
            self._now = self._clock()
            self._settle()

    def set_intergroup_handler(
        self, fn: Optional[Callable[[InterGroupPdu], None]]
    ) -> None:
        """Install (or clear) the bridge-layer hook receiving backbone
        ``InterGroupPdu`` frames that land on this entity (§18)."""
        self._intergroup_fn = fn

    def on_pdu(self, pdu: Any) -> None:
        """Process one PDU taken from the receive buffer."""
        self._now = self._clock()
        if isinstance(pdu, InterGroupPdu):
            # Backbone frames address *groups*: their cid is the base
            # cluster id and their src is a global entity id, so they must
            # bypass both the cid demultiplex and the per-peer liveness
            # bookkeeping below.  The bridge layer claims them wholesale;
            # without a handler (flat cluster) they are foreign traffic.
            if self._intergroup_fn is not None:
                self.counters.intergroup_received += 1
                self._intergroup_fn(pdu)
            else:
                self.counters.foreign_cluster += 1
            return
        if getattr(pdu, "cid", self.config.cluster_id) != self.config.cluster_id:
            # Another cluster's traffic on a shared medium (the paper's CID
            # field exists precisely to demultiplex this): not ours, drop.
            self.counters.foreign_cluster += 1
            return
        if self.joining and not self._join_primed:
            # Before the snapshot lands, this incarnation has no usable
            # frontier: anything but the snapshot itself would be folded
            # into bogus (reset) state.
            if isinstance(pdu, StatePdu):
                self._on_state(pdu)
            return
        src = getattr(pdu, "src", None)
        if src is not None and 0 <= src < self.n and src != self.index:
            if self._is_removed(src):
                # View fence: an evicted (or being-removed) member's
                # data-plane traffic must not advance anyone's knowledge —
                # only the membership control PDUs and the flushed prefix
                # pass.  Its chatter also cannot revoke the suspicion.
                if not self._fence_admits(src, pdu):
                    return
            else:
                self._last_heard[src] = self._now
                if self.detector is not None:
                    self.detector.heard(src, self._now)
                if src in self.suspected:
                    self._unsuspect(src)
        if isinstance(pdu, DataPdu):
            self._on_data(pdu)
        elif isinstance(pdu, RelayPdu):
            self._on_relay(pdu)
        elif isinstance(pdu, BatchPdu):
            self._on_batch(pdu)
        elif isinstance(pdu, RetPdu):
            self._on_ret(pdu)
        elif isinstance(pdu, HeartbeatPdu):
            self._on_heartbeat(pdu)
        elif isinstance(pdu, (ViewChangePdu, JoinPdu, StatePdu)):
            # Membership logic never sees a half-settled turn.
            if self._owed:
                self._settle()
            if isinstance(pdu, ViewChangePdu):
                self._on_view_change(pdu)
            elif isinstance(pdu, JoinPdu):
                self._on_join(pdu)
            else:
                self._on_state(pdu)
        elif isinstance(pdu, DigestPdu):
            self._on_digest(pdu)
        elif isinstance(pdu, RepairPullPdu):
            self._on_repair_pull(pdu)
        else:
            raise ProtocolError(f"unknown PDU type: {type(pdu).__name__}")

    def _is_removed(self, src: int) -> bool:
        """Is ``src`` evicted, or being removed by the pending round?"""
        if src in self.evicted:
            return True
        r = self._round
        return r is not None and src in self.members and src not in r.members

    def _fence_admits(self, src: int, pdu: Any) -> bool:
        """Decide whether a removed member's PDU passes the view fence.

        Membership control PDUs always pass (they are how the member
        rejoins).  Data PDUs pass only below the flush cap — the agreed
        flush vector pins exactly which of the member's PDUs belong to the
        old view; everything at or above it never existed as far as the
        surviving views are concerned.  While the cap is still unknown
        (round agreed but not installed) nothing new is admitted, which is
        what makes every member's AGREE vector an upper bound the flush
        max cannot miss.  Retransmissions of the flushed prefix served by
        peers carry the original source, so they pass the same test.
        RET requests also pass: a primed joiner fetches the flushed prefix
        it is missing *before* its re-admission installs, and answering a
        request advances no one's knowledge.  Repair pulls pass for the
        same reason (they are RETs with explicit ranges); digests do not —
        a digest exists only to advance knowledge, which is exactly what
        the fence forbids.
        """
        if isinstance(pdu, (JoinPdu, ViewChangePdu, StatePdu, RetPdu, RepairPullPdu)):
            return True
        if isinstance(pdu, BatchPdu):
            # The frame passes; :meth:`_on_batch` re-applies the fence to
            # each inner data PDU and skips the removed member's header.
            return True
        if isinstance(pdu, RelayPdu):
            # A removed *relayer* may still carry a live origin's frame;
            # :meth:`_on_relay` skips the removed contributors' knowledge
            # and re-fences the inner frame by its origin.
            return True
        if isinstance(pdu, DataPdu):
            cap = self._flush_cap.get(src)
            if cap is not None and pdu.seq < cap:
                return True
        self.counters.fenced += 1
        self._trace.record(
            self._now, "fence", self.index,
            src=src, kind=type(pdu).__name__, seq=getattr(pdu, "seq", None),
        )
        return False

    def on_tick(self) -> None:
        """Periodic housekeeping: RET retries, deferred confirmation, flow retry."""
        now = self._now = self._clock()
        if self.joining:
            # A rejoining incarnation is passive: it only solicits a state
            # snapshot / re-admission until a view change admits it.
            self._join_tick(now)
            return
        timeout = self.config.suspect_timeout
        if timeout is not None:
            if self.detector is not None:
                # Adaptive mode (docs/PROTOCOL.md §17): poll every member —
                # including already-suspected ones, whose state must still
                # advance to evict-pending for the eviction gate below.
                for j in self.members:
                    if j == self.index or j in self.evicted:
                        continue
                    state = self.detector.poll(j, now)
                    if state.excludes and j not in self.suspected:
                        self._suspect(j)
            else:
                for j in self.members:
                    if j == self.index or j in self.suspected or j in self.evicted:
                        continue
                    if now - self._last_heard[j] >= timeout:
                        self._suspect(j)
            self._maybe_propose_eviction(now)
        self._drive_view_round(now)
        escalated: List[Tuple[int, int, int]] = []
        for gap in self.gaps.due(now, self.config.ret_timeout):
            if self.repair.should_escalate(gap.retries):
                # Tier-2 escalation (docs/PROTOCOL.md §15): repeated RETs
                # went unanswered, so name the range explicitly and address
                # a peer — any resident holder may answer a pull, so it
                # survives source death and asymmetric partitions.
                escalated.append((gap.src, self.state.req[gap.src], gap.upto))
                self.gaps.mark_ret(gap.src, now)
            else:
                self._send_ret(gap.src, gap.upto)
        if escalated:
            self.counters.repair_escalations += len(escalated)
            self._send_pull(self._pull_target(), escalated, reason="escalate")
        self.counters.ret_retries = self.gaps.total_retries
        self._repair_tick(now)
        # The timer does two jobs under two rules (docs/PROTOCOL.md §7).
        # "My vectors changed": whatever differs from the last confirmed
        # vectors goes out as a plain confirmation once ``deferred_interval``
        # has passed since the last transmission — needy or not, whatever
        # the probe back-off: peers deliver on exactly these vectors —
        # unless a round of input waits unread (:meth:`_may_announce`).
        interval = self.config.deferred_interval
        if self._may_announce(now):
            self._send_confirmation(force=True)
        # "I lost a heartbeat": heartbeats are unsequenced, so a lost one
        # leaves no gap to detect, and a member still waiting on the
        # cluster — undrained logs, open gaps, data blocked by the flow
        # window (which needs fresh BUF advertisements to reopen) — must ask
        # for repeats.  It *probes* (its own vectors verbatim, ``probe``
        # set) only when stuck: needy, and silent — nothing sent, nothing
        # learned — for the backed-off interval.  A member that is still
        # learning is not stuck, its inbox is the bottleneck, and a probe
        # would lengthen every inbox by its answers.  Liveness: AL, PAL and
        # REQ only grow and traffic is finite, so a member that stays needy
        # stops learning, the silence the probe waits for arrives, and the
        # back-off is capped.
        if self._needy:
            # Progress since the last look — a shrinking backlog — means the
            # cluster is answering; probe eagerly again.  (Acceptances also
            # reset the back-off directly, so a *growing* backlog of freshly
            # accepted PDUs never reads as fruitlessness.)
            load = (
                self.rrl.total + len(self.prl) + self.gaps.open_gaps
                + len(self._pending) + self._stash_size
            )
            if load < self._probe_load:
                self._probe_backoff = 1
            self._probe_load = load
            quiet_since = max(self._last_send_time, self._last_learned)
            if now - quiet_since >= interval * self._probe_backoff:
                self._send_confirmation(force=True, resend=True, probe=True)
                self._probe_backoff = min(self._probe_backoff * 2, 64)
        # Keepalives: with the membership extension on, silence must mean
        # death, so a healthy idle entity announces itself twice per
        # suspicion window (repeating its last heartbeat verbatim).
        if (
            timeout is not None
            and now - self._last_send_time >= timeout / 2
        ):
            self._send_confirmation(force=True, resend=True, probe=False)
        self._pump()

    @property
    def _drained(self) -> bool:
        """No local protocol state is waiting on further knowledge."""
        return (
            self.rrl.total == 0
            and not self.prl
            and self.gaps.open_gaps == 0
            and self._stash_size == 0
        )

    @property
    def _needy(self) -> bool:
        """Progress here depends on hearing more from the cluster."""
        return not self._drained or bool(self._pending)

    # ------------------------------------------------------------------
    # Transmission (§4.2)
    # ------------------------------------------------------------------
    def _pump(self) -> int:
        """Send as many pending DT requests as the flow condition allows.

        What one pump releases is one frame (docs/PROTOCOL.md §14): the
        PDUs were already queued, so packing them costs no waiting, and no
        batch outlives the pump that opened it.

        The window is read once and spent, then read again: between two
        sends only self-acceptance runs, and it raises ``minAL_i`` only
        when our own row is the sole live one (``n = 1``, every peer
        excluded) — the re-read at the boundary sees exactly that.
        """
        pending = self._pending
        sent = 0
        while pending:
            seq = self.sl.next_seq
            base, end = self.flow.admitted()
            if not base <= seq < end:
                if not self._flow_block_announced:
                    decision = self.flow.check(seq)
                    self.counters.flow_blocked += 1
                    if self._record_pdu is not None:
                        self._record_pdu(
                            self._now, "flow-blocked", self.index,
                            seq=decision.seq, reason=decision.reason,
                            window=decision.effective_window,
                        )
                    self._flow_block_announced = True
                break
            release = min(end - seq, len(pending))
            for _ in range(release):
                data, size = pending.popleft()
                self._broadcast_data(data, size)
            sent += release
        if sent:
            self._flow_block_announced = False
            self._flush_batch()
            self._pack_action()
        return sent

    def _broadcast_data(self, data: Optional[Any], size: int) -> None:
        """The transmission action: build, log and self-accept one data PDU
        into the open frame.  The frame goes out here once it is full —
        with ``batch_max_pdus = 1`` that is every PDU — and otherwise when
        the calling :meth:`_pump` ends; the caller runs the PACK action."""
        pdu = DataPdu(
            cid=self.config.cluster_id,
            src=self.index,
            seq=self.sl.next_seq,
            ack=self.state.req_vector(),
            buf=self._advertised_buf(),
            data=data,
            data_size=size,
        )
        self.sl.append(pdu)
        if pdu.is_null:
            self.counters.sent_null += 1
        else:
            self.counters.sent_data += 1
        self._batch.append(pdu)
        # Self-acceptance: the sender's own copy enters its receipt machinery
        # immediately, keeping REQ/AL uniform across the cluster (its ACK
        # vector — its causal coordinates — was stamped above and is final).
        self._accept(pdu)
        if len(self._batch) >= self.config.batch_max_pdus:
            if len(self._batch) > 1:
                self.counters.batch_flush_full += 1
            self._flush_batch()

    def _flush_batch(self) -> None:
        """Put the open frame on the wire.

        Every outgoing sequenced PDU carries REQ — it *is* a confirmation.
        One PDU goes out bare and confirms the ACK vector it was built
        with.  Several go out as one :class:`BatchPdu` whose header vectors
        are stamped *now* — the freshest confirmation this entity can give
        — so the next heartbeat carrying identical vectors is suppressed.
        """
        batch = self._batch
        if not batch:
            return
        self._heard_from.clear()
        self._last_send_time = self._now
        if len(batch) == 1:
            frame: Any = batch[0]
        else:
            frame = BatchPdu(
                cid=self.config.cluster_id,
                src=self.index,
                ack=self.state.req_vector(),
                pack=tuple(self._preack_floor),
                buf=self._advertised_buf(),
                pdus=tuple(batch),
            )
            self.counters.sent_batches += 1
            self.counters.batched_pdus += len(batch)
            self._last_confirmed_pack = frame.pack
            if self._record_pdu is not None:
                self._record_pdu(
                    self._now, "batch", self.index,
                    count=len(batch), seqs=list(frame.seqs),
                )
        batch.clear()
        self._last_confirmed_req = frame.ack
        self._send_frame(frame)

    def _send(self, pdu: Any) -> None:
        if self._send_fn is None:
            raise ProtocolError("engine used before bind()")
        self._send_fn(pdu)

    # ------------------------------------------------------------------
    # Dissemination topologies (docs/PROTOCOL.md §16)
    # ------------------------------------------------------------------
    def _unicast(self, dst: int, pdu: Any) -> None:
        if self._unicast_fn is None:
            raise ProtocolError("engine used before bind()")
        self._unicast_fn(dst, pdu)

    def _send_repair(self, to: int, frame: Any) -> None:
        """Route a peer-specific repair answer (RET answer, pull answer,
        delta burst).

        Under the paper's broadcast medium these flood — bystanders fold
        the duplicate harmlessly and the suppressors thin redundant
        answers.  Under a relay topology the deficit is one peer's, the
        requester is named, and a broadcast answer costs n-1 copies where
        one suffices — worse, the bare rebroadcast races the relay route
        and stales in-flight wrappers — so the answer goes point-to-point.
        """
        if self._strategy is not None:
            self._unicast(to, frame)
        else:
            self._send(frame)

    def _dissemination_members(self) -> List[int]:
        """The live membership a routing decision sees (self included)."""
        return sorted(self._live_members | {self.index})

    def _send_frame(self, frame: Any) -> None:
        """Put one of our own data frames on the wire by the configured
        topology: flood it, or wrap it in a relay and hand it to the
        strategy's first-hop targets.  Only original transmissions route
        here — peer-specific repair answers go through
        :meth:`_send_repair`, and knowledge-carrying control PDUs
        (digests, pulls, RET requests, heartbeats — a probe's answer
        excepted, see :meth:`_answer_probe`) flood regardless of
        topology: they are the loss-recovery paths the relaying modes
        lean on, and any holder may answer them."""
        if self._strategy is None:
            self._send(frame)
            return
        targets = self._strategy.origin_targets(self._dissemination_members())
        if not targets:
            # Degenerate view (no live peer to route to): flooding is the
            # harmless identity here and keeps the send path uniform.
            self._send(frame)
            return
        wrapper = RelayPdu(
            cid=self.config.cluster_id,
            src=self.index,
            path=(self.index,),
            min_ack=self.state.req_vector(),
            min_pack=tuple(self._preack_floor),
            buf=self._advertised_buf(),
            frame=frame,
        )
        self.counters.relays_sent += 1
        for dst in targets:
            self._unicast(dst, wrapper)

    def _frame_is_fresh(self, frame: Any) -> bool:
        """Would processing this data frame advance local receipt state?

        Checked *before* the frame is processed (processing moves the very
        frontier the check reads).  Freshness is what gates forwarding: a
        frame that neither accepts nor stashes anything new here has, by
        per-source FIFO, nothing new for anyone downstream either — the
        infect-and-die rule that terminates gossip and folded rings.
        """
        if isinstance(frame, BatchPdu):
            return any(self._data_is_fresh(p) for p in frame.pdus)
        return self._data_is_fresh(frame)

    def _data_is_fresh(self, p: DataPdu) -> bool:
        src = p.src
        if src == self.index or not 0 <= src < self.n:
            return False
        if p.seq < self.state.req[src]:
            return False
        return p.seq not in self._stash[src]

    def _on_relay(self, r: RelayPdu) -> None:
        """Accept a relayed frame and forward it if it was news here.

        The inner frame is processed exactly as if it had been flooded —
        the wrapper changes *routing*, never the protocol state machine,
        which is why CO safety is topology-independent.  The wrapper's
        aggregated ``min_ack``/``min_pack`` are folded into the AL/PAL
        rows of every path member first: each contributor's true vector is
        element-wise ≥ the carried minimum, so the max-merge is sound, and
        the explicit path keeps attribution exact under membership
        disagreement.  Removed contributors are skipped — the view fence
        forbids advancing knowledge on their behalf.
        """
        self.counters.relays_received += 1
        inner = r.frame
        origin = r.origin
        if origin == self.index:
            # Our own frame came full circle; everything in it is ours.
            return
        if self._is_removed(origin) and isinstance(inner, DataPdu):
            # Batches re-fence per inner PDU in _on_batch.
            admitted = self._fence_admits(origin, inner)
        else:
            admitted = True
        # Freshness before processing; fenced frames never forward.
        fresh = admitted and self._frame_is_fresh(inner)
        if len(r.min_ack) == self.n:
            for member in set(r.path):
                if member == self.index or not 0 <= member < self.n:
                    continue
                if self._is_removed(member):
                    continue
                self._merge_al(member, r.min_ack)
                self._merge_pal(member, r.min_pack)
        if r.src != self.index and not self._is_removed(r.src):
            self.state.update_buf(r.src, r.buf)
        if admitted:
            if isinstance(inner, BatchPdu):
                # _on_batch applies the removed-member fence itself.
                self._on_batch(inner)
            else:
                self._on_data(inner)
        if not fresh:
            if self._strategy is not None:
                self.counters.relay_forwards_suppressed += 1
            return
        self._forward_relay(r)

    def _forward_relay(self, r: RelayPdu) -> None:
        """Extend a fresh relay's path with ourselves and send it onward."""
        if self._strategy is None:
            return
        targets = self._strategy.forward_targets(
            r.origin, r.path, self._dissemination_members(),
        )
        if not targets:
            return
        req = self.state.req_vector()
        if len(r.min_ack) != self.n:
            return
        min_ack = tuple(map(min, r.min_ack, req))
        min_pack = tuple(map(min, r.min_pack, self._preack_floor))
        forwarded = RelayPdu(
            cid=self.config.cluster_id,
            src=self.index,
            path=r.path + (self.index,),
            min_ack=min_ack,
            min_pack=min_pack,
            buf=self._advertised_buf(),
            frame=r.frame,
        )
        self.counters.relay_forwards += 1
        # Forwarding is a confirmation: downstream receivers fold (at
        # least) these floors into our AL/PAL rows.  Record the *minima
        # actually conveyed*, not our full vectors — recording the full
        # REQ would suppress the idle-tail heartbeat that closes the gap
        # between the path floor and what we really hold, and knowledge
        # convergence (hence delivery) would stall.
        self._last_confirmed_req = min_ack
        self._last_confirmed_pack = min_pack
        self._heard_from.clear()
        self._last_send_time = self._now
        for dst in targets:
            self._unicast(dst, forwarded)

    def _merge_al(self, observer: int, vector: Sequence[int]) -> MergeResult:
        """Fold an ACK vector into AL, queueing risen minima for the PACK scan.

        Every AL intake goes through here: a source's PACK condition can only
        newly hold when its ``minAL`` column rose, so the merge's dirty
        columns are exactly the sources the next :meth:`_pack_action` must
        visit.
        """
        outcome = self.state.merge_al(observer, vector)
        if outcome.changed:
            self._last_learned = self._now
            if outcome.dirty:
                self._pack_dirty.update(outcome.dirty)
        return outcome

    def _merge_pal(self, observer: int, vector: Sequence[int]) -> None:
        """Fold a peer's PACK vector into PAL; every inbound PAL intake goes
        through here so a raised cell counts as *learning* (probe rule)."""
        if self.state.merge_pal(observer, vector).changed:
            self._last_learned = self._now

    # ------------------------------------------------------------------
    # Data-PDU receipt: acceptance + failure condition (1)  (§4.2, §4.3)
    # ------------------------------------------------------------------
    def _on_data(self, p: DataPdu, folded: bool = False) -> None:
        """``folded=True`` marks an inner PDU of a batch whose ACK vectors
        were already merged column-wise in one pass (:meth:`_on_batch`):
        the per-PDU AL/BUF folds, acceptance bookkeeping, failure-condition-
        (2) check and PACK / confirm / pump tail are skipped — the frame-
        level ones dominate them."""
        src = p.src
        if src == self.index:
            # Our own rebroadcast echoed back by a peer relay — impossible in
            # the MC model; tolerate as a duplicate.
            self.counters.duplicates += 1
            return
        expected = self.state.req[src]
        if p.seq < expected:
            # A retransmitted copy of something already accepted.  Its ACK
            # vector may be old (max-merging stale knowledge is harmless)
            # but its BUF field is the source's *freshest* advertisement —
            # retransmissions are stamped at resend time — and under loss
            # it can be the only advertisement still arriving: without the
            # refresh a flow-blocked sender stays windowed-shut on stale
            # BUF knowledge.  The branch then falls through to the common
            # tail: §4.3 applies failure condition (2) to *every* received
            # PDU's ACK vector, duplicates included.
            self.counters.duplicates += 1
            self._trace.record(self._now, "duplicate", self.index, src=src, seq=p.seq)
            if not folded:
                self._merge_al(src, p.ack)
                self.state.update_buf(src, p.buf)
        elif p.seq == expected:
            self._accept(p, folded=folded)
            if self._stash[src]:
                self._drain_stash(src)
        else:
            # Failure condition (1): REQ_src < p.SEQ.
            self._trace.record(
                self._now, "gap", self.index,
                kind="F1", src=src, missing_from=expected, missing_upto=p.seq,
            )
            if not folded:
                self._merge_al(src, p.ack)
                self.state.update_buf(src, p.buf)
            if self.config.retransmission is RetransmissionScheme.SELECTIVE:
                if p.seq not in self._stash[src]:
                    self._stash[src][p.seq] = p
                    self._stash_size += 1
                    self.counters.stashed += 1
                    self._trace.record(self._now, "stash", self.index, src=src, seq=p.seq)
            else:
                self.counters.discarded_out_of_order += 1
            if self.gaps.note(src, p.seq, self._now):
                self._send_ret(src, p.seq)
        if folded:
            return  # :meth:`_on_batch` runs the tail once for the frame
        # Failure condition (2) applies to every received PDU's ACK vector.
        self._check_ack_gaps(p.ack, carrier=src)
        self._owe(confirm=True)

    def _accept(self, p: DataPdu, folded: bool = False) -> None:
        """The acceptance action (§4.2).

        ``folded=True`` (an inner PDU of a batch) leaves the per-frame
        bookkeeping — AL/BUF fold, gap close, liveness and probe stamps,
        resident high-water mark — to :meth:`_on_batch`, which does it once.
        """
        src = p.src
        # REQ_src advances and our own AL row — our own REQ vector — moves
        # with it: one O(1) combined step instead of an O(n) re-fold of the
        # whole vector per accepted PDU.  Its dirty set is at most ``src``,
        # which the new sublog head below queues anyway.
        self.state.accept(src, p.seq)
        self.rrl.enqueue(p)
        self._pack_dirty.add(src)
        self.counters.accepted += 1
        if self._record_pdu is not None:
            self._record_pdu(
                self._now, "accept", self.index,
                src=src, seq=p.seq, null=p.is_null,
            )
        own = src == self.index
        if not own:
            self._peer_store[src][p.seq] = p
        if folded:
            return
        if not own:
            # Our own row of AL *is* REQ, which dominates the ACK vector our
            # own PDU was stamped with; and own BUF advertisements never
            # constrain our window — broadcasts land in *other* entities'
            # buffers (self-acceptance bypasses ours), so the self entry
            # stays at its non-binding initial.
            self._merge_al(src, p.ack)
            self.state.update_buf(src, p.buf)
            self._heard_from.add(src)
        self._accepted_bookkeeping(src)

    def _accepted_bookkeeping(self, src: int) -> None:
        """After acceptance from ``src``: close the gaps REQ passed, count
        it as progress (probe rule) and sample the resident peak."""
        self.gaps.close_below(src, self.state.req[src])
        self._last_learned = self._now
        self._probe_backoff = 1
        resident = self.resident_pdus
        if resident > self._resident_high_water:
            self._resident_high_water = resident

    def _drain_stash(self, src: int) -> None:
        """Accept stashed PDUs that have become in-order."""
        stash = self._stash[src]
        while True:
            nxt = stash.pop(self.state.req[src], None)
            if nxt is None:
                break
            self._stash_size -= 1
            self._accept(nxt)

    def _on_batch(self, b: BatchPdu) -> None:
        """Unbatch a frame: inner data PDUs first, header fold after.

        Each inner PDU runs the ordinary acceptance path — Theorem 4.1
        sequencing, gap detection and selective RET are untouched; batching
        is invisible to the protocol state machine.  The coalesced header
        folds *afterwards* because its ``ack[src]`` covers the batch's own
        sequence numbers: folded first, failure condition (2) would request
        retransmission of PDUs sitting in this very frame.
        """
        self.counters.recv_batches += 1
        src = b.src
        if self._is_removed(src):
            # A removed member's knowledge must not advance anyone's state;
            # only its admitted (flushed-prefix) data PDUs count, each on
            # its own.
            for p in b.pdus:
                if self._fence_admits(src, p):
                    self.counters.recv_batched_pdus += 1
                    self._on_data(p)
            return
        # Single-pass fold: the column-wise maximum of the header and every
        # inner ACK vector is merged once, so a frame of k inner PDUs costs
        # one AL row walk instead of k+1.  Folding the knowledge early is
        # monotone-sound (element-wise max of vectors the source truly
        # sent); the failure-condition-(2) check stays *after* the inner
        # PDUs, because ``ack[src]`` covers sequence numbers sitting in this
        # frame.  The header BUF (flush-stamped, freshest) lands now too.
        self._merge_al(src, b.fold_ack())
        self.state.update_buf(src, b.buf)
        self.counters.recv_batched_pdus += len(b.pdus)
        req_before = self.state.req[src]
        for p in b.pdus:
            self._on_data(p, folded=True)
        if self.state.req[src] != req_before:
            # Nothing leaves the logs before the PACK action below, so the
            # resident count peaks here.
            self._accepted_bookkeeping(src)
        self._merge_pal(src, b.pack)
        self._check_ack_gaps(b.ack, carrier=src)
        # The frame is a confirmation from its source, like a heartbeat.
        self._heard_from.add(src)
        self._owe(confirm=True)

    # ------------------------------------------------------------------
    # Failure condition (2) and RET handling (§4.3)
    # ------------------------------------------------------------------
    def _check_ack_gaps(self, ack: Tuple[int, ...], carrier: int) -> None:
        """F condition (2): a received ACK vector proves others accepted
        PDUs we have not — request them from their sources.

        The carrier's own component is *not* skipped: for a data PDU it is
        redundant with failure condition (1) (harmlessly deduplicated by the
        gap tracker), but for unsequenced control PDUs it is the only way to
        learn that the carrier itself sent data we never saw.

        REQ only grows, so a vector that named no gap names none when its
        carrier repeats it verbatim (most heartbeats on sparse traffic do):
        the last such tuple per carrier is remembered and skipped.
        """
        if self._gapless_ack.get(carrier) == ack:
            return
        gapless = type(ack) is tuple  # never remember a mutable vector
        for j in range(self.n):
            if j == self.index:
                continue
            if ack[j] > self.state.req[j]:
                gapless = False
                self._trace.record(
                    self._now, "gap", self.index,
                    kind="F2", src=j,
                    missing_from=self.state.req[j], missing_upto=ack[j],
                )
                if self.gaps.note(j, ack[j], self._now) and self._strategy is None:
                    # Under a relay topology (§16) knowledge deliberately
                    # outruns data: a relay's aggregated minima advertise
                    # PDUs still a few hops away, so an immediate RET here
                    # would storm the sources for in-flight traffic (and the
                    # bare rebroadcast answers would stale the relays they
                    # raced).  The gap is noted; the first RET comes from
                    # the tick-driven retry timer if the route never
                    # completes.
                    self._send_ret(j, ack[j])
        if gapless:
            self._gapless_ack[carrier] = ack

    def _send_ret(self, lsrc: int, upto: int) -> None:
        """The retransmission-request side of the retransmission action."""
        ret = RetPdu(
            cid=self.config.cluster_id,
            src=self.index,
            lsrc=lsrc,
            lseq=upto,
            ack=self.state.req_vector(),
            buf=self._advertised_buf(),
        )
        self.counters.sent_rets += 1
        self._trace.record(
            self._now, "ret", self.index,
            lsrc=lsrc, req_from=ret.requested_from, req_upto=upto,
        )
        self.gaps.mark_ret(lsrc, self._now)
        self._send(ret)

    def _on_ret(self, r: RetPdu) -> None:
        """The rebroadcast side of the retransmission action."""
        self._merge_al(r.src, r.ack)
        self.state.update_buf(r.src, r.buf)
        self._check_ack_gaps(r.ack, carrier=r.src)
        if r.lsrc == self.index:
            lo = r.requested_from
            if self.config.retransmission is RetransmissionScheme.GO_BACK_N:
                # Go-back-n: resend everything from the first missing PDU on.
                hi = self.sl.next_seq
            else:
                hi = min(r.requested_upto, self.sl.next_seq)
            suppressor = self._suppressors[self.index]
            for pdu in self.sl.get_range(lo, hi):
                if suppressor.should_send(pdu.seq, self._now):
                    self.counters.retransmissions += 1
                    self._trace.record(
                        self._now, "retransmit", self.index, seq=pdu.seq, to=r.src,
                    )
                    # SEQ and ACK must stay as originally sent (they are the
                    # PDU's causal coordinates, Theorem 4.1); BUF is a live
                    # advertisement, so re-stamp it — receivers fold the
                    # freshest value even from a duplicate.
                    self._send_repair(r.src, replace(pdu, buf=self._advertised_buf()))
                else:
                    self.counters.retransmissions_suppressed += 1
        elif r.lsrc in self.suspected or r.lsrc in self.evicted:
            # Peer-assisted retransmission (membership extension): the
            # source is presumed crashed — or has been evicted for good —
            # so any live holder re-serves its PDUs from the peer store
            # (after an eviction, only the flushed prefix is retained, and
            # that is exactly what a laggard or primed joiner can need).
            store = self._peer_store[r.lsrc]
            suppressor = self._suppressors[r.lsrc]
            hi = min(r.requested_upto, max(store, default=0) + 1)
            for seq in range(r.requested_from, hi):
                pdu = store.get(seq)
                if pdu is None:
                    continue
                if suppressor.should_send(seq, self._now):
                    self.counters.retransmissions += 1
                    self._trace.record(
                        self._now, "retransmit", self.index,
                        seq=seq, to=r.src, on_behalf_of=r.lsrc,
                    )
                    self._send_repair(r.src, pdu)
                else:
                    self.counters.retransmissions_suppressed += 1
        self._owe(confirm=False)

    # ------------------------------------------------------------------
    # Anti-entropy repair (robustness extension, docs/PROTOCOL.md §15)
    # ------------------------------------------------------------------
    def _repair_tick(self, now: float) -> None:
        """Tier 1: send the periodic digest when one is due."""
        if not self.repair.enabled:
            return
        candidates = [j for j in self.members if j != self.index]
        target = self.repair.digest_target(now, candidates)
        if target is None:
            return
        d = DigestPdu(
            cid=self.config.cluster_id,
            src=self.index,
            target=target,
            view=self.view,
            ack=self.state.req_vector(),
            delivered=tuple(self._delivered_floor),
            buf=self._advertised_buf(),
        )
        self.counters.digests_sent += 1
        self._trace.record(self._now, "digest", self.index, target=target)
        self._send(d)

    def _on_digest(self, d: DigestPdu) -> None:
        """Fold a digest; as its target, compare frontiers and repair.

        Bystanders only fold the carried knowledge — deliberately *without*
        the failure-condition-(2) scan, so a digest between two healed
        stragglers cannot fan out into an n-wide RET storm; the named
        target answers with targeted pulls instead, and everyone else
        learns of the same holes through ordinary data-plane traffic.
        """
        self.counters.digests_received += 1
        if d.view > self._peer_view[d.src]:
            self._peer_view[d.src] = d.view
        self._merge_al(d.src, d.ack)
        self.state.update_buf(d.src, d.buf)
        self._heard_from.add(d.src)
        if d.target == self.index:
            self._compare_digest(d)
        if d.view < self.view:
            self._resend_install_to_laggards()
        self._owe(confirm=True)

    def _compare_digest(self, d: DigestPdu) -> None:
        """Tier 2/3 decisions from one frontier comparison."""
        ranges = self.repair.plan_ranges(self.state.req, d.ack)
        if ranges:
            # Note the holes so the RET timer re-drives (and re-escalates)
            # the fetch if this pull is itself lost.
            for (lsrc, _lo, hi) in ranges:
                self.gaps.note(lsrc, hi, self._now)
            self._send_pull(d.src, ranges, reason="digest")
        deficit = self.repair.deficit(d.ack, self.state.req, skip=(d.src,))
        if self.repair.delta_due(d.src, deficit, self._now):
            self._push_delta(d.src, d.ack, deficit)

    def _pull_target(self) -> int:
        """A live peer to address an escalated pull to (rotating).

        Pulls are broadcast — the target merely names who *must* answer —
        so rotating over all non-evicted members (suspected included: after
        an asymmetric partition the holder often looks suspected from here)
        eventually lands on a peer that both holds the data and can reach
        us.
        """
        candidates = sorted(self.members - {self.index}) or [self.index]
        target = candidates[self._pull_rotation % len(candidates)]
        self._pull_rotation += 1
        return target

    def _send_pull(self, target: int, ranges: Sequence[Tuple[int, int, int]], reason: str) -> None:
        pull = RepairPullPdu(
            cid=self.config.cluster_id,
            src=self.index,
            target=target,
            ranges=tuple(ranges),
            ack=self.state.req_vector(),
            buf=self._advertised_buf(),
        )
        self.counters.pulls_sent += 1
        self.counters.pull_ranges_requested += len(ranges)
        self._trace.record(
            self._now, "pull", self.index,
            target=target, ranges=len(ranges), pdus=pull.requested_pdus,
            reason=reason,
        )
        self._send(pull)

    def _on_repair_pull(self, p: RepairPullPdu) -> None:
        """Serve a repair pull addressed to this entity."""
        self._merge_al(p.src, p.ack)
        self.state.update_buf(p.src, p.buf)
        self._check_ack_gaps(p.ack, carrier=p.src)
        if p.target == self.index and not self.joining:
            self._serve_ranges(p)
        self._owe(confirm=False)

    def _serve_ranges(self, p: RepairPullPdu) -> None:
        """Re-send the requested ranges from the resident stores.

        Own PDUs come from the sending log (BUF re-stamped, SEQ/ACK
        untouched — they are the causal coordinates); other sources' from
        the peer store, verbatim.  Bounded to ``DELTA_SYNC_MAX_PDUS`` per
        answer, suppressor-gated like RET answers so several stragglers
        pulling the same ranges cannot multiply the rebroadcasts.
        """
        served = 0
        served_bytes = 0
        ranges_served = 0
        cap = DELTA_SYNC_MAX_PDUS
        for (lsrc, lo, hi) in p.ranges:
            if served >= cap:
                break
            if not 0 <= lsrc < self.n:
                continue
            hit = False
            suppressor = self._suppressors[lsrc]
            if lsrc == self.index:
                for pdu in self.sl.get_range(lo, min(hi, self.sl.next_seq)):
                    if served >= cap:
                        break
                    if suppressor.should_send(pdu.seq, self._now):
                        out = replace(pdu, buf=self._advertised_buf())
                        self.counters.retransmissions += 1
                        served += 1
                        served_bytes += out.wire_size()
                        hit = True
                        self._send_repair(p.src, out)
                    else:
                        self.counters.retransmissions_suppressed += 1
            else:
                store = self._peer_store[lsrc]
                for seq in range(lo, min(hi, max(store, default=0) + 1)):
                    pdu = store.get(seq)
                    if pdu is None:
                        continue
                    if served >= cap:
                        break
                    if suppressor.should_send(seq, self._now):
                        self.counters.retransmissions += 1
                        served += 1
                        served_bytes += pdu.wire_size()
                        hit = True
                        self._send_repair(p.src, pdu)
                    else:
                        self.counters.retransmissions_suppressed += 1
            if hit:
                ranges_served += 1
        if not served:
            return
        self.counters.pull_ranges_served += ranges_served
        self.counters.pull_pdus_served += served
        self.counters.repair_bytes += served_bytes
        if p.requested_pdus >= self.config.delta_sync_threshold:
            # A pull this large is the tier-3 path: a bounded partial state
            # transfer standing in for what used to need a full snapshot.
            self.counters.delta_syncs += 1
        self._trace.record(
            self._now, "pull-serve", self.index,
            to=p.src, ranges=ranges_served, pdus=served, bytes=served_bytes,
        )

    def _push_delta(self, to: int, their_ack: Sequence[int], deficit: int) -> None:
        """Tier 3, push side: feed a straggler everything it provably lacks.

        Driven by the straggler's own digest, bounded per burst and
        rate-limited per peer by :meth:`RepairManager.delta_due`; unlike
        :meth:`_serve_ranges` it skips the suppressors — the rate limit
        already bounds it, and a healed straggler must not be starved just
        because some third party recently pulled the same seqs.
        """
        sent = 0
        sent_bytes = 0
        cap = DELTA_SYNC_MAX_PDUS
        for j in range(self.n):
            if sent >= cap:
                break
            if j == to:
                continue
            lo, hi = their_ack[j], self.state.req[j]
            if hi <= lo:
                continue
            if j == self.index:
                for pdu in self.sl.get_range(lo, hi):
                    if sent >= cap:
                        break
                    out = replace(pdu, buf=self._advertised_buf())
                    self.counters.retransmissions += 1
                    sent += 1
                    sent_bytes += out.wire_size()
                    self._send_repair(to, out)
            else:
                store = self._peer_store[j]
                for seq in range(lo, hi):
                    if sent >= cap:
                        break
                    pdu = store.get(seq)
                    if pdu is None:
                        continue
                    self.counters.retransmissions += 1
                    sent += 1
                    sent_bytes += pdu.wire_size()
                    self._send_repair(to, pdu)
        if not sent:
            # Nothing resident matched the deficit (all pruned): the peer's
            # rate-limit interval is *not* burned — the next digest may find
            # a servable deficit and must not be suppressed by this no-op.
            return
        self.repair.mark_delta(to, self._now)
        self.counters.delta_syncs += 1
        self.counters.delta_pdus_sent += sent
        self.counters.repair_bytes += sent_bytes
        self._trace.record(
            self._now, "delta", self.index,
            to=to, pdus=sent, bytes=sent_bytes, deficit=deficit,
        )

    # ------------------------------------------------------------------
    # Heartbeats (quiescence extension, DESIGN.md §2)
    # ------------------------------------------------------------------
    def _on_heartbeat(self, h: HeartbeatPdu) -> None:
        if h.view > self._peer_view[h.src]:
            self._peer_view[h.src] = h.view
        self._merge_al(h.src, h.ack)
        self._merge_pal(h.src, h.pack)
        self.state.update_buf(h.src, h.buf)
        self._check_ack_gaps(h.ack, carrier=h.src)
        # Heartbeats count as "heard from" for the deferred-confirmation
        # trigger even though they are not accepted into any log.
        self._heard_from.add(h.src)
        # The answers are owed to the turn's end, after its PACK scan, so
        # they carry the vectors everything read so far produced.
        if h.probe:
            if h.src not in self._owed_probes:
                self._owed_probes.append(h.src)
        else:
            self._owed_stale[h.src] = h
        if h.view < self.view:
            # The peer missed a view installation (its heartbeat still
            # announces the old view): re-send the install, rate-limited.
            self._owed_install = True
        self._owe(confirm=True)

    def _owe(self, confirm: bool) -> None:
        """End a PDU's intake: the speaking steps are owed to the turn, and
        run now unless more of its input waits (docs/PROTOCOL.md §7).
        Immediate confirmation opts out: it confirms per receipt."""
        if (
            self.config.confirmation is not ConfirmationMode.IMMEDIATE
            and self._more_input()
        ):
            self._owed = True
            if confirm:
                self._owed_confirm = True
        else:
            self._settle(confirm)

    def _settle(self, confirm: bool = False) -> None:
        """Run what the turn owes, once: PACK scan, heard-from-all
        confirmation, probe answers, at most one stale-peer answer, install
        re-send, pump — each handler's tail, in the order it ran them."""
        self._owed = False
        self._pack_action()
        if confirm or self._owed_confirm:
            self._owed_confirm = False
            self._maybe_confirm()
        if self._owed_probes:
            probers, self._owed_probes = self._owed_probes, []
            for src in probers:
                # The prober is stuck on knowledge it cannot name (e.g. its
                # minPAL lags because OUR last heartbeat to it was lost):
                # repeat our vectors to it, and to it alone.  Every probe is
                # answered — the prober's back-off is the rate limit.
                # Whether it "trails us" cannot be read off the probe: its
                # ``ack`` / ``pack`` are its own floors, not its copy of
                # *our* row, so a prober that holds every PDU but lost our
                # last heartbeat looks caught-up.
                self._answer_probe(src)
        beats = self._owed_stale
        if beats:
            stale = self._may_announce(self._now) and any(
                h.ack[j] < self.state.req[j] or h.pack[j] < self._preack_floor[j]
                for h in beats.values() for j in range(self.n)
            )
            beats.clear()
            if stale:
                # A peer's vectors trail ours — it missed a confirmation,
                # and heartbeats are unsequenced, so loss leaves no gap to
                # detect.  (The O(1) rate limit goes first: most heartbeats
                # land inside the deferred window, and the staleness scan
                # is O(n).)  It is answered only when our vectors changed
                # since we last confirmed: repeating unchanged ones for
                # every pairwise staleness during convergence is a
                # broadcast per heartbeat, and at large n the mutual
                # answers overrun the receive buffers, which keeps everyone
                # stale — a self-sustaining storm.  A peer that lost our
                # *last* confirmation stays needy and probes.
                self._send_confirmation(force=True)
        if self._owed_install:
            self._owed_install = False
            self._resend_install_to_laggards()
        self._pump()

    # ------------------------------------------------------------------
    # Pre-acknowledgment and acknowledgment (§4.4, §4.5)
    # ------------------------------------------------------------------
    def _pack_action(self) -> None:
        """Move PDUs satisfying the PACK condition from RRL to PRL via CPI.

        Beyond the paper's PACK condition (``p.seq < minAL_{p.src}``), a PDU
        only moves once **every causal predecessor it names has moved**
        (:meth:`_deps_preacked`).  The paper's Proposition 4.3 derives this
        ordering from Lemma 4.2's ACK monotonicity, but the paper itself
        notes (after Lemma 4.2, Fig. 6 discussion) that a *lost* PDU breaks
        that monotonicity: an entity accepts ``q`` whose ACK vector names a
        predecessor ``p`` it never received, its subsequent confirmations
        regress below ``q``'s ACK, and ``q`` can reach the PACK condition
        cluster-wide while ``p`` is still being retransmitted — after which
        ``q`` would be acknowledged and *delivered before* ``p``.  Gating on
        the predecessor floor restores Proposition 4.3 deterministically
        (see DESIGN.md, "correctness completion").

        The scan is **event-driven** rather than a fixpoint over all ``n``
        sublogs: it drains the dirty-source worklist (``_pack_dirty``),
        which collects every event that can newly satisfy the two clauses —

        * ``minAL_j`` rose → every AL merge reports its dirty columns
          (:meth:`_merge_al` queues them);
        * sublog ``j`` gained a head → :meth:`_accept` queues ``j``;
        * a predecessor floor rose → moving a PDU from ``E_j`` re-queues
          the sources parked in ``_dep_waiters[j]``;
        * exclusions changed → :meth:`_suspect` queues every source.

        A source whose head is dep-blocked parks itself on the *first*
        unmet predecessor and is re-queued when that floor rises (then
        re-parks on the next unmet one, if any), so the worklist reaches
        exactly the moves the fixpoint reached — see DESIGN.md,
        "incremental PACK scan".  All newly pre-acknowledged PDUs are
        CPI-inserted before any delivery decision runs, so a mid-batch
        delivery can never jump a predecessor.

        The paper's PAL rule — a pre-acknowledged PDU's ACK vector certifies
        what its sender had accepted — folds one vector per source per pass:
        the column-wise maximum of that source's dequeued ACK vectors, which
        is what merging them one by one amounts to.  Not just the last one:
        a rejoined incarnation's first vector can sit below its
        predecessor's last (:meth:`_apply_snapshot` replaces REQ).
        """
        newly: List[DataPdu] = []
        # Per source, the ACK vectors of the PDUs this pass dequeued.
        acks: Dict[int, List[Tuple[int, ...]]] = {}
        work = self._pack_dirty
        rrl, prl, floor = self.rrl, self.prl, self._preack_floor
        dep_waiters = self._dep_waiters
        min_al = self.state.min_al
        record, now, me = self._record_pdu, self._now, self.index
        while work:
            # Lowest source first: deterministic, and it reproduces the
            # ascending-source visit order of the paper's worked example
            # (Example 4.1's PRL ⟨a c b d e⟩) that the old fixpoint had.
            j = min(work)
            work.discard(j)
            self.counters.pack_source_scans += 1
            threshold = min_al(j)
            p = rrl.top(j)
            while p is not None and p.seq < threshold:
                blocker = self._first_unmet_dep(p)
                if blocker is not None:
                    self.counters.pack_dep_blocks += 1
                    dep_waiters[blocker].add(j)
                    break
                rrl.dequeue(j)
                floor[j] = p.seq + 1
                prl.insert(p)
                if record is not None:
                    record(now, "preack", me, src=j, seq=p.seq)
                newly.append(p)
                acks.setdefault(j, []).append(p.ack)
                waiters = dep_waiters[j]
                if waiters:
                    work.update(waiters)
                    waiters.clear()
                p = rrl.top(j)
        if newly:
            self.counters.preacknowledged += len(newly)
            self.counters.cpi_fast_appends = prl.fast_appends
            self.counters.cpi_scan_inserts = prl.scan_inserts
            for j, vectors in acks.items():
                self.state.merge_pal(
                    j, vectors[0] if len(vectors) == 1 else tuple(map(max, *vectors)),
                )
            # Our own PAL row is our own (true) pre-acknowledgment floor.
            self.state.merge_pal(self.index, tuple(floor))
            if self.config.delivery_level is DeliveryLevel.PREACKNOWLEDGED:
                self._deliver_batch_in_prl_order(newly)
        self._ack_action()

    def _first_unmet_dep(self, p: DataPdu) -> Optional[int]:
        """The first source whose pre-acknowledgment floor still blocks ``p``.

        ``p.ack[j]`` says ``p``'s sender had accepted every PDU from ``E_j``
        below it when sending ``p`` — all of those causally precede ``p``
        (Theorem 4.1), so they must enter PRL first.  Returns ``None`` when
        every named predecessor has been pre-acknowledged.  For ``j ==
        p.src`` the check is vacuous: RRL order already sequences
        same-source PDUs.
        """
        floor = self._preack_floor
        ack = p.ack
        src = p.src
        for j in range(self.n):
            if j != src and ack[j] > floor[j]:
                return j
        return None

    def _deliver_batch_in_prl_order(self, batch: List[DataPdu]) -> None:
        """PREACKNOWLEDGED ablation: deliver a freshly pre-acked batch in
        PRL (causality) order.  Safe because every causal predecessor of a
        batch member is already in PRL or acknowledged (Proposition 4.3)."""
        members = {p.pdu_id for p in batch}
        for p in self.prl:
            if p.pdu_id in members:
                self._deliver(p)

    def _ack_action(self) -> None:
        """Acknowledge the PRL prefix satisfying the ACK condition; deliver.
        Nothing is kept: ``_delivered_floor`` is ARL (DESIGN.md §21)."""
        prl = self.prl
        p = prl.top
        if p is not None:
            min_pal = self.state.min_pal
            floor = self._delivered_floor
            counters = self.counters
            record, now, me = self._record_pdu, self._now, self.index
            on_acknowledged = self._on_acknowledged  # overridable hook
            while p is not None:
                src, seq = p.src, p.seq
                if seq >= min_pal(src):
                    break
                prl.popleft()
                floor[src] = seq + 1
                counters.acknowledged += 1
                if record is not None:
                    record(now, "ack", me, src=src, seq=seq)
                on_acknowledged(p)
                p = prl.top
        self._prune()

    def _on_acknowledged(self, p: DataPdu) -> None:
        """Hook: a PDU just reached the acknowledged level.

        The base engine delivers here (unless the PREACKNOWLEDGED ablation
        already did); the total-order extension overrides this to hold
        acknowledged PDUs back until their global rank is decided.
        """
        if self.config.delivery_level is DeliveryLevel.ACKNOWLEDGED:
            self._deliver(p)

    def _deliver(self, p: DataPdu) -> None:
        """Hand a PDU's data to the application (null PDUs deliver nothing)."""
        if p.is_null:
            return
        if self._deliver_fn is None:
            raise ProtocolError("engine used before bind()")
        self.counters.delivered += 1
        if self._record_pdu is not None:
            self._record_pdu(self._now, "deliver", self.index, src=p.src, seq=p.seq)
        # Positional: a frozen dataclass builds faster without keywords.
        self._deliver_fn(DeliveredMessage(p.data, p.src, p.seq, self._now))

    def _prune(self) -> None:
        """Release sent PDUs no entity can still request (§5 buffer bound).

        Pruning uses the all-rows minimum (suspects included): a suspected
        entity may be merely slow and return with retransmission requests,
        so nothing above its last known expectations may be dropped.  The
        price is that a permanently dead member freezes its column and the
        stores stop shrinking past it; a real deployment would eventually
        evict the member for good (view change — out of scope here).
        """
        # Event-driven: only the columns whose all-rows minimum actually
        # moved since the last prune can raise a release floor, and the
        # state tracks exactly those (a full per-PDU sweep of all n
        # sources made every acknowledgment O(n)).
        for j in self.state.drain_al_all_dirty():
            keep_from = self.state.min_al_all_rows(j)
            # Store entries are accepted PDUs, so their seqs only grow past
            # any floor already applied: an unmoved floor means nothing to do.
            if keep_from <= self._pruned_below[j]:
                continue
            self._pruned_below[j] = keep_from
            self._suppressors[j].forget_below(keep_from)
            if j == self.index:
                self.sl.prune_below(keep_from)
                continue
            store = self._peer_store[j]
            if not store:
                continue
            for seq in [s for s in store if s < keep_from]:
                del store[seq]

    # ------------------------------------------------------------------
    # Membership (crash-stop extension)
    # ------------------------------------------------------------------
    def _suspect(self, j: int) -> None:
        """Exclude a silent entity from every progress condition.

        Pre-acknowledgment and acknowledgment now mean "by every *live*
        entity"; the flow window stops waiting for ``j``'s confirmations;
        RETs addressed to ``j`` are answered by live holders.  Suspicion is
        revocable: any PDU from ``j`` re-includes it.
        """
        if j not in self.suspected:
            # Always restart the eviction clock on a *fresh* suspicion.
            # The old ``setdefault`` let a re-suspected peer inherit a
            # stale first-suspected timestamp whenever any path skipped
            # the dict cleanup, promoting it to eviction prematurely.
            self._suspect_since[j] = self._now
        self.suspected.add(j)
        self._live_others = None
        self.state.set_excluded(j, True)
        self._heard_from.discard(j)
        self._trace.record(
            self._now, "suspect", self.index,
            src=j, silent_for=self._now - self._last_heard[j],
            phi=(
                round(self.detector.last_phi(j), 3)
                if self.detector is not None else None
            ),
        )
        # The minima may have risen the moment the laggard's rows stopped
        # counting, for any source: dirty them all and re-run the pipeline.
        self._pack_dirty.update(range(self.n))
        self._pack_action()
        self._pump()

    def _unsuspect(self, j: int) -> None:
        """A suspected entity spoke: re-include it (it was merely slow)."""
        self.suspected.discard(j)
        self._live_others = None
        self._suspect_since.pop(j, None)
        self.state.set_excluded(j, False)
        self._trace.record(self._now, "unsuspect", self.index, src=j)

    # ------------------------------------------------------------------
    # View change: agreed eviction + flush (crash-recovery extension)
    # ------------------------------------------------------------------
    @property
    def _live_members(self) -> Set[int]:
        return self.members - self.suspected

    @property
    def _is_coordinator(self) -> bool:
        live = self._live_members
        return bool(live) and self.index == min(live)

    def _maybe_propose_eviction(self, now: float) -> None:
        """Coordinator: promote over-ripe suspicions to an eviction round.

        Only the lowest live member proposes (one coordinator per view
        avoids duelling rounds), and only while the surviving members keep
        a strict majority of the installed view — a minority partition
        stalls rather than splitting the brain.
        """
        et = self.config.evict_timeout
        if et is None or self._round is not None or not self._is_coordinator:
            return
        overripe = {
            j
            for j in (self.members & self.suspected)
            if now - self._suspect_since.get(j, now) >= et
            # Adaptive mode additionally requires the phi score to have
            # crossed ``phi_evict`` — the band between the thresholds
            # absorbs gray failures (slow, jittery, paused peers) that
            # deserve exclusion but not a view change.  Fence-driven
            # suspicions (round already removing the member) are exempt:
            # with a round in progress this method never runs.
            and (self.detector is None or self.detector.evict_ready(j))
        }
        if not overripe:
            return
        survivors = self.members - overripe
        if self.index not in survivors or 2 * len(survivors) <= len(self.members):
            return
        self._start_round(
            view_id=self.view + 1,
            new_members=tuple(sorted(survivors)),
            now=now,
        )

    def _start_round(self, view_id: int, new_members: Tuple[int, ...], now: float) -> None:
        self._round = ViewChangeRound(
            view_id=view_id,
            members=new_members,
            proposer=self.index,
            agreed={self.index: self.state.req_vector()},
            last_sent=now,
            adopted_at=now,
        )
        self._apply_round_fences()
        self.counters.view_proposals += 1
        self._trace.record(
            self._now, "view-propose", self.index,
            view=view_id, members=list(new_members),
        )
        self._send_view_pdu("propose")

    def _send_view_pdu(self, phase: str) -> None:
        r = self._round
        self._send(ViewChangePdu(
            cid=self.config.cluster_id,
            src=self.index,
            view=r.view_id,
            phase=phase,
            members=r.members,
            ack=self.state.req_vector(),
            buf=self._advertised_buf(),
            flush=r.flush if phase == "install" else (),
        ))

    def _apply_round_fences(self) -> None:
        """Fence members the pending round removes (caps once flush known)."""
        r = self._round
        if r is None:
            return
        for m in self.members - set(r.members):
            self._flush_cap[m] = r.flush[m] if r.flush is not None else None
            self._heard_from.discard(m)
            # The removed member no longer gates progress even before the
            # install: agreement to remove it is already underway.
            if m not in self.suspected and m != self.index:
                self._suspect(m)

    def _on_view_change(self, vc: ViewChangePdu) -> None:
        """One phase PDU of a membership agreement arrived."""
        self._merge_al(vc.src, vc.ack)
        self.state.update_buf(vc.src, vc.buf)
        self._check_ack_gaps(vc.ack, carrier=vc.src)
        if vc.view <= self.view:
            # A peer is re-running a view we already installed: help it
            # converge by re-sending our install (rate-limited).
            self._resend_install_to_laggards()
        else:
            self._adopt_or_update_round(vc)
        self._pack_action()
        self._pump()

    def _adopt_or_update_round(self, vc: ViewChangePdu) -> None:
        if self.index not in vc.members:
            # A round that removes *us* (we are the partitioned minority in
            # the majority's eyes): never adopt or countersign it.  If it
            # installs, our traffic is fenced and re-entry goes through the
            # join protocol at host level.
            return
        r = self._round
        adopt = (
            r is None
            or vc.view > r.view_id
            or (vc.view == r.view_id and vc.members != r.members
                and vc.src < r.proposer)
        )
        if adopt:
            self._round = r = ViewChangeRound(
                view_id=vc.view,
                members=vc.members,
                proposer=vc.src if vc.phase == "propose" else min(vc.members),
                adopted_at=self._now,
            )
            self._apply_round_fences()
        if r.view_id != vc.view or r.members != vc.members:
            return  # a conflicting round we are not following
        # The sender's ACK vector counts as its agreement for every phase:
        # propose implies the proposer agrees, agree is explicit, and an
        # install carries the coordinator's final word.
        newly = vc.src not in r.agreed
        r.agreed[vc.src] = vc.ack
        if self.index not in r.agreed or (vc.phase == "propose" and newly):
            r.agreed[self.index] = self.state.req_vector()
            self._trace.record(
                self._now, "view-agree", self.index,
                view=r.view_id, members=list(r.members),
            )
            r.last_sent = self._now
            self._send_view_pdu("agree")
        if vc.phase == "install" and vc.flush:
            r.flush = tuple(vc.flush)
            self._apply_round_fences()
            # The flush vector is delivery evidence: fetch whatever it
            # covers that we have not accepted yet (peer-assisted for the
            # removed members' PDUs).
            self._check_ack_gaps(r.flush, carrier=vc.src)
        self._maybe_publish_flush()
        self._try_install()

    def _maybe_publish_flush(self) -> None:
        """Coordinator: all members agreed — publish the flush vector."""
        r = self._round
        if (
            r is None
            or r.proposer != self.index
            or r.flush is not None
            or any(m not in r.agreed for m in r.members)
        ):
            return
        vectors = [r.agreed[m] for m in r.members]
        r.flush = tuple(max(v[k] for v in vectors) for k in range(self.n))
        self._apply_round_fences()
        r.last_sent = self._now
        self._send_view_pdu("install")
        self._try_install()

    def _try_install(self) -> None:
        """Install the agreed view once our REQ covers the flush vector.

        The flush barrier is the no-delivery-gap rule: every PDU any
        agreeing member had accepted (in particular the removed members'
        stable-but-undelivered tail) is accepted *here* before the old
        view's gating rows disappear, so the shrunken minima can only
        release PDUs every survivor holds.
        """
        r = self._round
        if r is None or r.flush is None:
            return
        if any(self.state.req[k] < r.flush[k] for k in range(self.n)):
            return  # still fetching the flushed prefix; RET timers drive it
        removed = self.members - set(r.members)
        added = set(r.members) - self.members
        for m in removed:
            self.evicted.add(m)
            self.suspected.discard(m)
            self._suspect_since.pop(m, None)
            self._flush_cap[m] = r.flush[m]
            self.state.set_evicted(m, True)
            # The install barrier just proved REQ_m >= flush_m, so any gap
            # still open for the member targets seqs at or above the flush
            # — PDUs that never existed as far as the surviving view is
            # concerned.  Left in place, its RET timer would re-request
            # them from the dead peer forever; the matching stashed copies
            # (accepted by nobody, so necessarily above the flush) would
            # likewise never drain and block quiescence.  Drop both.
            self.gaps.drop_source(m)
            stale = self._stash[m]
            if stale:
                self._stash_size -= len(stale)
                self._trace.record(
                    self._now, "stash-drop", self.index, src=m, count=len(stale),
                )
                stale.clear()
            # Per-peer repair bookkeeping dies with the membership: a
            # timestamp surviving into the member's next incarnation would
            # suppress its first post-rejoin delta burst.
            self.repair.forget_peer(m)
            if self.detector is not None:
                self.detector.forget(m, self._now)
            self.counters.evictions += 1
            self._trace.record(
                self._now, "evict", self.index, src=m, flush=r.flush[m],
            )
        for m in added:
            if m == self.index:
                continue  # our own re-admission is handled below
            # Raise the returning member's stale rows to its announced
            # frontier before its rows gate the minima again.
            if m in r.agreed:
                self.state.merge_al(m, r.agreed[m])
                self.state.merge_pal(m, r.agreed[m])
            self.evicted.discard(m)
            self._flush_cap.pop(m, None)
            self.state.set_evicted(m, False)
            self.suspected.discard(m)
            self._suspect_since.pop(m, None)
            self._last_heard[m] = self._now
            # Fresh incarnation, fresh repair bookkeeping: its first delta
            # burst must not be rate-limited by the previous incarnation —
            # and fresh liveness statistics, for the same reason.
            self.repair.forget_peer(m)
            if self.detector is not None:
                self.detector.forget(m, self._now)
            self._trace.record(self._now, "readmit", self.index, src=m)
        self.members = set(r.members)
        self._live_others = None
        self.view = r.view_id
        self.view_log.append((r.view_id, tuple(sorted(r.members))))
        self._peer_view[self.index] = r.view_id
        self.counters.view_installs += 1
        self._trace.record(
            self._now, "view-install", self.index,
            view=r.view_id, members=list(r.members), flush=list(r.flush),
        )
        self._last_install_pdu = ViewChangePdu(
            cid=self.config.cluster_id,
            src=self.index,
            view=r.view_id,
            phase="install",
            members=r.members,
            ack=self.state.req_vector(),
            buf=self._advertised_buf(),
            flush=r.flush,
        )
        self._round = None
        if self.index in added or self.joining and self.index in self.members:
            # Re-admitted: become a full member again.
            self.joining = False
            self._join_primed = False
            self._last_heard = [self._now] * self.n
            if self.detector is not None:
                self.detector.reset_all(self._now)
        # Membership changed under every condition: re-run the pipeline for
        # every source, and announce the new view at once (the heartbeat
        # carries it).
        self._pack_dirty.update(range(self.n))
        self._pack_action()
        self._send_confirmation(force=True, resend=True)

    def _drive_view_round(self, now: float) -> None:
        """Retry the pending round's phase PDUs; they travel a lossy world."""
        r = self._round
        if r is not None:
            if (
                r.proposer != self.index
                and r.proposer in self.suspected
                and now - r.adopted_at >= 4 * (self.config.evict_timeout or 0.0)
                and r.flush is None
            ):
                # The coordinator died mid-round before publishing a flush:
                # abandon, lift the fences, and let the next coordinator
                # propose afresh.
                for m in self.members - set(r.members):
                    self._flush_cap.pop(m, None)
                self._round = None
                return
            if now - r.last_sent >= self.config.ret_timeout:
                r.last_sent = now
                if r.proposer == self.index:
                    self._send_view_pdu("install" if r.flush is not None else "propose")
                elif self.index in r.members:
                    self._send_view_pdu("agree")
            self._try_install()
            return
        self._resend_install_to_laggards()

    def _resend_install_to_laggards(self) -> None:
        """Re-send our last install while a live member trails the view."""
        pdu = self._last_install_pdu
        if pdu is None:
            return
        laggards = [
            m for m in self.members
            if m != self.index and self._peer_view[m] < self.view
        ]
        if not laggards:
            return
        if self._now - self._install_resend_at < self.config.ret_timeout:
            return
        self._install_resend_at = self._now
        self._send(replace(pdu, ack=self.state.req_vector(), buf=self._advertised_buf()))

    # ------------------------------------------------------------------
    # Rejoin: join request + state transfer (crash-recovery extension)
    # ------------------------------------------------------------------
    def _join_tick(self, now: float) -> None:
        """Rejoining incarnation: solicit a snapshot, then re-admission."""
        if self._join_primed:
            # Primed: the re-admission round and the fetch of the missing
            # flushed prefix need their retry timers even while joining.
            self._drive_view_round(now)
            for gap in self.gaps.due(now, self.config.ret_timeout):
                self._send_ret(gap.src, gap.upto)
        if now - self._last_join_at < 2 * self.config.deferred_interval:
            return
        self._last_join_at = now
        self.counters.joins_sent += 1
        self._trace.record(
            self._now, "join", self.index, ready=self._join_primed,
        )
        self._send(JoinPdu(
            cid=self.config.cluster_id,
            src=self.index,
            buf=self._advertised_buf(),
            ready=self._join_primed,
        ))

    def _on_join(self, j: JoinPdu) -> None:
        """A crashed-and-restarted member asks to re-enter the cluster."""
        if self.joining or j.src == self.index:
            return
        if j.src not in self.evicted:
            # Either never evicted (a restart raced the eviction — the
            # suspicion machinery will evict the silent old incarnation
            # first) or already re-admitted (stale retry): nothing to do.
            return
        if not self._is_coordinator:
            return  # the sponsor is the coordinator — one snapshot, one round
        if not j.ready:
            if self._now - self._last_state_served_at < 2 * self.config.deferred_interval:
                return
            self._last_state_served_at = self._now
            self.counters.state_transfers += 1
            self._trace.record(
                self._now, "state-transfer", self.index, joiner=j.src,
            )
            self._send(StatePdu(
                cid=self.config.cluster_id,
                src=self.index,
                joiner=j.src,
                view=self.view,
                members=tuple(sorted(self.members)),
                ack=self.state.req_vector(),
                pack=tuple(self._preack_floor),
                buf=self._advertised_buf(),
            ))
            return
        if self._round is not None:
            return  # re-admission starts once the current round settles
        self._trace.record(self._now, "view-propose", self.index,
                           view=self.view + 1,
                           members=sorted(self.members | {j.src}))
        self.counters.view_proposals += 1
        self._round = ViewChangeRound(
            view_id=self.view + 1,
            members=tuple(sorted(self.members | {j.src})),
            proposer=self.index,
            agreed={self.index: self.state.req_vector()},
            last_sent=self._now,
            adopted_at=self._now,
        )
        self._send_view_pdu("propose")

    def _on_state(self, s: StatePdu) -> None:
        """A sponsor's snapshot arrived."""
        if s.joiner == self.index and self.joining:
            if not self._join_primed:
                self._apply_snapshot(s)
            return
        # Bystanders fold the sponsor's vectors as ordinary knowledge.
        self._merge_al(s.src, s.ack)
        self._merge_pal(s.src, s.pack)
        self.state.update_buf(s.src, s.buf)
        self._check_ack_gaps(s.ack, carrier=s.src)
        self._pack_action()
        self._pump()

    def _apply_snapshot(self, s: StatePdu) -> None:
        """Prime this rejoining incarnation at the sponsor's frontier.

        The eviction flush pinned every survivor's expectation of us at
        exactly the flush value, so we resume our own numbering there; our
        REQ jumps to the sponsor's frontier, below which nothing will ever
        be handed to us: ``recovered_frontier`` (DESIGN.md §21).
        """
        self.view = s.view
        self.members = set(s.members)
        self._live_others = None
        self.view_log.append((s.view, tuple(sorted(s.members))))
        self._peer_view[s.src] = max(self._peer_view[s.src], s.view)
        # Whoever the snapshot's member list omits was evicted while we
        # were down (membership only shrinks by eviction): mirror that, or
        # their frozen initial rows would gate our minima forever.
        self.evicted = set(range(self.n)) - self.members - {self.index}
        for m in self.evicted:
            self._flush_cap.setdefault(m, None)
            self.state.set_evicted(m, True)
        self.state.req = list(s.ack)
        self._gapless_ack.clear()  # REQ was replaced, not grown
        self.sl.start_at(s.ack[self.index])
        self._preack_floor = list(s.pack)
        self.state.merge_al(self.index, s.ack)
        self.state.merge_al(s.src, s.ack)
        self.state.merge_pal(self.index, s.pack)
        self.state.merge_pal(s.src, s.pack)
        self.state.update_buf(s.src, s.buf)
        # Nothing below the frontier will be delivered here, so the
        # digest's delivered floor resumes there too.
        self._delivered_floor = list(s.ack)
        self.recovered_frontier = s.ack
        self._join_primed = True
        self._last_heard = [self._now] * self.n
        if self.detector is not None:
            self.detector.reset_all(self._now)
        self._trace.record(
            self._now, "state-transfer", self.index,
            sponsor=s.src, view=s.view, applied=True, frontier=list(s.ack),
        )
        # Announce readiness immediately — the sponsor's re-admission round
        # is waiting on it.
        self._last_join_at = self._now
        self.counters.joins_sent += 1
        self._trace.record(self._now, "join", self.index, ready=True)
        self._send(JoinPdu(
            cid=self.config.cluster_id,
            src=self.index,
            buf=self._advertised_buf(),
            ready=True,
        ))

    # ------------------------------------------------------------------
    # Deferred confirmation (§5)
    # ------------------------------------------------------------------
    def _live_peers(self) -> Set[int]:
        if self._live_others is None:
            self._live_others = self.members - {self.index} - self.suspected
        return self._live_others

    def _maybe_confirm(self) -> None:
        """Send a confirming PDU when the deferred rule fires."""
        if self.config.confirmation is ConfirmationMode.IMMEDIATE:
            self._send_confirmation(force=False)
            return
        live_others = self._live_peers()
        if live_others and self._heard_from >= live_others:
            self._send_confirmation(force=False)

    def _may_announce(self, now: float) -> bool:
        """May a timer-paced confirmation go out?  Read before you announce.

        ``deferred_interval`` since the last transmission, and less than a
        round of input — one PDU per live peer — unread in the inbox.  A
        backlogged member has not established that anyone is silent (why §5
        has a timer at all), input that has *already arrived* is about to
        supersede its vectors, and n−1 receivers would each pay an n-wide
        merge for the stale copy.  The heard-from-all round, the keepalive,
        probes and their answers never ask (docs/PROTOCOL.md §7).
        """
        if now - self._last_send_time < self.config.deferred_interval:
            return False
        unread = self._buf_empty - self._advertised_buf()
        return unread < max(1, len(self._live_peers()) * self.config.units_per_pdu)

    def _send_confirmation(self, force: bool, resend: bool = False, probe: bool = False) -> None:
        """Emit receipt confirmations.

        Pending application data takes priority — a data PDU carries the
        same ACK vector.  Otherwise strict paper mode sends a sequenced
        null-data PDU (bypassing the flow window only when the deferred
        timer forces it); extension mode sends an unsequenced heartbeat.
        ``resend`` bypasses the nothing-new suppression, repeating the last
        heartbeat — the loss-recovery path for unsequenced control PDUs.
        """
        if self.joining:
            # A rejoining incarnation has no confirmable state yet; its only
            # voice is the join protocol.
            return
        if self._pending and self._pump():
            return
        # No data, or flow-blocked data: confirm out of band (the heartbeat
        # also refreshes our BUF advertisement, which is what usually
        # reopens the window).
        if self.config.strict_paper_mode:
            if self.state.req_vector() == self._last_confirmed_req:
                return
            decision = self.flow.check(self.sl.next_seq)
            if decision.allowed or force:
                self._broadcast_data(None, 0)
                self._pack_action()
            return
        req = self.state.req_vector()
        pack = tuple(self._preack_floor)
        if (
            not resend
            and req == self._last_confirmed_req
            and pack == self._last_confirmed_pack
        ):
            return
        hb = self._heartbeat(req, pack, probe)
        self._last_confirmed_req = req
        self._last_confirmed_pack = pack
        self._heard_from.clear()
        self._last_send_time = self._now
        self._send(hb)

    def _heartbeat(self, req: Tuple[int, ...], pack: Tuple[int, ...], probe: bool) -> HeartbeatPdu:
        """Build, count and trace one heartbeat frame about to be sent."""
        self.counters.sent_heartbeats += 1
        if probe:
            self.counters.probes_sent += 1
            self._trace.record(self._now, "heartbeat", self.index, probe=True)
        elif self._record_pdu is not None:
            self._record_pdu(self._now, "heartbeat", self.index)
        return HeartbeatPdu(
            cid=self.config.cluster_id,
            src=self.index,
            ack=req,
            pack=pack,
            buf=self._advertised_buf(),
            # A probe says "I am stuck; please re-send me your state."
            # Fresh confirmations and probe *answers* are not probes, so
            # answering cannot ping-pong between drained entities.
            probe=probe,
            view=self.view,
        )

    def _answer_probe(self, to: int) -> None:
        """Repeat our current vectors to the member that probed.

        The answer is a unicast and *not* a confirmation: one member was
        told, not the cluster, so the confirmation bookkeeping
        (``_last_confirmed_*``, ``_heard_from``, ``_last_send_time``) stays
        as it was and the next changed vector is still broadcast.  A host
        that bound no unicast path cannot tell one member: it repeats to
        all, which is a confirmation and rate-limited like one.
        """
        if self.joining or self.config.strict_paper_mode:
            return  # neither speaks heartbeats (see _send_confirmation)
        if self._unicast_fn is not None:
            self.counters.probe_answers_sent += 1
            self._unicast(to, self._heartbeat(
                self.state.req_vector(), tuple(self._preack_floor), probe=False,
            ))
        elif self._now - self._last_send_time >= self.config.deferred_interval:
            self.counters.probe_answers_sent += 1
            self._send_confirmation(force=True, resend=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resident_pdus(self) -> int:
        """PDUs held in SL + RRL + PRL + stash (the §5 buffer metric);
        acknowledged PDUs are released on delivery."""
        return (
            self.sl.retained + self.rrl.total + len(self.prl)
            + self._stash_size
        )

    @property
    def resident_high_water(self) -> int:
        """Peak of :attr:`resident_pdus` over the run (§5 claim C3)."""
        return self._resident_high_water

    @property
    def pending_requests(self) -> int:
        """DT requests waiting for the flow condition."""
        return len(self._pending)

    def gauges(self) -> Dict[str, int]:
        """Live occupancy gauges for the observability layer.

        Read-only taps the hosts sample on their housekeeping tick (the
        ``gauge`` trace category); keys are part of the counters/gauges
        schema in docs/PROTOCOL.md §13.  Buffer occupancy is deliberately
        absent — the receive buffer belongs to the *host*, which merges its
        own ``buf_used``/``buf_free`` fields into the sample.
        """
        out = {
            "flow_window": self.flow.effective_window(),
            "flow_base": self.state.min_al(self.index),
            "in_flight": self.flow.in_flight(),
            "pending": len(self._pending),
            "rrl": self.rrl.total,
            "prl": len(self.prl),
            "sending_log": self.sl.retained,
            "stash": sum(len(s) for s in self._stash),
            "peer_store": sum(len(s) for s in self._peer_store),
            "gap_backlog": self.gaps.open_gaps,
            "resident": self.resident_pdus,
            # The flow-gating minBUF.  Before any live peer has advertised,
            # min_buf() is the optimistic cold-start sentinel, not a
            # measurement — report -1 ("unknown") so the flight recorder
            # never charts a nonsense 10⁹; series consumers clamp negative
            # samples out (docs/PROTOCOL.md §13).
            "min_buf": (
                self.state.min_buf() if self.state.min_buf_known() else -1
            ),
        }
        if self.detector is not None:
            peers = [
                j for j in self.members
                if j != self.index and j not in self.evicted
            ]
            # Largest current accrual score across live peers, in tenths
            # (gauges are integers; phi 8.0 charts as 80).  Per-peer
            # detail lives in ``detector.snapshot()``.
            out["phi_max_decis"] = int(
                round(10.0 * self.detector.max_phi(self.now, peers))
            )
            out["detector_suspected"] = sum(
                1 for j in peers if self.detector.state(j).excludes
            )
        return out

    @property
    def quiescent(self) -> bool:
        """No pending work: nothing to send, no open gaps, logs drained."""
        return (
            not self._pending
            and self.gaps.open_gaps == 0
            and self.rrl.total == 0
            and not self.prl
            and self._stash_size == 0
            and self._round is None
            and not self.joining
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"COEntity(E{self.index}, seq={self.sl.next_seq}, "
            f"req={self.state.req})"
        )
