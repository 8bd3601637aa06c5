"""Adaptive phi-accrual failure detection (docs/PROTOCOL.md §17).

The membership extension's fixed ``suspect_timeout`` treats every link the
same: too tight and a GC pause or a congested peer triggers a spurious
three-phase eviction (plus the full rejoin dance), too loose and a genuine
crash stalls the PACK/ACK ladder for the whole window.  The accrual
detector replaces the absolute bound with a *per-peer, learned* one: each
peer's recent inter-arrival times feed a sliding window, and the current
silence is scored against that window's normal approximation as

    phi(t) = -log10( P(interval > t) )
           = -log10( 0.5 * erfc( (t - mean) / (std * sqrt(2)) ) )

so phi == 1 means "this silence had a 10% chance under recent behaviour",
phi == 8 means one in 10^8.  A link that is *usually* jittery inflates its
own mean and deviation, which automatically widens the bound — exactly the
adaptation a fixed timeout cannot express.

Two deliberate deviations from the textbook estimator, both motivated by
the gray-failure scenarios in :mod:`repro.harness.nemesis`:

* **Sample clamping** — a single dropped heartbeat doubles the observed
  inter-arrival; recorded verbatim it would poison the window (and the
  *next* silence would be judged against corrupted statistics).  Samples
  are clamped to ``sample_clamp``× the current window mean before entry.
  The *score* still uses the true elapsed silence — only the learned
  history is protected.
* **Deviation floor** — at steady state the window variance collapses
  toward zero and any hiccup scores astronomically; the deviation is
  floored at ``std_floor``× the mean so one lost heartbeat (observed
  silence ≈ 2× mean) never crosses ``phi_suspect`` on its own.

On top of the score sits a hysteresis state machine::

    HEALTHY -> DEGRADED       phi >= phi_suspect observed once (warning)
    DEGRADED -> SUSPECTED     phi >= phi_suspect persisted to the next
                              poll AND the peer is out of its
                              resuspect cool-down
    SUSPECTED -> EVICT_PENDING  phi >= phi_evict (eviction may ripen)
    any -> HEALTHY            a PDU arrived (suspicion is revocable)

The engine acts only on transitions *into* ``SUSPECTED`` (it calls its
``_suspect``) and gates eviction ripeness on ``EVICT_PENDING``; the
cool-down after an unsuspect blocks the suspect/unsuspect/suspect flapping
that jittery links otherwise convert into eviction churn.

Like :class:`repro.core.repair.RepairManager`, this module is pure
bookkeeping: the caller passes ``now`` everywhere, nothing here touches
wires or clocks, and identical arrival traces therefore produce identical
phi series and transitions (the determinism property the test suite pins).
"""

from __future__ import annotations

import enum
import math
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

__all__ = ["MIN_SAMPLES", "PeerState", "PhiAccrualDetector", "PHI_CAP"]

#: Upper bound on any reported phi score.  ``erfc`` underflows to exactly
#: 0.0 around z ≈ 27 (phi ≈ 160); silences that far out are "certain"
#: failures and the cap keeps the score finite, comparable and plottable.
PHI_CAP = 64.0

#: Samples required before phi scoring engages; an unprimed peer is judged
#: by the fixed ``bootstrap_timeout`` fallback.  ``detector_window`` must
#: hold at least this many.
MIN_SAMPLES = 4

_SQRT2 = math.sqrt(2.0)


class PeerState(enum.Enum):
    """Hysteresis states of one monitored peer."""

    HEALTHY = "healthy"
    #: First threshold crossing: a warning, not yet a suspicion.  One more
    #: poll above ``phi_suspect`` promotes; one arrival demotes.
    DEGRADED = "degraded"
    SUSPECTED = "suspected"
    #: phi crossed ``phi_evict``: the engine may let the eviction timer
    #: ripen into a view-change proposal.
    EVICT_PENDING = "evict-pending"

    @property
    def excludes(self) -> bool:
        """Should the engine exclude this peer from progress conditions?"""
        return self in (PeerState.SUSPECTED, PeerState.EVICT_PENDING)


class _NullCounters:
    """Stand-in when the detector runs outside an engine (unit tests)."""

    phi_degraded = 0
    phi_suspects = 0
    phi_evict_ready = 0
    phi_cooldown_blocks = 0
    phi_samples_clamped = 0
    phi_fallback_suspects = 0


class PhiAccrualDetector:
    """Per-peer phi-accrual failure detector with suspicion hysteresis.

    ``counters`` is any object carrying the six ``phi_*`` integer
    attributes (the engine passes its :class:`~repro.core.entity.
    EntityCounters`); the detector increments them in place so they flow
    through the unified counters schema of every runtime unchanged.

    The engine passes only ``window``, ``resuspect_cooldown`` and
    ``bootstrap_timeout``; the other tunables keep their defaults:

    * ``phi_suspect`` — suspect a peer once its phi reaches this (phi == 8
      means the silence had a one-in-10^8 chance under recent link
      behaviour);
    * ``phi_evict`` — let a suspicion ripen into an eviction proposal only
      past this score; the band between the thresholds absorbs gray
      failures that deserve exclusion but not a view change;
    * ``std_floor`` — deviation floor as a fraction of the window mean: at
      steady state the variance collapses and any hiccup would score
      astronomically; the floor keeps one lost heartbeat (≈ 2× mean
      silence) under ``phi_suspect``;
    * ``sample_clamp`` — samples are clamped to this multiple of the
      current mean so a dropped heartbeat cannot poison the learned
      history (``0`` disables clamping).
    """

    def __init__(
        self,
        n: int,
        index: int,
        *,
        phi_suspect: float = 8.0,
        phi_evict: float = 12.0,
        window: int = 32,
        min_samples: int = MIN_SAMPLES,
        std_floor: float = 0.3,
        sample_clamp: float = 3.0,
        resuspect_cooldown: float = 0.0,
        bootstrap_timeout: float,
        start_time: float = 0.0,
        counters=None,
    ):
        if phi_suspect <= 0 or phi_evict < phi_suspect:
            raise ValueError(
                f"need 0 < phi_suspect <= phi_evict, got "
                f"{phi_suspect!r} / {phi_evict!r}"
            )
        if window < 2 or not 2 <= min_samples <= window:
            raise ValueError(
                f"need window >= 2 and 2 <= min_samples <= window, got "
                f"window={window!r} min_samples={min_samples!r}"
            )
        self.n = n
        self.index = index
        self.phi_suspect = phi_suspect
        self.phi_evict = phi_evict
        self.window = window
        self.min_samples = min_samples
        self.std_floor = std_floor
        self.sample_clamp = sample_clamp
        self.resuspect_cooldown = resuspect_cooldown
        self.bootstrap_timeout = bootstrap_timeout
        self.counters = counters if counters is not None else _NullCounters()
        #: Last arrival time per peer (the silence baseline).
        self._last: List[float] = [start_time] * n
        #: Sliding inter-arrival windows, with running first/second moments
        #: maintained incrementally (windows are small; the sums make
        #: mean/std O(1) per poll instead of O(window)).
        self._samples: List[Deque[float]] = [deque(maxlen=window) for _ in range(n)]
        self._sum: List[float] = [0.0] * n
        self._sumsq: List[float] = [0.0] * n
        self._state: List[PeerState] = [PeerState.HEALTHY] * n
        #: When the peer last left suspicion (drives the cool-down).
        self._unsuspected_at: List[float] = [-math.inf] * n
        #: Most recent phi score per peer (refreshed by poll; a trace aid).
        self._phi: List[float] = [0.0] * n

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def heard(self, j: int, now: float) -> None:
        """Record an arrival from peer ``j`` and revoke any suspicion."""
        interval = now - self._last[j]
        self._last[j] = now
        if interval > 0.0:
            win = self._samples[j]
            if self.sample_clamp > 0 and len(win) >= self.min_samples:
                mean = self._sum[j] / len(win)
                cap = self.sample_clamp * mean
                if interval > cap:
                    # Heartbeat-loss tolerance: one lost heartbeat doubles
                    # the observed interval; keep the learned history clean.
                    interval = cap
                    self.counters.phi_samples_clamped += 1
            if len(win) == win.maxlen:
                old = win[0]
                self._sum[j] -= old
                self._sumsq[j] -= old * old
            win.append(interval)
            self._sum[j] += interval
            self._sumsq[j] += interval * interval
        state = self._state[j]
        if state is not PeerState.HEALTHY:
            if state.excludes:
                self._unsuspected_at[j] = now
            self._state[j] = PeerState.HEALTHY
        self._phi[j] = 0.0

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def primed(self, j: int) -> bool:
        """Has ``j``'s window collected enough samples for a phi score?"""
        return len(self._samples[j]) >= self.min_samples

    def mean(self, j: int) -> float:
        win = self._samples[j]
        return self._sum[j] / len(win) if win else 0.0

    def phi(self, j: int, now: float) -> float:
        """The current accrual score for peer ``j`` (0.0 while unprimed)."""
        if not self.primed(j):
            return 0.0
        elapsed = now - self._last[j]
        if elapsed <= 0.0:
            return 0.0
        count = len(self._samples[j])
        mean = self._sum[j] / count
        var = max(self._sumsq[j] / count - mean * mean, 0.0)
        std = max(math.sqrt(var), self.std_floor * mean, 1e-12)
        z = (elapsed - mean) / std
        if z <= 0.0:
            return 0.0
        p = 0.5 * math.erfc(z / _SQRT2)
        if p <= 0.0:
            return PHI_CAP
        return min(-math.log10(p), PHI_CAP)

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def poll(self, j: int, now: float) -> PeerState:
        """Advance ``j``'s hysteresis state against the current silence.

        Called from the engine's housekeeping tick.  Before the window is
        primed the detector falls back to the fixed ``bootstrap_timeout``
        bound (a peer that crashes before ever speaking must still be
        caught): silence past the timeout reads as a suspect-level
        crossing, past twice the timeout as an evict-level one.
        """
        state = self._state[j]
        elapsed = now - self._last[j]
        if self.primed(j):
            # The phi bound only ever *widens* the fixed bound: silence
            # shorter than ``bootstrap_timeout`` never suspects, however
            # extraordinary the score.  Below that floor the evidence is
            # one missed keepalive period — nothing; and a window poisoned
            # by compressed samples (a resumed host draining its queued
            # backlog in a burst) would otherwise score normal cadence as
            # astronomical.
            score = self.phi(j, now)
            floored = elapsed >= self.bootstrap_timeout
            suspect_level = floored and score >= self.phi_suspect
            evict_level = floored and score >= self.phi_evict
            fallback = False
        else:
            score = 0.0
            suspect_level = elapsed >= self.bootstrap_timeout
            evict_level = elapsed >= 2.0 * self.bootstrap_timeout
            fallback = True
        self._phi[j] = score
        if not suspect_level:
            if state is not PeerState.HEALTHY and not state.excludes:
                # A DEGRADED peer whose phi receded without an arrival
                # (window statistics admit the silence after all).
                self._state[j] = PeerState.HEALTHY
            return self._state[j]
        if state is PeerState.HEALTHY:
            self._state[j] = PeerState.DEGRADED
            self.counters.phi_degraded += 1
        elif state is PeerState.DEGRADED:
            # Promotion needs the crossing to persist to a second poll
            # *and* the peer to be out of its cool-down — the hysteresis
            # that keeps a jittery link from flapping into eviction.
            if now - self._unsuspected_at[j] < self.resuspect_cooldown:
                self.counters.phi_cooldown_blocks += 1
            else:
                self._state[j] = PeerState.SUSPECTED
                self.counters.phi_suspects += 1
                if fallback:
                    self.counters.phi_fallback_suspects += 1
        if self._state[j] is PeerState.SUSPECTED and evict_level:
            self._state[j] = PeerState.EVICT_PENDING
            self.counters.phi_evict_ready += 1
        return self._state[j]

    def state(self, j: int) -> PeerState:
        return self._state[j]

    def evict_ready(self, j: int) -> bool:
        """May the engine let ``j``'s eviction timer ripen into a round?"""
        return self._state[j] is PeerState.EVICT_PENDING

    def last_phi(self, j: int) -> float:
        """The score computed by the most recent poll (for trace records)."""
        return self._phi[j]

    # ------------------------------------------------------------------
    # Membership churn hooks
    # ------------------------------------------------------------------
    def forget(self, j: int, now: float) -> None:
        """Reset ``j`` entirely — eviction or re-admission starts a fresh
        incarnation whose link behaviour owes nothing to the old one."""
        self._last[j] = now
        self._samples[j].clear()
        self._sum[j] = 0.0
        self._sumsq[j] = 0.0
        self._state[j] = PeerState.HEALTHY
        self._unsuspected_at[j] = -math.inf
        self._phi[j] = 0.0

    def reset_all(self, now: float) -> None:
        """Re-baseline every peer (rejoin install / applied state snapshot
        reset the engine's liveness stamps the same way)."""
        for j in range(self.n):
            self.forget(j, now)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def max_phi(self, now: float, peers: Iterable[int]) -> float:
        """Largest current phi across ``peers`` (the engine's gauge tap)."""
        best = 0.0
        for j in peers:
            score = self.phi(j, now)
            if score > best:
                best = score
        return best

    def snapshot(self, now: float) -> Dict[int, dict]:
        """Per-peer diagnostic view (``repro inspect`` / tests)."""
        out: Dict[int, dict] = {}
        for j in range(self.n):
            if j == self.index:
                continue
            win = self._samples[j]
            out[j] = {
                "state": self._state[j].value,
                "phi": round(self.phi(j, now), 3),
                "samples": len(win),
                "mean_interval": round(self.mean(j), 6),
                "silent_for": round(now - self._last[j], 6),
            }
        return out
