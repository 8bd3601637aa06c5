"""Failure detection and recovery bookkeeping (§4.3).

The engine detects loss through the two **failure (F) conditions**:

1. On receipt of ``p`` from ``E_j``: if ``REQ_j < p.SEQ`` then the PDUs
   ``g`` with ``REQ_j <= g.SEQ < p.SEQ`` are missing.
2. On receipt of ``q`` from ``E_k``: if ``REQ_j < q.ACK_j`` for some
   ``j != k`` then the PDUs ``g`` with ``REQ_j <= g.SEQ < q.ACK_j`` are
   missing (``E_k`` accepted them; we did not).

Detection is instantaneous, but the RET request itself travels the same
lossy world, so this module also tracks *open gaps* per source and tells the
engine when a RET should be re-issued (``ret_timeout``).  On the responding
side, :class:`RetransmitSuppressor` rate-limits rebroadcasts of the same PDU
so that several receivers missing the same PDU (a common pattern when one
broadcast copy is dropped at several overrun buffers) do not trigger a NAK
implosion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: Adaptive RET backoff: each fruitless re-request doubles the effective
#: retry timeout up to ``ret_timeout * RET_BACKOFF_CAP``.  A crashed source
#: never answers, so without backoff every survivor re-requests at a fixed
#: cadence forever (a periodic REQ storm).
RET_BACKOFF_CAP = 8
#: Deterministic jitter fraction added to backed-off retries (spreads
#: survivors' re-requests so they do not synchronize).  Applied only from
#: the second retry on.
RET_BACKOFF_JITTER = 0.25
#: A source ignores repeated RETs for the same PDU within this window
#: (NAK-implosion suppression; several receivers may miss the same PDU).
RET_SUPPRESSION_INTERVAL = 1e-3


@dataclass
class Gap:
    """An open hole in the sequence space of one source."""

    src: int
    #: Highest sequence number (exclusive) evidence says we are missing.
    upto: int
    #: When the gap was first detected (simulated time).
    detected_at: float
    #: When a RET for this gap was last sent.
    last_ret_at: float
    #: Timer-driven re-requests issued so far (drives the backoff).
    retries: int = 0


class GapTracker:
    """Open gaps per source, with RET retry scheduling.

    Re-requests back off exponentially: retry ``r`` waits
    ``timeout * min(2^r, backoff_cap)`` (plus deterministic jitter from the
    second retry on), so survivors polling a *crashed* source decay to a
    capped cadence instead of sustaining a fixed-rate REQ storm.  The
    defaults (``backoff_cap=1``) keep the paper's fixed cadence; the engine
    passes :data:`RET_BACKOFF_CAP` and :data:`RET_BACKOFF_JITTER`.
    """

    def __init__(
        self,
        n: int,
        backoff_cap: int = 1,
        backoff_jitter: float = 0.0,
        owner: int = 0,
    ):
        self._gaps: Dict[int, Gap] = {}
        self.n = n
        self.owner = owner
        if backoff_cap < 1:
            raise ValueError(f"backoff_cap must be >= 1, got {backoff_cap}")
        if not 0.0 <= backoff_jitter <= 1.0:
            raise ValueError(f"backoff_jitter must be in [0, 1], got {backoff_jitter}")
        self.backoff_cap = backoff_cap
        self.backoff_jitter = backoff_jitter
        #: Total gap-detection events (both F conditions), for metrics.
        self.detections = 0
        #: Total timer-driven re-requests (the backed-off retries).
        self.total_retries = 0

    def note(self, src: int, upto: int, now: float) -> bool:
        """Record evidence that PDUs from ``src`` below ``upto`` are missing.

        Returns ``True`` if this is *new* evidence (a fresh gap, or a known
        gap that grew), in which case the engine sends a RET immediately.
        New evidence resets the retry backoff — the source (or a peer) is
        demonstrably reachable again.
        """
        gap = self._gaps.get(src)
        if gap is None:
            self._gaps[src] = Gap(src=src, upto=upto, detected_at=now, last_ret_at=now)
            self.detections += 1
            return True
        if upto > gap.upto:
            gap.upto = upto
            gap.last_ret_at = now
            gap.retries = 0
            self.detections += 1
            return True
        return False

    def close_below(self, src: int, req: int) -> None:
        """Acceptance progressed: drop the gap once ``REQ`` passes it."""
        gap = self._gaps.get(src)
        if gap is not None and req >= gap.upto:
            del self._gaps[src]

    def get(self, src: int) -> Optional[Gap]:
        return self._gaps.get(src)

    def due(self, now: float, timeout: float) -> List[Gap]:
        """Gaps whose backed-off retry timer has expired (re-request these).

        Returning a gap counts as issuing its retry: the backoff advances.
        The first retry always waits exactly ``timeout`` (no jitter), so
        recovery latency under transient loss is unchanged from the fixed
        cadence; only the storm tail decays.
        """
        overdue = []
        for gap in self._gaps.values():
            if now - gap.last_ret_at >= self._effective_timeout(gap, timeout):
                overdue.append(gap)
                gap.retries += 1
                self.total_retries += 1
        return overdue

    def _effective_timeout(self, gap: Gap, timeout: float) -> float:
        if gap.retries == 0:
            return timeout
        multiplier = min(1 << gap.retries, self.backoff_cap)
        wait = timeout * multiplier
        if self.backoff_jitter:
            # Deterministic jitter (no RNG: the sim must replay exactly):
            # a hash of (requester, source, retry ordinal) spreads different
            # survivors' retries for the same crashed source in time.
            frac = (
                (self.owner * 7368787 + gap.src * 2654435761 + gap.retries * 40503)
                % 997
            ) / 997.0
            wait *= 1.0 + self.backoff_jitter * frac
        return wait

    def drop_source(self, src: int) -> bool:
        """Forget the open gap for ``src`` entirely (view-change eviction).

        A member removed by an installed view can never answer a RET again,
        and the install barrier guarantees every survivor's ``REQ`` covers
        the agreed flush — so any gap still open for the member targets
        sequence numbers at or above the flush, which never existed as far
        as the surviving view is concerned.  Without this, the RET timer
        fires against the dead peer forever.  Returns ``True`` if a gap was
        dropped.
        """
        return self._gaps.pop(src, None) is not None

    def mark_ret(self, src: int, now: float) -> None:
        gap = self._gaps.get(src)
        if gap is not None:
            gap.last_ret_at = now

    @property
    def open_gaps(self) -> int:
        return len(self._gaps)


class RetransmitSuppressor:
    """Rate-limits rebroadcasts of the same PDU on the responding source.

    A source that just rebroadcast sequence number ``s`` ignores further
    requests for ``s`` arriving within ``interval`` — the rebroadcast already
    in flight will satisfy them.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self._last_sent: Dict[int, float] = {}
        #: Requests skipped thanks to suppression, for metrics.
        self.suppressed = 0

    def should_send(self, seq: int, now: float) -> bool:
        last = self._last_sent.get(seq)
        if last is not None and now - last < self.interval:
            self.suppressed += 1
            return False
        self._last_sent[seq] = now
        return True

    def forget_below(self, seq: int) -> None:
        """Prune entries for globally acknowledged PDUs."""
        for s in [s for s in self._last_sent if s < seq]:
            del self._last_sent[s]
