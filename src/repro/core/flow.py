"""The flow condition of §4.2.

Before broadcasting a PDU with sequence number ``SEQ``, an entity ``E_i``
checks::

    minAL_i  <=  SEQ  <  minAL_i + min(W, minBUF / (H * 2n))

``minAL_i`` is the oldest of its own PDUs not yet known accepted by everyone
— the left edge of the sliding window.  The window width is the smaller of
the configured ``W`` and a buffer-derived bound: the most constrained
receiver advertises ``minBUF`` free units, a PDU occupies ``H`` units, and
§5 shows each PDU keeps company with up to ``2n`` confirmation-phase PDUs
before it is acknowledged, hence the ``H * 2n`` divisor.

A zero effective window is a legitimate state (the receiver is genuinely
full); the engine retries on every knowledge update and on the deferred
tick, by which time fresh ``BUF`` advertisements normally reopen the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.config import ProtocolConfig
from repro.core.state import KnowledgeState


@dataclass(frozen=True)
class FlowDecision:
    """Outcome of a flow-condition check, with the numbers that produced it."""

    allowed: bool
    seq: int
    window_base: int
    effective_window: int

    @property
    def reason(self) -> str:
        if self.allowed:
            return "ok"
        if self.seq < self.window_base:
            # A stale/duplicate probe below the window — not a congestion
            # signal, so it must not masquerade as "window-full" in the
            # flow_blocked diagnostics.
            return "behind-window"
        if self.effective_window == 0:
            return "buffer-exhausted"
        return "window-full"


class FlowController:
    """Evaluates the flow condition for one entity."""

    def __init__(self, config: ProtocolConfig, state: KnowledgeState):
        self._config = config
        self._state = state

    def effective_window(self) -> int:
        """``min(W, minBUF / (H * 2n))`` as an integer PDU count."""
        n = self._state.n
        buffer_bound = self._state.min_buf() // (self._config.units_per_pdu * 2 * n)
        return min(self._config.window, buffer_bound)

    def admitted(self) -> Tuple[int, int]:
        """``(base, end)``: the flow condition admits exactly the sequence
        numbers ``base <= SEQ < end`` right now."""
        base = self._state.min_al(self._state.index)
        return base, base + self.effective_window()

    def check(self, seq: int) -> FlowDecision:
        """May this entity broadcast a PDU with sequence number ``seq``?"""
        base, end = self.admitted()
        return FlowDecision(
            allowed=base <= seq < end,
            seq=seq,
            window_base=base,
            effective_window=end - base,
        )

    def in_flight(self) -> int:
        """Own PDUs sent but not yet known accepted by every entity."""
        next_seq = self._state.req[self._state.index]
        return next_seq - self._state.min_al(self._state.index)
