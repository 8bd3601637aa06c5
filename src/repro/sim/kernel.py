"""Discrete-event simulation kernel.

The kernel is intentionally small: a simulated clock and a binary heap of
pending events.  Three properties matter for the rest of the repository:

* **Determinism.**  Events scheduled for the same simulated time fire in the
  order they were scheduled (a monotonically increasing sequence number is
  part of the heap key).  Together with the seeded random streams in
  :mod:`repro.sim.rng`, a whole experiment is reproducible from its seed.
* **Cancelability.**  :meth:`Simulator.schedule` returns an
  :class:`EventHandle`; cancelled events stay in the heap but are skipped when
  popped, which is O(1) per cancellation.
* **A cheap heap.**  The handle *is* the heap entry: a ``list`` subclass
  ``[time, seq, callback, args]`` that defines no ``__lt__``, so ``heapq``
  orders entries with the C list comparison — ``time`` first, then the
  unique ``seq``, never reaching the (uncomparable) callback — instead of
  calling back into Python ~2 log2(heap) times per event (DESIGN.md §16).
"""

from __future__ import annotations

import heapq
from functools import partial
from operator import itemgetter
from typing import Any, Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised for kernel misuse, e.g. scheduling into the past."""


class EventHandle(list):
    """A cancelable reference to a scheduled event: the heap entry itself,
    ``[time, seq, callback, args]``.

    Instances are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at`.  They are true handles, not copies: calling
    :meth:`cancel` prevents the callback from firing even though the entry
    remains in the heap until popped.  Treat the list as read-only; the
    properties below are the interface.
    """

    __slots__ = ()

    time = property(itemgetter(0), doc="Simulated time the event fires at.")
    seq = property(itemgetter(1), doc="Scheduling order; breaks time ties.")
    callback = property(itemgetter(2), doc="The callback; None once cancelled.")
    args = property(itemgetter(3), doc="Positional arguments of the callback.")

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        # Blank the slots so cancelled events do not pin large objects
        # (e.g. PDU payloads) in the heap until popped; the (time, seq) key
        # stays, the entry must keep its heap position.
        self[2] = None
        self[3] = ()

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    @property
    def pending(self) -> bool:
        """True unless the event was cancelled (a fired event still reads
        pending; the timers drop their handle when it fires)."""
        return self[2] is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self[2] is None else "pending"
        return f"EventHandle(t={self[0]!r}, seq={self[1]}, {state})"


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, callback, arg1, arg2)
        sim.run()            # run until the event queue drains
        print(sim.now)       # simulated seconds elapsed

    The clock unit is arbitrary; the repository uses **seconds** throughout
    (propagation delays of e.g. ``200e-6`` model a LAN).
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[EventHandle] = []
        self._seq: int = 0
        self._events_executed: int = 0
        self._running: bool = False
        self._stopped: bool = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events that have fired (diagnostics / tests)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events in the heap, including cancelled ones."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now.

        ``delay`` must be non-negative; a zero delay fires after all events
        already scheduled for the current instant.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` for an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, already at t={self._now!r}"
            )
        self._seq = seq = self._seq + 1
        handle = EventHandle((time, seq, callback, args))
        heapq.heappush(self._heap, handle)
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue is empty.
        """
        while self._heap:
            time, _, callback, args = heapq.heappop(self._heap)
            if callback is None:
                continue
            self._now = time
            self._events_executed += 1
            callback(*args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or stopped.

        ``until`` is an absolute simulated time; events scheduled exactly at
        ``until`` still run.  ``max_events`` guards against runaway protocols
        in tests.  Returns the simulated time at which the run ended.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        self._stopped = False
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and not self._stopped:
                time, _, callback, args = heap[0]
                if callback is None:
                    pop(heap)
                    continue
                if until is not None and time > until:
                    self._now = until
                    break
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} (runaway protocol?)"
                    )
                pop(heap)
                self._now = time
                self._events_executed += 1
                executed += 1
                callback(*args)
            else:
                if until is not None and not self._stopped and self._now < until:
                    self._now = until
        finally:
            self._running = False
        return self._now

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self._now!r}, pending={len(self._heap)})"


def sim_clock(sim: Simulator) -> Callable[[], float]:
    """The zero-argument clock a sans-I/O engine reads ``sim``'s time by:
    a C-level ``getattr``, where a ``lambda`` through the ``now`` property
    costs two Python frames on every record an engine stamps."""
    return partial(getattr, sim, "_now")
