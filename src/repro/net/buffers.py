"""Finite receive buffers — the paper's failure model.

"Since the transmission speed of the network layer is faster than the
processing speed of the system entity, the system entity may fail to receive
PDUs due to the buffer overrun." (§2.1)

A :class:`ReceiveBuffer` sits between the network and an entity's protocol
engine.  Capacity is measured in abstract *buffer units*; a PDU occupies
``units_per_pdu`` units (the paper's constant ``H``).  A PDU arriving when
fewer than ``units_per_pdu`` units are free is dropped — that drop *is* the
PDU loss the CO protocol detects and repairs.

The free-unit count is also what an entity advertises in the ``BUF`` field of
every PDU it sends, feeding the flow condition
``minAL_i ≤ SEQ < minAL_i + min(W, minBUF/(H·2n))`` (§4.2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Optional


@dataclass
class BufferStats:
    """Counters accumulated over a buffer's lifetime."""

    offered: int = 0
    accepted: int = 0
    overruns: int = 0
    high_water_units: int = 0

    def snapshot(self) -> dict:
        return {
            "offered": self.offered,
            "accepted": self.accepted,
            "overruns": self.overruns,
            "high_water_units": self.high_water_units,
        }


class ReceiveBuffer:
    """A bounded FIFO of incoming PDUs with overrun semantics.

    >>> buf = ReceiveBuffer(capacity_units=4, units_per_pdu=2)
    >>> buf.offer("p1"), buf.offer("p2"), buf.offer("p3")
    (True, True, False)
    >>> buf.pop()
    'p1'
    """

    def __init__(self, capacity_units: int, units_per_pdu: int = 1):
        if capacity_units <= 0:
            raise ValueError(f"capacity_units must be positive, got {capacity_units}")
        if units_per_pdu <= 0:
            raise ValueError(f"units_per_pdu must be positive, got {units_per_pdu}")
        if units_per_pdu > capacity_units:
            raise ValueError("a single PDU must fit in the buffer")
        self.capacity_units = capacity_units
        self.units_per_pdu = units_per_pdu
        #: Queue of ``(pdu, charged_units)`` — a batch frame charges units
        #: for every data PDU it carries, so batching cannot smuggle k PDUs
        #: past a buffer sized for one (§2.1 stays honest under batching).
        self._queue: Deque[Any] = deque()
        self._used_units = 0
        self.stats = BufferStats()

    def _units(self, pdu: Any) -> int:
        """Units one arriving frame occupies: ``H`` per data PDU carried.

        ``H`` is the paper's per-DT-PDU staging constant — the flow
        condition ``minBUF/(H·2n)`` (§4.2) budgets the buffer in *data*
        PDUs, so a control frame (heartbeat, RET, view traffic, empty
        batch) charges a single unit: it is a fraction of a data PDU's
        size, and charging it ``H`` would let unregulated control chatter
        consume the capacity the flow condition promised to data.

        Anything else that cannot say how many it carries charges one data
        PDU's worth; the UDP runtime's inbox of raw datagrams reads the
        count off the wire header instead (``runtime/udp.py``).
        """
        if getattr(pdu, "is_control", False):
            return 1
        return self.units_per_pdu * max(1, getattr(pdu, "pdu_count", 1))

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def used_units(self) -> int:
        return self._used_units

    @property
    def free_units(self) -> int:
        """Available units — the value advertised in a PDU's ``BUF`` field."""
        return self.capacity_units - self._used_units

    @property
    def capacity_pdus(self) -> int:
        """How many PDUs fit when the buffer is empty."""
        return self.capacity_units // self.units_per_pdu

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def empty(self) -> bool:
        return not self._queue

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------
    def offer(self, pdu: Any) -> bool:
        """Try to enqueue an arriving PDU.

        Returns ``False`` — a buffer overrun, i.e. the PDU is lost — when
        there is not enough free space.
        """
        stats = self.stats
        stats.offered += 1
        need = self._units(pdu)
        used = self._used_units + need
        if used > self.capacity_units:
            stats.overruns += 1
            return False
        self._queue.append((pdu, need))
        self._used_units = used
        stats.accepted += 1
        if used > stats.high_water_units:
            stats.high_water_units = used
        return True

    def pop(self) -> Any:
        """Dequeue the oldest PDU; raises ``IndexError`` when empty."""
        pdu, units = self._queue.popleft()
        self._used_units -= units
        return pdu

    def peek(self) -> Optional[Any]:
        """The oldest PDU without removing it, or ``None`` when empty."""
        return self._queue[0][0] if self._queue else None

    def clear(self) -> None:
        self._queue.clear()
        self._used_units = 0
