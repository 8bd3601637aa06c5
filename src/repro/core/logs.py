"""The paper's logs: ``SL``, ``RRL``, ``PRL``.

§2.2 models the communication service as a set of *logs* — sequences of
PDUs.  Each CO entity maintains:

* ``SL`` (:class:`SendingLog`) — every PDU it has broadcast, indexed by
  sequence number so RET requests can be answered;
* ``RRL_j`` (:class:`ReceiptSublogs`) — one FIFO per source holding PDUs
  *accepted* but not yet pre-acknowledged;
* ``PRL`` (:class:`CausalLog`) — pre-acknowledged PDUs in causality
  order.  The paper keeps it sorted with the CPI operation; the engine's
  PACK dependency gate makes every CPI an append, so ``PRL`` is a FIFO
  and :func:`~repro.core.causality.cpi_insert` remains the definition the
  tests hold it to.

The paper's fourth log, ``ARL`` (acknowledged PDUs), is not kept: a PDU
is released on delivery, and the engine records only the per-source
frontier of what it acknowledged (DESIGN.md §21).

:class:`Log` is the generic ordered container with the paper's vocabulary
(``enqueue``, ``dequeue``, ``top``, ``last``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generic, Iterator, List, Optional, TypeVar

from repro.core.pdu import DataPdu

T = TypeVar("T")


class Log(Generic[T]):
    """A sequence of PDUs with the paper's log operations.

    ``enqueue`` appends at the tail; ``dequeue`` removes the top (head).
    Iteration runs top → last.
    """

    def __init__(self, items: Optional[List[T]] = None):
        self._items: Deque[T] = deque(items or [])

    def enqueue(self, item: T) -> None:
        """The paper's ``enqueue(L, p)``: put ``p`` at the tail of ``L``."""
        self._items.append(item)

    def dequeue(self) -> T:
        """The paper's ``dequeue(L)``: remove and return ``top(L)``."""
        if not self._items:
            raise IndexError("dequeue from an empty log")
        return self._items.popleft()

    @property
    def top(self) -> Optional[T]:
        """``top(L)``: the head of the log, or ``None`` when empty."""
        return self._items[0] if self._items else None

    @property
    def last(self) -> Optional[T]:
        """``last(L)``: the tail of the log, or ``None`` when empty."""
        return self._items[-1] if self._items else None

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __getitem__(self, index: int) -> T:
        return self._items[index]

    def as_list(self) -> List[T]:
        return list(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Log({list(self._items)!r})"


class CausalLog(Log[DataPdu]):
    """``PRL``: the pre-acknowledged PDUs, in causality order, as a FIFO.

    The paper keeps ``PRL`` sorted by ``≺`` with the CPI operation
    (:func:`~repro.core.causality.cpi_insert`).  The engine's PACK
    dependency gate pre-acknowledges a PDU only after every predecessor
    its ACK vector names, and by Theorem 4.1 those are all the PDUs that
    causally precede it, so nothing resident can follow a new entry and
    CPI always appends: :meth:`insert` is ``enqueue`` and the ACK action's
    :meth:`popleft` is ``dequeue``.  Compares equal to the list of its
    entries.
    """

    insert = Log.enqueue
    popleft = Log.dequeue

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Log, list, tuple, deque)):
            return list(self) == list(other)
        return NotImplemented


class SendingLog:
    """``SL``: PDUs this entity has broadcast, retrievable by sequence number.

    Retransmission (§4.3) needs random access by ``SEQ``; the log also
    supports pruning of globally acknowledged prefixes so long runs do not
    retain every PDU ever sent (the §5 buffer analysis: only ``O(n·W)`` PDUs
    need to stay resident).
    """

    def __init__(self) -> None:
        self._by_seq: Dict[int, DataPdu] = {}
        self._min_retained = 1
        self._next_seq = 1

    def start_at(self, seq: int) -> None:
        """Resume numbering at ``seq`` (rejoin after state transfer).

        The eviction flush pins every surviving member's ``REQ`` for this
        entity at exactly the flush value, so a rejoining incarnation must
        continue from there — reusing flushed numbers would alias old PDUs.
        Only valid on a virgin log (nothing sent yet).
        """
        if self._by_seq or self._next_seq != 1:
            raise ValueError("start_at is only valid on an empty sending log")
        if seq < 1:
            raise ValueError(f"sequence numbers start at 1, got {seq}")
        self._next_seq = seq
        self._min_retained = seq

    def append(self, pdu: DataPdu) -> None:
        """Record a freshly sent PDU (sequence numbers must be consecutive)."""
        if pdu.seq != self._next_seq:
            raise ValueError(
                f"sending log expects seq {self._next_seq}, got {pdu.seq}"
            )
        self._by_seq[pdu.seq] = pdu
        self._next_seq += 1

    def get(self, seq: int) -> Optional[DataPdu]:
        """The PDU with the given sequence number, if still retained."""
        return self._by_seq.get(seq)

    def get_range(self, lo: int, hi: int) -> List[DataPdu]:
        """Retained PDUs with ``lo <= seq < hi``, in sequence order."""
        lo = max(lo, self._min_retained)
        hi = min(hi, self._next_seq)
        return [self._by_seq[s] for s in range(lo, hi) if s in self._by_seq]

    def prune_below(self, seq: int) -> int:
        """Forget PDUs with sequence number below ``seq``; returns count."""
        removed = 0
        for s in range(self._min_retained, min(seq, self._next_seq)):
            if self._by_seq.pop(s, None) is not None:
                removed += 1
        if seq > self._min_retained:
            self._min_retained = seq
        return removed

    @property
    def next_seq(self) -> int:
        """The sequence number the next broadcast will use."""
        return self._next_seq

    @property
    def retained(self) -> int:
        """How many PDUs are currently held (buffer-usage metric)."""
        return len(self._by_seq)

    def __len__(self) -> int:
        return self._next_seq - 1

    def __iter__(self) -> Iterator[DataPdu]:
        return (self._by_seq[s] for s in sorted(self._by_seq))


class ReceiptSublogs:
    """``RRL``: one receipt sublog per source (§4.4's ``RRL_ij``).

    Holds PDUs *accepted* from each source, in sequence order, until they are
    pre-acknowledged and move to ``PRL``.
    """

    def __init__(self, n: int):
        self._sublogs: List[Log[DataPdu]] = [Log() for _ in range(n)]
        self._total = 0

    def sublog(self, src: int) -> Log[DataPdu]:
        return self._sublogs[src]

    def enqueue(self, pdu: DataPdu) -> None:
        self._sublogs[pdu.src].enqueue(pdu)
        self._total += 1

    def top(self, src: int) -> Optional[DataPdu]:
        return self._sublogs[src].top

    def dequeue(self, src: int) -> DataPdu:
        pdu = self._sublogs[src].dequeue()
        self._total -= 1
        return pdu

    @property
    def total(self) -> int:
        """PDUs resident across all sublogs (buffer-usage metric).

        Cached: ``resident_pdus`` reads this once per accepted PDU, so a
        ``sum`` over the sublogs would make every receipt O(n)."""
        return self._total

    def __iter__(self) -> Iterator[Log[DataPdu]]:
        return iter(self._sublogs)

    def __len__(self) -> int:
        return len(self._sublogs)
