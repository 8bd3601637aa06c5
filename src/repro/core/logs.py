"""The paper's logs: ``SL``, ``RRL``, ``PRL``.

§2.2 models the communication service as a set of *logs* — sequences of
PDUs.  Each CO entity maintains:

* ``SL`` (:class:`SendingLog`) — every PDU it has broadcast, indexed by
  sequence number so RET requests can be answered;
* ``RRL_j`` (:class:`ReceiptSublogs`) — one FIFO per source holding PDUs
  *accepted* but not yet pre-acknowledged;
* ``PRL`` (:class:`CausalLog`) — pre-acknowledged PDUs kept in causality
  order by the CPI operation, with an O(1) head pop and a seq-indexed
  append fast path.

The paper's fourth log, ``ARL`` (acknowledged PDUs), is not kept: a PDU
is released on delivery, and the engine records only the per-source
frontier of what it acknowledged (DESIGN.md §21).

:class:`Log` is the generic ordered container with the paper's vocabulary
(``enqueue``, ``dequeue``, ``top``, ``last``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generic, Iterator, List, Optional, TypeVar, Union

from repro.core.causality import cpi_position, fold_follow_index
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


class CausalLog:
    """``PRL``: a causality-preserved log built for the protocol hot path.

    Semantically a plain CPI-maintained sequence (it compares equal to the
    equivalent list and supports the same reads), but engineered for the
    two operations the acknowledgment pipeline performs per PDU:

    * :meth:`insert` — the paper's ``L < p``, with a seq-indexed fast path:
      the log maintains a per-source ``high`` bound on resident entries'
      knowledge (see :func:`~repro.core.causality.fold_follow_index`), so
      when nothing resident can causally follow ``p`` the insert is proven
      to be an append in O(n) — no scan of the log.  Because the engine
      only pre-acknowledges a PDU after all its causal predecessors (the
      PACK dependency gate), *every* protocol insert takes this path; the
      linear-scan fallback remains for adversarial or test-built inputs.
    * :meth:`popleft` — the ACK action's head removal, O(1) on the deque
      (``list.pop(0)`` was O(m) in the resident-log size).

    ``fast_appends`` / ``scan_inserts`` count which path each insert took;
    the engine surfaces them as hot-path counters.
    """

    def __init__(self, items: Optional[List[DataPdu]] = None):
        self._items: Deque[DataPdu] = deque()
        self._high: Optional[List[int]] = None
        self.fast_appends = 0
        self.scan_inserts = 0
        for p in items or []:
            self.insert(p)

    def insert(self, p: DataPdu) -> int:
        """CPI-insert ``p``; returns the insertion index."""
        high = self._high
        if high is None:
            high = self._high = [0] * len(p.ack)
        if high[p.src] <= p.seq:
            index = len(self._items)
            self._items.append(p)
            self.fast_appends += 1
        else:
            index = cpi_position(self._items, p)
            self._items.insert(index, p)
            self.scan_inserts += 1
        fold_follow_index(high, p)
        return index

    def popleft(self) -> DataPdu:
        """Remove and return the head (the ACK action's removal), O(1)."""
        return self._items.popleft()

    @property
    def top(self) -> Optional[DataPdu]:
        """``top(L)``: the head of the log, or ``None`` when empty."""
        return self._items[0] if self._items else None

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[DataPdu]:
        return iter(self._items)

    def __getitem__(self, index: Union[int, slice]) -> Union[DataPdu, List[DataPdu]]:
        if isinstance(index, slice):
            return list(self._items)[index]
        return self._items[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CausalLog):
            return self._items == other._items
        if isinstance(other, (list, tuple, deque)):
            return list(self._items) == list(other)
        return NotImplemented

    def as_list(self) -> List[DataPdu]:
        return list(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CausalLog({list(self._items)!r})"


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
