"""Sequence-number causality: Theorem 4.1, Lemma 4.2 and the CPI operation.

The paper's central trick is that the causality-precedence relation
``p ≺ q`` ("p is sent logically before q", §2.2) is decidable from the
``SEQ`` and ``ACK`` fields alone:

**Theorem 4.1.**  Let ``p`` be a PDU sent by ``E_j``.

1. If ``p.src == q.src``:  ``p ≺ q  iff  p.SEQ < q.SEQ``.
2. If ``p.src != q.src``:  ``p ≺ q  iff  p.SEQ < q.ACK_{p.src}``.

Case 2 works because an entity only raises ``ACK_j`` past ``p.SEQ`` after
*accepting* ``p`` (acceptance is in sequence order), so
``q.ACK_{p.src} > p.SEQ`` certifies that ``q``'s sender had received ``p``
(or a later PDU from the same source) before sending ``q`` — exactly the
happened-before chain ``s[p] → r[p] → s[q]``.

**Lemma 4.2** gives the monotonicity the protocol relies on: if ``p ≺ q``
then ``q``'s ACK vector dominates ``p``'s component-wise (strictly in the
``p.src`` component when the sources differ).  The predicate
:func:`ack_vectors_consistent` checks it; a violation observed on real PDUs
indicates a lost PDU not yet recovered (the paper uses it in exactly that
role, Fig. 6 discussion).

The **CPI operation** (``L < p``) inserts a PDU into a causality-preserved
log keeping it causality-preserved.  Because ``≺`` on the PDUs of a single
consistent execution is a strict partial order and the log is already
topologically sorted, inserting before the first entry that causally follows
``p`` is correct (proof sketch in :func:`cpi_position`).  The engine never
scans: its PACK dependency gate makes every insert an append
(:class:`repro.core.logs.CausalLog`), and :func:`cpi_insert` stays as the
paper's definition that the tests hold that append to.
"""

from __future__ import annotations

from typing import Iterable, List, Protocol, Sequence, Tuple, runtime_checkable


@runtime_checkable
class SequencedPdu(Protocol):
    """Anything with the fields Theorem 4.1 needs."""

    src: int
    seq: int
    ack: Tuple[int, ...]


def causally_precedes(p: SequencedPdu, q: SequencedPdu) -> bool:
    """Theorem 4.1: does ``p ≺ q`` (p causality-precedes q)?

    Both PDUs must come from the same execution of the protocol (the theorem
    is about PDUs actually sent in a cluster; on arbitrary field values the
    relation need not be a partial order).
    """
    if p.src == q.src:
        return p.seq < q.seq
    return p.seq < q.ack[p.src]


def causally_coincident(p: SequencedPdu, q: SequencedPdu) -> bool:
    """``p ~ q``: neither precedes the other (concurrent PDUs).

    By the paper's definition a PDU is coincident with itself vacuously;
    callers compare distinct PDUs.
    """
    return not causally_precedes(p, q) and not causally_precedes(q, p)


def causally_related(p: SequencedPdu, q: SequencedPdu) -> bool:
    """``p ⊰ q``: p precedes q or they are coincident (the paper's ``⪯``)."""
    return causally_precedes(p, q) or causally_coincident(p, q)


def ack_vectors_consistent(p: SequencedPdu, q: SequencedPdu) -> bool:
    """Lemma 4.2's monotonicity check for a pair with ``p ≺ q``.

    Lemma 4.2: if ``p ≺ q`` then ``p.ACK_i <= q.ACK_i`` for every ``i``
    (and strictly for ``i = p.src`` when the sources differ, because
    ``q.ACK_{p.src} > p.SEQ >= p.ACK_{p.src}``).  This function checks the
    component-wise part, which is the operationally useful signal: a
    ``False`` result on PDUs believed to satisfy ``p ≺ q`` means some PDU is
    missing (Fig. 6).  The protocol reacts through failure condition (2)
    rather than through this predicate; the tests use it as an oracle.
    """
    if not causally_precedes(p, q):
        raise ValueError("ack_vectors_consistent is defined for p ≺ q pairs")
    return all(pa <= qa for pa, qa in zip(p.ack, q.ack))


def cpi_position(log: Sequence[SequencedPdu], p: SequencedPdu) -> int:
    """Index at which CPI inserts ``p`` into causality-preserved ``log``.

    Returns the first index ``i`` with ``p ≺ log[i]``; if none, ``len(log)``
    (append, which also covers the coincident case 2-3 of the paper's rule).

    Correctness: let ``i`` be the returned index.

    * No entry before ``i`` causally follows ``p`` (``i`` is the first).
    * No entry at or after ``i`` causally precedes ``p``: if ``log[k] ≺ p``
      for ``k >= i`` then by transitivity ``log[k] ≺ log[i]`` — contradicting
      that ``log`` was causality-preserved (``k`` after ``i``).

    Hence inserting at ``i`` keeps the log causality-preserved.
    """
    for i, q in enumerate(log):
        if causally_precedes(p, q):
            return i
    return len(log)


def cpi_insert(log: List[SequencedPdu], p: SequencedPdu) -> int:
    """The paper's ``L < p``: insert in place, return the insertion index."""
    index = cpi_position(log, p)
    log.insert(index, p)
    return index


def is_causality_preserved(log: Iterable[SequencedPdu]) -> bool:
    """Is ``log`` causality-preserved (§2.2)?

    True iff no later entry causally precedes an earlier one.  O(m²) — used
    by tests and oracles, not by the protocol's hot path.
    """
    items = list(log)
    for i, earlier in enumerate(items):
        for later in items[i + 1:]:
            if causally_precedes(later, earlier):
                return False
    return True

