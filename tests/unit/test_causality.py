"""Unit tests for Theorem 4.1, Lemma 4.2 and the CPI operation.

The concrete PDUs come from Table 1 of the paper (see
tests/integration/test_paper_example.py for the full trace); here the fields
are written out literally so each predicate is tested in isolation.
"""

import pytest

from repro.core.causality import (
    ack_vectors_consistent,
    causally_coincident,
    causally_precedes,
    causally_related,
    cpi_insert,
    cpi_position,
    is_causality_preserved,
)
from repro.core.pdu import DataPdu


def pdu(src, seq, ack):
    return DataPdu(cid=1, src=src, seq=seq, ack=tuple(ack), buf=0, data=None)


# Table 1 (0-based sources: paper's E1/E2/E3 are 0/1/2).
A = pdu(0, 1, (1, 1, 1))
B = pdu(2, 1, (2, 1, 1))
C = pdu(0, 2, (2, 1, 1))
D = pdu(1, 1, (3, 1, 2))
E = pdu(0, 3, (3, 2, 2))
F = pdu(0, 4, (4, 2, 2))
G = pdu(1, 2, (4, 2, 2))
H = pdu(2, 2, (5, 3, 2))


class TestTheorem41:
    def test_same_source_ordering(self):
        # Theorem 4.1 (1): same source, seq order.
        assert causally_precedes(A, C)
        assert causally_precedes(C, E)
        assert not causally_precedes(C, A)
        assert not causally_precedes(A, A)

    def test_cross_source_precedence(self):
        # Theorem 4.1 (2): p.seq < q.ack[p.src].
        assert causally_precedes(A, B)      # 1 < b.ack[0]=2
        assert causally_precedes(C, D)      # 2 < d.ack[0]=3
        assert causally_precedes(B, D)      # 1 < d.ack[2]=2
        assert causally_precedes(D, E)      # 1 < e.ack[1]=2

    def test_coincident_pair_from_paper(self):
        # Example 4.1: b ~ c.
        assert causally_coincident(B, C)
        assert not causally_precedes(B, C)
        assert not causally_precedes(C, B)

    def test_transitive_chain(self):
        # a < b < d < e: each hop certified by the ACK fields.
        assert causally_precedes(A, D)
        assert causally_precedes(A, E)

    def test_causally_related(self):
        assert causally_related(A, C)   # precedes
        assert causally_related(B, C)   # coincident
        assert causally_related(C, B)


class TestLemma42:
    def test_consistent_pairs(self):
        assert ack_vectors_consistent(A, C)   # same source
        assert ack_vectors_consistent(C, D)   # cross source
        assert ack_vectors_consistent(D, E)

    def test_inconsistency_signals_loss(self):
        # q causally follows p but q's sender regressed on component 2 —
        # the fingerprint of a lost PDU (Fig. 6 discussion).
        p = pdu(0, 1, (1, 1, 3))
        q = pdu(1, 1, (2, 1, 1))
        assert causally_precedes(p, q)
        assert not ack_vectors_consistent(p, q)

    def test_requires_precedence(self):
        with pytest.raises(ValueError):
            ack_vectors_consistent(C, B)  # coincident pair


class TestCPI:
    def test_insert_into_empty(self):
        log = []
        assert cpi_insert(log, A) == 0
        assert log == [A]

    def test_append_successor(self):
        log = [A]
        cpi_insert(log, C)
        assert log == [A, C]

    def test_insert_predecessor_before(self):
        log = [C]
        assert cpi_insert(log, A) == 0
        assert log == [A, C]

    def test_coincident_goes_to_tail_region(self):
        # Paper rule (2-3): coincident PDUs append after existing entries
        # they do not precede.
        log = [A, C]
        cpi_insert(log, B)  # B ~ C, A < B
        assert log.index(A) < log.index(B)

    def test_paper_example_insertion_order(self):
        # Example 4.1: insert a, c, e, then d between c and e, then b
        # between c and d -> <a c b d e>.
        log = []
        for p in (A, C, E):
            cpi_insert(log, p)
        assert log == [A, C, E]
        cpi_insert(log, D)
        assert log == [A, C, D, E]
        cpi_insert(log, B)
        assert log == [A, C, B, D, E]

    def test_position_without_mutation(self):
        log = [A, C, E]
        assert cpi_position(log, D) == 2
        assert log == [A, C, E]

    def test_preserves_causality_property(self):
        import itertools
        for order in itertools.permutations([A, B, C, D, E]):
            log = []
            for p in order:
                cpi_insert(log, p)
            assert is_causality_preserved(log), order


class TestIsCausalityPreserved:
    def test_good_log(self):
        assert is_causality_preserved([A, C, B, D, E])

    def test_bad_log(self):
        assert not is_causality_preserved([C, A])

    def test_empty_and_singleton(self):
        assert is_causality_preserved([])
        assert is_causality_preserved([A])

    def test_fig2_receipt_logs(self):
        # Fig. 2: RL_k = <g p q> is causality-preserved; <g q p> is not.
        g = pdu(0, 1, (1, 1, 1))
        p = pdu(0, 2, (2, 1, 1))
        q = pdu(1, 1, (3, 1, 1))  # sent after receiving p
        assert is_causality_preserved([g, p, q])
        assert not is_causality_preserved([g, q, p])
