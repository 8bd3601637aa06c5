"""Unit tests for the §2.2 log properties as verify_run reports them, and
for the total-order agreement check."""

from repro.ordering.checker import verify_run
from repro.ordering.properties import total_order_agreement
from repro.sim.trace import TraceLog

M = lambda src, seq: (src, seq)


def deliveries(logs, sends=(), relay=False):
    """A trace in which every id in ``sends`` is broadcast concurrently (or,
    with ``relay``, E1 accepts (0, 1) before sending (1, 1)), then entity i
    delivers ``logs[i]`` in order."""
    t = TraceLog()
    for src, seq in sends:
        if relay and (src, seq) == M(1, 1):
            t.record(0.0, "accept", 1, src=0, seq=1, null=False)
        t.record(0.0, "broadcast", src, kind="DataPdu", seq=seq)
    for entity, log in enumerate(logs):
        for src, seq in log:
            t.record(1.0, "deliver", entity, src=src, seq=seq)
    return t


def test_missing_deliveries():
    sends = [M(0, 1), M(1, 1), M(2, 1)]
    report = verify_run(deliveries([sends[:2], sends, sends], sends), 3)
    assert report.missing == {0: [M(2, 1)]}
    assert verify_run(deliveries([sends] * 3, sends), 3).ok


def test_duplicate_deliveries():
    sends = [M(0, 1), M(0, 2)]
    twice = verify_run(deliveries([[M(0, 1), M(0, 1)]], sends), 1, False)
    assert twice.duplicates == {0: [M(0, 1)]}
    assert verify_run(deliveries([sends], sends), 1, False).duplicates == {}


def test_local_order_violations():
    good = [M(0, 1), M(1, 1), M(0, 2)]
    assert verify_run(deliveries([good]), 2, False).local_order == {}
    bad = [M(0, 2), M(0, 1)]
    assert verify_run(deliveries([bad]), 2, False).local_order == {0: [(M(0, 2), M(0, 1))]}


def test_local_order_is_per_source():
    # Interleaving across sources is never a FIFO violation.
    log = [M(1, 2), M(0, 1), M(1, 3)]
    assert verify_run(deliveries([log]), 2, False).local_order == {}


def test_causality_violations_with_oracle():
    sends = [M(0, 1), M(1, 1)]
    in_order = deliveries([[M(0, 1), M(1, 1)]], sends, relay=True)
    assert verify_run(in_order, 2, False).causality == {}
    inverted = deliveries([[M(1, 1), M(0, 1)]], sends, relay=True)
    assert verify_run(inverted, 2, False).causality == {0: [(M(1, 1), M(0, 1))]}


def test_causality_violations_empty_relation():
    sends = [M(0, 1), M(1, 1), M(2, 1)]
    log = [M(2, 1), M(0, 1), M(1, 1)]
    assert verify_run(deliveries([log], sends), 3, False).causality == {}


def test_total_order_agreement_detects_swap():
    logs = [
        [M(0, 1), M(1, 1)],
        [M(1, 1), M(0, 1)],
    ]
    disagreements = total_order_agreement(logs)
    assert len(disagreements) == 1
    i, j, p, q = disagreements[0]
    assert (i, j) == (0, 1)


def test_total_order_agreement_ignores_uncommon_messages():
    logs = [
        [M(0, 1), M(1, 1)],
        [M(0, 1)],           # never saw (1,1): prefix agreement only
    ]
    assert total_order_agreement(logs) == []


def test_total_order_agreement_identical_logs():
    log = [M(0, 1), M(1, 1), M(0, 2)]
    assert total_order_agreement([log, list(log), list(log)]) == []
