"""Property test: every pre-acknowledgment is the paper's CPI, and CPI appends.

The paper keeps ``PRL`` sorted by ``≺`` with the CPI operation
(``cpi_insert``: before the first entry that causally follows the new PDU,
else at the tail).  The engine's ``PRL`` is a FIFO: the PACK dependency
gate moves a PDU only after every predecessor its ACK vector names, which
by Theorem 4.1 are all the PDUs it follows.  This test records, per engine
instance, the PDUs in the order they entered ``PRL`` over whole runs —
the four sim-golden recipes and two nemesis specs with crashes, evictions,
rejoins and partitions — and checks that CPI would have put each one at
the tail of everything that entered before it.
"""

import pytest

from repro.core.causality import cpi_position
from repro.core.logs import CausalLog
from repro.harness.nemesis import run_nemesis
from tests.conformance.test_sim_golden import SCENARIOS, fingerprint


@pytest.fixture
def prl_arrivals(monkeypatch):
    """``id(log) -> (log, PDUs in the order they entered it)``; holding the
    log keeps its id from being reused by a later engine's log."""
    arrivals = {}
    enqueue = CausalLog.insert

    def insert(log, p):
        arrivals.setdefault(id(log), (log, []))[1].append(p)
        enqueue(log, p)

    monkeypatch.setattr(CausalLog, "insert", insert)
    return arrivals


def assert_every_insert_is_the_cpi_append(arrivals):
    assert arrivals, "no PDU was pre-acknowledged"
    for _, entered in arrivals.values():
        for k, p in enumerate(entered):
            assert cpi_position(entered[:k], p) == k, (
                f"{p.pdu_id} causally precedes an entry already in PRL"
            )


@pytest.mark.parametrize("recipe", sorted(SCENARIOS))
def test_sim_golden_recipes_only_append(recipe, prl_arrivals):
    fingerprint(recipe)
    assert_every_insert_is_the_cpi_append(prl_arrivals)


@pytest.mark.parametrize("scenario", ["crash-evict-rejoin", "partition-heal"])
def test_nemesis_specs_only_append(scenario, prl_arrivals):
    outcome = run_nemesis([scenario], seed=0)[0]
    assert outcome.ok, outcome.summary()
    assert_every_insert_is_the_cpi_append(prl_arrivals)
