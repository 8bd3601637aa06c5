"""Engine-level tests for the adaptive (phi-accrual) detector wiring.

The detector math lives in ``test_detector.py``; these tests pin the
*engine* integration: mode selection, the bootstrap fallback feeding the
ordinary suspicion path, the ``phi_evict`` gate on eviction proposals,
and the churn hooks that re-baseline the windows.
"""

import pytest

from repro.core.config import FailureDetectorMode, ProtocolConfig
from repro.core.detector import PeerState
from repro.core.pdu import HeartbeatPdu
from tests.conftest import EngineDriver, make_pdu

PHI_CFG = ProtocolConfig(
    suspect_timeout=0.05,
    evict_timeout=0.1,
    failure_detector=FailureDetectorMode.PHI,
)


def make_driver(config=PHI_CFG):
    return EngineDriver(0, 3, config)


def hb(src, ack=(1, 1, 1), pack=(1, 1, 1)):
    return HeartbeatPdu(cid=1, src=src, ack=ack, pack=pack, buf=10**6)


def test_fixed_mode_has_no_detector():
    drv = EngineDriver(0, 3, ProtocolConfig(suspect_timeout=0.05))
    assert drv.engine.detector is None


def test_phi_mode_builds_detector():
    drv = make_driver()
    detector = drv.engine.detector
    assert detector is not None
    assert detector.window == PHI_CFG.detector_window
    assert detector.bootstrap_timeout == PHI_CFG.suspect_timeout
    # The detector mutates the engine's own counters object in place.
    assert detector.counters is drv.engine.counters


def test_bootstrap_fallback_suspects_through_engine():
    """Before any window is primed, silence past ``suspect_timeout`` must
    still suspect — via the detector's fallback, not the fixed scan."""
    drv = make_driver()
    drv.clock = 0.03
    drv.receive(make_pdu(1, 1, (1, 1, 1)))
    drv.clock = 0.06
    drv.tick()                            # warning only (hysteresis)
    assert drv.engine.suspected == set()
    drv.clock = 0.065
    drv.tick()                            # persisted: suspect E2
    assert drv.engine.suspected == {2}
    assert drv.engine.counters.phi_fallback_suspects == 1
    assert drv.trace.count("suspect") == 1


def test_arrivals_feed_detector_and_unsuspect():
    drv = make_driver()
    drv.clock = 0.06
    drv.tick()
    drv.clock = 0.065
    drv.tick()
    assert drv.engine.suspected == {1, 2}
    drv.clock = 0.07
    drv.receive(hb(2))
    assert drv.engine.suspected == {1}
    assert drv.engine.detector.state(2) is PeerState.HEALTHY


def test_adaptive_eviction_reaches_proposal():
    """With the silence deep enough for ``phi_evict`` (fallback: 2x the
    bootstrap bound) and the ripeness clock expired, the coordinator
    proposes — the adaptive path can still evict a genuinely dead peer."""
    drv = make_driver()
    # Keep E1 alive and prime nothing for E2 (it never speaks).
    for k, t in enumerate((0.02, 0.05, 0.08, 0.11, 0.14, 0.17)):
        drv.clock = t
        drv.receive(hb(1))
        drv.tick()
    assert drv.engine.suspected == {2}
    drv.clock = 0.20
    drv.receive(hb(1))
    drv.tick()
    assert drv.engine.detector.evict_ready(2)
    assert drv.engine.counters.view_proposals == 1


def test_phi_evict_gate_blocks_unripe_suspicion(monkeypatch):
    """A time-ripe suspicion whose phi never crossed ``phi_evict`` must
    not turn into a view change — the band between the thresholds absorbs
    gray failures."""
    drv = make_driver()
    for t in (0.02, 0.05, 0.08, 0.11, 0.14, 0.17):
        drv.clock = t
        drv.receive(hb(1))
        drv.tick()
    assert drv.engine.suspected == {2}
    monkeypatch.setattr(drv.engine.detector, "evict_ready", lambda j: False)
    drv.clock = 0.25
    drv.receive(hb(1))
    drv.tick()                            # ripe in time, gated on phi
    assert drv.engine.counters.view_proposals == 0
    monkeypatch.undo()
    drv.tick()
    assert drv.engine.counters.view_proposals == 1


def test_suspect_trace_records_phi_score():
    drv = make_driver()
    drv.clock = 0.06
    drv.tick()
    drv.clock = 0.065
    drv.tick()
    records = [r for r in drv.trace.records if r.category == "suspect"]
    assert records and all("phi" in r.details for r in records)


def test_gauges_expose_detector_state():
    drv = make_driver()
    drv.clock = 0.06
    drv.tick()
    drv.clock = 0.065
    drv.tick()
    gauges = drv.engine.gauges()
    assert gauges["detector_suspected"] == 2
    assert gauges["phi_max_decis"] == 0   # unprimed windows score zero
    fixed = EngineDriver(0, 3, ProtocolConfig(suspect_timeout=0.05))
    assert "detector_suspected" not in fixed.engine.gauges()


def test_strict_paper_mode_rejects_phi():
    with pytest.raises(ValueError):
        ProtocolConfig(
            strict_paper_mode=True,
            suspect_timeout=0.05,
            failure_detector=FailureDetectorMode.PHI,
        )


def test_phi_requires_membership_extension():
    with pytest.raises(ValueError):
        ProtocolConfig(failure_detector=FailureDetectorMode.PHI)
