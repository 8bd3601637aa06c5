"""The end-to-end harness, run *traced*, from tier-1.

``benchmarks/e2e`` measures the program from outside: with ``--trace 1``
its child process replaces ~50 functions and methods of ``src/repro`` by
span-recording wrappers, **looked up by name** (``MCNetwork._arrive``,
``EntityHost._begin_service``, ``ReceiveBuffer.offer``, ``TraceLog.record``,
``repro.runtime.udp.decode_pdu_safe``, …).  Renaming or deleting one kills
the traced child with ``AttributeError`` — a failed benchmark run — and
nothing else notices: the harness's own smoke test and ``--smoke`` run with
``--trace 0`` and install no wrapper.  This test installs them all, on the
simulator and on real loopback sockets, and checks the ledger still covers
the run.  ``udp_bulk`` is the one workload whose senders are paced by the
flow window, so it is also the only place a ``BatchPdu`` is encoded, split
at the datagram budget and decoded on a socket.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "run.py"


@pytest.mark.parametrize("workload", ["sim_wide", "udp_steady", "udp_bulk"])
def test_traced_harness_run_completes_and_the_ledger_covers_it(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "5", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["ledger.coverage"] > 0.5
    assert metrics["trace.records"] > 0 and metrics["entity.on_pdu_calls"] > 0
    if workload == "sim_wide":
        # The rows whose wrappers sit on the simulator's per-copy path.
        assert metrics["kernel.events"] > 0
        assert metrics["simhost.arrivals"] >= metrics["entity.on_pdu_calls"]
        assert metrics["network.copies_per_msg"] > 0
    else:
        assert metrics["codec.decode_calls"] > 0
        assert metrics["udp.datagrams_per_msg"] > 0
    if workload == "udp_bulk":
        # Multi-PDU frames, and none of them mistaken for loss.
        assert metrics["codec.bytes_per_frame"] > 400
        assert metrics["retransmit.rets_sent"] == 0
