"""Characterization of both chaos harnesses: exact summaries, payload, stdout.

``test_resilience_chaos.py`` and ``test_fleet_chaos.py`` assert substrings
such as ``"recovery rate 50%"``, so a summary that reorders or drops a
field would still pass them. These tests pin the whole ``summary()`` line
of both reports for one proof run and one sweep run, the fleet
``to_json()`` payload (against ``data/fleet_chaos_proof_golden.json``, the
file ``main --out`` writes) and the stdout of both ``main``s.
"""

import json
import os

import pytest

import repro.fleet.chaos as fleet_chaos
import repro.resilience.chaos as resilience_chaos
from repro.machine import amd_vega20

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "fleet_chaos_proof_golden.json")

RESILIENCE_PROOFS = (
    "4 trial(s), faults [corruption=4, hang=2, launch=4, oom=4], "
    "recovery rate 100%, 0 degraded, retry overhead 0.00494s, "
    "schedules all valid"
)
RESILIENCE_SWEEP = (
    "1 trial(s), faults [none], recovery rate 100%, 0 degraded, "
    "retry overhead 0s, schedules all valid"
)
FLEET_PROOFS = (
    "3 trial(s), worker faults [worker_corrupt=8, worker_crash=4, "
    "worker_hang=4], 20 reassignment(s), recovery rate 100%, "
    "merges all bit-identical"
)
FLEET_SWEEP = (
    "1 trial(s), worker faults [worker_corrupt=0, worker_crash=0, "
    "worker_hang=0], 0 reassignment(s), recovery rate 100%, "
    "merges all bit-identical"
)


@pytest.fixture(scope="module")
def machine():
    return amd_vega20()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_resilience_summaries(machine):
    proofs = resilience_chaos.fault_class_proofs(machine, sizes=(10,))
    sweep = resilience_chaos.chaos_sweep(seeds=(11,), machine=machine, sizes=(10,))
    assert proofs.summary() == RESILIENCE_PROOFS
    assert sweep.summary() == RESILIENCE_SWEEP


def test_fleet_summaries_and_payload(machine, golden):
    proofs = fleet_chaos.fault_class_proofs(machine, sizes=(8, 10), num_shards=2)
    sweep = fleet_chaos.chaos_sweep(
        seeds=(11,), machine=machine, sizes=(8, 10), shards=(2,)
    )
    assert proofs.summary() == FLEET_PROOFS
    assert sweep.summary() == FLEET_SWEEP
    assert proofs.to_json() == golden["proofs"]
    assert sweep.to_json() == golden["sweep"]


def test_resilience_main_stdout(capsys):
    assert resilience_chaos.main(["--seeds", "11", "--sizes", "10"]) == 0
    assert capsys.readouterr().out == (
        "[chaos] per-class proofs: %s\n"
        "[chaos] mixed-rate sweep: %s\n"
        "[chaos] OK\n" % (RESILIENCE_PROOFS, RESILIENCE_SWEEP)
    )


def test_fleet_main_stdout_and_proof_file(tmp_path, capsys, golden):
    out = str(tmp_path / "proof.json")
    code = fleet_chaos.main(
        ["--seeds", "11", "--sizes", "8,10", "--shards", "2", "--out", out]
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "[fleet-chaos] per-class proofs: %s\n"
        "[fleet-chaos] mixed-rate sweep: %s\n"
        "[fleet-chaos] recovery proof written to %s\n"
        "[fleet-chaos] OK\n" % (FLEET_PROOFS, FLEET_SWEEP, out)
    )
    with open(out) as written, open(GOLDEN) as expected:
        assert written.read() == expected.read()
