"""Characterization of the chaos harness: exact summaries and stdout.

``test_resilience_chaos.py`` asserts substrings such as
``"recovery rate 50%"``, so a summary that reorders or drops a field would
still pass it. These tests pin the whole ``summary()`` line of the report
for one proof run and one sweep run, and the stdout of ``main``.
"""

import pytest

import repro.resilience.chaos as resilience_chaos
from repro.machine import amd_vega20

RESILIENCE_PROOFS = (
    "4 trial(s), faults [corruption=4, hang=2, launch=4, oom=4], "
    "recovery rate 100%, 0 degraded, retry overhead 0.00494s, "
    "schedules all valid"
)
RESILIENCE_SWEEP = (
    "1 trial(s), faults [none], recovery rate 100%, 0 degraded, "
    "retry overhead 0s, schedules all valid"
)


@pytest.fixture(scope="module")
def machine():
    return amd_vega20()


def test_resilience_summaries(machine):
    proofs = resilience_chaos.fault_class_proofs(machine, sizes=(10,))
    sweep = resilience_chaos.chaos_sweep(seeds=(11,), machine=machine, sizes=(10,))
    assert proofs.summary() == RESILIENCE_PROOFS
    assert sweep.summary() == RESILIENCE_SWEEP


def test_resilience_main_stdout(capsys):
    assert resilience_chaos.main(["--seeds", "11", "--sizes", "10"]) == 0
    assert capsys.readouterr().out == (
        "[chaos] per-class proofs: %s\n"
        "[chaos] mixed-rate sweep: %s\n"
        "[chaos] OK\n" % (RESILIENCE_PROOFS, RESILIENCE_SWEEP)
    )
