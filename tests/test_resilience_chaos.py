"""Tests for the chaos harness (the CI chaos-sweep job's engine)."""

import pytest

from repro.errors import ScheduleError
from repro.machine import amd_vega20
from repro.resilience.chaos import (
    ChaosReport,
    RegionTrial,
    chaos_regions,
    chaos_sweep,
    fault_class_proofs,
    main,
)


@pytest.fixture(scope="module")
def machine():
    return amd_vega20()


def test_region_set_is_deterministic(machine):
    a = chaos_regions(machine, sizes=(8, 10))
    b = chaos_regions(machine, sizes=(8, 10))
    assert [d.region.name for d in a] == ["chaos_08", "chaos_10"]
    assert [len(d.region) for d in a] == [len(d.region) for d in b]


def test_fault_class_proofs_cover_every_class(machine):
    # Size 10 is the smallest region whose search runs long enough for an
    # injected hang (iteration 0-2) to fire before termination.
    report = fault_class_proofs(machine, sizes=(10,), max_retries=1)
    assert set(report.faults_by_class) == {"launch", "corruption", "hang", "oom"}
    assert report.recovery_rate == 1.0
    assert report.all_valid
    assert report.degraded == 0


def test_sweep_is_deterministic(machine):
    a = chaos_sweep(seeds=(11,), machine=machine, sizes=(8, 10))
    b = chaos_sweep(seeds=(11,), machine=machine, sizes=(8, 10))
    assert [t.faults for t in a.trials] == [t.faults for t in b.trials]
    assert a.retry_overhead_seconds == b.retry_overhead_seconds


def test_report_aggregation():
    trial = lambda faults, recovered, valid: RegionTrial(  # noqa: E731
        region="r", chaos_seed=1, outcome_rung="vectorized", attempts=1,
        resumed_attempts=0, faults=faults, recovered=recovered,
        schedule_valid=valid, spent_seconds=2.0, result_seconds=1.5,
    )
    report = ChaosReport(trials=[
        trial((), True, True),
        trial((("launch", "vectorized", 0),), True, True),
        trial((("hang", "loop", 1),), False, True),
    ])
    assert report.faults_by_class == {"launch": 1, "hang": 1}
    assert len(report.faulted_trials) == 2
    assert report.recovery_rate == 0.5
    assert report.degraded == 1
    assert report.retry_overhead_seconds == pytest.approx(1.5)
    assert report.all_valid
    assert "recovery rate 50%" in report.summary()


def test_main_exits_clean():
    assert main(["--seeds", "11", "--sizes", "8", "--skip-proofs"]) == 0


def _raise(exc):
    def validate(*args, **kwargs):
        raise exc
    return validate


def test_invalid_schedule_is_recorded_not_raised(machine, monkeypatch):
    import repro.resilience.chaos as chaos

    monkeypatch.setattr(chaos, "validate_schedule", _raise(ScheduleError("bad")))
    report = chaos_sweep(seeds=(11,), machine=machine, sizes=(8,))
    assert report.trials and not report.all_valid


def test_programming_error_in_validation_propagates(machine, monkeypatch):
    # A TypeError is a bug in the harness or the verifier, not an invalid
    # schedule: it must not be recorded as a recovered-but-invalid trial.
    import repro.resilience.chaos as chaos

    monkeypatch.setattr(chaos, "validate_schedule", _raise(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        chaos_sweep(seeds=(11,), machine=machine, sizes=(8,))
