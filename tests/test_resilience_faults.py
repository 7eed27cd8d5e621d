"""Tests for the deterministic GPU fault model and the deadline budget."""

import pytest

from repro.config import ConfigError, ResilienceParams
from repro.errors import (
    CorruptionDetected,
    DeadlineExceeded,
    DeviceHangError,
    DeviceOOMError,
    InjectedFault,
    KernelLaunchError,
    ReproError,
    ResilienceError,
)
from repro.gpusim.device import GPUDevice
from repro.gpusim.faults import (
    DEFAULT_CHAOS_RATES,
    FAULT_CLASSES,
    FaultPlan,
    FaultyDevice,
)
from repro.resilience.watchdog import DeadlineBudget


class TestFaultPlan:
    def test_deterministic_per_site(self):
        a = FaultPlan.from_seed(99)
        b = FaultPlan.from_seed(99)
        for attempt in range(20):
            assert a.launch_fails("r", 1, attempt) == b.launch_fails("r", 1, attempt)
            assert a.hang_iteration("r", 2, attempt) == b.hang_iteration(
                "r", 2, attempt
            )

    def test_sites_independent(self):
        """Different sites draw independently — a plan is not all-or-nothing."""
        plan = FaultPlan(seed=3, rates={"launch": 0.5})
        decisions = {
            plan.launch_fails("r%d" % i, p, a)
            for i in range(10)
            for p in (1, 2)
            for a in range(3)
        }
        assert decisions == {True, False}

    def test_rate_zero_never_fires(self):
        plan = FaultPlan(seed=1, rates={})
        assert not any(
            plan.launch_fails("r", 1, a)
            or plan.preallocation_fails("r", a)
            or plan.transfer_corrupted("r", 1, a)
            or plan.hang_iteration("r", 1, a) is not None
            for a in range(50)
        )

    def test_rate_one_always_fires(self):
        plan = FaultPlan(seed=1, rates={c: 1.0 for c in FAULT_CLASSES})
        assert plan.launch_fails("r", 1, 0)
        assert plan.preallocation_fails("r", 0)
        assert plan.transfer_corrupted("r", 1, 0)
        assert plan.hang_iteration("r", 1, 0) in (0, 1, 2)

    def test_seed_changes_decisions(self):
        plans = [FaultPlan(seed=s, rates={"launch": 0.5}) for s in range(40)]
        fired = {p.launch_fails("r", 1, 0) for p in plans}
        assert fired == {True, False}

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(seed=1, rates={"meltdown": 0.5})

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(seed=1, rates={"launch": 1.5})

    def test_default_rates_cover_all_classes(self):
        assert set(DEFAULT_CHAOS_RATES) == set(FAULT_CLASSES)
        assert FaultPlan.from_seed(7).rates == DEFAULT_CHAOS_RATES


class TestFaultyDevice:
    def _faulty(self, rates):
        return FaultyDevice(GPUDevice(), FaultPlan(seed=1, rates=rates))

    def test_launch_failure_costs_the_launch(self):
        faulty = self._faulty({"launch": 1.0})
        with pytest.raises(KernelLaunchError) as info:
            faulty.check_launch("r", 1, 0)
        assert info.value.seconds == faulty.device.cost.launch_overhead
        assert info.value.fault_class == "launch"

    def test_oom_before_any_launch(self):
        faulty = self._faulty({"oom": 1.0})
        with pytest.raises(DeviceOOMError) as info:
            faulty.check_preallocation("r", 0, requested_bytes=4096)
        assert info.value.seconds == 0.0

    def test_corruption_is_silent_until_copy_back(self):
        faulty = self._faulty({"corruption": 1.0})
        # The fault layer only reports the corruption; raising
        # CorruptionDetected at copy-back is the scheduler's job.
        assert faulty.transfer_corrupted("r", 1, 0)

    def test_clean_device_passes_everything(self):
        faulty = self._faulty({})
        faulty.check_launch("r", 1, 0)
        faulty.check_preallocation("r", 0)
        assert not faulty.transfer_corrupted("r", 1, 0)
        assert faulty.hang_iteration("r", 1, 0) is None


class TestExceptionTaxonomy:
    def test_hierarchy(self):
        for exc_type in (
            KernelLaunchError,
            DeviceOOMError,
            CorruptionDetected,
            DeviceHangError,
        ):
            assert issubclass(exc_type, InjectedFault)
            assert issubclass(exc_type, ResilienceError)
            assert issubclass(exc_type, ReproError)

    def test_fault_classes_match_taxonomy(self):
        classes = {
            KernelLaunchError.fault_class,
            DeviceOOMError.fault_class,
            CorruptionDetected.fault_class,
            DeviceHangError.fault_class,
        }
        assert classes == set(FAULT_CLASSES)


class TestEnvironment:
    def test_chaos_seed(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert ResilienceParams.from_env().chaos_seed is None
        monkeypatch.setenv("REPRO_CHAOS", "123")
        assert ResilienceParams.from_env().chaos_seed == 123

    def test_bad_chaos_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "banana")
        with pytest.raises(ConfigError):
            ResilienceParams.from_env()

    def test_resilience_params_from_env(self, monkeypatch):
        for name in ("REPRO_DEADLINE", "REPRO_MAX_RETRIES", "REPRO_CHAOS", "REPRO_DEGRADE"):
            monkeypatch.delenv(name, raising=False)
        assert not ResilienceParams.from_env().active
        monkeypatch.setenv("REPRO_DEADLINE", "0.5")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        monkeypatch.setenv("REPRO_CHAOS", "9")
        monkeypatch.setenv("REPRO_DEGRADE", "0")
        params = ResilienceParams.from_env()
        assert params.active
        assert params.deadline_seconds == 0.5
        assert params.max_retries == 5
        assert params.chaos_seed == 9
        assert not params.degrade

    def test_active_rule(self):
        assert not ResilienceParams().active
        assert ResilienceParams(deadline_seconds=1.0).active
        assert ResilienceParams(chaos_seed=1).active
        assert ResilienceParams(enabled=True).active
        assert not ResilienceParams(chaos_seed=1, enabled=False).active


class TestDeadlineBudget:
    def test_unlimited(self):
        budget = DeadlineBudget()
        budget.charge(1e9)
        assert not budget.limited
        assert not budget.exhausted
        assert budget.remaining == float("inf")
        budget.require("anything")  # never raises

    def test_charges_accumulate(self):
        budget = DeadlineBudget(1.0)
        budget.charge(0.4)
        budget.charge(0.4)
        assert budget.spent == pytest.approx(0.8)
        assert budget.remaining == pytest.approx(0.2)
        assert not budget.exhausted
        budget.charge(0.4)
        assert budget.exhausted
        with pytest.raises(DeadlineExceeded):
            budget.require("pass 2")

    def test_invalid(self):
        with pytest.raises(ConfigError):
            DeadlineBudget(0.0)
        with pytest.raises(ConfigError):
            DeadlineBudget(1.0).charge(-1.0)
