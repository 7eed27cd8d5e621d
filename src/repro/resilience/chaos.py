"""Chaos harness: prove injection -> detection -> recovery per fault class.

:func:`fault_class_proofs` forces each fault class at rate 1.0 and
demands that the ladder still ships a valid schedule for every region;
:func:`chaos_sweep` runs the pinned chaos seeds at the default mixed
rates and aggregates recovery statistics: faults injected by class,
regions that recovered a real ACO result or shipped degraded, and the
retry overhead (budget spent beyond the successful attempt's own cost).
Every shipped ACO schedule is re-validated against the DDG, so a recovery
that smuggled an illegal schedule through fails instead of passing.

Runnable as a module — CI's chaos-sweep job is exactly::

    python -m repro.resilience.chaos --bitcheck bitcheck

Exit status: 0 when every proof holds, every sweep trial passed and (with
``--bitcheck``) the recordings match; 1 otherwise; 2 on a usage error.
"""

from __future__ import annotations

import argparse
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import ACOParams, GPUParams, ResilienceParams
from ..ddg.graph import DDG
from ..errors import ScheduleError
from ..gpusim.faults import DEFAULT_CHAOS_RATES, FAULT_CLASSES, FaultPlan
from ..machine.model import MachineModel
from ..machine.targets import amd_vega20
from ..schedule.validate import validate_schedule
from ..suite.patterns import random_region
from .ladder import schedule_with_resilience
from .log import ResilienceLog, resilience_log_session

#: The pinned sweep CI runs (arbitrary but fixed: changing them changes
#: which faults the sweep sees, so treat edits like baseline updates).
PINNED_SEEDS: Tuple[int, ...] = (11, 23, 37, 58, 71, 94)

#: Region sizes for the chaos suite — small on purpose: the harness is
#: about fault paths, not search quality, and must stay CI-fast.
DEFAULT_SIZES: Tuple[int, ...] = (10, 12, 14)


def int_list(text: str) -> Tuple[int, ...]:
    """argparse type: a non-empty comma-separated list of integers."""
    try:
        values = tuple(int(item) for item in text.split(",") if item.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of integers, got %r" % text
        )
    return values


@dataclass
class RegionTrial:
    """One region run through the ladder under one fault plan."""

    region: str
    chaos_seed: int
    outcome_rung: str
    attempts: int
    resumed_attempts: int
    faults: Tuple[Tuple[str, str, int], ...]
    recovered: bool  # shipped a real ACO result
    schedule_valid: bool  # shipped schedule passed independent validation
    spent_seconds: float
    result_seconds: float  # 0.0 when degraded


@dataclass
class ChaosReport:
    """Aggregate of a sweep (and/or the per-class proofs)."""

    trials: List[RegionTrial] = field(default_factory=list)

    @property
    def faults_by_class(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for trial in self.trials:
            for fault_class, _rung, _attempt in trial.faults:
                counts[fault_class] = counts.get(fault_class, 0) + 1
        return counts

    @property
    def faulted_trials(self) -> List[RegionTrial]:
        return [t for t in self.trials if t.faults]

    @property
    def recovery_rate(self) -> float:
        """Fraction of faulted regions that still shipped an ACO result."""
        faulted = self.faulted_trials
        if not faulted:
            return 1.0
        return sum(1 for t in faulted if t.recovered) / len(faulted)

    @property
    def degraded(self) -> int:
        return sum(1 for t in self.trials if not t.recovered)

    @property
    def retry_overhead_seconds(self) -> float:
        """Budget spent beyond the successful attempts' own cost."""
        return sum(
            max(0.0, t.spent_seconds - t.result_seconds) for t in self.trials
        )

    @property
    def all_valid(self) -> bool:
        return all(t.schedule_valid for t in self.trials)

    def summary(self) -> str:
        per_class = ", ".join(
            "%s=%d" % (name, count)
            for name, count in sorted(self.faults_by_class.items())
        ) or "none"
        return (
            "%d trial(s), faults [%s], recovery rate %.0f%%, "
            "%d degraded, retry overhead %.3gs, schedules %s"
            % (
                len(self.trials),
                per_class,
                100.0 * self.recovery_rate,
                self.degraded,
                self.retry_overhead_seconds,
                "all valid" if self.all_valid else "INVALID",
            )
        )


def chaos_regions(
    machine: MachineModel, sizes: Sequence[int] = DEFAULT_SIZES, seed: int = 5
) -> List[DDG]:
    """The harness's region set: one random region per requested size."""
    rng = random.Random(seed)
    return [
        DDG(random_region(rng, size, name="chaos_%02d" % size))
        for size in sizes
    ]


def _scheduler(machine: MachineModel):
    from ..parallel.scheduler import ParallelACOScheduler

    # Small colony: the fault surface (launches, transfers, iterations)
    # is identical, only the search is cheaper — 4 blocks instead of the
    # production 180, and a tight iteration cap.
    return ParallelACOScheduler(
        machine,
        params=ACOParams(max_iterations=12),
        gpu_params=GPUParams(blocks=4),
    )


def _run_trials(
    machine: MachineModel,
    regions: Sequence[DDG],
    plan: FaultPlan,
    resilience: ResilienceParams,
    chaos_seed: int,
) -> List[RegionTrial]:
    """Every region through the ladder under ``plan``.

    A shipped schedule is invalid only on :class:`ScheduleError`; any
    other exception from the validator is a bug and propagates.
    """
    trials = []
    for ddg in regions:
        with resilience_log_session(ResilienceLog()):
            outcome = schedule_with_resilience(
                _scheduler(machine), ddg, 0, resilience, fault_plan=plan
            )
        result = outcome.result
        valid = True
        if result is not None:
            try:
                validate_schedule(result.schedule, ddg, machine)
            except ScheduleError:
                valid = False
        trials.append(
            RegionTrial(
                region=ddg.region.name,
                chaos_seed=chaos_seed,
                outcome_rung=outcome.rung,
                attempts=outcome.attempts,
                resumed_attempts=outcome.resumed_attempts,
                faults=outcome.faults,
                recovered=result is not None,
                schedule_valid=valid,
                spent_seconds=outcome.spent_seconds,
                result_seconds=result.seconds if result is not None else 0.0,
            )
        )
    return trials


def fault_class_proofs(
    machine: Optional[MachineModel] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    max_retries: int = 1,
) -> ChaosReport:
    """Force each fault class at rate 1.0 and demand full recovery.

    At rate 1.0 every GPU-rung attempt faults, so the proof exercises the
    class's whole recovery path: hang -> checkpoint resume (possibly on a
    downgraded engine), launch/OOM/corruption -> retries then engine
    downgrade to the CPU rung. A class whose faults escaped detection, or
    whose recovery shipped an invalid schedule, fails the proof.
    """
    machine = machine or amd_vega20()
    regions = chaos_regions(machine, sizes)
    resilience = ResilienceParams(enabled=True, max_retries=max_retries)
    report = ChaosReport()
    for fault_class in FAULT_CLASSES:
        plan = FaultPlan(seed=1, rates={fault_class: 1.0})
        for trial in _run_trials(machine, regions, plan, resilience, 1):
            if not trial.faults:
                trial.schedule_valid = False  # rate-1.0 must inject
            report.trials.append(trial)
    return report


def chaos_sweep(
    seeds: Sequence[int] = PINNED_SEEDS,
    machine: Optional[MachineModel] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    rates: Optional[Dict[str, float]] = None,
    max_retries: int = 2,
) -> ChaosReport:
    """Run every region under every chaos seed at mixed fault rates."""
    machine = machine or amd_vega20()
    regions = chaos_regions(machine, sizes)
    resilience = ResilienceParams(enabled=True, max_retries=max_retries)
    report = ChaosReport()
    for seed in seeds:
        plan = FaultPlan(seed=seed, rates=dict(rates or DEFAULT_CHAOS_RATES))
        report.trials.extend(_run_trials(machine, regions, plan, resilience, seed))
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description="Chaos harness: per-class fault proofs + seed sweep.",
    )
    parser.add_argument(
        "--seeds",
        type=int_list,
        default=PINNED_SEEDS,
        help="comma-separated chaos seeds for the mixed-rate sweep",
    )
    parser.add_argument(
        "--sizes",
        type=int_list,
        default=DEFAULT_SIZES,
        help="comma-separated region sizes for the harness",
    )
    parser.add_argument(
        "--skip-proofs",
        action="store_true",
        help="run only the mixed-rate sweep (skip the rate-1.0 proofs)",
    )
    parser.add_argument(
        "--bitcheck",
        metavar="DIR",
        help="additionally record the sweep twice into DIR and diff the "
        "run bundles; a mismatch writes DIR/first-divergence.json and "
        "fails the harness",
    )
    args = parser.parse_args(argv)

    failed = False
    if not args.skip_proofs:
        proofs = fault_class_proofs(sizes=args.sizes)
        print("[chaos] per-class proofs: %s" % proofs.summary())
        classes = proofs.faults_by_class
        for fault_class in FAULT_CLASSES:
            if not classes.get(fault_class):
                print("[chaos] FAIL: class %r never injected" % fault_class)
                failed = True
        if proofs.recovery_rate < 1.0:
            print("[chaos] FAIL: a forced-fault region lost its ACO result")
            failed = True
        failed = failed or not proofs.all_valid

    sweep = chaos_sweep(seeds=args.seeds, sizes=args.sizes)
    print("[chaos] mixed-rate sweep: %s" % sweep.summary())
    failed = failed or not sweep.all_valid

    if args.bitcheck:
        # Recovery paths (retries, checkpoint resumes, engine downgrades)
        # must themselves be deterministic per seed: two recordings of the
        # same sweep have to be byte-identical. On a mismatch the differ's
        # report names the first event, iteration or draw where they
        # forked; bundles and first-divergence.json stay in DIR for CI
        # artifacts.
        from ..obs.diff import record_twice_and_diff, render_report

        os.makedirs(args.bitcheck, exist_ok=True)
        identical, report = record_twice_and_diff(
            lambda: chaos_sweep(seeds=args.seeds, sizes=args.sizes),
            args.bitcheck,
            "chaos",
        )
        if identical:
            print("[chaos] bitcheck: recorded sweeps byte-identical")
        else:
            print("[chaos] FAIL: recorded sweeps diverged")
            print(render_report(report), end="")
            failed = True

    print("[chaos] %s" % ("FAILED" if failed else "OK"))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
