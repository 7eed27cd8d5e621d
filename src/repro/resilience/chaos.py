"""Chaos harness: prove injection -> detection -> recovery per fault class.

Two complementary modes, both deterministic:

* :func:`fault_class_proofs` forces each fault class in turn at rate 1.0
  (every GPU attempt faults) and checks the ladder still ships a correct
  schedule for every region — launch/OOM/corruption by engine downgrade,
  hangs by checkpoint resume. Every shipped ACO schedule is re-validated
  against the DDG, so a recovery that smuggled an illegal schedule
  through would fail the proof, not pass it.
* :func:`chaos_sweep` runs a pinned list of chaos seeds at the default
  mixed fault rates and aggregates recovery statistics: how many faults
  were injected (by class), how many regions recovered with a real ACO
  result, how many shipped degraded, and the retry overhead (budget spent
  beyond the successful attempt's own cost).

Runnable as a module — CI's chaos-sweep job is exactly::

    python -m repro.resilience.chaos --seeds 11,23,37 --sizes 10,12,14

Exit status: 0 when every proof holds and every sweep region shipped a
valid schedule; 1 otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import ACOParams, GPUParams, ResilienceParams
from ..ddg.graph import DDG
from ..errors import ScheduleError
from ..gpusim.faults import DEFAULT_CHAOS_RATES, FaultPlan
from ..machine.model import MachineModel
from ..machine.targets import amd_vega20
from ..schedule.validate import validate_schedule
from ..suite.patterns import random_region
from .ladder import LadderOutcome, schedule_with_resilience
from .log import ResilienceLog, resilience_log_session

#: The pinned sweep CI runs (arbitrary but fixed: changing them changes
#: which faults the sweep sees, so treat edits like baseline updates).
PINNED_SEEDS: Tuple[int, ...] = (11, 23, 37, 58, 71, 94)

#: Region sizes for the chaos suite — small on purpose: the harness is
#: about fault paths, not search quality, and must stay CI-fast.
DEFAULT_SIZES: Tuple[int, ...] = (10, 12, 14)


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


def _run_trial(
    machine: MachineModel,
    ddg: DDG,
    plan: Optional[FaultPlan],
    resilience: ResilienceParams,
    chaos_seed: int,
    seed: int = 0,
) -> RegionTrial:
    outcome: LadderOutcome = schedule_with_resilience(
        _scheduler(machine), ddg, seed, resilience, fault_plan=plan
    )
    recovered = outcome.result is not None
    valid = True
    if recovered:
        try:
            validate_schedule(outcome.result.schedule, ddg, machine)
        except ScheduleError:
            valid = False
    return RegionTrial(
        region=ddg.region.name,
        chaos_seed=chaos_seed,
        outcome_rung=outcome.rung,
        attempts=outcome.attempts,
        resumed_attempts=outcome.resumed_attempts,
        faults=outcome.faults,
        recovered=recovered,
        schedule_valid=valid,
        spent_seconds=outcome.spent_seconds,
        result_seconds=outcome.result.seconds if recovered else 0.0,
    )


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
    report = ChaosReport()
    resilience = ResilienceParams(enabled=True, max_retries=max_retries)
    for fault_class in ("launch", "corruption", "hang", "oom"):
        plan = FaultPlan(seed=1, rates={fault_class: 1.0})
        for ddg in regions:
            with resilience_log_session(ResilienceLog()):
                trial = _run_trial(
                    machine, ddg, plan, resilience, chaos_seed=1
                )
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
    report = ChaosReport()
    resilience = ResilienceParams(enabled=True, max_retries=max_retries)
    for chaos_seed in seeds:
        plan = FaultPlan(seed=chaos_seed, rates=dict(rates or DEFAULT_CHAOS_RATES))
        for ddg in regions:
            with resilience_log_session(ResilienceLog()):
                report.trials.append(
                    _run_trial(machine, ddg, plan, resilience, chaos_seed)
                )
    return report


def bitcheck(
    seeds: Sequence[int],
    sizes: Sequence[int],
    out_dir: str,
) -> Tuple[bool, Dict]:
    """Record the sweep twice and diff the bundles for bit identity.

    Chaos recovery paths (retries, checkpoint resumes, engine downgrades)
    must themselves be deterministic per seed: two recordings of the same
    sweep have to produce byte-identical run bundles. On a mismatch the
    differ's first-divergence report names the exact event/iteration/draw
    where the recovery paths forked.

    Returns ``(identical, diff_report)``; the bundles (and, on mismatch,
    ``first-divergence.json``) are left in ``out_dir`` for CI artifacts.
    """
    from ..obs.diff import record_twice_and_diff

    return record_twice_and_diff(
        lambda: chaos_sweep(seeds=seeds, sizes=sizes), out_dir, "chaos"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description="Chaos harness: per-class fault proofs + seed sweep.",
    )
    parser.add_argument(
        "--seeds",
        default=",".join(str(s) for s in PINNED_SEEDS),
        help="comma-separated chaos seeds for the mixed-rate sweep",
    )
    parser.add_argument(
        "--sizes",
        default=",".join(str(s) for s in DEFAULT_SIZES),
        help="comma-separated region sizes for the chaos suite",
    )
    parser.add_argument(
        "--skip-proofs",
        action="store_true",
        help="run only the mixed-rate sweep (skip the rate-1.0 proofs)",
    )
    parser.add_argument(
        "--bitcheck",
        metavar="DIR",
        default=None,
        help="additionally record the sweep twice into DIR and diff the "
        "run bundles; a mismatch writes DIR/first-divergence.json and "
        "fails the harness",
    )
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]

    failed = False
    if not args.skip_proofs:
        proofs = fault_class_proofs(sizes=sizes)
        print("[chaos] per-class proofs: %s" % proofs.summary())
        classes = proofs.faults_by_class
        for fault_class in ("launch", "corruption", "hang", "oom"):
            if not classes.get(fault_class):
                print("[chaos] FAIL: class %r never injected" % fault_class)
                failed = True
        if not proofs.all_valid:
            failed = True
        if proofs.recovery_rate < 1.0:
            print("[chaos] FAIL: a forced-fault region lost its ACO result")
            failed = True

    sweep = chaos_sweep(seeds=seeds, sizes=sizes)
    print("[chaos] mixed-rate sweep: %s" % sweep.summary())
    if not sweep.all_valid:
        failed = True

    if args.bitcheck:
        import os

        os.makedirs(args.bitcheck, exist_ok=True)
        identical, report = bitcheck(seeds, sizes, args.bitcheck)
        if identical:
            print("[chaos] bitcheck: recorded sweeps byte-identical")
        else:
            from ..obs.diff import render_report

            print("[chaos] FAIL: recorded sweeps diverged")
            print(render_report(report), end="")
            failed = True

    print("[chaos] %s" % ("FAILED" if failed else "OK"))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
