"""Chaos harness: prove injection -> detection -> recovery per fault class.

:func:`fault_class_proofs` forces each fault class at rate 1.0 and
demands that the ladder still ships a valid schedule for every region;
:func:`chaos_sweep` runs the pinned chaos seeds at the default mixed
rates and aggregates recovery statistics: faults injected by class,
regions that recovered a real ACO result or shipped degraded, and the
retry overhead (budget spent beyond the successful attempt's own cost).
Every shipped ACO schedule is re-validated against the DDG, so a recovery
that smuggled an illegal schedule through fails instead of passing.

The module also holds the skeleton :mod:`repro.fleet.chaos` reuses (the
layering lets ``fleet`` import ``resilience``, never the reverse): the
report aggregates, the proof and sweep loops, the one schedule
re-validation and the CLI body. A harness supplies a trial runner
``trials(plan, chaos_seed)`` yielding trials that expose ``fault_counts``,
``recovered``, ``ok`` and ``mark_invalid()``, a report type with
``summary()`` and ``proof_failure()``, and a :class:`Harness`.

Runnable as a module — CI's chaos-sweep job is exactly::

    python -m repro.resilience.chaos --bitcheck bitcheck

Exit status: 0 when every proof holds, every sweep trial passed and (with
``--bitcheck``) the recordings match; 1 otherwise; 2 on a usage error.
"""

from __future__ import annotations

import argparse
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple

from ..config import ACOParams, GPUParams, ResilienceParams
from ..ddg.graph import DDG
from ..errors import ScheduleError
from ..gpusim.faults import DEFAULT_CHAOS_RATES, FAULT_CLASSES, FaultPlan
from ..machine.model import MachineModel
from ..machine.targets import amd_vega20
from ..schedule.schedule import Schedule
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

#: Every trial of one fault plan, tagged with the plan's chaos seed.
TrialRunner = Callable[[FaultPlan, int], Iterable]


@dataclass
class TrialReport:
    """The aggregates both harness reports share."""

    trials: List = field(default_factory=list)

    #: Classes :attr:`faults_by_class` lists even when never injected.
    listed_classes: ClassVar[Tuple[str, ...]] = ()

    @property
    def faults_by_class(self) -> Dict[str, int]:
        counts = dict.fromkeys(self.listed_classes, 0)
        for trial in self.trials:
            for name, count in trial.fault_counts.items():
                counts[name] = counts.get(name, 0) + count
        return counts

    @property
    def faulted_trials(self) -> List:
        return [t for t in self.trials if any(t.fault_counts.values())]

    @property
    def recovery_rate(self) -> float:
        """Fraction of faulted trials that recovered."""
        faulted = self.faulted_trials
        if not faulted:
            return 1.0
        return sum(1 for t in faulted if t.recovered) / len(faulted)

    @property
    def all_ok(self) -> bool:
        return all(t.ok for t in self.trials)

    def _faults_text(self) -> str:
        return ", ".join(
            "%s=%d" % (name, count)
            for name, count in sorted(self.faults_by_class.items())
        ) or "none"


def schedule_valid(schedule: Schedule, ddg: DDG, machine: MachineModel) -> bool:
    """Whether a shipped schedule passes independent re-validation.

    Only :class:`ScheduleError` marks it invalid: any other exception is a
    bug in the harness or the validator and propagates.
    """
    try:
        validate_schedule(schedule, ddg, machine)
    except ScheduleError:
        return False
    return True


def proof_trials(fault_classes: Sequence[str], trials: TrialRunner) -> List:
    """Each class forced at rate 1.0; a class that never fires fails."""
    out = []
    for fault_class in fault_classes:
        for trial in trials(FaultPlan(seed=1, rates={fault_class: 1.0}), 1):
            if not trial.fault_counts.get(fault_class):
                trial.mark_invalid()  # rate-1.0 must inject
            out.append(trial)
    return out


def sweep_trials(seeds: Sequence[int], rates: Dict, trials: TrialRunner) -> List:
    """Every trial under every chaos seed at the mixed ``rates``."""
    return [
        trial
        for seed in seeds
        for trial in trials(FaultPlan(seed=seed, rates=dict(rates)), seed)
    ]


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


@dataclass(frozen=True)
class Harness:
    """What one harness supplies to :func:`run_cli`."""

    prog: str
    description: str
    tag: str  # every stdout line reads "[tag] ..."
    default_sizes: Tuple[int, ...]
    fault_classes: Tuple[str, ...]  # each must fire in the proofs
    proofs: Callable[[argparse.Namespace], TrialReport]
    sweep: Callable[[argparse.Namespace], TrialReport]
    #: ``--bitcheck``: the run recorded twice, its bundle name, and what
    #: the verdict line calls the recordings.
    record: Callable[[argparse.Namespace], Callable[[], object]]
    bundle: str
    recorded: str
    add_arguments: Callable[[argparse.ArgumentParser], None] = lambda parser: None
    #: Called before the verdict as ``(args, proofs or None, sweep,
    #: bitcheck verdict or None, failed)``.
    finish: Callable[..., None] = lambda *results: None


def run_cli(harness: Harness, argv: Optional[Sequence[str]] = None) -> int:
    """Parse, prove, sweep, optionally bitcheck; return the exit status."""
    parser = argparse.ArgumentParser(prog=harness.prog, description=harness.description)
    parser.add_argument(
        "--seeds",
        type=int_list,
        default=PINNED_SEEDS,
        help="comma-separated chaos seeds for the mixed-rate sweep",
    )
    parser.add_argument(
        "--sizes",
        type=int_list,
        default=harness.default_sizes,
        help="comma-separated region sizes for the harness",
    )
    parser.add_argument(
        "--skip-proofs",
        action="store_true",
        help="run only the mixed-rate sweep (skip the rate-1.0 proofs)",
    )
    harness.add_arguments(parser)
    parser.add_argument(
        "--bitcheck",
        metavar="DIR",
        help="additionally record a chaos run twice into DIR and diff the "
        "run bundles; a mismatch writes DIR/first-divergence.json and "
        "fails the harness",
    )
    args = parser.parse_args(argv)

    def say(line: str) -> None:
        print("[%s] %s" % (harness.tag, line))

    failed = False
    proofs = None
    if not args.skip_proofs:
        proofs = harness.proofs(args)
        say("per-class proofs: %s" % proofs.summary())
        classes = proofs.faults_by_class
        for fault_class in harness.fault_classes:
            if not classes.get(fault_class):
                say("FAIL: class %r never injected" % fault_class)
                failed = True
        failure = proofs.proof_failure()
        if failure is not None:
            say("FAIL: %s" % failure)
        failed = failed or failure is not None or not proofs.all_ok

    sweep = harness.sweep(args)
    say("mixed-rate sweep: %s" % sweep.summary())
    failed = failed or not sweep.all_ok

    identical = None
    if args.bitcheck:
        # Recovery paths (retries, resumes, downgrades, reassignments,
        # host fallback) must themselves be deterministic per seed: two
        # recordings of the same chaotic run have to be byte-identical. On
        # a mismatch the differ's report names the first event, iteration
        # or draw where they forked; bundles and first-divergence.json
        # stay in DIR for CI artifacts.
        from ..obs.diff import record_twice_and_diff, render_report

        os.makedirs(args.bitcheck, exist_ok=True)
        identical, report = record_twice_and_diff(
            harness.record(args), args.bitcheck, harness.bundle
        )
        if identical:
            say("bitcheck: recorded %s byte-identical" % harness.recorded)
        else:
            say("FAIL: recorded %s diverged" % harness.recorded)
            print(render_report(report), end="")
            failed = True

    harness.finish(args, proofs, sweep, identical, failed)
    say("FAILED" if failed else "OK")
    return 1 if failed else 0


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

    @property
    def fault_counts(self) -> Dict[str, int]:
        return Counter(fault_class for fault_class, _rung, _attempt in self.faults)

    @property
    def ok(self) -> bool:
        return self.schedule_valid

    def mark_invalid(self) -> None:
        self.schedule_valid = False


@dataclass
class ChaosReport(TrialReport):
    """Aggregate of a sweep (and/or the per-class proofs)."""

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
        return self.all_ok

    def proof_failure(self) -> Optional[str]:
        if self.recovery_rate < 1.0:
            return "a forced-fault region lost its ACO result"
        return None

    def summary(self) -> str:
        return (
            "%d trial(s), faults [%s], recovery rate %.0f%%, "
            "%d degraded, retry overhead %.3gs, schedules %s"
            % (
                len(self.trials),
                self._faults_text(),
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


def _region_trials(
    machine: MachineModel, sizes: Sequence[int], max_retries: int
) -> TrialRunner:
    regions = chaos_regions(machine, sizes)
    resilience = ResilienceParams(enabled=True, max_retries=max_retries)

    def trials(plan: FaultPlan, chaos_seed: int) -> Iterable[RegionTrial]:
        for ddg in regions:
            with resilience_log_session(ResilienceLog()):
                outcome = schedule_with_resilience(
                    _scheduler(machine), ddg, 0, resilience, fault_plan=plan
                )
            result = outcome.result
            yield RegionTrial(
                region=ddg.region.name,
                chaos_seed=chaos_seed,
                outcome_rung=outcome.rung,
                attempts=outcome.attempts,
                resumed_attempts=outcome.resumed_attempts,
                faults=outcome.faults,
                recovered=result is not None,
                schedule_valid=result is None
                or schedule_valid(result.schedule, ddg, machine),
                spent_seconds=outcome.spent_seconds,
                result_seconds=result.seconds if result is not None else 0.0,
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
    trials = _region_trials(machine or amd_vega20(), sizes, max_retries)
    return ChaosReport(proof_trials(FAULT_CLASSES, trials))


def chaos_sweep(
    seeds: Sequence[int] = PINNED_SEEDS,
    machine: Optional[MachineModel] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    rates: Optional[Dict[str, float]] = None,
    max_retries: int = 2,
) -> ChaosReport:
    """Run every region under every chaos seed at mixed fault rates."""
    trials = _region_trials(machine or amd_vega20(), sizes, max_retries)
    return ChaosReport(sweep_trials(seeds, rates or DEFAULT_CHAOS_RATES, trials))


HARNESS = Harness(
    prog="python -m repro.resilience.chaos",
    description="Chaos harness: per-class fault proofs + seed sweep.",
    tag="chaos",
    default_sizes=DEFAULT_SIZES,
    fault_classes=FAULT_CLASSES,
    proofs=lambda args: fault_class_proofs(sizes=args.sizes),
    sweep=lambda args: chaos_sweep(seeds=args.seeds, sizes=args.sizes),
    record=lambda args: partial(chaos_sweep, seeds=args.seeds, sizes=args.sizes),
    bundle="chaos",
    recorded="sweeps",
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run_cli(HARNESS, argv)


if __name__ == "__main__":
    raise SystemExit(main())
