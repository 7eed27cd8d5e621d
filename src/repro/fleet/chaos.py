"""Fleet chaos harness: prove worker-fault detection -> reassignment ->
recovery -> bit-identical merge.

Three deterministic modes:

* :func:`fault_class_proofs` forces each worker fault class
  (``worker_crash``/``worker_hang``/``worker_corrupt``) at rate 1.0 —
  every dispatch faults — and demands that the fleet still resolves every
  region (through reassignment, bounded restarts and the serial host
  fallback) with a merged batch **bit-identical** to the single-device
  run. A class whose faults escaped detection, or whose recovery shipped
  a different result, fails the proof.
* :func:`chaos_sweep` runs pinned chaos seeds at the default mixed worker
  rates across several shard counts and aggregates recovery statistics.
* :func:`bitcheck` records one chaotic fleet run twice and diffs the run
  bundles (events, metrics, schedules — including the ``shards`` level —
  and RNG draws) down to the first divergence.

Runnable as a module — CI's fleet-chaos job is exactly::

    python -m repro.fleet.chaos --out fleet-proof/proof.json --bitcheck fleet-proof

Exit status: 0 when every proof holds, every sweep trial recovered and
merged bit-identically, and (with ``--bitcheck``) the recordings match;
1 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import ACOParams, FleetParams, GPUParams
from ..errors import ScheduleError
from ..gpusim.faults import DEFAULT_WORKER_CHAOS_RATES, WORKER_FAULT_CLASSES, FaultPlan
from ..machine.model import MachineModel
from ..machine.targets import amd_vega20
from ..parallel.multi_region import BatchItem, BatchResult, MultiRegionScheduler
from ..resilience.chaos import chaos_regions
from ..schedule.validate import validate_schedule
from .supervisor import FleetResult, FleetSupervisor

#: The pinned sweep CI runs (fixed on purpose: changing them changes which
#: worker faults the sweep sees, so treat edits like baseline updates).
PINNED_SEEDS: Tuple[int, ...] = (11, 23, 37, 58, 71, 94)

#: Region sizes of the harness batch — small and uneven on purpose: the
#: harness is about the supervision paths, not search quality.
DEFAULT_SIZES: Tuple[int, ...] = (8, 10, 12, 9)

#: Shard counts the sweep exercises.
DEFAULT_SHARDS: Tuple[int, ...] = (2, 4)


def fleet_items(
    machine: MachineModel, sizes: Sequence[int] = DEFAULT_SIZES, seed: int = 5
) -> List[BatchItem]:
    """The harness batch: one random region per size, seeded per slot."""
    return [
        BatchItem(ddg, seed=7 + index)
        for index, ddg in enumerate(chaos_regions(machine, sizes, seed=seed))
    ]


def fleet_scheduler(machine: MachineModel) -> MultiRegionScheduler:
    # Small colony, small launch: the supervision surface (dispatches,
    # heartbeats, reassignment, merge) is identical, only cheaper.
    return MultiRegionScheduler(
        machine,
        params=ACOParams(max_iterations=8),
        gpu_params=GPUParams(blocks=8),
    )


def batches_identical(single: BatchResult, fleet: BatchResult) -> bool:
    """Bitwise result comparison: every differential-surface field equal."""
    if (
        single.seconds != fleet.seconds
        or single.unbatched_seconds != fleet.unbatched_seconds
        or single.blocks_per_region != fleet.blocks_per_region
        or single.errors != fleet.errors
        or single.attempts != fleet.attempts
        or single.final_backends != fleet.final_backends
        or len(single.results) != len(fleet.results)
    ):
        return False
    for a, b in zip(single.results, fleet.results):
        if (a is None) != (b is None):
            return False
        if a is None:
            continue
        if (
            a.schedule != b.schedule
            or a.rp_cost_value != b.rp_cost_value
            or a.seconds != b.seconds
        ):
            return False
    return True


@dataclass
class FleetTrial:
    """One chaotic fleet run compared against the single-device truth."""

    chaos_seed: int
    num_shards: int
    fault_counts: Dict[str, int]
    reassignments: int
    restarts: int
    host_fallback_regions: int
    recovered_regions: int
    resolved: bool  # every slot merged exactly once
    identical: bool  # merged batch bit-identical to single-device
    schedules_valid: bool  # every shipped schedule re-validated
    fleet_seconds: float
    batch_seconds: float

    @property
    def faulted(self) -> bool:
        return any(self.fault_counts.values())

    @property
    def ok(self) -> bool:
        return self.resolved and self.identical and self.schedules_valid


@dataclass
class FleetChaosReport:
    """Aggregate of the proofs and/or the sweep."""

    trials: List[FleetTrial] = field(default_factory=list)

    @property
    def faults_by_class(self) -> Dict[str, int]:
        counts = {name: 0 for name in WORKER_FAULT_CLASSES}
        for trial in self.trials:
            for name in WORKER_FAULT_CLASSES:
                counts[name] += trial.fault_counts.get(name, 0)
        return counts

    @property
    def faulted_trials(self) -> List[FleetTrial]:
        return [t for t in self.trials if t.faulted]

    @property
    def recovery_rate(self) -> float:
        """Fraction of faulted trials that fully recovered bit-identically."""
        faulted = self.faulted_trials
        if not faulted:
            return 1.0
        return sum(1 for t in faulted if t.ok) / len(faulted)

    @property
    def all_ok(self) -> bool:
        return all(t.ok for t in self.trials)

    @property
    def reassignments(self) -> int:
        return sum(t.reassignments for t in self.trials)

    def summary(self) -> str:
        per_class = ", ".join(
            "%s=%d" % (name, count)
            for name, count in sorted(self.faults_by_class.items())
        )
        return (
            "%d trial(s), worker faults [%s], %d reassignment(s), "
            "recovery rate %.0f%%, merges %s"
            % (
                len(self.trials),
                per_class,
                self.reassignments,
                100.0 * self.recovery_rate,
                "all bit-identical" if self.all_ok else "DIVERGED",
            )
        )

    def to_json(self) -> Dict:
        """Deterministic JSON payload (the CI recovery-proof artifact)."""
        return {
            "trials": [
                {
                    "chaos_seed": t.chaos_seed,
                    "num_shards": t.num_shards,
                    "fault_counts": {
                        name: t.fault_counts.get(name, 0)
                        for name in WORKER_FAULT_CLASSES
                    },
                    "reassignments": t.reassignments,
                    "restarts": t.restarts,
                    "host_fallback_regions": t.host_fallback_regions,
                    "recovered_regions": t.recovered_regions,
                    "resolved": t.resolved,
                    "identical": t.identical,
                    "schedules_valid": t.schedules_valid,
                    "fleet_seconds": t.fleet_seconds,
                    "batch_seconds": t.batch_seconds,
                }
                for t in self.trials
            ],
            "faults_by_class": self.faults_by_class,
            "reassignments": self.reassignments,
            "recovery_rate": self.recovery_rate,
            "all_ok": self.all_ok,
        }


def _run_trial(
    machine: MachineModel,
    items: Sequence[BatchItem],
    single: BatchResult,
    num_shards: int,
    worker_faults: Optional[FaultPlan],
    chaos_seed: int,
) -> FleetTrial:
    scheduler = fleet_scheduler(machine)
    fleet: FleetResult = FleetSupervisor(
        scheduler,
        FleetParams(num_shards=num_shards),
        worker_faults=worker_faults,
    ).schedule_batch(items)
    batch = fleet.batch
    resolved = len(batch.results) == len(items)
    valid = True
    for item, result in zip(items, batch.results):
        if result is None:
            valid = False
            continue
        try:
            validate_schedule(result.schedule, item.ddg, machine)
        except ScheduleError:
            valid = False
    return FleetTrial(
        chaos_seed=chaos_seed,
        num_shards=num_shards,
        fault_counts=dict(fleet.worker_faults),
        reassignments=fleet.reassignments,
        restarts=fleet.restarts,
        host_fallback_regions=fleet.host_fallback_regions,
        recovered_regions=fleet.recovered_regions,
        resolved=resolved,
        identical=batches_identical(single, batch),
        schedules_valid=valid,
        fleet_seconds=fleet.fleet_seconds,
        batch_seconds=batch.seconds,
    )


def fault_class_proofs(
    machine: Optional[MachineModel] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    num_shards: int = 2,
) -> FleetChaosReport:
    """Force each worker fault class at rate 1.0; demand full recovery.

    At rate 1.0 every dispatch faults, so every region must travel the
    class's whole recovery path — crash/hang: detection, reassignment,
    bounded restarts, then serial host fallback; corrupt: integrity/
    verifier rejection and re-dispatch — and the merged batch must still
    be bit-identical to the single-device run.
    """
    machine = machine or amd_vega20()
    items = fleet_items(machine, sizes)
    single = fleet_scheduler(machine).schedule_batch(items)
    report = FleetChaosReport()
    for fault_class in WORKER_FAULT_CLASSES:
        plan = FaultPlan(seed=1, rates={fault_class: 1.0})
        trial = _run_trial(machine, items, single, num_shards, plan, chaos_seed=1)
        if not trial.fault_counts.get(fault_class):
            trial.schedules_valid = False  # rate-1.0 must inject
        report.trials.append(trial)
    return report


def chaos_sweep(
    seeds: Sequence[int] = PINNED_SEEDS,
    machine: Optional[MachineModel] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    shards: Sequence[int] = DEFAULT_SHARDS,
    rates: Optional[Dict[str, float]] = None,
) -> FleetChaosReport:
    """Chaotic fleet runs across seeds x shard counts at mixed rates."""
    machine = machine or amd_vega20()
    items = fleet_items(machine, sizes)
    single = fleet_scheduler(machine).schedule_batch(items)
    report = FleetChaosReport()
    for chaos_seed in seeds:
        plan = FaultPlan(
            seed=chaos_seed, rates=dict(rates or DEFAULT_WORKER_CHAOS_RATES)
        )
        for num_shards in shards:
            report.trials.append(
                _run_trial(machine, items, single, num_shards, plan, chaos_seed)
            )
    return report


def bitcheck(
    seed: int,
    sizes: Sequence[int],
    num_shards: int,
    out_dir: str,
) -> Tuple[bool, Dict]:
    """Record one chaotic fleet run twice and diff the bundles.

    The fleet's recovery paths (reassignment order, restarts, host
    fallback) must themselves be deterministic: two recordings of the
    same chaotic run have to produce byte-identical run bundles —
    including the ``shards`` schedule entries, so a divergence names the
    exact slot/worker/dispatch where supervision forked.
    """
    from ..obs.diff import record_twice_and_diff

    machine = amd_vega20()
    items = fleet_items(machine, sizes)
    plan = FaultPlan.worker_plan(seed)
    return record_twice_and_diff(
        lambda: FleetSupervisor(
            fleet_scheduler(machine),
            FleetParams(num_shards=num_shards),
            worker_faults=plan,
        ).schedule_batch(items),
        out_dir,
        "fleet",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet.chaos",
        description="Fleet chaos: worker-fault proofs + seed sweep + bitcheck.",
    )
    parser.add_argument(
        "--seeds",
        default=",".join(str(s) for s in PINNED_SEEDS),
        help="comma-separated worker chaos seeds for the mixed-rate sweep",
    )
    parser.add_argument(
        "--sizes",
        default=",".join(str(s) for s in DEFAULT_SIZES),
        help="comma-separated region sizes for the harness batch",
    )
    parser.add_argument(
        "--shards",
        default=",".join(str(s) for s in DEFAULT_SHARDS),
        help="comma-separated shard counts for the sweep",
    )
    parser.add_argument(
        "--skip-proofs",
        action="store_true",
        help="run only the mixed-rate sweep (skip the rate-1.0 proofs)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the recovery-proof JSON artifact to FILE",
    )
    parser.add_argument(
        "--bitcheck",
        metavar="DIR",
        default=None,
        help="record one chaotic fleet run twice into DIR and diff the "
        "bundles; a mismatch writes DIR/first-divergence.json and fails",
    )
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    shards = [int(s) for s in args.shards.split(",") if s.strip()]

    failed = False
    payload: Dict = {}
    if not args.skip_proofs:
        proofs = fault_class_proofs(sizes=sizes, num_shards=min(shards))
        print("[fleet-chaos] per-class proofs: %s" % proofs.summary())
        classes = proofs.faults_by_class
        for fault_class in WORKER_FAULT_CLASSES:
            if not classes.get(fault_class):
                print("[fleet-chaos] FAIL: class %r never injected" % fault_class)
                failed = True
        if proofs.recovery_rate < 1.0 or not proofs.all_ok:
            print("[fleet-chaos] FAIL: a forced-fault fleet run diverged")
            failed = True
        payload["proofs"] = proofs.to_json()

    sweep = chaos_sweep(seeds=seeds, sizes=sizes, shards=shards)
    print("[fleet-chaos] mixed-rate sweep: %s" % sweep.summary())
    if not sweep.all_ok:
        failed = True
    payload["sweep"] = sweep.to_json()

    if args.bitcheck:
        import os

        os.makedirs(args.bitcheck, exist_ok=True)
        identical, report = bitcheck(seeds[0], sizes, min(shards), args.bitcheck)
        payload["bitcheck_identical"] = identical
        if identical:
            print("[fleet-chaos] bitcheck: recorded fleet runs byte-identical")
        else:
            from ..obs.diff import render_report

            print("[fleet-chaos] FAIL: recorded fleet runs diverged")
            print(render_report(report), end="")
            failed = True

    if args.out:
        import os

        payload["ok"] = not failed
        directory = os.path.dirname(args.out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("[fleet-chaos] recovery proof written to %s" % args.out)

    print("[fleet-chaos] %s" % ("FAILED" if failed else "OK"))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
