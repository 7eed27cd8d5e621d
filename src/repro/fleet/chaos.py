"""Fleet chaos harness: prove worker-fault detection -> reassignment ->
recovery -> bit-identical merge.

The fleet's half of the chaos harness whose skeleton (proof and sweep
loops, report aggregates, CLI) lives in :mod:`repro.resilience.chaos`.
A trial is one supervised batch under a worker fault plan, compared with
the single-device run: :func:`fault_class_proofs` forces each worker
fault class at rate 1.0, :func:`chaos_sweep` runs the pinned seeds across
shard counts, ``--bitcheck`` records one chaotic fleet run twice (bundles
include the ``shards`` schedule level) and ``--out`` writes the JSON
recovery proof.

Runnable as a module — CI's fleet-chaos job is exactly::

    python -m repro.fleet.chaos --out fleet-proof/proof.json --bitcheck fleet-proof
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..config import ACOParams, FleetParams, GPUParams
from ..gpusim.faults import DEFAULT_WORKER_CHAOS_RATES, WORKER_FAULT_CLASSES, FaultPlan
from ..machine.model import MachineModel
from ..machine.targets import amd_vega20
from ..parallel.multi_region import BatchItem, BatchResult, MultiRegionScheduler
from ..resilience import chaos as skeleton
from .supervisor import FleetSupervisor

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
        for index, ddg in enumerate(skeleton.chaos_regions(machine, sizes, seed=seed))
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

    def surface(batch: BatchResult) -> tuple:
        return (
            batch.seconds,
            batch.unbatched_seconds,
            batch.blocks_per_region,
            batch.errors,
            batch.attempts,
            batch.final_backends,
            [
                None if r is None else (r.schedule, r.rp_cost_value, r.seconds)
                for r in batch.results
            ],
        )

    return surface(single) == surface(fleet)


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
    def ok(self) -> bool:
        return self.resolved and self.identical and self.schedules_valid

    @property
    def recovered(self) -> bool:
        """A faulted run recovers only by merging bit-identically."""
        return self.ok

    def mark_invalid(self) -> None:
        self.schedules_valid = False


@dataclass
class FleetChaosReport(skeleton.TrialReport):
    """Aggregate of the proofs and/or the sweep."""

    listed_classes = WORKER_FAULT_CLASSES

    @property
    def reassignments(self) -> int:
        return sum(t.reassignments for t in self.trials)

    def proof_failure(self) -> Optional[str]:
        return None if self.all_ok else "a forced-fault fleet run diverged"

    def summary(self) -> str:
        return (
            "%d trial(s), worker faults [%s], %d reassignment(s), "
            "recovery rate %.0f%%, merges %s"
            % (
                len(self.trials),
                self._faults_text(),
                self.reassignments,
                100.0 * self.recovery_rate,
                "all bit-identical" if self.all_ok else "DIVERGED",
            )
        )

    def to_json(self) -> Dict:
        """Deterministic JSON payload (the CI recovery-proof artifact)."""
        return {
            "trials": [asdict(t) for t in self.trials],
            "faults_by_class": self.faults_by_class,
            "reassignments": self.reassignments,
            "recovery_rate": self.recovery_rate,
            "all_ok": self.all_ok,
        }


def _fleet_trials(
    machine: MachineModel, sizes: Sequence[int], shards: Sequence[int]
) -> skeleton.TrialRunner:
    items = fleet_items(machine, sizes)
    single = fleet_scheduler(machine).schedule_batch(items)

    def trials(plan: FaultPlan, chaos_seed: int) -> Iterable[FleetTrial]:
        for num_shards in shards:
            fleet = FleetSupervisor(
                fleet_scheduler(machine),
                FleetParams(num_shards=num_shards),
                worker_faults=plan,
            ).schedule_batch(items)
            batch = fleet.batch
            yield FleetTrial(
                chaos_seed=chaos_seed,
                num_shards=num_shards,
                fault_counts=dict(fleet.worker_faults),
                reassignments=fleet.reassignments,
                restarts=fleet.restarts,
                host_fallback_regions=fleet.host_fallback_regions,
                recovered_regions=fleet.recovered_regions,
                resolved=len(batch.results) == len(items),
                identical=batches_identical(single, batch),
                schedules_valid=all(
                    result is not None
                    and skeleton.schedule_valid(result.schedule, item.ddg, machine)
                    for item, result in zip(items, batch.results)
                ),
                fleet_seconds=fleet.fleet_seconds,
                batch_seconds=batch.seconds,
            )

    return trials


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
    trials = _fleet_trials(machine or amd_vega20(), sizes, (num_shards,))
    return FleetChaosReport(skeleton.proof_trials(WORKER_FAULT_CLASSES, trials))


def chaos_sweep(
    seeds: Sequence[int] = skeleton.PINNED_SEEDS,
    machine: Optional[MachineModel] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    shards: Sequence[int] = DEFAULT_SHARDS,
    rates: Optional[Dict[str, float]] = None,
) -> FleetChaosReport:
    """Chaotic fleet runs across seeds x shard counts at mixed rates."""
    trials = _fleet_trials(machine or amd_vega20(), sizes, shards)
    return FleetChaosReport(
        skeleton.sweep_trials(seeds, rates or DEFAULT_WORKER_CHAOS_RATES, trials)
    )


def _chaotic_run(args) -> Callable[[], object]:
    """``--bitcheck``'s run: the first seed on the fewest shards."""
    machine = amd_vega20()
    items = fleet_items(machine, args.sizes)
    plan = FaultPlan.worker_plan(args.seeds[0])
    return lambda: FleetSupervisor(
        fleet_scheduler(machine),
        FleetParams(num_shards=min(args.shards)),
        worker_faults=plan,
    ).schedule_batch(items)


def _add_arguments(parser) -> None:
    parser.add_argument(
        "--shards",
        type=skeleton.int_list,
        default=DEFAULT_SHARDS,
        help="comma-separated shard counts for the sweep",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="write the recovery-proof JSON artifact to FILE",
    )


def _write_proof(args, proofs, sweep, identical, failed) -> None:
    if not args.out:
        return
    payload: Dict = {"sweep": sweep.to_json(), "ok": not failed}
    if proofs is not None:
        payload["proofs"] = proofs.to_json()
    if identical is not None:
        payload["bitcheck_identical"] = identical
    directory = os.path.dirname(args.out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("[fleet-chaos] recovery proof written to %s" % args.out)


HARNESS = skeleton.Harness(
    prog="python -m repro.fleet.chaos",
    description="Fleet chaos: worker-fault proofs + seed sweep + bitcheck.",
    tag="fleet-chaos",
    default_sizes=DEFAULT_SIZES,
    fault_classes=WORKER_FAULT_CLASSES,
    proofs=lambda args: fault_class_proofs(
        sizes=args.sizes, num_shards=min(args.shards)
    ),
    sweep=lambda args: chaos_sweep(
        seeds=args.seeds, sizes=args.sizes, shards=args.shards
    ),
    record=_chaotic_run,
    bundle="fleet",
    recorded="fleet runs",
    add_arguments=_add_arguments,
    finish=_write_proof,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return skeleton.run_cli(HARNESS, argv)


if __name__ == "__main__":
    raise SystemExit(main())
