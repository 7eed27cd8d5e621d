"""The sequential two-pass ACO scheduler (Section IV-A).

This is the CPU reference implementation the parallel scheduler is compared
against in Tables 3.a/3.b and Table 5. Pass 1 minimizes the APRP-based RP
cost over instruction *orders*; pass 2 fixes the pass-1 pressure as a hard
constraint and minimizes schedule *length* over cycle-accurate schedules
with stalls. Each pass runs ``sequential_ants`` ants per iteration and
terminates on the lower bound or on stagnation; the passes themselves are
run by :mod:`repro.aco.driver`, this module only constructs the ants.

Scheduling time is reported through the deterministic CPU cost model of
:mod:`repro.timing` (see that module for why wall-clock Python timing would
not reproduce the paper's mechanisms).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Tuple

from ..config import ACOParams
from ..ddg.graph import DDG
from ..ddg.lower_bounds import RegionBounds
from ..heuristics.base import GuidingHeuristic
from ..heuristics.critical_path import CriticalPathHeuristic
from ..machine.model import MachineModel
from ..profile import get_profiler
from ..resilience.checkpoint import RegionCheckpoint
from ..resilience.watchdog import DeadlineBudget
from ..schedule.schedule import Schedule
from ..telemetry import Telemetry
from ..timing import DEFAULT_CPU_COST, CPUCostModel, HostSecondsLedger
from .ant import ConstructionStats, construct_cycles, construct_order
from .driver import ACOResult, PassResult, PassState, TwoPassACOScheduler, Winner
from .seeding import launch_rng
from .stalls import OptionalStallHeuristic


class _CPUEngine:
    """Constructs each iteration's ``sequential_ants`` ants one by one.

    One ``random.Random`` serves both passes, so a checkpoint from another
    engine cannot continue its draw sequence: a resume is always *partial*
    (the driver carries over pheromone, global best and tracker counters;
    the remaining exploration draws fresh). This is the cross-engine rung
    of the degradation ladder: a hung parallel attempt hands its progress
    to the CPU engine.
    """

    backend = "sequential"

    def __init__(self, scheduler: "SequentialACOScheduler", seed: int):
        self.scheduler = scheduler
        self.rng = launch_rng(seed)

    def open_pass(self, state: PassState, resume: Optional[RegionCheckpoint]) -> None:
        s = self.scheduler
        overhead = s.cost_model.region_overhead
        self.prof = get_profiler()
        self.prof.push("pass%d" % state.pass_index, "pass")
        self.prof.charge_leaf("overhead", overhead, "overhead")
        self.ledger = HostSecondsLedger(overhead)
        self.charged = 0.0
        self.stats = ConstructionStats()
        ddg = state.ddg
        if state.pass_index == 1:
            self.construct = partial(
                construct_order, ddg, s.machine, state.pheromone,
                s.rp_heuristic.prepare(ddg), s.params, self.rng,
            )
        else:
            self.construct = partial(
                construct_cycles, ddg, s.machine, state.pheromone,
                s.ilp_heuristic.prepare(ddg), s.params, self.rng,
                target_pressure=state.target,
                allow_optional_stalls=True,
                stall_heuristic=OptionalStallHeuristic(s.params, len(ddg.region)),
                max_length=state.max_length,
            )

    def charge(self, budget: DeadlineBudget) -> None:
        budget.charge(self.ledger.total - self.charged)
        self.charged = self.ledger.total

    def iterate(self, state: PassState) -> Optional[Winner]:
        cost_model = self.scheduler.cost_model
        winner: Optional[Winner] = None
        self.constructed = HostSecondsLedger()
        for _ant in range(self.scheduler.params.sequential_ants):
            ant = self.construct()
            self.stats.merge(ant.stats)
            seconds = cost_model.construction_seconds(
                ant.stats.steps, ant.stats.ready_scans, ant.stats.successor_ops
            )
            self.ledger.charge(seconds)
            self.constructed.charge(seconds)
            cost = ant.rp_cost_value if state.pass_index == 1 else ant.length
            if ant.alive and (winner is None or cost < winner.cost):
                winner = Winner(cost, ant.order, ant.peak, ant.cycles)
        return winner

    def end_iteration(self, state: PassState) -> None:
        seconds = self.scheduler.cost_model.pheromone_seconds(
            state.pheromone.touched_entries()
        )
        self.ledger.charge(seconds)
        if self.prof.enabled:
            with self.prof.span("iteration", "iteration"):
                self.prof.charge_leaf("construct", self.constructed.total, "construct")
                self.prof.charge_leaf("pheromone", seconds, "pheromone")

    def close_pass(self, state: PassState) -> Dict:
        self.prof.pop()
        return {"seconds": self.ledger.total, "stats": self.stats}

    def publish(self, state: PassState, result: PassResult) -> None:
        """Export the pass's construction-operation counts as seq.* metrics."""
        tele = self.scheduler.telemetry
        if not tele.collect_metrics:
            return
        for name in ("steps", "ready_scans", "successor_ops", "stalls", "optional_stalls"):
            tele.metrics.counter("seq." + name).inc(getattr(result.stats, name))


class SequentialACOScheduler(TwoPassACOScheduler):
    """Two-pass ACO scheduling on the CPU."""

    name = "sequential-aco"

    def __init__(
        self,
        machine: MachineModel,
        params: Optional[ACOParams] = None,
        rp_heuristic: Optional[GuidingHeuristic] = None,
        ilp_heuristic: Optional[GuidingHeuristic] = None,
        cost_model: CPUCostModel = DEFAULT_CPU_COST,
        telemetry: Optional[Telemetry] = None,
        verify: Optional[bool] = None,
        strategy: Optional[str] = None,
    ):
        super().__init__(machine, params, telemetry, verify, strategy, rp_heuristic)
        self.ilp_heuristic = ilp_heuristic or CriticalPathHeuristic()
        self.cost_model = cost_model

    def schedule(
        self,
        ddg: DDG,
        seed: int = 0,
        initial_order: Optional[Tuple[int, ...]] = None,
        bounds: Optional[RegionBounds] = None,
        reference_schedule: Optional[Schedule] = None,
        fault_plan=None,
        budget: Optional[DeadlineBudget] = None,
        attempt: int = 0,
        resume: Optional[RegionCheckpoint] = None,
    ) -> ACOResult:
        """Run both passes on one region.

        ``initial_order`` is the heuristic schedule's instruction order (the
        pipeline passes the AMD baseline's); by default the LUC greedy order
        is used. ``reference_schedule`` is the heuristic's latency-aware
        schedule — pass 2 starts from it whenever it satisfies the pressure
        target and beats the stretched pass-1 order. ``bounds`` may be
        precomputed and shared.

        The resilience arguments mirror the parallel scheduler's so the
        degradation ladder can swap engines freely: ``budget`` enforces the
        region deadline, ``resume`` restores a checkpoint (partial — see
        :class:`_CPUEngine`). ``fault_plan`` and ``attempt`` are accepted
        for signature parity; the CPU engine has no device hazards, which
        is exactly why it is the ladder's safe rung.
        """
        return self._run_two_pass(
            _CPUEngine(self, seed), ddg, seed, initial_order, bounds,
            reference_schedule, budget, resume,
        )
