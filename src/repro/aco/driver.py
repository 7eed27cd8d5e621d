"""The two-pass ACO driver shared by the CPU and the simulated-GPU engines.

The GPU scheduler (Section IV-B) runs the same search as the CPU reference
(Section IV-A): an RP pass minimizing the APRP-based cost, then an ILP pass
minimizing schedule length under the pass-1 APRP target, with the same
lower bounds, termination and pheromone rules. Only the way each
iteration's ants are constructed differs. Following Cecilia et al., who
treat tour construction and pheromone update as separate stages, an
*engine* constructs and this driver does everything else:

* the lower-bound skip of a pass (with its ``pass_end`` event);
* the pass-2 start (reference vs stretched order), length cap and target;
* strategy, pheromone table and termination tracker, and the checkpoint
  resume of the learned state;
* one iteration loop for both passes: deadline check, winner or no-winner
  pheromone update, re-initialization events, iteration telemetry;
* the pass result and ``pass_end``, the pass-1/pass-2 resume split, the
  ``search`` record and the ``--verify`` check.

An engine (see :class:`IterationEngine`) is built per ``schedule`` call and
owns its cost accounting: what a pass costs, when that cost is charged to
the deadline budget, and what it publishes next to the driver's events.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, NamedTuple, Optional, Protocol, Tuple, Type

from ..analysis.sanitizer import verification_enabled
from ..analysis.verifier import verify_aco_result, verify_order
from ..config import ACOParams
from ..ddg.graph import DDG
from ..ddg.lower_bounds import RegionBounds, region_bounds
from ..errors import DeviceHangError, ResilienceError
from ..heuristics.base import GuidingHeuristic
from ..heuristics.list_scheduler import order_schedule, schedule_in_order
from ..heuristics.luc import LastUseCountHeuristic
from ..ir.registers import RegisterClass
from ..machine.model import MachineModel
from ..obs.context import region_trace
from ..obs.record import get_recorder
from ..resilience.checkpoint import RegionCheckpoint
from ..resilience.log import get_resilience_log
from ..resilience.watchdog import DeadlineBudget
from ..rp.cost import rp_cost, rp_cost_lower_bound
from ..rp.liveness import peak_pressure
from ..schedule.schedule import Schedule
from ..telemetry import Telemetry, get_telemetry
from .ant import ConstructionStats
from .pheromone import PheromoneTable
from .strategy import make_strategy, publish_reinit, resolve_strategy, strategy_from_env
from .termination import TerminationTracker


@dataclass
class PassResult:
    """Outcome of one ACO pass on one region."""

    invoked: bool
    iterations: int
    initial_cost: float
    final_cost: float
    hit_lower_bound: bool
    seconds: float
    stats: ConstructionStats = field(default_factory=ConstructionStats)
    #: Per-iteration winner costs (the convergence curve of the search),
    #: derived from the telemetry layer's ``iteration`` events (see
    #: :meth:`repro.telemetry.PassScope.trace`).
    trace: Tuple[float, ...] = ()
    #: True when the pass stopped early because the region's deadline
    #: budget ran out (the best-so-far shipped as a partial result).
    deadline_hit: bool = False

    @property
    def improved(self) -> bool:
        return self.final_cost < self.initial_cost

    def breakdown(self) -> Dict[str, float]:
        """The engine's split of :attr:`seconds` (none on the CPU)."""
        return {}

    def payload(self) -> Dict:
        """JSON-serializable dict of a completed pass.

        A pass-2 checkpoint embeds the finished pass-1 result this way, so a
        resume skips pass 1 and still reports it. Construction stats are
        dropped: they are observability, not search state.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "stats"}
        payload["trace"] = list(self.trace)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict) -> "PassResult":
        """Rebuild a pass result from :meth:`payload`. Fields this class
        does not model (the GPU breakdown, on the CPU) are dropped; the
        seconds stay those of the attempt that actually ran the pass."""
        kept = {f.name for f in fields(cls)} & payload.keys()
        result = cls(**{name: payload[name] for name in kept})
        result.trace = tuple(result.trace)
        return result


@dataclass
class ACOResult:
    """Final outcome of two-pass ACO scheduling on one region."""

    schedule: Schedule
    peak: Dict[RegisterClass, int]
    rp_cost_value: int
    pass1: PassResult
    pass2: PassResult

    @property
    def seconds(self) -> float:
        return self.pass1.seconds + self.pass2.seconds

    @property
    def length(self) -> int:
        return self.schedule.length


class Winner(NamedTuple):
    """An iteration's best live ant, as an engine reports it."""

    #: RP cost in pass 1, schedule length in pass 2.
    cost: float
    order: Tuple[int, ...]
    peak: Optional[Dict[RegisterClass, int]] = None
    cycles: Optional[Tuple[int, ...]] = None


@dataclass
class PassState:
    """One pass's search state: the driver writes it, the engine reads it."""

    ddg: DDG
    pass_index: int
    lower_bound: float
    initial_cost: float
    #: Pass 1: the best order so far and its peak. Pass 2: pass 1's
    #: answer, fixed for the pass (a checkpoint re-enters pass 2 with it).
    best_order: Tuple[int, ...]
    best_peak: Dict[RegisterClass, int]
    #: Pass 2 only: the best schedule and its length, the APRP target and
    #: the schedule-length cap.
    best_schedule: Optional[Schedule] = None
    best_length: int = 0
    target: Optional[Dict[RegisterClass, int]] = None
    max_length: int = 0
    pheromone: PheromoneTable = field(init=False)
    tracker: TerminationTracker = field(init=False)

    @property
    def region_name(self) -> str:
        return self.ddg.region.name

    @property
    def best_path(self) -> Tuple[int, ...]:
        """The global-best order the pheromone update reinforces."""
        if self.pass_index == 1:
            return self.best_order
        assert self.best_schedule is not None
        return tuple(self.best_schedule.order)

    @property
    def final_cost(self) -> float:
        return self.tracker.best_cost if self.pass_index == 1 else self.best_length

    def adopt(self, winner: Winner) -> None:
        """Make an improving iteration winner the pass's best."""
        if self.pass_index == 1:
            assert winner.peak is not None
            self.best_order = winner.order
            self.best_peak = winner.peak
        else:
            assert winner.cycles is not None
            self.best_schedule = Schedule(self.ddg.region, winner.cycles)
            self.best_length = int(winner.cost)

    def restore(self, resume: RegionCheckpoint) -> None:
        """Carry a checkpoint's learned state into this pass: pheromone,
        tracker counters and global best. The engine decides whether its
        own draws can continue too (see ``IterationEngine.open_pass``)."""
        if resume.tau.shape != self.pheromone.tau.shape:
            raise ResilienceError(
                "checkpoint pheromone shape %s does not match region shape %s"
                % (resume.tau.shape, self.pheromone.tau.shape)
            )
        self.pheromone.tau[:] = resume.tau
        self.tracker.iterations = resume.iteration
        self.tracker.iterations_without_improvement = resume.without_improvement
        self.tracker.best_cost = resume.best_cost
        if self.pass_index == 1 or resume.best_cycles is not None:
            self.adopt(Winner(
                resume.best_cost, tuple(resume.best_order), dict(resume.best_peak),
                resume.best_cycles,
            ))


class IterationEngine(Protocol):
    """How one ``schedule`` call constructs ants.

    Per invoked pass the driver calls :meth:`open_pass`, then per iteration
    :meth:`charge` (budgeted runs only, before the deadline check),
    :meth:`iterate` and, after the pheromone update, :meth:`end_iteration`;
    after the loop :meth:`charge` once more (budgeted runs), then
    :meth:`close_pass` and, after ``pass_end``, :meth:`publish`.
    """

    #: Engine name stamped on the ``search`` record.
    backend: str

    def open_pass(self, state: PassState, resume: Optional[RegionCheckpoint]) -> None:
        """Set up a pass whose scope is open; ``state`` already holds the
        checkpoint's learned state when ``resume`` is given."""

    def charge(self, budget: DeadlineBudget) -> None:
        """Charge ``budget`` with the pass's cost not yet charged."""

    def iterate(self, state: PassState) -> Optional[Winner]:
        """Construct one iteration's ants; the best live one, or None when
        every ant broke the pass-2 pressure target."""

    def end_iteration(self, state: PassState) -> None:
        """Account for the pheromone update the driver just applied."""

    def close_pass(self, state: PassState) -> Dict:
        """The pass's cost fields for the pass result: ``seconds`` and the
        engine's own (breakdown, construction stats)."""

    def publish(self, state: PassState, result: PassResult) -> None:
        """Export the engine's events and metrics for the closed pass."""


class TwoPassACOScheduler:
    """What both two-pass ACO schedulers share; each subclass builds its
    engine and keeps ``schedule`` in its own class body."""

    #: Scheduler name on telemetry scopes, checkpoints and records.
    name: str
    result_type: Type[ACOResult] = ACOResult
    pass_result_type: Type[PassResult] = PassResult

    def __init__(
        self,
        machine: MachineModel,
        params: Optional[ACOParams],
        telemetry: Optional[Telemetry],
        verify: Optional[bool],
        strategy: Optional[str],
        rp_heuristic: Optional[GuidingHeuristic] = None,
    ):
        self.machine = machine
        self.params = params or ACOParams()
        self.params.validate()
        #: Guides the default initial order (and, on the CPU, pass-1 ants).
        self.rp_heuristic = rp_heuristic or LastUseCountHeuristic()
        self._telemetry = telemetry
        self._verify = verify
        self._strategy = strategy
        if strategy is not None:
            resolve_strategy(strategy)  # fail fast on unknown names

    @property
    def telemetry(self) -> Telemetry:
        """The injected telemetry, or the process-wide one (resolved late)."""
        return self._telemetry if self._telemetry is not None else get_telemetry()

    @property
    def verify_enabled(self) -> bool:
        """Explicit ``verify`` argument, else ``REPRO_VERIFY`` (resolved late)."""
        return self._verify if self._verify is not None else verification_enabled()

    @property
    def strategy_name(self) -> str:
        """Pheromone-update strategy: explicit argument, else
        ``REPRO_STRATEGY``, else the configured one (resolved late)."""
        if self._strategy is not None:
            return self._strategy
        return strategy_from_env() or self._configured_strategy()

    def _configured_strategy(self) -> str:
        return self.params.strategy

    # -- the driver ------------------------------------------------------------

    def _run_two_pass(
        self,
        engine: IterationEngine,
        ddg: DDG,
        seed: int,
        initial_order: Optional[Tuple[int, ...]],
        bounds: Optional[RegionBounds],
        reference_schedule: Optional[Schedule],
        budget: Optional[DeadlineBudget],
        resume: Optional[RegionCheckpoint],
    ) -> ACOResult:
        """Run both passes on one region, ``engine`` constructing the ants.

        Every telemetry event and profiler span the call produces carries
        the region's trace context — installed here for direct callers,
        inherited (so a ladder retry's rotated seed keeps the original
        trace id) when the pipeline/ladder already opened one.
        """
        with region_trace(ddg.region.name, ddg.num_instructions, seed):
            if bounds is None:
                bounds = region_bounds(ddg)
            if initial_order is None:
                initial_order = order_schedule(ddg, heuristic=self.rp_heuristic).order
            if resume is not None and resume.region != ddg.region.name:
                raise ResilienceError(
                    "checkpoint is for region %r, not %r"
                    % (resume.region, ddg.region.name)
                )
            if resume is not None and resume.pass_index == 2 and resume.pass1 is not None:
                # Pass 1 finished before the interruption; its result and
                # outputs ride in the checkpoint, so resume re-enters pass 2.
                pass1 = self.pass_result_type.from_payload(resume.pass1)
                best_order = tuple(resume.best_order)
                best_peak = dict(resume.best_peak)
                resume2: Optional[RegionCheckpoint] = resume
            else:
                rp = self._rp_state(ddg, bounds, tuple(initial_order))
                resume1 = resume if resume is not None and resume.pass_index == 1 else None
                pass1 = self._run_pass(engine, rp, budget, resume1)
                best_order, best_peak, resume2 = rp.best_order, rp.best_peak, None
            ilp = self._ilp_state(ddg, bounds, best_order, best_peak, reference_schedule)
            try:
                pass2 = self._run_pass(engine, ilp, budget, resume2)
            except DeviceHangError as exc:
                if exc.checkpoint is not None and exc.checkpoint.pass1 is None:
                    exc.checkpoint.pass1 = pass1.payload()
                raise
            schedule = ilp.best_schedule
            assert schedule is not None
            final_peak = peak_pressure(schedule)
            result = self.result_type(
                schedule=schedule,
                peak=final_peak,
                rp_cost_value=rp_cost(final_peak, self.machine),
                pass1=pass1,
                pass2=pass2,
            )
            recorder = get_recorder()
            if recorder is not None:
                recorder.record_schedule(
                    "search",
                    region=ddg.region.name,
                    seed=seed,
                    scheduler=self.name,
                    backend=engine.backend,
                    order=list(schedule.order),
                    cycles=list(schedule.cycles),
                    length=schedule.length,
                    rp_cost=result.rp_cost_value,
                )
            if self.verify_enabled:
                report = verify_order(ddg, best_order)
                report.merge(
                    verify_aco_result(
                        result, ddg, self.machine,
                        target_aprp=self.machine.aprp(best_peak),
                    )
                )
                report.publish(self.telemetry, ddg.region.name)
                report.raise_if_failed()
            return result

    def _rp_state(
        self, ddg: DDG, bounds: RegionBounds, initial_order: Tuple[int, ...]
    ) -> PassState:
        peak = peak_pressure(Schedule.from_order(ddg.region, initial_order))
        return PassState(
            ddg,
            1,
            lower_bound=rp_cost_lower_bound(bounds, self.machine),
            initial_cost=rp_cost(peak, self.machine),
            best_order=initial_order,
            best_peak=peak,
        )

    def _ilp_state(
        self,
        ddg: DDG,
        bounds: RegionBounds,
        best_order: Tuple[int, ...],
        best_peak: Dict[RegisterClass, int],
        reference_schedule: Optional[Schedule],
    ) -> PassState:
        # The pass-1 pressure constrains pass 2 at APRP granularity: any
        # pressure that keeps the same occupancy step is acceptable.
        target = self.machine.aprp(best_peak)
        initial = schedule_in_order(ddg, best_order)
        # When the heuristic's own latency-aware schedule already satisfies
        # the pressure target (always true when pass 1 made no progress), it
        # is a better starting point than the stretched pass-1 order.
        if reference_schedule is not None and reference_schedule.length < initial.length:
            ref_peak = peak_pressure(reference_schedule)
            if all(ref_peak.get(cls, 0) <= limit for cls, limit in target.items()):
                initial = reference_schedule
        return PassState(
            ddg,
            2,
            lower_bound=bounds.length,
            initial_cost=initial.length,
            best_order=best_order,
            best_peak=best_peak,
            best_schedule=initial,
            best_length=initial.length,
            target=target,
            # Length cap from the *pass-start* best, recomputed identically
            # on resume (the checkpointed best must not tighten it), which
            # keeps resumed searches draw-for-draw compatible.
            max_length=max(2 * initial.length, initial.length + 16),
        )

    def _run_pass(
        self,
        engine: IterationEngine,
        state: PassState,
        budget: Optional[DeadlineBudget],
        resume: Optional[RegionCheckpoint],
    ) -> PassResult:
        tele = self.telemetry
        region = state.region_name
        index = state.pass_index
        lower_bound = state.lower_bound
        if state.initial_cost <= lower_bound:
            tele.emit(
                "pass_end",
                region=region,
                pass_index=index,
                invoked=False,
                iterations=0,
                final_cost=float(state.initial_cost),
                hit_lower_bound=True,
                seconds=0.0,
            )
            return self.pass_result_type(
                False, 0, state.initial_cost, state.initial_cost, True, 0.0
            )

        num_instructions = state.ddg.num_instructions
        strategy = make_strategy(self.strategy_name, self.params, num_instructions)
        scope = tele.pass_scope(
            region, index, self.name, lower_bound, state.initial_cost,
            strategy=strategy.name,
        )
        state.pheromone = PheromoneTable(num_instructions, self.params)
        state.tracker = tracker = TerminationTracker(
            lower_bound=lower_bound,
            stagnation_limit=strategy.stagnation_limit(
                self.params.termination_condition(len(state.ddg.region))
            ),
            best_cost=state.initial_cost,
        )
        if resume is not None:
            state.restore(resume)
        engine.open_pass(state, resume)
        deadline_hit = False
        while not tracker.should_stop() and tracker.iterations < self.params.max_iterations:
            if budget is not None:
                engine.charge(budget)
                if budget.exhausted:
                    # A soft-deadline stop: the best-so-far ships.
                    deadline_hit = True
                    get_resilience_log().deadline_trips += 1
                    tele.emit(
                        "deadline",
                        region=region,
                        pass_index=index,
                        deadline_seconds=budget.deadline,
                        spent_seconds=budget.spent,
                    )
                    if tele.collect_metrics:
                        tele.metrics.counter("resilience.deadline_trips").inc()
                    break
            winner = engine.iterate(state)
            if winner is None:
                # Every ant violated the constraint: count a stagnant
                # iteration; the strategy's update alone reshapes the search.
                tracker.record_iteration(tracker.best_cost)
                reinitialized = strategy.update_no_winner(
                    state.pheromone,
                    best_order=state.best_path,
                    best_gap=tracker.best_cost - lower_bound,
                    without_improvement=tracker.iterations_without_improvement,
                )
            else:
                if tracker.record_iteration(winner.cost):
                    state.adopt(winner)
                reinitialized = strategy.update(
                    state.pheromone,
                    winner_order=winner.order,
                    winner_gap=winner.cost - lower_bound,
                    best_order=state.best_path,
                    best_gap=tracker.best_cost - lower_bound,
                    without_improvement=tracker.iterations_without_improvement,
                )
            if reinitialized:
                publish_reinit(
                    tele, region, index, tracker.iterations,
                    strategy.tau_max(tracker.best_cost - lower_bound),
                )
            scope.iteration(
                float("inf") if winner is None else float(winner.cost),
                tracker.best_cost,
            )
            engine.end_iteration(state)
        if budget is not None:
            engine.charge(budget)
        result = self.pass_result_type(
            invoked=True,
            iterations=tracker.iterations,
            initial_cost=state.initial_cost,
            final_cost=state.final_cost,
            hit_lower_bound=tracker.hit_lower_bound,
            trace=scope.trace,
            deadline_hit=deadline_hit,
            **engine.close_pass(state),
        )
        scope.end(
            invoked=True,
            iterations=tracker.iterations,
            final_cost=float(state.final_cost),
            hit_lower_bound=tracker.hit_lower_bound,
            seconds=result.seconds,
            **result.breakdown(),
        )
        engine.publish(state, result)
        return result
