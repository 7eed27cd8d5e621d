"""The two-pass GPU-parallel ACO scheduler (Section IV-B).

Runs the same two-pass search as
:class:`~repro.aco.sequential.SequentialACOScheduler` — same lower bounds,
same termination conditions, same pheromone rules, one driver
(:mod:`repro.aco.driver`) — but each iteration constructs ``blocks * 64``
schedules at once with the vectorized colony, and scheduling time comes
from the simulated device: one kernel launch per invoked pass (the paper
launches a single cooperative kernel whose main loop runs all iterations
on-device), one host->device transfer of the region image and the
preallocated per-ant state, per-iteration reduction and pheromone-update
costs, and the per-step lockstep cycle charges accumulated by the colony.

Memory-optimization toggles map onto the simulation as follows
(Section V-A): with ``soa_layout`` off, the naive baseline is simulated —
array-of-structures state (uncoalesced transactions) with linked lists kept
through device-side dynamic allocation; with ``tight_ready_list_bound`` off
the per-ant buffers are sized by the trivial bound ``n``; with
``batched_transfers`` off every device array is copied with its own call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..aco.driver import ACOResult, PassResult, PassState, TwoPassACOScheduler, Winner
from ..analysis.sanitizer import ColonySanitizer
from ..config import ACOParams, GPUParams, backend_from_env
from ..ddg.graph import DDG
from ..ddg.lower_bounds import RegionBounds
from ..errors import CorruptionDetected, DeviceHangError, KernelLaunchError
from ..gpusim.device import GPUDevice
from ..gpusim.faults import FaultPlan, FaultyDevice
from ..gpusim.kernel import KernelAccounting, TransferAccounting
from ..gpusim.reduction import reduction_cycles
from ..machine.model import MachineModel
from ..obs.record import get_recorder
from ..profile import get_profiler
from ..resilience.checkpoint import RegionCheckpoint
from ..resilience.watchdog import DeadlineBudget
from ..schedule.schedule import Schedule
from ..telemetry import OCCUPANCY_PCT_BUCKETS, Telemetry
from .colony import Colony, resolve_backend
from .divergence import DivergencePolicy
from .layouts import RegionDeviceData
from .rng import AntRngStreams


@dataclass
class ParallelPassResult(PassResult):
    """Pass outcome plus the GPU time breakdown."""

    transfer_seconds: float = 0.0
    kernel_seconds: float = 0.0
    launch_seconds: float = 0.0

    def breakdown(self) -> Dict[str, float]:
        return {
            "kernel_seconds": self.kernel_seconds,
            "transfer_seconds": self.transfer_seconds,
            "launch_seconds": self.launch_seconds,
        }


@dataclass
class ParallelACOResult(ACOResult):
    """Final outcome of GPU-parallel two-pass scheduling on one region."""


def _per_ant_words(data: RegionDeviceData) -> int:
    """Words of one ant's preallocated state (Section V-A)."""
    return 2 * data.ready_capacity + 2 * data.num_instructions + 2 * data.num_registers + 8


class _DeviceEngine:
    """Constructs each iteration's ants at once on the simulated GPU.

    Each invoked pass is one kernel launch. The engine owns the launch
    check, the colony and its host->device transfer, the injected hang and
    corruption hazards, the per-iteration overhead cycles, checkpoint
    capture and RNG-stream restore, and the launch's telemetry and
    profile. The deadline budget is charged the transfer and launch when a
    pass opens, then each iteration's kernel time.
    """

    def __init__(
        self,
        scheduler: "ParallelACOScheduler",
        ddg: DDG,
        seed: int,
        fault_plan: Optional[FaultPlan],
        budget: Optional[DeadlineBudget],
        attempt: int,
    ):
        self.scheduler = scheduler
        self.device = scheduler.device
        self.backend = scheduler.backend
        self.seed = seed
        self.budget = budget
        self.attempt = attempt
        self.data = RegionDeviceData(
            ddg, scheduler.machine,
            tight_ready_bound=scheduler.gpu_params.tight_ready_list_bound,
        )
        self.faulty = (
            FaultyDevice(self.device, fault_plan) if fault_plan is not None else None
        )
        self.policy = DivergencePolicy.from_params(scheduler.gpu_params)
        if self.faulty is not None:
            # Section V-A preallocates the whole per-ant state in one block;
            # that is the allocation that can fail.
            self.faulty.check_preallocation(
                ddg.region.name,
                attempt,
                requested_bytes=4 * _per_ant_words(self.data) * self.policy.num_ants,
            )

    # -- the engine protocol (see repro.aco.driver.IterationEngine) -----------

    def open_pass(self, state: PassState, resume: Optional[RegionCheckpoint]) -> None:
        site = (state.region_name, state.pass_index, self.attempt)
        launch = self.device.cost.launch_overhead
        faulty = self.faulty
        if faulty is not None:
            try:
                faulty.check_launch(*site)
            except KernelLaunchError:
                # A failed launch still burns its fixed overhead.
                if self.budget is not None:
                    self.budget.charge(launch)
                raise
        self.colony, self.accounting = self._make_colony(self.seed + state.pass_index - 1)
        self.transfer = self._transfer()
        # Injected hazards for this attempt: a corrupted host->device copy
        # stays silent until the integrity check at copy-back; a hang fires
        # after a fixed number of this attempt's iterations.
        self.corrupted = faulty is not None and faulty.transfer_corrupted(*site)
        self.hang_after = faulty.hang_iteration(*site) if faulty is not None else None
        self.launched = 0
        self.charged_kernel = 0.0
        # The per-ant RNG streams continue draw-for-draw only when the
        # population matches; otherwise the resumed attempt keeps the
        # learned state but re-explores with fresh streams.
        if resume is not None and resume.exact_rng_resume(self.colony.num_ants):
            self.colony.streams.restore(resume.rng_state)
        if self.budget is not None:
            self.budget.charge(self.transfer.seconds() + launch)

    def charge(self, budget: DeadlineBudget) -> None:
        kernel_now = self.accounting.kernel_seconds()
        budget.charge(kernel_now - self.charged_kernel)
        self.charged_kernel = kernel_now

    def iterate(self, state: PassState) -> Optional[Winner]:
        if self.hang_after is not None and self.launched >= self.hang_after:
            raise self._hang(state)
        recorder = get_recorder()
        if recorder is not None:
            recorder.begin_iteration(
                state.region_name, state.pass_index, state.tracker.iterations
            )
        tau = state.pheromone.tau
        if state.pass_index == 1:
            result = self.colony.run_rp_iteration(tau)
        else:
            result = self.colony.run_ilp_iteration(tau, state.target, state.max_length)
        self.accounting.charge_uniform_cycles(self._iteration_overhead_cycles())
        self.launched += 1
        if result.winner_order is None:
            return None
        return Winner(
            result.winner_cost, result.winner_order, result.winner_peak, result.winner_cycles
        )

    def end_iteration(self, state: PassState) -> None:
        """Pheromone-update cost is already in the iteration's overhead cycles."""

    def close_pass(self, state: PassState) -> Dict:
        if self.corrupted:
            raise CorruptionDetected(
                "integrity check at copy-back: corrupted transfer in region %r "
                "pass %d attempt %d" % (state.region_name, state.pass_index, self.attempt),
                seconds=self._burned(),
            )
        launch = self.device.cost.launch_overhead
        kernel = self.accounting.kernel_seconds()
        transfer = self.transfer.seconds()
        self._profile_launch(state.pass_index, transfer, launch)
        return {
            "seconds": kernel + transfer + launch,
            "transfer_seconds": transfer,
            "kernel_seconds": kernel,
            "launch_seconds": launch,
        }

    def publish(self, state: PassState, result: ParallelPassResult) -> None:
        """Export the launch: kernel/transfer events + gpusim.* and
        parallel.* metrics (divergence, dead ants, ready-list bound)."""
        tele = self.scheduler.telemetry
        if not tele.active:
            return
        colony, accounting, data = self.colony, self.accounting, self.data
        totals = accounting.charge_totals()
        # Optional (schema-v1 extra) attribution fields: the full cost
        # breakdown travels with the event so a trace alone can attribute
        # every launch's seconds (see repro.profile.attribution).
        attributed = {
            name + "_seconds": value
            for name, value in accounting.attributed_seconds().items()
        }
        tele.emit(
            "kernel_launch",
            region=state.region_name,
            pass_index=state.pass_index,
            backend=colony.backend_name,
            strategy=self.scheduler.strategy_name,
            wavefronts=accounting.num_wavefronts,
            ants=colony.num_ants,
            iterations=state.tracker.iterations,
            **result.breakdown(),
            serialized_selection_waves=colony.serialized_selection_waves,
            serialized_stall_waves=colony.serialized_stall_waves,
            dead_ants=colony.dead_ants_total,
            ready_peak=colony.ready_peak,
            ready_capacity=data.ready_capacity,
            batches=accounting.batches(),
            coalesced=accounting.coalesced,
            coalescing_factor=(
                1.0 if accounting.coalesced else self.device.cost.uncoalesced_factor
            ),
            **totals,
            **attributed,
        )
        tele.emit(
            "transfer",
            region=state.region_name,
            pass_index=state.pass_index,
            bytes=self.transfer.total_bytes,
            calls=self.transfer.array_count,
            seconds=result.transfer_seconds,
        )
        if tele.collect_metrics:
            m = tele.metrics
            m.counter("gpusim.launches").inc()
            m.counter("gpusim.kernel_us").inc(result.kernel_seconds * 1e6)
            m.counter("gpusim.transfer_us").inc(result.transfer_seconds * 1e6)
            m.counter("gpusim.launch_us").inc(result.launch_seconds * 1e6)
            m.counter("gpusim.transfer_bytes").inc(self.transfer.total_bytes)
            for name, value in totals.items():
                m.counter("gpusim." + name).inc(value)
            m.counter("parallel.constructions").inc(colony.constructions_total)
            m.counter("parallel.dead_ants").inc(colony.dead_ants_total)
            m.counter("parallel.serialized_selection_waves").inc(
                colony.serialized_selection_waves
            )
            m.counter("parallel.serialized_stall_waves").inc(
                colony.serialized_stall_waves
            )
            m.histogram(
                "parallel.ready_occupancy_pct", OCCUPANCY_PCT_BUCKETS
            ).observe(100.0 * colony.ready_peak / data.ready_capacity)

    # -- the launch --------------------------------------------------------------

    def _make_colony(self, seed: int) -> Tuple[Colony, KernelAccounting]:
        gpu_params, policy = self.scheduler.gpu_params, self.policy
        accounting = KernelAccounting(
            self.device,
            policy.num_wavefronts,
            coalesced=gpu_params.soa_layout,
            dynamic_alloc=not gpu_params.soa_layout,
        )
        rng = AntRngStreams(seed, policy.num_ants)
        # In verify mode, sanitize the colony too; otherwise leave resolution
        # to the colony itself (the REPRO_SANITIZE knob).
        sanitizer = ColonySanitizer() if self.scheduler.verify_enabled else None
        colony_cls = resolve_backend(self.backend)
        colony = colony_cls(
            self.data, self.scheduler.params, policy, accounting, rng, sanitizer=sanitizer
        )
        return colony, accounting

    def _transfer(self) -> TransferAccounting:
        """Host->device copy of the region image.

        The per-ant state is *not* copied: the kernel's threads initialize
        their own preallocated buffers on the device (Section V-A allocates
        on the host but a single contiguous block, and re-initialization
        between iterations happens in the kernel) — its cost is charged as
        cycles in :meth:`_iteration_overhead_cycles`.
        """
        transfer = TransferAccounting(self.device, self.scheduler.gpu_params.batched_transfers)
        for array in self.data.device_arrays():
            transfer.add_ndarray(np.asarray(array))
        return transfer

    def _iteration_overhead_cycles(self) -> float:
        """Per-iteration costs outside construction: per-ant state reset,
        the winner reduction, the pheromone decay/deposit and the barriers."""
        cost = self.device.cost
        num_ants = self.colony.num_ants
        n = self.data.num_instructions
        entries = (n + 1) * n
        per_thread_rows = math.ceil(entries / num_ants)
        pheromone = per_thread_rows * (2 * cost.cycles_per_op + cost.cycles_per_transaction / 8.0)
        barriers = 3 * cost.cycles_per_transaction
        # Lane-local state reset: one coalesced store per word row.
        init = _per_ant_words(self.data) * (cost.cycles_per_transaction / 4.0)
        return reduction_cycles(num_ants, cost) + pheromone + barriers + init

    def _hang(self, state: PassState) -> DeviceHangError:
        """The watchdog's hang error: snapshot the search at this iteration
        boundary, charge the heartbeat timeout, report everything the dead
        attempt burned. A pass-2 checkpoint's ``best_order``/``best_peak``
        are the pass-2 inputs; the evolving best is ``best_cycles``. The
        driver attaches the completed pass-1 result."""
        colony, tracker = self.colony, state.tracker
        checkpoint = RegionCheckpoint(
            region=state.region_name,
            scheduler=self.scheduler.name,
            backend=colony.backend_name,
            seed=self.seed,
            pass_index=state.pass_index,
            iteration=tracker.iterations,
            tau=state.pheromone.tau.copy(),
            best_cost=tracker.best_cost,
            without_improvement=tracker.iterations_without_improvement,
            best_order=tuple(state.best_order),
            best_peak=dict(state.best_peak),
            best_cycles=(
                None if state.best_schedule is None else tuple(state.best_schedule.cycles)
            ),
            rng_state=colony.streams.state(),
            num_ants=colony.num_ants,
        )
        assert self.faulty is not None
        penalty = self.faulty.plan.hang_seconds
        if self.budget is not None:
            self.budget.charge(penalty)
        return DeviceHangError(
            "watchdog: injected hang in region %r pass %d attempt %d at iteration %d"
            % (state.region_name, state.pass_index, self.attempt, tracker.iterations),
            seconds=self._burned() + penalty,
            checkpoint=checkpoint,
        )

    def _burned(self) -> float:
        """Seconds the launch has cost so far: kernel, transfer, launch."""
        return (
            self.accounting.kernel_seconds()
            + self.transfer.seconds()
            + self.device.cost.launch_overhead
        )

    def _profile_launch(
        self, pass_index: int, transfer_seconds: float, launch_seconds: float
    ) -> None:
        """Charge one simulated launch to the span profiler.

        The pass's whole modelled time lands on leaf spans: transfer and
        launch overhead directly, kernel time split per cost category by
        cycle share (so region -> pass -> kernel/compute etc. nest under
        whatever span the caller — usually the pipeline's region span —
        has open). Inside the kernel span, the ant-construction hot path
        (compute/memory/alloc — the per-step work the backends execute
        differently) is grouped under a ``construct`` span so profiles and
        ``repro.bench``'s backend comparison can read it off directly;
        wavefront-uniform overhead (reductions, pheromone, barriers) stays
        a direct kernel leaf.
        """
        prof = get_profiler()
        if not prof.enabled:
            return
        attributed = self.accounting.attributed_seconds()
        with prof.span("pass%d" % pass_index, "pass"):
            prof.charge_leaf("transfer", transfer_seconds, "transfer")
            prof.charge_leaf("launch", launch_seconds, "launch")
            with prof.span("kernel", "kernel"):
                with prof.span("construct", "kernel"):
                    for category in ("compute", "memory", "alloc"):
                        prof.charge_leaf(category, attributed[category], "kernel")
                prof.charge_leaf("uniform", attributed["uniform"], "kernel")


class ParallelACOScheduler(TwoPassACOScheduler):
    """Two-pass ACO scheduling on the simulated GPU."""

    name = "parallel-aco"
    result_type = ParallelACOResult
    pass_result_type = ParallelPassResult

    def __init__(
        self,
        machine: MachineModel,
        params: Optional[ACOParams] = None,
        gpu_params: Optional[GPUParams] = None,
        device: Optional[GPUDevice] = None,
        telemetry: Optional[Telemetry] = None,
        verify: Optional[bool] = None,
        backend: Optional[str] = None,
        strategy: Optional[str] = None,
    ):
        super().__init__(machine, params, telemetry, verify, strategy)
        self.device = device or GPUDevice()
        self.gpu_params = gpu_params or GPUParams()
        self.gpu_params.validate(self.device.wavefront_size)
        self._backend = backend
        if backend is not None:
            resolve_backend(backend)  # fail fast on unknown names

    @property
    def backend(self) -> str:
        """Engine selection: explicit argument, else ``REPRO_BACKEND``, else
        ``gpu_params.backend`` (resolved late, like telemetry/verify)."""
        if self._backend is not None:
            return self._backend
        return backend_from_env() or self.gpu_params.backend

    def _configured_strategy(self) -> str:
        """The ``gpu_params.strategy`` device override, else ``params.strategy``."""
        return self.gpu_params.strategy or self.params.strategy

    def schedule(
        self,
        ddg: DDG,
        seed: int = 0,
        initial_order: Optional[Tuple[int, ...]] = None,
        bounds: Optional[RegionBounds] = None,
        reference_schedule: Optional[Schedule] = None,
        fault_plan: Optional[FaultPlan] = None,
        budget: Optional[DeadlineBudget] = None,
        attempt: int = 0,
        resume: Optional[RegionCheckpoint] = None,
    ) -> ParallelACOResult:
        """Run both passes on one region, on the simulated GPU.

        The resilience arguments all default to None/0 and add nothing to
        the fault-free path: ``fault_plan`` wraps the device in a
        :class:`FaultyDevice` (chaos mode), ``budget`` enforces the
        region's deadline in cost-model seconds, ``attempt`` names the
        retry attempt for fault-site derivation and ``resume`` restores a
        checkpointed search instead of starting over.
        """
        return self._run_two_pass(
            _DeviceEngine(self, ddg, seed, fault_plan, budget, attempt),
            ddg, seed, initial_order, bounds, reference_schedule, budget, resume,
        )
