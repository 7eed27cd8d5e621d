"""Characterization of the two-pass driver: exact deadline and resume figures.

The deadline tests in ``test_resilience_watchdog.py`` only check that the
budget is spent past its deadline. ``DeadlineBudget.spent`` is a plain float
sum, and the two engines charge it in different orders: the GPU engine
charges transfer and launch when the pass starts and then each iteration's
kernel delta after the iteration; the CPU engine charges the ledger delta at
the top of each iteration. These tests pin the exact floats (and the event
order) so any change to that order shows up, on a region whose passes both
run several iterations and trip the deadline mid-pass.
"""

import pytest

from repro.aco import SequentialACOScheduler
from repro.config import ACOParams, GPUParams
from repro.ddg import DDG
from repro.errors import DeviceHangError
from repro.gpusim.faults import FaultPlan
from repro.machine import simple_test_target
from repro.parallel import ParallelACOScheduler
from repro.resilience.log import ResilienceLog, resilience_log_session
from repro.resilience.watchdog import DeadlineBudget
from repro.telemetry import MemorySink, Telemetry

from conftest import make_region

#: Stagnation never stops a pass before ``max_iterations``.
PARAMS = ACOParams(max_iterations=8, termination_conditions=(8, 8, 8))

SHIPPED = (1, 0, 2, 25, 24, 26, 27, 29, 28, 30, 31, 32)


@pytest.fixture(scope="module")
def machine():
    return simple_test_target()


@pytest.fixture(scope="module")
def ddg():
    return DDG(make_region("sort", 1, 12))


def parallel(machine, telemetry=None, backend="vectorized"):
    return ParallelACOScheduler(
        machine,
        params=PARAMS,
        gpu_params=GPUParams(blocks=1),
        telemetry=telemetry,
        backend=backend,
    )


def sequential(machine, telemetry=None):
    return SequentialACOScheduler(machine, params=PARAMS, telemetry=telemetry)


def checkpoint(machine, ddg, plan_seed):
    with pytest.raises(DeviceHangError) as info:
        parallel(machine).schedule(
            ddg, seed=5, fault_plan=FaultPlan(seed=plan_seed, rates={"hang": 0.5})
        )
    return info.value.checkpoint


#: (engine, deadline) -> (deadline events as (pass, spent_seconds),
#: pass 1 (iterations, deadline_hit, seconds), pass 2 likewise,
#: budget.spent at the end, shipped length, event order).
DEADLINE_CASES = {
    ("parallel", 6.2e-05): (
        [(1, 6.279461111111112e-05), (2, 0.00011893561111111112)],
        (5, True, 6.279461111111112e-05),
        (0, True, 5.6141000000000003e-05),
        0.00011893561111111112,
        53,
        ["pass_start", "deadline", "pass_end", "kernel_launch", "transfer"] * 2,
    ),
    ("parallel", 0.000128): (
        [(2, 0.000128167)],
        (8, False, 6.678322222222223e-05),
        (2, True, 6.138377777777779e-05),
        0.000128167,
        33,
        ["pass_start", "pass_end", "kernel_launch", "transfer",
         "pass_start", "deadline", "pass_end", "kernel_launch", "transfer"],
    ),
    ("sequential", 0.0001): (
        [(1, 0.00010212480000000008), (2, 0.0001421248000000001)],
        (4, True, 0.00010212480000000008),
        (0, True, 4e-05),
        0.0001421248000000001,
        53,
        ["pass_start", "deadline", "pass_end"] * 2,
    ),
    ("sequential", 0.00025): (
        [(2, 0.00025221919999999994)],
        (8, False, 0.0001642215999999999),
        (3, True, 8.799760000000005e-05),
        0.00025221919999999994,
        33,
        ["pass_start", "pass_end", "pass_start", "deadline", "pass_end"],
    ),
}


class TestDeadlineFigures:
    @pytest.mark.parametrize(
        "engine,deadline", sorted(DEADLINE_CASES), ids=lambda v: str(v)
    )
    def test_exact_spend_and_stops(self, machine, ddg, engine, deadline):
        events, pass1, pass2, spent, length, order = DEADLINE_CASES[(engine, deadline)]
        sink = MemorySink()
        build = parallel if engine == "parallel" else sequential
        budget = DeadlineBudget(deadline)
        with resilience_log_session(ResilienceLog()) as log:
            result = build(machine, Telemetry(sink=sink)).schedule(
                ddg, seed=5, budget=budget
            )
        trips = sink.by_type("deadline")
        assert [(e["pass_index"], e["spent_seconds"]) for e in trips] == events
        assert all(e["deadline_seconds"] == deadline for e in trips)
        assert log.deadline_trips == len(events)
        for got, want in ((result.pass1, pass1), (result.pass2, pass2)):
            assert (got.iterations, got.deadline_hit, got.seconds) == want
        assert budget.spent == spent
        assert result.schedule.length == length
        assert [r["event"] for r in sink.records if r["event"] != "iteration"] == order


#: (checkpoint plan seed, resuming engine) -> (shipped cycles, pass 1
#: (iterations, seconds, final cost), pass 2 likewise).
RESUME_CASES = {
    (0, "vectorized"): (SHIPPED, (8, 6.678322222222223e-05, 10010), (8, 7.1976e-05, 33)),
    (0, "loop"): (SHIPPED, (8, 6.678322222222223e-05, 10010), (8, 0.0010151315555555556, 33)),
    (0, "sequential"): (
        SHIPPED, (8, 6.678322222222223e-05, 10010), (8, 0.00013302720000000007, 33)
    ),
    (4, "vectorized"): (SHIPPED, (8, 6.411822222222223e-05, 10010), (8, 7.721877777777778e-05, 33)),
    (4, "loop"): (
        SHIPPED, (8, 0.00048426933333333333, 10010), (8, 0.001335432111111111, 33)
    ),
    (4, "sequential"): (
        (1, 0, 2, 24, 25, 26, 27, 29, 28, 31, 30, 32),
        (8, 0.00013318720000000004, 10010),
        (8, 0.0001663135999999998, 33),
    ),
}


class TestResumeFigures:
    def test_checkpoint_sites(self, machine, ddg):
        """Plan seed 0 hangs in pass 2 (iteration 2), plan seed 4 in pass 1."""
        cp = checkpoint(machine, ddg, 0)
        assert (cp.pass_index, cp.iteration, cp.pass1["iterations"]) == (2, 2, 8)
        cp = checkpoint(machine, ddg, 4)
        assert (cp.pass_index, cp.iteration, cp.pass1) == (1, 2, None)

    @pytest.mark.parametrize("plan_seed,engine", sorted(RESUME_CASES), ids=str)
    def test_exact_resumed_result(self, machine, ddg, plan_seed, engine):
        cycles, pass1, pass2 = RESUME_CASES[(plan_seed, engine)]
        cp = checkpoint(machine, ddg, plan_seed)
        scheduler = (
            sequential(machine) if engine == "sequential"
            else parallel(machine, backend=engine)
        )
        result = scheduler.schedule(ddg, seed=cp.seed, resume=cp)
        assert result.schedule.cycles == cycles
        for got, want in ((result.pass1, pass1), (result.pass2, pass2)):
            assert (got.iterations, got.seconds, got.final_cost) == want
        # A resumed pass-1 result keeps the GPU time breakdown only on the
        # GPU engine.
        assert hasattr(result.pass1, "kernel_seconds") == (engine != "sequential")
