"""The continuous-benchmark registry and BENCH_*.json writer.

Each bench extracts a handful of *scalar* metrics from the shared
:class:`repro.experiments.common.ExperimentContext` — the same cached
compile runs the tables and figures read — and the runner serializes them
to a versioned ``BENCH_<name>.json``. Because every simulated second in
this reproduction is deterministic, the files are bit-stable for a given
scale and code revision: any diff against a committed baseline is a real
behavior change, not noise, which is what makes threshold-based CI gating
(see :mod:`repro.bench.compare`) meaningful at all.

Metric schema (``bench_schema`` 1)::

    {"bench_schema": 1, "name": "table2", "scale": "test",
     "fingerprint": {...}, "metrics": {"<metric>": {
         "value": <float>, "unit": "<unit>", "direction": "lower|higher|info"}}}

``direction`` drives regression comparison: ``lower`` means smaller is
better (times), ``higher`` means bigger is better (speedups, improvement
percentages) and ``info`` is recorded but never gated (counts, coverage).
"""

from __future__ import annotations

import json
import math
import os
from contextlib import ExitStack
from typing import Callable, Dict, List, Optional

from ..config import geometric_mean
from ..errors import BenchError
from ..experiments.common import (
    ExperimentContext,
    thresholded_compile_seconds,
)
from ..pipeline.stats import improvement_statistics
from ..profile import attribution, get_profiler
from ..telemetry import get_telemetry
from .fingerprint import environment_fingerprint

#: Version of the BENCH_*.json layout.
BENCH_SCHEMA = 1

#: The production cycle threshold used by the compile-time and
#: execution-time experiments (Table 5 / Figure 4).
PRODUCTION_THRESHOLD = 21


def metric(value: float, unit: str, direction: str = "info") -> Dict[str, object]:
    if direction not in ("lower", "higher", "info"):
        raise BenchError("bad metric direction %r" % direction)
    return {"value": float(value), "unit": unit, "direction": direction}


# -- bench extractors ----------------------------------------------------------


def bench_table2(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Table 2: schedule-quality improvement of parallel ACO vs. AMD."""
    stats = improvement_statistics(context.run("parallel"))
    return {
        "pass1_regions": metric(stats.pass1_regions, "regions"),
        "pass2_regions": metric(stats.pass2_regions, "regions"),
        "overall_occupancy_increase_pct": metric(
            stats.overall_occupancy_increase_pct, "pct", "higher"
        ),
        "max_occupancy_increase_pct": metric(
            stats.max_occupancy_increase_pct, "pct", "higher"
        ),
        "overall_length_reduction_pct": metric(
            stats.overall_length_reduction_pct, "pct", "higher"
        ),
        "max_length_reduction_pct": metric(
            stats.max_length_reduction_pct, "pct", "higher"
        ),
    }


def bench_table3(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Table 3: parallel-over-sequential scheduling speedup per pass."""
    records = context.speedup_records()
    out: Dict[str, Dict[str, object]] = {}
    for pass_index in (1, 2):
        speedups = [r.speedup for r in records if r.pass_index == pass_index]
        out["pass%d_comparable_regions" % pass_index] = metric(
            len(speedups), "regions"
        )
        if speedups:
            out["pass%d_geomean_speedup" % pass_index] = metric(
                geometric_mean(speedups), "x", "higher"
            )
            out["pass%d_max_speedup" % pass_index] = metric(
                max(speedups), "x", "higher"
            )
    return out


def bench_table5(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Table 5: total compile times at the production cycle threshold."""
    base = context.run("baseline").total_seconds
    seq = thresholded_compile_seconds(
        context, context.run("sequential"), PRODUCTION_THRESHOLD
    )
    par = thresholded_compile_seconds(
        context, context.run("parallel"), PRODUCTION_THRESHOLD
    )
    out = {
        "base_compile_seconds": metric(base, "s", "lower"),
        "sequential_compile_seconds": metric(seq, "s", "lower"),
        "parallel_compile_seconds": metric(par, "s", "lower"),
    }
    if base > 0:
        out["sequential_overhead_pct"] = metric(
            100.0 * (seq - base) / base, "pct", "lower"
        )
        out["parallel_overhead_pct"] = metric(
            100.0 * (par - base) / base, "pct", "lower"
        )
    if seq > 0:
        out["parallel_vs_sequential_reduction_pct"] = metric(
            100.0 * (seq - par) / seq, "pct", "higher"
        )
    return out


def bench_fig4(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Figure 4: modelled execution-time speedup of the benchmarks."""
    from ..experiments.common import threshold_pick
    from ..perf.exec_model import (
        ExecutionModel,
        benchmark_results,
        sensitive_benchmarks,
    )

    suite = context.suite
    model = ExecutionModel()
    runs = [context.run("baseline"), context.run("parallel"), context.run("cp")]
    sensitive = sensitive_benchmarks(suite, runs, model)
    pick, _invoked = threshold_pick(context, PRODUCTION_THRESHOLD)
    results = benchmark_results(
        suite, context.run("parallel"), model, benchmarks=sensitive, pick_aco=pick
    )
    significant = [r for r in results if r.significant]
    ratios = [r.aco_throughput / r.base_throughput for r in significant]
    geomean_pct = (
        100.0 * (math.exp(sum(math.log(x) for x in ratios) / len(ratios)) - 1.0)
        if ratios
        else 0.0
    )
    improvements = [r.improvement_pct for r in significant if r.improvement_pct > 0]
    regressions = [-r.improvement_pct for r in results if r.improvement_pct < 0]
    return {
        "significant_benchmarks": metric(len(significant), "benchmarks"),
        "geomean_improvement_pct": metric(geomean_pct, "pct", "higher"),
        "max_improvement_pct": metric(
            max(improvements, default=0.0), "pct", "higher"
        ),
        "max_regression_pct": metric(max(regressions, default=0.0), "pct", "lower"),
    }


#: Table-2-scale duel regions for ``bench_backend``: one per paper size
#: class (1-49, 50-99, and the >=100 band clipped to the scale's cap).
_BACKEND_DUEL_REGIONS = (("reduce", 3, 30), ("sort", 5, 55), ("stencil", 1, 80))


def _construct_stats(context: ExperimentContext, backend: str):
    """Schedule the duel regions with one backend; return the construction
    hot path's cost-model totals (summed over launches).

    "Construction" is the per-step work the backends execute differently —
    the compute/memory/alloc attribution of each kernel launch; the
    wavefront-uniform overhead (reduction, pheromone, barriers) is
    identical by construction and excluded.
    """
    import random

    from ..ddg import DDG
    from ..parallel import ParallelACOScheduler
    from ..suite.patterns import pattern_region
    from ..telemetry import MemorySink, Telemetry

    sink = MemorySink()
    scheduler = ParallelACOScheduler(
        context.machine,
        params=context.scale.aco,
        gpu_params=context.scale.gpu,
        telemetry=Telemetry(sink=sink),
        backend=backend,
    )
    orders = []
    for pattern, seed, size in _BACKEND_DUEL_REGIONS:
        region = pattern_region(pattern, random.Random(seed), size)
        result = scheduler.schedule(DDG(region), seed=context.scale.suite.seed)
        orders.append(tuple(result.schedule.order))
    construct = sum(
        r["compute_seconds"] + r["memory_seconds"] + r["alloc_seconds"]
        for r in sink.by_type("kernel_launch")
    )
    iterations = sum(r["iterations"] for r in sink.by_type("kernel_launch"))
    return construct, iterations, orders


def bench_backend(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Backend duel: vectorized vs. loop ant construction on Table-2-scale
    regions — same decisions, different simulated kernels.

    ``construct_speedup`` is the headline: cost-model seconds per
    iteration of the loop backend's divergent serialized-lane kernel over
    the vectorized backend's lockstep kernel (the paper's Section V
    argument as a measurement; the acceptance floor is 3x).
    """
    vec_seconds, vec_iters, vec_orders = _construct_stats(context, "vectorized")
    loop_seconds, loop_iters, loop_orders = _construct_stats(context, "loop")
    vec_per_iter = vec_seconds / max(vec_iters, 1)
    loop_per_iter = loop_seconds / max(loop_iters, 1)
    return {
        "duel_regions": metric(len(_BACKEND_DUEL_REGIONS), "regions"),
        "iterations": metric(vec_iters, "iterations"),
        "schedules_identical": metric(
            1.0 if (vec_orders == loop_orders and vec_iters == loop_iters) else 0.0,
            "bool",
            "higher",
        ),
        "vectorized_construct_seconds_per_iteration": metric(
            vec_per_iter, "s", "lower"
        ),
        "loop_construct_seconds_per_iteration": metric(loop_per_iter, "s"),
        "construct_speedup": metric(
            loop_per_iter / vec_per_iter if vec_per_iter > 0 else 0.0,
            "x",
            "higher",
        ),
    }


def bench_resilience(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Resilience: chaos-sweep recovery rate and retry overhead.

    Runs the chaos harness's pinned mixed-rate sweep on its own small
    region set (independent of the shared compile runs — fault handling,
    not search quality). Deterministic like everything else here: the
    same seeds inject the same faults, so ``recovery_rate_pct`` dropping
    below baseline means a recovery path broke.
    """
    from ..resilience.chaos import chaos_sweep

    # Doubled fault rates vs. the default chaos profile: the bench wants a
    # dense, still-deterministic fault sample, not a realistic one.
    report = chaos_sweep(
        seeds=(11, 23, 37),
        sizes=(10, 12),
        rates={"launch": 0.25, "corruption": 0.25, "hang": 0.25, "oom": 0.15},
    )
    faulted = report.faulted_trials
    return {
        "trials": metric(len(report.trials), "regions"),
        "faulted_trials": metric(len(faulted), "regions"),
        "faults_injected": metric(
            sum(report.faults_by_class.values()), "faults"
        ),
        "recovery_rate_pct": metric(
            100.0 * report.recovery_rate, "pct", "higher"
        ),
        "degraded_regions": metric(report.degraded, "regions", "lower"),
        "retry_overhead_seconds": metric(
            report.retry_overhead_seconds, "s", "lower"
        ),
        "schedules_valid": metric(
            1.0 if report.all_valid else 0.0, "bool", "higher"
        ),
    }


def bench_obs(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Observability: aggregation overhead and trace-context coverage.

    Compiles the shared suite once with a :class:`repro.obs` aggregating
    sink attached and reports what the observability layer *cost* (in
    modeled seconds — the aggregator has no wall clock) and what it
    *covered* (every region one trace, every event stamped). The gate is
    the overhead ratio: aggregation must stay well under the telemetry
    emit cost it piggybacks on (<5% is the design target).

    Runs under an inert profiler on a fresh pipeline: the bench must not
    charge spans into the run-wide profiler that ``bench_profile``
    reconciles, nor disturb the context's cached runs.
    """
    from ..obs.aggregate import AggregatingSink, MetricsAggregator
    from ..pipeline.compiler import CompilePipeline
    from ..profile import NullProfiler, profile_session
    from ..telemetry import Telemetry

    aggregator = MetricsAggregator()
    telemetry = Telemetry(sink=AggregatingSink(aggregator), collect_metrics=False)
    pipeline = CompilePipeline(
        context.machine,
        scheduler=context.parallel_scheduler(),
        filters=context.filters_for_stats,
        baseline=context.baseline_scheduler(),
        telemetry=telemetry,
    )
    with profile_session(NullProfiler()):
        pipeline.compile_suite(context.suite)

    snapshot_bytes = len(aggregator.snapshot_json().encode("utf-8"))
    updates_per_event = (
        aggregator.updates / aggregator.events if aggregator.events else 0.0
    )
    return {
        "trace_events": metric(aggregator.events, "events"),
        "aggregator_updates": metric(aggregator.updates, "updates"),
        "updates_per_event": metric(updates_per_event, "ratio", "lower"),
        "modeled_overhead_pct": metric(
            aggregator.modeled_overhead_pct(), "pct", "lower"
        ),
        "snapshot_bytes": metric(snapshot_bytes, "bytes"),
        "distinct_traces": metric(aggregator.traces, "traces"),
        "regions_aggregated": metric(aggregator.regions, "regions"),
    }


#: Scenario-diversity regions: one pinned (family, seed, size) per hostile
#: generator family, sized to stress the advertised failure mode while
#: staying fast at test scale (``giant`` is clipped well below its 1024
#: default; the nightly pytest sweep covers the full-size regions).
_SCENARIO_REGIONS = (
    ("giant", 0, 160),
    ("pressure_cliff", 0, 64),
    ("long_chain", 0, 48),
    ("fanout", 0, 96),
)


def bench_scenarios(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Scenario diversity: hostile-workload families under AS and MMAS.

    Schedules every hostile family with both pheromone strategies on the
    parallel scheduler and records the landing costs. Two gates fall out:
    per-family cost regressions (a generator or strategy change that makes
    any hostile region schedule worse), and the AS-vs-MMAS duel summary
    (how often MMAS matches or beats the Ant System floor on rp cost).
    Everything is pinned-seed deterministic, so the committed baseline is
    byte-stable.
    """
    from ..ddg import DDG
    from ..parallel import ParallelACOScheduler
    from ..suite.hostile import hostile_region

    strategies = ("as", "mmas")
    schedulers = {
        name: ParallelACOScheduler(
            context.machine,
            params=context.scale.aco,
            gpu_params=context.scale.gpu,
            strategy=name,
        )
        for name in strategies
    }
    out: Dict[str, Dict[str, object]] = {
        "families": metric(len(_SCENARIO_REGIONS), "families"),
    }
    mmas_ties_or_wins = 0
    for family, seed, size in _SCENARIO_REGIONS:
        ddg = DDG(hostile_region(family, seed=seed, size=size))
        costs = {}
        for name in strategies:
            result = schedulers[name].schedule(ddg, seed=context.scale.suite.seed)
            costs[name] = result
            out["%s_%s_rp_cost" % (family, name)] = metric(
                result.rp_cost_value, "cost", "lower"
            )
            out["%s_%s_length" % (family, name)] = metric(
                result.length, "cycles", "lower"
            )
        if costs["mmas"].rp_cost_value <= costs["as"].rp_cost_value:
            mmas_ties_or_wins += 1
    out["mmas_ties_or_wins_rp"] = metric(
        mmas_ties_or_wins, "families", "higher"
    )
    return out


def bench_fleet(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Sharded batches: the merged result must not depend on the shard count.

    Schedules one small four-region batch on one shard, then on 2 and 4
    shards. ``identical_to_single_device`` is 1 only when every sharded
    :class:`~repro.parallel.multi_region.BatchResult` equals the one-shard
    result field for field.

    Isolated under an inert profiler and a private telemetry session so
    the batch runs don't perturb the cumulative counters ``bench_profile``
    reconciles.
    """
    from ..config import ACOParams, GPUParams
    from ..parallel.multi_region import BatchItem, MultiRegionScheduler
    from ..profile import NullProfiler, profile_session
    from ..resilience.chaos import chaos_regions
    from ..telemetry import Telemetry, telemetry_session

    machine = context.machine
    items = [
        BatchItem(ddg, seed=7 + index)
        for index, ddg in enumerate(chaos_regions(machine, (8, 10, 12, 9)))
    ]
    scheduler = MultiRegionScheduler(
        machine, params=ACOParams(max_iterations=8), gpu_params=GPUParams(blocks=8)
    )
    with ExitStack() as stack:
        stack.enter_context(profile_session(NullProfiler()))
        stack.enter_context(telemetry_session(Telemetry(collect_metrics=False)))
        single = scheduler.schedule_batch(items, shards=1)
        identical = all(
            scheduler.schedule_batch(items, shards=shards) == single
            for shards in (2, 4)
        )
    return {
        "regions": metric(len(items), "regions"),
        "single_device_seconds": metric(single.seconds, "s", "lower"),
        "identical_to_single_device": metric(
            1.0 if identical else 0.0, "bool", "higher"
        ),
    }


def bench_profile(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Profiler self-check plus kernel cost attribution rollups.

    Runs last: it reads the span profiler and telemetry metrics the runner
    installed before the other benches populated the context, and reconciles
    the profiled seconds against the compile runs that actually executed.
    """
    prof = get_profiler()
    out: Dict[str, Dict[str, object]] = {}
    if prof.enabled:
        att = attribution(prof.root)
        run_seconds = sum(
            run.total_seconds for run in context.computed_runs().values()
        )
        out["profiled_total_seconds"] = metric(att.total_seconds, "s")
        out["leaf_attribution_fraction"] = metric(att.fraction, "ratio", "higher")
        if run_seconds > 0:
            out["profile_coverage_fraction"] = metric(
                att.total_seconds / run_seconds, "ratio", "higher"
            )
    tele = get_telemetry()
    if tele.collect_metrics:
        for name in (
            "gpusim.launches",
            "gpusim.kernel_us",
            "gpusim.transfer_us",
            "gpusim.launch_us",
            "gpusim.compute_cycles",
            "gpusim.memory_cycles",
            "gpusim.uniform_cycles",
            "seq.steps",
            "seq.ready_scans",
        ):
            m = tele.metrics.get(name)
            if m is not None:
                out[name.replace(".", "_")] = metric(m.value, "count")
    return out


#: Name -> extractor. Order matters: ``profile`` reconciles against the
#: context state the earlier benches produced, so it stays last.
BENCHES: Dict[str, Callable[[ExperimentContext], Dict[str, Dict[str, object]]]] = {
    "table2": bench_table2,
    "table3": bench_table3,
    "table5": bench_table5,
    "fig4": bench_fig4,
    "backend": bench_backend,
    "resilience": bench_resilience,
    "obs": bench_obs,
    "scenarios": bench_scenarios,
    "fleet": bench_fleet,
    "profile": bench_profile,
}


# -- serialization -------------------------------------------------------------


def bench_payload(
    name: str,
    context: ExperimentContext,
    metrics: Dict[str, Dict[str, object]],
    fingerprint: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    return {
        "bench_schema": BENCH_SCHEMA,
        "name": name,
        "scale": context.scale.name,
        "fingerprint": fingerprint
        if fingerprint is not None
        else environment_fingerprint(context.scale),
        "metrics": metrics,
    }


def bench_filename(name: str) -> str:
    return "BENCH_%s.json" % name


def write_bench(out_dir: str, payload: Dict[str, object]) -> str:
    """Write one bench payload; returns the file path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, bench_filename(str(payload["name"])))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_benches(
    context: ExperimentContext,
    names: Optional[List[str]] = None,
    fingerprint: Optional[Dict[str, object]] = None,
) -> List[Dict[str, object]]:
    """Run the selected benches (all by default, registry order)."""
    selected = list(BENCHES) if not names else list(names)
    unknown = [n for n in selected if n not in BENCHES]
    if unknown:
        raise BenchError(
            "unknown bench(es): %s (choose from %s)"
            % (", ".join(unknown), ", ".join(BENCHES))
        )
    if fingerprint is None:
        fingerprint = environment_fingerprint(context.scale)
    payloads = []
    for name in BENCHES:  # registry order, not selection order
        if name not in selected:
            continue
        metrics = BENCHES[name](context)
        payloads.append(bench_payload(name, context, metrics, fingerprint))
    return payloads
