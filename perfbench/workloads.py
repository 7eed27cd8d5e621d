"""One workload in its own process: set up, time passes, check the outputs.

Run by ``run.py``; prints ``ready`` when set-up is done and, unless
``--setup-only``, one JSON line of measurements at the end.

Every workload has a fixed shape: the pattern and size of each region are
those of the suite generated at :data:`SHAPE_SEED`, and the run's seed
redraws every region's structure with the suite generator's own per-region
stream. At ``SHAPE_SEED`` the regions are exactly ``generate_suite``'s;
at any seed a run does the same amount and mix of work, so runs on
different seeds can be compared.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import traceback
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SHAPE_SEED = 2024
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


@dataclass(frozen=True)
class Spec:
    """What one workload runs."""

    #: Suite the shape is taken from: (benchmarks, kernels, regions/kernel),
    #: with region sizes capped at MAX_REGION_SIZE as at the default scale.
    suite: tuple
    #: Inclusive region-size range kept from the suite.
    sizes: tuple
    #: Keep only the first matching region (in suite order).
    first_only: bool
    #: "parallel" (simulated GPU) or "sequential" (CPU ant loop).
    scheduler: str
    #: Launch blocks of 64 threads (parallel only).
    blocks: int
    #: Through CompilePipeline (filters, post-filter) or the scheduler alone.
    pipeline: bool
    #: Install the observability stack of `repro --trace --metrics --record
    #: --profile --obs-snapshot --perfetto` around each pass.
    observed: bool


DEFAULT_SUITE = (48, 24, 6)  # the "default" experiment scale
MAX_REGION_SIZE = 300

SPECS = {
    "gpu_small_observed": Spec((40, 40, 4), (1, 49), False, "parallel", 3, True, True),
    "cpu_suite": Spec(DEFAULT_SUITE, (1, MAX_REGION_SIZE), False, "sequential", 0, True, False),
    # Not in BENCHMARK.json (see README.md); run by hand.
    "gpu_wide": Spec(DEFAULT_SUITE, (100, 150), True, "parallel", 8, False, False),
}


@dataclass(frozen=True)
class Item:
    region: object
    #: Scheduling seed, derived as CompilePipeline.compile_kernel does.
    seed: int


@dataclass
class Shipped:
    """A region's shipped schedule and what was claimed about it."""

    schedule: object
    peak: dict
    rp_cost: int
    heuristic_length: int
    modeled_s: float
    degraded: bool


def build_items(spec, seed):
    """The workload's regions: the shape suite's slots, redrawn from ``seed``."""
    from repro import generate_suite
    from repro.config import SuiteParams
    from repro.suite import pattern_region
    from repro.suite.rng import derive_seed, derived_rng

    benchmarks, kernels, per_kernel = spec.suite
    shape = generate_suite(
        SuiteParams(
            num_benchmarks=benchmarks,
            num_kernels=kernels,
            regions_per_kernel=per_kernel,
            seed=SHAPE_SEED,
        ),
        max_region_size=MAX_REGION_SIZE,
    )
    low, high = spec.sizes
    items = []
    for k, kernel in enumerate(shape.kernels):
        for r, slot in enumerate(kernel.regions):
            if not low <= len(slot) <= high:
                continue
            region = pattern_region(
                kernel.pattern, derived_rng(seed, "region", k, r), len(slot), name=slot.name
            )
            items.append(Item(region, derive_seed(seed, "schedule", kernel.name, r)))
            if spec.first_only:
                return items
    return items


class Runner:
    """Scheduler construction and the per-region call of one workload."""

    def __init__(self, spec):
        from repro import (
            AMDMaxOccupancyScheduler,
            CompilePipeline,
            ParallelACOScheduler,
            SequentialACOScheduler,
            amd_vega20,
        )
        from repro.config import FilterParams, GPUParams
        from repro.pipeline.filters import FilterDecision

        self.failed_decisions = (FilterDecision.DEGRADED, FilterDecision.UNRECOVERABLE)
        self.spec = spec
        self.machine = amd_vega20()
        if spec.scheduler == "parallel":
            self.scheduler = ParallelACOScheduler(
                self.machine, gpu_params=GPUParams(blocks=spec.blocks)
            )
        else:
            self.scheduler = SequentialACOScheduler(self.machine)
        self.baseline = AMDMaxOccupancyScheduler(self.machine)
        # Table 2's statistics setting: ACO runs wherever the heuristic is
        # above a lower bound, so the colony is exercised on most regions.
        self.pipeline = (
            CompilePipeline(
                self.machine, self.scheduler, filters=FilterParams(cycle_threshold=0)
            )
            if spec.pipeline
            else None
        )

    def config(self):
        """The resolved settings, after every late lookup."""
        s = self.scheduler
        if self.spec.scheduler == "parallel":
            geometry = "%dx%d" % (s.gpu_params.blocks, s.gpu_params.threads_per_block)
            backend = s.backend
        else:
            geometry = "%d ants" % s.params.sequential_ants
            backend = "cpu"
        return {
            "backend": backend,
            "strategy": s.strategy_name,
            "geometry": geometry,
            "path": "pipeline(cycle_threshold=0)" if self.pipeline else "scheduler",
            "observed": self.spec.observed,
        }

    def region(self, item):
        # Looked up on the module at call time, so the traced run's
        # wrappers are the ones called.
        import repro

        ddg = repro.DDG(item.region)
        if self.pipeline is not None:
            outcome = self.pipeline.compile_region(ddg, seed=item.seed)
            return Shipped(
                outcome.schedule,
                outcome.final.pressure_dict,
                outcome.final.rp_cost,
                outcome.heuristic.length,
                outcome.scheduling_seconds,
                outcome.decision in self.failed_decisions,
            )
        bounds = repro.region_bounds(ddg)
        heuristic = self.baseline.schedule(ddg)
        result = self.scheduler.schedule(
            ddg,
            seed=item.seed,
            initial_order=heuristic.order,
            bounds=bounds,
            reference_schedule=heuristic,
        )
        return Shipped(
            result.schedule,
            result.peak,
            result.rp_cost_value,
            heuristic.length,
            result.seconds,
            False,
        )


def observe(directory):
    """Install what the CLI's observability flags install; returns the
    installed stack and the function that closes it and writes every
    export."""
    from repro.obs import (
        DEFAULT_SLO_TARGET,
        AggregatingSink,
        MetricsAggregator,
        to_snapshot_json,
        write_perfetto,
    )
    from repro.obs.record import RunRecorder, recording_scope, span_tree_payload
    from repro.profile import SpanProfiler, profile_session, render_tree
    from repro.telemetry import JSONLSink, MemorySink, Telemetry, TeeSink, telemetry_session
    from repro.telemetry.report import render_metrics, summarize_trace

    stack = ExitStack()
    recorder = RunRecorder(draws="digest")
    stack.enter_context(recording_scope(recorder))
    aggregator = MetricsAggregator(slo_target=DEFAULT_SLO_TARGET)
    perfetto = MemorySink()
    trace_path = os.path.join(directory, "trace.jsonl")
    telemetry = Telemetry(
        sink=TeeSink(
            JSONLSink(trace_path), AggregatingSink(aggregator), perfetto, recorder.sink
        ),
        collect_metrics=True,
    )
    stack.enter_context(telemetry_session(telemetry))
    profiler = SpanProfiler()
    stack.enter_context(profile_session(profiler))

    def finish():
        stack.close()
        render_metrics(telemetry.metrics)
        summarize_trace(trace_path)
        with open(os.path.join(directory, "obs.json"), "w") as handle:
            handle.write(to_snapshot_json(aggregator))
        write_perfetto(os.path.join(directory, "perfetto.json"), perfetto.records)
        render_tree(profiler.root)
        recorder.set_spans(span_tree_payload(profiler.root))
        recorder.save(os.path.join(directory, "bundle"))

    return stack, finish


def probe():
    """Seconds taken by a fixed slice of interpreter and small-array work.

    Benchmark code, never the program's: a change to the program cannot
    change it, so its duration reads how fast the host is running now.
    """
    import numpy as np

    began = perf_counter()
    table = {}
    for i in range(1800):
        key = i % 61
        table[key] = table.get(key, 0) + i
    block = np.arange(192 * 16, dtype=np.int64).reshape(192, 16)
    for _ in range(120):
        block = np.maximum(block[:, ::-1], block) + 1
    return perf_counter() - began


@dataclass
class Pass:
    """One pass over the workload's regions."""

    tracer: object = None
    wall: float = 0.0
    times: list = field(default_factory=list)
    #: Shipped outputs in item order; None where the region raised.
    shipped: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    #: Probe seconds: before the pass, after every region (untraced passes
    #: only) and after the pass. The probes inside the pass are not
    #: program time.
    probes: list = field(default_factory=list)

    @property
    def program_wall(self):
        return self.wall - sum(self.probes[1:-1])

    def scaled_times(self):
        """Each region's seconds scaled by the probes on either side."""
        return [
            stats.scaled(t, (before + after) / 2.0)
            for t, before, after in zip(self.times, self.probes, self.probes[1:])
        ]

    def scaled_outside(self):
        """Pass seconds outside every region (exports), scaled."""
        return stats.scaled(self.program_wall - sum(self.times), stats.median(self.probes))

    def scaled_wall(self):
        return stats.scaled(self.program_wall, stats.median(self.probes))

    def digests(self):
        return [None if out is None else digest(out) for out in self.shipped]


def run_pass(runner, items, tracer=None):
    """Schedule every region once, the observability exports included.

    An untraced pass probes the host's speed after every region; a traced
    pass only before and after, so that its spans hold program time only.
    """
    import tracing

    result = Pass(tracer)
    scratch = tempfile.mkdtemp(dir=OUT_DIR) if runner.spec.observed else None
    try:
        result.probes.append(probe())
        with tracing.installed(tracer) if tracer is not None else nullcontext():
            with tracer.span("bench") if tracer is not None else nullcontext():
                started = perf_counter()
                stack, finish = observe(scratch) if scratch else (ExitStack(), None)
                with stack:
                    for item in items:
                        begun = perf_counter()
                        try:
                            result.shipped.append(runner.region(item))
                        except Exception:  # a failing region is counted, not fatal
                            result.errors.append(traceback.format_exc())
                            result.shipped.append(None)
                        result.times.append(perf_counter() - begun)
                        if tracer is None:
                            result.probes.append(probe())
                    if finish is not None:
                        with tracer.span("obs.export") if tracer is not None else nullcontext():
                            finish()
                result.wall = perf_counter() - started
        result.probes.append(probe())
    finally:
        if scratch:
            shutil.rmtree(scratch, ignore_errors=True)
    return result


def digest(shipped):
    """Per-region fingerprint of the shipped order, cycles and model time."""
    text = json.dumps(
        [list(shipped.schedule.order), list(shipped.schedule.cycles), repr(shipped.modeled_s)]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(runner, items, passes, reference):
    """Names of the regions whose output fails a check, and the digests."""
    from repro import DDG
    from repro.analysis.verifier import verify_schedule

    first = passes[0].digests()
    others = [one.digests() for one in passes[1:]]
    reference = reference or {}
    bad = set()
    for index, (item, shipped) in enumerate(zip(items, passes[0].shipped)):
        name = item.region.name
        if shipped is None or shipped.degraded:
            bad.add(name)
            continue
        report = verify_schedule(
            shipped.schedule,
            DDG(item.region),
            runner.machine,
            expected_peak=shipped.peak,
            expected_rp_cost=shipped.rp_cost,
        )
        same = all(other[index] == first[index] for other in others)
        if not report.ok or not same or reference.get(name, first[index]) != first[index]:
            bad.add(name)
    return bad, {item.region.name: value for item, value in zip(items, first)}


def layer_metrics(tracer, overhead, suite_s, verify_s):
    """Per-layer figures of one traced pass: the layers' self times and
    ``trace.unattributed_s`` add up to ``trace.wall_s``."""
    own = tracer.self_times()
    count = tracer.counts.get
    calls = tracer.calls.get

    def s(name):
        return own.get(name, 0.0)

    wall = tracer.duration("bench")
    iterating = tracer.duration("colony.rp_iter") + tracer.duration("colony.ilp_iter")
    steps = count("colony.ant_steps", 0)
    invoked = count("pipeline.aco_invoked", 0)
    values = {
        "colony.rp_iter_s": (s("colony.rp_iter"), "s"),
        "colony.ilp_iter_s": (s("colony.ilp_iter"), "s"),
        "colony.iterations": (
            calls("colony.rp_iter", 0) + calls("colony.ilp_iter", 0),
            "count",
        ),
        "colony.ant_steps": (steps, "count"),
        "colony.ant_steps_per_s": (steps / iterating if iterating else 0.0, "1/s"),
        "rng.draw_s": (s("rng.draw"), "s"),
        "rng.draw_calls": (calls("rng.draw", 0), "count"),
        "rng.spawn_s": (s("rng.spawn"), "s"),
        "layouts.build_s": (s("layouts.build"), "s"),
        "parallel.schedule_self_s": (s("parallel.schedule"), "s"),
        "parallel.passes": (count("parallel.passes", 0), "count"),
        "parallel.iterations": (count("parallel.iterations", 0), "count"),
        "gpusim.charge_s": (s("gpusim.charge"), "s"),
        "pheromone.update_s": (s("pheromone.update"), "s"),
        "pheromone.updates": (calls("pheromone.update", 0), "count"),
        "sequential.schedule_self_s": (s("sequential.schedule"), "s"),
        "sequential.iterations": (count("sequential.iterations", 0), "count"),
        "ant.construct_s": (s("ant.construct"), "s"),
        "ant.constructions": (calls("ant.construct", 0), "count"),
        "ddg.build_s": (s("ddg.build"), "s"),
        "ddg.bounds_s": (s("ddg.bounds"), "s"),
        "heuristics.schedule_s": (s("heuristics.schedule"), "s"),
        "rp.evaluate_s": (s("rp.evaluate"), "s"),
        "pipeline.self_s": (s("pipeline"), "s"),
        "pipeline.aco_invoked": (invoked, "count"),
        "pipeline.aco_kept_ratio": (
            count("pipeline.aco_applied", 0) / invoked if invoked else 0.0,
            "ratio",
        ),
        "telemetry.emit_s": (s("telemetry.emit"), "s"),
        "telemetry.events": (count("telemetry.events", 0), "count"),
        "obs.draw_observe_s": (s("obs.draw_observe"), "s"),
        "obs.draws": (calls("obs.draw_observe", 0), "count"),
        "obs.export_s": (s("obs.export"), "s"),
        "profile.span_s": (s("profile.span"), "s"),
        "suite.generate_s": (suite_s, "s"),
        "verifier.check_s": (verify_s, "s"),
        "trace.unattributed_s": (s("bench"), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_pct": (100.0 * overhead, "%"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def end_to_end(passes, bad, attempted):
    """End-to-end figures from the untraced passes, in scaled seconds."""
    regions = [stats.median(samples) for samples in zip(*(p.scaled_times() for p in passes))]
    outputs = [out for out in passes[0].shipped if out is not None]
    heuristic = sum(o.heuristic_length for o in outputs)
    shipped = sum(o.schedule.length for o in outputs)
    values = {
        "wall_s": (sum(regions) + stats.median([p.scaled_outside() for p in passes]), "s"),
        "region_s_p50": (stats.percentile(regions, 50.0), "s"),
        "region_s_p90": (stats.percentile(regions, 90.0), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "verified_frac": ((attempted - len(bad)) / attempted, "ratio"),
        "modeled_sched_s": (sum(o.modeled_s for o in outputs), "s"),
        "length_vs_heuristic": (heuristic / shipped if shipped else 0.0, "x"),
    }
    info = {
        "regions": len(regions),
        "passes": len(passes),
        "tail_percentile": stats.tail_percentile(len(regions)),
        "p90_samples_beyond": stats.samples_beyond(90.0, len(regions)),
        "length_reduction_pct": 100.0 * (heuristic - shipped) / heuristic if heuristic else 0.0,
        "unscaled_pass_walls_s": [p.program_wall for p in passes],
        "probe_median_s": stats.median([q for p in passes for q in p.probes]),
    }
    return {n: {"value": v, "unit": u} for n, (v, u) in values.items()}, info


def load_reference(workload, seed):
    if not os.path.exists(REFERENCES):
        return None
    with open(REFERENCES) as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def pin_environment():
    """Run before numpy or the program is imported: no stray REPRO_*
    override (backend, strategy, chaos, shards, verify, ...) may change
    what is measured, and native libraries stay single-threaded."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    sys.path.insert(0, SRC)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digests as the seed's reference")
    args = parser.parse_args(argv)

    spec = SPECS[args.workload]
    pin_environment()
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit("imported %s, not the checkout's src/repro" % repro.__file__)
    began = perf_counter()
    items = build_items(spec, args.seed)
    suite_s = perf_counter() - began
    runner = Runner(spec)
    print("ready", flush=True)
    if args.setup_only:
        print(stats.median([probe() for _ in range(9)]))
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    import tracing

    untraced, traced = [], []
    started = perf_counter()
    while True:
        untraced.append(run_pass(runner, items))
        if args.trace:
            traced.append(run_pass(runner, items, tracing.Tracer()))
        rounds = len(untraced)
        elapsed = perf_counter() - started
        print("[%s] pass %d done at %.1fs" % (args.workload, rounds, elapsed), file=sys.stderr)
        if rounds >= (1 if args.trace else 2) and elapsed + elapsed / rounds > args.seconds:
            break

    reference = None if args.record else load_reference(args.workload, args.seed)
    began = perf_counter()
    bad, digests = check(runner, items, untraced + traced, reference)
    verify_s = perf_counter() - began
    for one in untraced + traced:
        for error in one.errors:
            print(error, file=sys.stderr)
    if args.record:
        stored = {}
        if os.path.exists(REFERENCES):
            with open(REFERENCES) as handle:
                stored = json.load(handle)
        stored.setdefault(args.workload, {})[str(args.seed)] = digests
        with open(REFERENCES, "w") as handle:
            json.dump(stored, handle, indent=1, sort_keys=True)
            handle.write("\n")

    metrics, info = end_to_end(untraced, bad, len(items))
    info.update(runner.config())
    info["reference"] = reference is not None
    info["failed_regions"] = sorted(bad)
    if args.trace:
        best = min(traced, key=Pass.scaled_wall)
        overhead = best.scaled_wall() / min(p.scaled_wall() for p in untraced) - 1.0
        metrics = layer_metrics(best.tracer, overhead, suite_s, verify_s)
        best.tracer.write(
            os.path.join(OUT_DIR, "spans-%s-%d.json" % (args.workload, args.seed))
        )
    print(json.dumps({
        "attempted": len(items),
        "failed": len(bad),
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
