"""The traced run: spans around the program's layer boundaries.

The program itself has no host clock (its static rules keep
``perf_counter`` out of ``src/``), so the benchmark wraps the entry points
of each layer from the outside. A class method is replaced on its class; a
module function is replaced in every module that bound it by name, since
that is where callers look it up. Spans are kept in flat in-memory arrays
and written out when the run ends.
"""

import functools
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

from stats import self_time_by_name


class Tracer:
    """Flat span store: name, parent, start and end of every span.

    Calls to a *leaf* (a target that calls no other target and runs on
    every step: cost-model charges, draw observation) are too many to keep
    one by one; those under the same parent span are merged into one span
    with their summed duration.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._open = [-1]
        #: (parent span, leaf name id) -> summed seconds of the merged calls.
        self._leaf_seconds = {}
        self._leaf_depth = [0]
        self.calls = {}
        self.counts = {}

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, name_id):
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._open[-1])
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(perf_counter())
        return index

    def exit(self, index):
        self.ends[index] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        index = self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit(index)

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, function, on_result=None, leaf=False):
        """``function`` with a span named ``name`` around every call;
        ``on_result(result, args)`` turns return values into counts."""
        name_id = self.name_id(name)
        enter, exit_, calls = self.enter, self.exit, self.calls

        if leaf:
            merged, open_, depth = self._leaf_seconds, self._open, self._leaf_depth

            @functools.wraps(function)
            def traced_leaf(*args, **kwargs):
                if depth[0]:  # a leaf calling a leaf is timed once, outermost
                    return function(*args, **kwargs)
                depth[0] = 1
                began = perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    key = (open_[-1], name_id)
                    merged[key] = merged.get(key, 0.0) + perf_counter() - began
                    calls[name] = calls.get(name, 0) + 1
                    depth[0] = 0

            return traced_leaf

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = enter(name_id)
            try:
                result = function(*args, **kwargs)
            finally:
                exit_(index)
                calls[name] = calls.get(name, 0) + 1
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def spans(self):
        """``(name, parent, start, end)`` of every span, merged leaves last."""
        result = [
            (self.names[n], parent, start, end)
            for n, parent, start, end in zip(
                self.name_ids, self.parents, self.starts, self.ends
            )
        ]
        for (parent, name_id), seconds in sorted(self._leaf_seconds.items()):
            start = self.starts[parent] if parent >= 0 else 0.0
            result.append((self.names[name_id], parent, start, start + seconds))
        return result

    def duration(self, name):
        """Summed inclusive duration of the spans named ``name``."""
        return sum(end - start for n, _, start, end in self.spans() if n == name)

    def self_times(self):
        """Self seconds per span name (duration minus child spans)."""
        spans = self.spans()
        return self_time_by_name(
            [s[0] for s in spans], [(parent, start, end) for _, parent, start, end in spans]
        )

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(
                {"spans": [list(span) for span in self.spans()], "calls": self.calls},
                handle,
                separators=(",", ":"),
            )


# -- what is wrapped -----------------------------------------------------------

def _count_outcome(tracer):
    from repro.pipeline.filters import FilterDecision

    def on_result(outcome, args):
        tracer.count("pipeline.aco_invoked", int(outcome.aco_invoked))
        tracer.count(
            "pipeline.aco_applied", int(outcome.decision is FilterDecision.ACO_APPLIED)
        )

    return on_result


def _count_passes(prefix):
    def factory(tracer):
        def on_result(result, args):
            for one in (result.pass1, result.pass2):
                tracer.count(prefix + ".passes", int(one.invoked))
                tracer.count(prefix + ".iterations", one.iterations)

        return on_result

    return factory


def _count_colony(tracer):
    def on_result(result, args):
        tracer.count("colony.ant_steps", result.steps * args[0].num_ants)

    return on_result


def _count_events(tracer):
    def on_result(result, args):
        if args[0].sink.enabled:
            tracer.count("telemetry.events")

    return on_result


#: (span name, "module:Class.method" or "module:function", count factory).
#: Names listed in LEAVES are merged per parent span.
TARGETS = (
    ("pipeline", "repro.pipeline.compiler:CompilePipeline.compile_region", _count_outcome),
    ("parallel.schedule", "repro.parallel.scheduler:ParallelACOScheduler.schedule",
     _count_passes("parallel")),
    ("sequential.schedule", "repro.aco.sequential:SequentialACOScheduler.schedule",
     _count_passes("sequential")),
    ("layouts.build", "repro.parallel.layouts:RegionDeviceData.__init__", None),
    ("colony.rp_iter", "repro.parallel.vectorized:VectorizedColony.run_rp_iteration",
     _count_colony),
    ("colony.ilp_iter", "repro.parallel.vectorized:VectorizedColony.run_ilp_iteration",
     _count_colony),
    ("rng.spawn", "repro.parallel.rng:AntRngStreams.__init__", None),
    ("rng.draw", "repro.parallel.rng:AntRngStreams.uniform_ants", None),
    ("rng.draw", "repro.parallel.rng:AntRngStreams.uniform_ant", None),
    ("rng.draw", "repro.parallel.rng:AntRngStreams.uniform_wavefront_leaders", None),
    ("gpusim.charge", "repro.gpusim.kernel:KernelAccounting.charge_compute", None),
    ("gpusim.charge", "repro.gpusim.kernel:KernelAccounting.charge_memory", None),
    ("gpusim.charge", "repro.gpusim.kernel:KernelAccounting.charge_alloc", None),
    ("gpusim.charge", "repro.gpusim.kernel:KernelAccounting.charge_lane_compute", None),
    ("gpusim.charge", "repro.gpusim.kernel:KernelAccounting.charge_lane_memory", None),
    ("gpusim.charge", "repro.gpusim.kernel:KernelAccounting.charge_lane_alloc", None),
    ("gpusim.charge", "repro.gpusim.kernel:KernelAccounting.charge_uniform_cycles", None),
    ("pheromone.update", "repro.aco.strategy:AntSystemStrategy.update", None),
    ("pheromone.update", "repro.aco.strategy:AntSystemStrategy.update_no_winner", None),
    ("pheromone.update", "repro.aco.strategy:MaxMinAntSystem.update", None),
    ("pheromone.update", "repro.aco.strategy:MaxMinAntSystem.update_no_winner", None),
    ("ant.construct", "repro.aco.ant:construct_order", None),
    ("ant.construct", "repro.aco.ant:construct_cycles", None),
    ("ddg.build", "repro.ddg.graph:DDG.__init__", None),
    ("ddg.bounds", "repro.ddg.lower_bounds:region_bounds", None),
    ("heuristics.schedule",
     "repro.heuristics.amd_max_occupancy:AMDMaxOccupancyScheduler.schedule", None),
    ("rp.evaluate", "repro.rp.cost:evaluate_schedule", None),
    ("telemetry.emit", "repro.telemetry.core:Telemetry.emit", _count_events),
    ("obs.draw_observe", "repro.obs.record:RunRecorder.observe_draw", None),
    ("profile.span", "repro.profile.spans:SpanProfiler.push", None),
    ("profile.span", "repro.profile.spans:SpanProfiler.pop", None),
    ("profile.span", "repro.profile.spans:SpanProfiler.charge", None),
    ("profile.span", "repro.profile.spans:SpanProfiler.charge_leaf", None),
)


LEAVES = frozenset({"gpusim.charge", "obs.draw_observe"})


def _bindings(function):
    """Every (namespace owner, name) that binds ``function``."""
    found = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for name, value in list(namespace.items()):
            if value is function:
                found.append((module, name))
    return found


@contextmanager
def installed(tracer, targets=TARGETS):
    """Wrap every target for the ``with`` block, then put the originals back."""
    import importlib

    undo = []
    try:
        for span_name, path, counter in targets:
            module_name, _, attr = path.partition(":")
            module = importlib.import_module(module_name)
            on_result = counter(tracer) if counter is not None else None
            leaf = span_name in LEAVES
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                setattr(owner, method, tracer.wrap(span_name, original, on_result, leaf))
                undo.append((owner, method, original))
            else:
                original = getattr(module, attr)
                wrapped = tracer.wrap(span_name, original, on_result, leaf)
                for owner, name in _bindings(original):
                    setattr(owner, name, wrapped)
                    undo.append((owner, name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
