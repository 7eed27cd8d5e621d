"""Tests of the benchmark's own arithmetic, tracing and inputs.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- percentiles -----------------------------------------------------------------

def test_nearest_rank_percentile_is_a_measured_value():
    assert stats.percentile([5, 1, 4, 2, 3], 50) == 3
    assert stats.percentile(range(1, 11), 90) == 9
    assert stats.percentile([7.5], 90) == 7.5


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, None),
        (19, None),
        (20, 50.0),
        (40, 75.0),
        (100, 90.0),
        (144, 90.0),
        (156, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.samples_beyond(expected, n) >= 10


def test_median_of_even_count_averages_the_middle_pair():
    assert stats.median([4, 1, 3, 2]) == 2.5
    assert stats.median([3, 1, 2]) == 2


# -- self time -------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # bench [0, 10] holds layer [1, 4] (which holds inner [2, 3]) and
    # other [5, 9]; a second "layer" span [9.5, 10] sits under bench too.
    names = ["bench", "layer", "inner", "other", "layer"]
    spans = [(-1, 0.0, 10.0), (0, 1.0, 4.0), (1, 2.0, 3.0), (0, 5.0, 9.0), (0, 9.5, 10.0)]
    assert stats.self_times(spans) == [2.5, 2.0, 1.0, 4.0, 0.5]
    totals = stats.self_time_by_name(names, spans)
    assert totals == {"bench": 2.5, "layer": 2.5, "inner": 1.0, "other": 4.0}
    assert sum(totals.values()) == 10.0


def test_recursive_span_is_not_counted_twice():
    names = ["bench", "layer", "layer"]
    spans = [(-1, 0.0, 6.0), (0, 1.0, 5.0), (1, 2.0, 4.0)]
    assert stats.self_time_by_name(names, spans) == {"bench": 2.0, "layer": 4.0}


def test_tracer_self_times_add_up_to_the_root_span():
    tracer = tracing.Tracer()

    def leaf(x):
        return x + 1

    def leaf_calling_leaf(x):
        return traced_leaf(x)

    traced_leaf = tracer.wrap("leaf", leaf, leaf=True)
    outer_leaf = tracer.wrap("leaf", leaf_calling_leaf, leaf=True)

    def layer(x):
        return sum(traced_leaf(i) + outer_leaf(i) for i in range(x))

    traced_layer = tracer.wrap("layer", layer)
    with tracer.span("bench"):
        for _ in range(3):
            traced_layer(50)
    assert tracer.calls == {"leaf": 300, "layer": 3}
    own = tracer.self_times()
    assert set(own) == {"bench", "layer", "leaf"}
    assert all(value >= 0.0 for value in own.values())
    assert sum(own.values()) == pytest.approx(tracer.duration("bench"), abs=1e-9)
    # One merged span per (parent, leaf name): three layer calls.
    assert sum(1 for span in tracer.spans() if span[0] == "leaf") == 3


def test_installed_wraps_functions_where_they_are_looked_up():
    import repro
    import repro.ddg.lower_bounds as lower_bounds
    import repro.pipeline.compiler as compiler

    original = lower_bounds.region_bounds
    targets = [("ddg.bounds", "repro.ddg.lower_bounds:region_bounds", None),
               ("ddg.build", "repro.ddg.graph:DDG.__init__", None)]
    tracer = tracing.Tracer()
    with tracing.installed(tracer, targets):
        assert compiler.region_bounds is not original
        assert repro.region_bounds is compiler.region_bounds
        ddg = repro.DDG(workloads.build_items(workloads.SPECS["gpu_wide"], 1)[0].region)
        compiler.region_bounds(ddg)
    assert compiler.region_bounds is original
    assert repro.region_bounds is original
    assert "__wrapped__" not in vars(repro.DDG.__init__)
    assert tracer.calls == {"ddg.bounds": 1, "ddg.build": 1}


# -- inputs ----------------------------------------------------------------------

def _fingerprints(name, seed):
    from repro.suite import region_fingerprint

    return [region_fingerprint(item.region) for item in workloads.build_items(
        workloads.SPECS[name], seed)]


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_one_seed_gives_the_same_regions_every_time(name):
    assert _fingerprints(name, 7) == _fingerprints(name, 7)
    assert _fingerprints(name, 7) != _fingerprints(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_default_seed_regions_are_generate_suites(name):
    from repro import generate_suite
    from repro.config import SuiteParams
    from repro.suite import region_fingerprint

    spec = workloads.SPECS[name]
    benchmarks, kernels, per_kernel = spec.suite
    suite = generate_suite(
        SuiteParams(benchmarks, kernels, per_kernel, seed=workloads.SHAPE_SEED),
        max_region_size=workloads.MAX_REGION_SIZE,
    )
    low, high = spec.sizes
    expected = [
        region_fingerprint(r)
        for k in suite.kernels
        for r in k.regions
        if low <= len(r) <= high
    ]
    if spec.first_only:
        expected = expected[:1]
    assert _fingerprints(name, workloads.SHAPE_SEED) == expected


@pytest.mark.parametrize(
    "name, count, low, high",
    [
        ("gpu_wide", (1, 1), 100, 150),
        ("gpu_small_observed", (95, 115), 1, 49),
        ("cpu_suite", (144, 144), 4, 300),
    ],
)
@pytest.mark.parametrize("seed", [2024, 7, 123456])
def test_region_counts_and_sizes_stay_in_range(name, count, low, high, seed):
    items = workloads.build_items(workloads.SPECS[name], seed)
    assert count[0] <= len(items) <= count[1]
    assert all(low <= len(item.region) <= high for item in items)
    names = [item.region.name for item in items]
    assert len(set(names)) == len(names)


def test_references_cover_every_workload_on_two_seeds():
    with open(workloads.REFERENCES) as handle:
        references = json.load(handle)
    for name in workloads.SPECS:
        assert sorted(references[name]) == ["2024", "7"]
        for digests in references[name].values():
            assert len(digests) == len(workloads.build_items(workloads.SPECS[name], 2024))
