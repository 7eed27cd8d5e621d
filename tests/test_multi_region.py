"""Tests for multi-region batch scheduling (the Section VII extension)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ACOParams, GPUParams, ResilienceParams
from repro.ddg import DDG
from repro.errors import ConfigError, GPUSimError
from repro.gpusim.faults import DEFAULT_CHAOS_RATES, FaultPlan
from repro.machine import amd_vega20
from repro.parallel import BatchItem, MultiRegionScheduler
from repro.parallel.multi_region import merge_shard_results, partition_shards
from repro.resilience.chaos import chaos_regions
from repro.rp import peak_pressure
from repro.schedule import validate_schedule

from conftest import make_region


@pytest.fixture(scope="module")
def machine():
    return amd_vega20()


def _items(count, size=30, pattern="reduce"):
    return [
        BatchItem(ddg=DDG(make_region(pattern, seed, size)), seed=seed)
        for seed in range(count)
    ]


class TestPartitioning:
    def test_every_region_gets_a_block(self, machine):
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=8))
        items = [
            BatchItem(ddg=DDG(make_region("scan", s, size)))
            for s, size in enumerate([10, 80, 10, 10])
        ]
        blocks = scheduler._partition_blocks(items)
        assert sum(blocks) == 8
        assert all(b >= 1 for b in blocks)
        assert blocks[1] == max(blocks)  # the big region gets the most

    def test_too_many_regions_rejected(self, machine):
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=2))
        with pytest.raises(GPUSimError):
            scheduler._partition_blocks(_items(3))

    def test_empty_batch_rejected(self, machine):
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=4))
        with pytest.raises(GPUSimError):
            scheduler.schedule_batch([])


class TestBatchScheduling:
    def test_schedules_are_legal(self, machine):
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=6))
        items = _items(3, size=25)
        batch = scheduler.schedule_batch(items)
        assert len(batch.results) == 3
        for item, result in zip(items, batch.results):
            validate_schedule(result.schedule, item.ddg, machine)
            assert result.peak == peak_pressure(result.schedule)

    def test_amortization_beats_individual_launches(self, machine):
        """The whole point: one launch for N regions is faster than N
        launches, when ACO actually runs."""
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=6))
        batch = scheduler.schedule_batch(_items(6, size=30))
        if batch.unbatched_seconds > 0:
            assert batch.seconds < batch.unbatched_seconds
            assert batch.amortization_speedup > 1.5

    def test_noop_batch_costs_nothing(self, machine):
        """Regions whose heuristics are optimal never launch a kernel."""
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=4))
        items = [BatchItem(ddg=DDG(make_region("scan", 1, 4)))]
        batch = scheduler.schedule_batch(items)
        if all(
            not r.pass1.invoked and not r.pass2.invoked for r in batch.results
        ):
            assert batch.seconds == 0.0

    def test_deterministic(self, machine):
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=6))
        a = scheduler.schedule_batch(_items(3))
        b = scheduler.schedule_batch(_items(3))
        assert a.seconds == b.seconds
        for ra, rb in zip(a.results, b.results):
            assert ra.schedule == rb.schedule


class TestPerRegionProvenance:
    def test_attempts_and_backends_on_the_clean_path(self, machine):
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=6))
        batch = scheduler.schedule_batch(_items(3, size=25))
        assert batch.attempts == (1, 1, 1)
        backend = scheduler._region_scheduler(blocks=2).backend
        assert batch.final_backends == (backend,) * 3
        assert batch.retried_regions == 0

    def test_run_slot_is_pure_per_region(self, machine):
        """The contract sharding rests on: a slot's outcome depends only
        on (item, blocks), not on when or in which shard it runs."""
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=6))
        item = _items(1, size=25)[0]
        a = scheduler.run_slot(item, 2)
        b = scheduler.run_slot(item, 2)
        assert a.result.schedule == b.result.schedule
        assert a.seconds == b.seconds
        assert (a.attempts, a.final_backend) == (b.attempts, b.final_backend)


class TestPartitionShards:
    def test_round_robin_in_slot_order(self):
        assert partition_shards([0, 1, 2, 3, 4], 2) == [[0, 2, 4], [1, 3]]
        assert partition_shards([0, 1, 2, 3, 4, 5], 3) == [[0, 3], [1, 4], [2, 5]]

    def test_sparse_slots_keep_slot_order(self):
        assert partition_shards([1, 4, 7], 2) == [[1, 7], [4]]

    def test_extra_shards_idle_empty(self):
        assert partition_shards([0, 1], 4) == [[0], [1], [], []]

    def test_zero_shards_rejected(self):
        with pytest.raises(GPUSimError):
            partition_shards([0, 1], 0)

    @given(
        num_slots=st.integers(min_value=0, max_value=40),
        num_shards=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_is_a_partition(self, num_slots, num_shards):
        queues = partition_shards(list(range(num_slots)), num_shards)
        assert len(queues) == num_shards
        flat = [slot for queue in queues for slot in queue]
        assert sorted(flat) == list(range(num_slots))
        for queue in queues:
            assert queue == sorted(queue)  # slot order preserved per shard


class TestMergeShardResults:
    def test_any_arrival_order_merges_to_slot_order(self):
        resolved = [(2, "c"), (0, "a"), (3, "d"), (1, "b")]
        assert merge_shard_results(4, resolved) == ["a", "b", "c", "d"]

    def test_duplicate_slot_rejected(self):
        with pytest.raises(GPUSimError, match="twice"):
            merge_shard_results(2, [(0, "a"), (0, "b"), (1, "c")])

    def test_missing_slot_rejected(self):
        with pytest.raises(GPUSimError, match="missing"):
            merge_shard_results(3, [(0, "a"), (2, "c")])

    def test_out_of_range_slot_rejected(self):
        with pytest.raises(GPUSimError, match="out-of-range"):
            merge_shard_results(2, [(0, "a"), (2, "c")])
        with pytest.raises(GPUSimError, match="out-of-range"):
            merge_shard_results(2, [(-1, "a"), (0, "b")])

    def test_negative_count_rejected(self):
        with pytest.raises(GPUSimError):
            merge_shard_results(-1, [])

    def test_empty_merge(self):
        assert merge_shard_results(0, []) == []

    @given(permutation=st.permutations(list(range(12))))
    @settings(max_examples=50, deadline=None)
    def test_merge_is_arrival_order_invariant(self, permutation):
        resolved = [(slot, "v%d" % slot) for slot in permutation]
        assert merge_shard_results(12, resolved) == [
            "v%d" % slot for slot in range(12)
        ]


#: Fault-free, and region faults at the default chaos mix with the retry
#: ladder on (faults, retries and engine downgrades all in the batch).
SHARD_CASES = {
    "fault-free": (None, None),
    "chaos": (FaultPlan(42, dict(DEFAULT_CHAOS_RATES)), ResilienceParams(enabled=True)),
}


class TestShardedBatch:
    """A batch's result is field-exactly the same for every shard count."""

    @pytest.fixture(scope="class")
    def batch(self, machine):
        items = [
            BatchItem(ddg, seed=7 + index)
            for index, ddg in enumerate(chaos_regions(machine, (8, 10, 12, 9, 11, 8, 10)))
        ]
        scheduler = MultiRegionScheduler(
            machine, params=ACOParams(max_iterations=8), gpu_params=GPUParams(blocks=8)
        )
        return scheduler, items

    @pytest.fixture(scope="class")
    def one_shard(self, batch):
        scheduler, items = batch
        return {
            name: scheduler.schedule_batch(
                items, fault_plan=plan, resilience=resilience, shards=1
            )
            for name, (plan, resilience) in SHARD_CASES.items()
        }

    @pytest.mark.parametrize("case", sorted(SHARD_CASES))
    @pytest.mark.parametrize("shards", range(2, 9))
    def test_any_shard_count_matches_one_shard(self, batch, one_shard, case, shards):
        scheduler, items = batch
        plan, resilience = SHARD_CASES[case]
        sharded = scheduler.schedule_batch(
            items, fault_plan=plan, resilience=resilience, shards=shards
        )
        assert sharded == one_shard[case]

    def test_chaos_case_injects_faults(self, one_shard):
        assert one_shard["chaos"].retried_regions > 0

    def test_repro_shards_env_takes_effect(self, batch, monkeypatch):
        scheduler, items = batch
        order = []
        run_slot = scheduler.run_slot

        def recording(item, blocks, **kwargs):
            order.append(items.index(item))
            return run_slot(item, blocks, **kwargs)

        monkeypatch.setattr(scheduler, "run_slot", recording)
        monkeypatch.setenv("REPRO_SHARDS", "2")
        scheduler.schedule_batch(items)
        assert order == [0, 2, 4, 6, 1, 3, 5]

    def test_shards_below_one_rejected(self, batch):
        scheduler, items = batch
        with pytest.raises(GPUSimError, match="num_shards"):
            scheduler.schedule_batch(items, shards=0)

    def test_non_integer_repro_shards_rejected(self, batch, monkeypatch):
        scheduler, items = batch
        monkeypatch.setenv("REPRO_SHARDS", "two")
        with pytest.raises(ConfigError, match="REPRO_SHARDS"):
            scheduler.schedule_batch(items)
