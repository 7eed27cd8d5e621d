"""Tests for the gpusim sanitizer: checked arrays and colony invariants."""

import types

import numpy as np
import pytest

from repro.aco import PheromoneTable
from repro.analysis import CheckedArray, ColonySanitizer, checked
from repro.analysis.sanitizer import sanitize_enabled, verification_enabled
from repro.config import ACOParams, GPUParams
from repro.ddg import DDG
from repro.errors import SanitizerError
from repro.gpusim import GPUDevice, KernelAccounting
from repro.parallel import Colony, DivergencePolicy, RegionDeviceData


def _make_colony(ddg, machine, blocks=1, seed=0, sanitize=True, **gpu_overrides):
    gpu = GPUParams(blocks=blocks, **gpu_overrides)
    params = ACOParams()
    policy = DivergencePolicy.from_params(gpu)
    data = RegionDeviceData(ddg, machine, tight_ready_bound=gpu.tight_ready_list_bound)
    accounting = KernelAccounting(GPUDevice(), policy.num_wavefronts, coalesced=True)
    sanitizer = ColonySanitizer() if sanitize else None
    colony = Colony(
        data,
        params,
        policy,
        accounting,
        np.random.default_rng(seed),
        sanitizer=sanitizer,
    )
    return colony, data, params


class TestCheckedArray:
    def test_negative_scalar_index_rejected(self):
        arr = checked(np.arange(8), "buf")
        with pytest.raises(SanitizerError, match="buf"):
            arr[-1]

    def test_negative_array_index_rejected(self):
        arr = checked(np.arange(8), "buf")
        with pytest.raises(SanitizerError):
            arr[np.array([0, 2, -1])]

    def test_negative_write_index_rejected(self):
        arr = checked(np.arange(8), "buf")
        with pytest.raises(SanitizerError):
            arr[np.array([-3])] = 7

    def test_positive_and_fancy_indexing_pass(self):
        arr = checked(np.arange(12).reshape(3, 4), "buf")
        assert arr[2, 3] == 11
        assert (arr[1] == [4, 5, 6, 7]).all()
        assert (arr[np.array([0, 2]), np.array([1, 2])] == [1, 10]).all()
        assert arr[arr > 100].size == 0  # boolean masks pass

    def test_slices_untouched(self):
        arr = checked(np.arange(8), "buf")
        assert (arr[2:5] == [2, 3, 4]).all()
        assert (arr[:-1] == np.arange(7)).all()  # slice negatives are fine

    def test_view_shares_memory(self):
        base = np.zeros(4, dtype=np.int32)
        view = checked(base, "buf")
        view[1] = 9
        assert base[1] == 9
        assert isinstance(view, CheckedArray)

    def test_name_survives_finalize(self):
        arr = checked(np.arange(6).reshape(2, 3), "state")
        with pytest.raises(SanitizerError, match="state"):
            arr[0][-1]

    def test_ufunc_and_accumulate_results_are_plain(self):
        """Arithmetic on checked state makes a new value, not state: a
        negative index into it is ordinary numpy."""
        pos = checked(np.arange(12).reshape(3, 4), "pos")
        assert ((pos + 1)[:, -1] == [4, 8, 12]).all()
        assert (np.cumsum(pos, axis=1)[:, -1] == [6, 22, 38]).all()
        assert type(pos * 2) is np.ndarray
        assert type(pos.sum(axis=1)) is np.ndarray

    def test_views_gathers_and_in_place_updates_stay_checked(self):
        pos = checked(np.arange(12).reshape(3, 4), "pos")
        pos += 1
        for derived in (pos, pos[1:], pos[np.array([0, 2])], pos.T):
            assert isinstance(derived, CheckedArray)
            with pytest.raises(SanitizerError, match="pos"):
                derived[0, -1]


class TestEnvGating:
    def test_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        assert not sanitize_enabled()
        assert not verification_enabled()

    def test_sanitize_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        assert sanitize_enabled()
        assert not verification_enabled()

    def test_verify_implies_sanitize(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        monkeypatch.setenv("REPRO_VERIFY", "true")
        assert verification_enabled()
        assert sanitize_enabled()

    def test_colony_auto_resolves_from_env(self, fig1_ddg, vega, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        colony, _, _ = _make_colony(fig1_ddg, vega, sanitize=False)
        assert colony.sanitizer is not None


class TestColonyCleanRuns:
    def test_rp_iteration_sanitized(self, fig1_ddg, vega):
        colony, _, params = _make_colony(fig1_ddg, vega)
        result = colony.run_rp_iteration(PheromoneTable(7, params).tau)
        assert sorted(result.winner_order) == list(range(7))
        assert colony.sanitizer.steps_checked == 7

    def test_ilp_iteration_sanitized(self, fig1_ddg, vega):
        colony, _, params = _make_colony(fig1_ddg, vega)
        result = colony.run_ilp_iteration(
            PheromoneTable(7, params).tau, {}, max_length=32
        )
        assert result.winner_order is not None
        assert colony.sanitizer.steps_checked > 0

    def test_sanitizer_does_not_change_results(self, fig1_ddg, vega):
        """Sanitize mode observes; the constructed schedules are identical."""
        plain, _, params = _make_colony(fig1_ddg, vega, sanitize=False, seed=3)
        sanitized, _, _ = _make_colony(fig1_ddg, vega, sanitize=True, seed=3)
        tau = PheromoneTable(7, params).tau
        assert (
            plain.run_rp_iteration(tau).winner_order
            == sanitized.run_rp_iteration(tau).winner_order
        )


class TestFaultInjection:
    def test_oversized_ready_list(self, fig1_ddg, vega):
        """Mutation: the available list claims more entries than the
        Section V-A bound sized the buffer for."""
        colony, data, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        colony.avail_len[0] = data.ready_capacity + 1
        with pytest.raises(SanitizerError, match="Section V-A bound"):
            colony.sanitizer.check_step(colony)

    def test_poison_violation(self, fig1_ddg, vega):
        """Mutation: a stale id appears beyond the list's length."""
        colony, data, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        free_slot = int(colony.avail_len[0])
        assert free_slot < data.ready_capacity
        np.asarray(colony.avail_ids)[0, free_slot] = 3
        with pytest.raises(SanitizerError, match="poison"):
            colony.sanitizer.check_step(colony)

    def test_duplicate_in_available_list(self, fig1_ddg, vega):
        """Mutation: a cross-ant write lands an id twice in one ant."""
        colony, _, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        np.asarray(colony.avail_ids)[0, 1] = np.asarray(colony.avail_ids)[0, 0]
        with pytest.raises(SanitizerError, match="aliasing|appears"):
            colony.sanitizer.check_step(colony)

    def test_negative_pred_counter(self, fig1_ddg, vega):
        colony, _, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        np.asarray(colony.pred_remaining)[0, 0] = -1
        with pytest.raises(SanitizerError, match="predecessor"):
            colony.sanitizer.check_step(colony)

    def test_non_uniform_wavefront_decision(self):
        """Mutation: one lane explores while its wavefront exploits."""
        sanitizer = ColonySanitizer()
        exploit = np.ones(128, dtype=bool)
        exploit[5] = False  # lane 5 of wavefront 0 diverges
        with pytest.raises(SanitizerError, match="wavefront 0"):
            sanitizer.check_exploit_uniform(exploit, 2, 64)
        # Uniform draws pass.
        sanitizer.check_exploit_uniform(np.zeros(128, dtype=bool), 2, 64)

    def test_winner_order_corruption(self, fig1_ddg, vega):
        """Mutation: the winning ant's order lost an instruction."""
        colony, _, params = _make_colony(fig1_ddg, vega)
        colony.run_rp_iteration(PheromoneTable(7, params).tau)
        np.asarray(colony.order_buf)[0, 0] = np.asarray(colony.order_buf)[0, 1]
        with pytest.raises(SanitizerError, match="incomplete or duplicated"):
            colony.sanitizer.check_iteration_end(colony, winner=0)

    def test_aliased_rows_rejected_at_layout_audit(self, fig1_ddg, vega):
        """Mutation: two ants' rows share memory (stride-0 broadcast)."""
        colony, data, _ = _make_colony(fig1_ddg, vega)
        fake = types.SimpleNamespace(
            num_ants=colony.num_ants,
            data=data,
            avail_ids=np.broadcast_to(
                np.zeros(data.ready_capacity, dtype=np.int32),
                (colony.num_ants, data.ready_capacity),
            ),
            avail_release=colony.avail_release,
            pred_remaining=colony.pred_remaining,
            remaining_uses=colony.remaining_uses,
            order_buf=colony.order_buf,
            cycles_buf=colony.cycles_buf,
        )
        with pytest.raises(SanitizerError, match="share state|overlap"):
            colony.sanitizer.audit_layout(fake)

    def test_wrong_capacity_rejected(self, fig1_ddg, vega):
        colony, data, _ = _make_colony(fig1_ddg, vega)
        fake = types.SimpleNamespace(
            num_ants=colony.num_ants,
            data=data,
            avail_ids=np.zeros(
                (colony.num_ants, data.ready_capacity + 2), dtype=np.int32
            ),
            avail_release=colony.avail_release,
            pred_remaining=colony.pred_remaining,
            remaining_uses=colony.remaining_uses,
            order_buf=colony.order_buf,
            cycles_buf=colony.cycles_buf,
        )
        with pytest.raises(SanitizerError, match="capacity"):
            colony.sanitizer.audit_layout(fake)

    def test_padding_slot_naming_a_real_register(self, fig1_ddg, vega):
        """Mutation: touched-register padding points at register 0 instead
        of the sentinel, so the step would write a real register."""
        data = RegionDeviceData(fig1_ddg, vega)
        padding = data.touched == data.num_registers
        assert padding.any()
        data.touched[padding] = 0
        policy = DivergencePolicy.from_params(GPUParams(blocks=1))
        with pytest.raises(SanitizerError, match="names a real register"):
            Colony(
                data, ACOParams(), policy,
                KernelAccounting(GPUDevice(), policy.num_wavefronts, coalesced=True),
                np.random.default_rng(0), sanitizer=ColonySanitizer(),
            )

    def test_successor_padding_naming_a_real_instruction(self, fig1_ddg, vega):
        colony, data, _ = _make_colony(fig1_ddg, vega)
        padding = data.succ_ids == data.num_instructions
        data.succ_ids[padding] = 0
        with pytest.raises(SanitizerError, match="real instruction"):
            colony.sanitizer.audit_layout(colony)

    def test_unchecked_padded_buffer(self, fig1_ddg, vega):
        colony, _, _ = _make_colony(fig1_ddg, vega)
        colony.live_pad = np.asarray(colony.live_pad)
        with pytest.raises(SanitizerError, match="live_pad is not behind"):
            colony.sanitizer.audit_layout(colony)

    def test_sentinel_register_live(self, fig1_ddg, vega):
        colony, _, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        np.asarray(colony.live_pad)[3, -1] = True
        with pytest.raises(SanitizerError, match="sentinel register"):
            colony.sanitizer.check_step(colony)

    def test_sentinel_counter_counted_down(self, fig1_ddg, vega):
        colony, _, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        np.asarray(colony.pred_remaining_pad)[0, -1] = 1
        with pytest.raises(SanitizerError, match="predecessor counter fell"):
            colony.sanitizer.check_step(colony)

    def test_sentinel_in_available_list(self, fig1_ddg, vega):
        colony, data, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        np.asarray(colony.avail_ids)[0, 0] = data.num_instructions
        with pytest.raises(SanitizerError, match="sentinel instruction"):
            colony.sanitizer.check_step(colony)

    def test_uninitialized_slot_read_caught_live(self, fig1_ddg, vega):
        """The CheckedArray wrapping catches a computed -1 index on the
        colony's own state arrays."""
        colony, _, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        bogus = int(colony.avail_len[1]) - 99  # a negative computed offset
        with pytest.raises(SanitizerError, match="avail_ids"):
            colony.avail_ids[1, bogus]


class TestClosingCounts:
    """The engine's incrementally kept closing-use counts against the
    sanitizer's from-scratch recount."""

    @pytest.mark.parametrize("pattern", ["reduce", "stencil", "gemm_tile", "select", "histogram"])
    def test_clean_runs_pass_both_passes(self, vega, pattern):
        from strategies import make_region

        ddg = DDG(make_region(pattern, 5, 24))
        colony, data, params = _make_colony(
            ddg, vega, blocks=2, seed=5, heuristic_diversity=True
        )
        tau = PheromoneTable(data.num_instructions, params).tau
        colony.run_rp_iteration(tau)
        colony.run_ilp_iteration(tau, {}, max_length=4 * data.num_instructions)
        assert colony.sanitizer.steps_checked > data.num_instructions

    def test_clean_run_on_a_redefining_last_reader(self, vega):
        """The pinned non-SSA region: a register whose last reader
        redefines it must not count as closed by that reader."""
        from strategies import accumulate_region

        ddg = DDG(accumulate_region())
        colony, data, params = _make_colony(ddg, vega, seed=5)
        tau = PheromoneTable(data.num_instructions, params).tau
        colony.run_rp_iteration(tau)
        colony.run_ilp_iteration(tau, {}, max_length=4 * data.num_instructions)
        assert colony.sanitizer.steps_checked > data.num_instructions

    def test_seeded_count_corruption_is_caught(self, fig1_ddg, vega):
        """Mutation: one unscheduled instruction's count of one ant is off
        by one (a stray write)."""
        colony, data, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        rng = np.random.default_rng(2)
        ant = int(rng.integers(colony.num_ants))
        inst = int(rng.integers(data.num_instructions))
        colony.closing[int(rng.integers(data.num_classes + 1)), ant, inst] += 1
        with pytest.raises(SanitizerError, match="ant %d's closing-use counts "
                           "for instruction %d" % (ant, inst)):
            colony.sanitizer.check_step(colony)

    def test_missed_flips_are_caught(self, fig1_ddg, vega, monkeypatch):
        """Mutation: the engine stops applying last-use flips."""
        colony, _, params = _make_colony(fig1_ddg, vega)
        monkeypatch.setattr(colony, "_flip_closing", lambda *args: None)
        with pytest.raises(SanitizerError, match="missed or double-applied"):
            colony.run_rp_iteration(PheromoneTable(7, params).tau)

    def test_loop_engine_keeps_no_counts(self, fig1_ddg, vega):
        from repro.parallel import LoopColony

        gpu = GPUParams(blocks=1)
        policy = DivergencePolicy.from_params(gpu)
        params = ACOParams()
        colony = LoopColony(
            RegionDeviceData(fig1_ddg, vega),
            params,
            policy,
            KernelAccounting(GPUDevice(), policy.num_wavefronts, coalesced=True),
            np.random.default_rng(0),
            sanitizer=ColonySanitizer(),
        )
        assert colony.closing is None
        colony.run_rp_iteration(PheromoneTable(7, params).tau)
        assert colony.sanitizer.steps_checked == 7
