"""Tests for the device image (layouts) and the divergence policy."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import GPUParams
from repro.ddg import DDG, TransitiveClosure
from repro.machine import amd_vega20
from repro.parallel import DivergencePolicy, RegionDeviceData

from repro.suite.patterns import PATTERN_NAMES
from strategies import accumulate_region, ddgs, make_region


class TestRegionDeviceData:
    def test_figure1_image(self, fig1_ddg, vega):
        data = RegionDeviceData(fig1_ddg, vega)
        assert data.num_instructions == 7
        assert data.num_registers == 7
        assert data.ready_capacity == 5  # the Section V-A tight bound
        assert data.uses.shape[1] == 2  # max two operands in figure 1
        assert data.succ_ids.shape == data.succ_lat.shape

    def test_trivial_bound_when_disabled(self, fig1_ddg, vega):
        data = RegionDeviceData(fig1_ddg, vega, tight_ready_bound=False)
        assert data.ready_capacity == 7

    def test_luts_match_tables(self, fig1_ddg, vega):
        data = RegionDeviceData(fig1_ddg, vega)
        for ci, cls in enumerate(data.classes):
            table = vega.table_for(cls)
            for pressure in (0, 1, 24, 25, 28, 29):
                if pressure < data.lut_width:
                    assert data.occ_lut[ci, pressure] == table.occupancy(pressure)
                    assert data.aprp_lut[ci, pressure] == table.aprp(pressure)

    def test_luts_built_once_per_machine(self, fig1_ddg, chain_region, vega):
        first = RegionDeviceData(fig1_ddg, vega)
        second = RegionDeviceData(DDG(chain_region), vega)
        assert first.occ_lut is second.occ_lut
        assert first.aprp_lut is second.aprp_lut
        with pytest.raises(ValueError):
            first.occ_lut[0, 0] = 0

    def test_user_table_lists_non_redefining_readers(self, fig1_ddg, vega):
        data = RegionDeviceData(fig1_ddg, vega)
        for reg in range(data.num_registers):
            users = data.user_ids[data.user_ptr[reg] : data.user_ptr[reg + 1]]
            expected = [
                inst
                for inst in range(data.num_instructions)
                if reg in data.uses[inst] and reg not in data.defs[inst]
            ]
            assert list(users) == expected

    def test_live_out_mask(self, fig1_ddg, vega):
        data = RegionDeviceData(fig1_ddg, vega)
        out_ids = [i for i in range(data.num_registers) if data.live_out_mask[i]]
        assert [str(data.registers[i]) for i in out_ids] == ["v7"]

    def test_device_arrays_nonempty(self, fig1_ddg, vega):
        data = RegionDeviceData(fig1_ddg, vega)
        arrays = data.device_arrays()
        assert len(arrays) >= 10
        assert all(np.asarray(a).nbytes >= 0 for a in arrays)

    def test_per_ant_bytes_scale_with_capacity(self, fig1_ddg, vega):
        tight = RegionDeviceData(fig1_ddg, vega, tight_ready_bound=True)
        loose = RegionDeviceData(fig1_ddg, vega, tight_ready_bound=False)
        assert loose.per_ant_state_bytes(64) > tight.per_ant_state_bytes(64)

    @given(ddgs())
    @settings(max_examples=25, deadline=None)
    def test_capacity_bounds_hold(self, ddg):
        data = RegionDeviceData(ddg, amd_vega20())
        closure = TransitiveClosure(ddg)
        assert data.ready_capacity >= min(
            ddg.num_instructions, closure.ready_list_upper_bound()
        )
        assert data.ready_capacity <= ddg.num_instructions

    @given(ddgs())
    @settings(max_examples=25, deadline=None)
    def test_operand_tables_roundtrip(self, ddg):
        data = RegionDeviceData(ddg, amd_vega20())
        for inst in ddg.region:
            uses = [data.registers[r] for r in data.uses[inst.index] if r >= 0]
            assert sorted(map(str, uses)) == sorted(map(str, inst.uses))
            defs = [data.registers[r] for r in data.defs[inst.index] if r >= 0]
            assert sorted(map(str, defs)) == sorted(map(str, inst.defs))


class TestTouchedSlotTables:
    """The fused step's static tables: per-(instruction, touched slot)
    flags, class one-hots and sentinel padding, checked against the
    region's instructions."""

    @staticmethod
    def _check(data):
        region = data.ddg.region
        n, r = data.num_instructions, data.num_registers
        width = data.touched.shape[1]
        assert data.touched.shape == (n + 1, width)
        assert data.touched_class.shape == (n + 1, width, data.num_classes)
        for table in (data.touched_reads, data.touched_defines,
                      data.touched_redefines, data.touched_live_out):
            assert table.shape == (n + 1, width) and table.dtype == bool
        for inst in region:
            row = data.touched[inst.index]
            regs = [data.registers[i] for i in row if i != r]
            assert regs == list(dict.fromkeys(inst.uses + inst.defs))
            assert (row[len(regs):] == r).all()  # padding names the sentinel
            for slot, reg in enumerate(regs):
                i = inst.index
                assert data.touched_reads[i, slot] == (reg in inst.uses)
                assert data.touched_defines[i, slot] == (reg in inst.defs)
                assert data.touched_redefines[i, slot] == (
                    reg in inst.uses and reg in inst.defs
                )
                assert data.touched_live_out[i, slot] == (reg in region.live_out)
                onehot = data.touched_class[i, slot]
                if reg.reg_class in data.classes:
                    assert onehot.tolist() == [
                        int(cls == reg.reg_class) for cls in data.classes
                    ]
                else:
                    assert not onehot.any()
            pad = slice(len(regs), None)
            assert not data.touched_reads[inst.index, pad].any()
            assert not data.touched_defines[inst.index, pad].any()
            assert data.touched_live_out[inst.index, pad].all()
            assert not data.touched_class[inst.index, pad].any()
            succs = [s for s, _lat in data.ddg.successors[inst.index]]
            assert data.succ_ids[inst.index, : len(succs)].tolist() == succs
            assert (data.succ_ids[inst.index, len(succs):] == n).all()
        # Row n is the sentinel instruction: all padding.
        assert (data.touched[n] == r).all() and (data.succ_ids[n] == n).all()
        assert not (data.touched_reads[n] | data.touched_defines[n]).any()
        assert data.touched_live_out[n].all() and not data.touched_class[n].any()

    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_every_suite_pattern(self, pattern, vega):
        for seed, size in ((0, 12), (3, 30)):
            self._check(RegionDeviceData(DDG(make_region(pattern, seed, size)), vega))

    def test_figure1_and_redefinitions(self, fig1_ddg, vega):
        self._check(RegionDeviceData(fig1_ddg, vega))
        data = RegionDeviceData(DDG(accumulate_region()), vega)
        self._check(data)
        assert data.touched_redefines.any()

    def test_device_image_excludes_sentinel_row(self, fig1_ddg, vega):
        data = RegionDeviceData(fig1_ddg, vega)
        arrays = data.device_arrays()
        assert any(a.shape == (7, data.succ_ids.shape[1]) for a in arrays)
        assert not any(a.shape[0] == 8 for a in arrays if a.ndim == 2)


class TestDivergencePolicy:
    def _policy(self, **overrides):
        gpu = GPUParams(blocks=8, **overrides)
        return DivergencePolicy.from_params(gpu)

    def test_from_params(self):
        policy = self._policy()
        assert policy.num_wavefronts == 8
        assert policy.wavefront_size == 64
        assert policy.num_ants == 512

    def test_stall_mask_fraction(self):
        policy = self._policy(stall_wavefront_fraction=0.25)
        assert policy.stall_wavefront_mask().sum() == 2
        assert self._policy(stall_wavefront_fraction=0.0).stall_wavefront_mask().sum() == 0
        assert self._policy(stall_wavefront_fraction=1.0).stall_wavefront_mask().sum() == 8

    def test_stall_mask_spread(self):
        mask = self._policy(stall_wavefront_fraction=0.5).stall_wavefront_mask()
        # Evenly spread, not clustered at the front.
        assert mask.sum() == 4
        assert mask[0] and not mask[1]

    def test_heuristic_assignment_rotates(self):
        policy = self._policy(heuristic_diversity=True)
        assignment = policy.heuristic_assignment(2)
        assert set(assignment) == {0, 1}
        off = self._policy(heuristic_diversity=False).heuristic_assignment(2)
        assert set(off) == {0}

    def test_wavefront_level_draw_uniform_within_wavefront(self):
        policy = self._policy(wavefront_level_choice=True)
        draw = policy.exploit_draw(np.random.default_rng(0), q0=0.5)
        blocks = draw.reshape(8, 64)
        for row in blocks:
            assert row.all() or not row.any()

    def test_thread_level_draw_varies_within_wavefront(self):
        policy = self._policy(wavefront_level_choice=False)
        draw = policy.exploit_draw(np.random.default_rng(0), q0=0.5)
        blocks = draw.reshape(8, 64)
        assert any(0 < row.sum() < 64 for row in blocks)


class TestGPUParamsToggles:
    def test_without_memory_opts(self):
        gpu = GPUParams().without_memory_opts()
        assert not gpu.soa_layout
        assert not gpu.tight_ready_list_bound
        assert not gpu.batched_transfers
        assert gpu.wavefront_level_choice  # divergence opts untouched

    def test_without_divergence_opts(self):
        gpu = GPUParams().without_divergence_opts()
        assert not gpu.wavefront_level_choice
        assert gpu.stall_wavefront_fraction == 1.0
        assert not gpu.early_wavefront_termination
        assert not gpu.heuristic_diversity
        assert gpu.soa_layout  # memory opts untouched
