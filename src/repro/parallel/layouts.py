"""The region's device image: padded structure-of-arrays buffers.

Section V-A: the parallel scheduler allocates nothing on the device.
Everything an ant needs — operand tables, successor lists, critical-path
heights, occupancy lookup tables — is packed into fixed-size arrays on the
host and copied over once, and per-ant dynamic state (ready lists, pressure
counters) lives in preallocated 2-D arrays whose widths are *upper bounds*:
the ready/available list is sized by the transitive-closure bound
(:meth:`repro.ddg.closure.TransitiveClosure.ready_list_upper_bound`) when
the ``tight_ready_list_bound`` optimization is on, or by the trivial bound
``n`` otherwise.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..ddg.closure import TransitiveClosure
from ..ddg.analysis import critical_path_info
from ..ddg.graph import DDG
from ..ir.registers import RegisterClass, VirtualRegister
from ..machine.model import MachineModel


def _pad_lists(lists, pad_value=-1, dtype=np.int32, min_width=1):
    width = max(min_width, max((len(l) for l in lists), default=0))
    out = np.full((len(lists), width), pad_value, dtype=dtype)
    for row, items in enumerate(lists):
        for col, value in enumerate(items):
            out[row, col] = value
    return out


class RegionDeviceData:
    """Read-only per-region arrays shared by all ants (the device image)."""

    def __init__(self, ddg: DDG, machine: MachineModel, tight_ready_bound: bool = True):
        self.ddg = ddg
        self.machine = machine
        region = ddg.region
        n = ddg.num_instructions
        self.num_instructions = n

        # Dense register universe.
        registers: Tuple[VirtualRegister, ...] = tuple(sorted(region.all_registers))
        self.registers = registers
        self.reg_index: Dict[VirtualRegister, int] = {
            reg: i for i, reg in enumerate(registers)
        }
        self.num_registers = len(registers)

        classes = machine.classes()
        self.classes: Tuple[RegisterClass, ...] = classes
        self.num_classes = len(classes)
        class_index = {cls: i for i, cls in enumerate(classes)}
        # Registers of classes the machine does not constrain get class -1
        # and are ignored by the pressure counters.
        self.reg_class = np.array(
            [class_index.get(reg.reg_class, -1) for reg in registers], dtype=np.int32
        )

        # Operand tables (padded; -1 terminates).
        self.uses = _pad_lists(
            [[self.reg_index[r] for r in inst.uses] for inst in region]
        )
        self.defs = _pad_lists(
            [[self.reg_index[r] for r in inst.defs] for inst in region]
        )

        # uses_redefined[i, s]: operand slot s of instruction i names a
        # register i itself redefines (kill-before-def must not free it).
        self.uses_redefined = np.zeros_like(self.uses, dtype=bool)
        for inst in region:
            def_ids = {self.reg_index[r] for r in inst.defs}
            for slot, reg in enumerate(inst.uses):
                if self.reg_index[reg] in def_ids:
                    self.uses_redefined[inst.index, slot] = True

        # Static per-class def counts (the stall heuristic's "opens" preview).
        self.defs_per_class = np.zeros((n, self.num_classes), dtype=np.int32)
        for inst in region:
            for reg in inst.defs:
                ci = class_index.get(reg.reg_class, -1)
                if ci >= 0:
                    self.defs_per_class[inst.index, ci] += 1

        # Dependence structure. Successor rows are padded with the sentinel
        # instruction ``n``, which also has a row of its own: it has no
        # successors (see the touched-slot tables below).
        self.succ_ids = _pad_lists(
            [[s for s, _l in ddg.successors[i]] for i in range(n)] + [[]], pad_value=n
        )
        self.succ_lat = _pad_lists(
            [[l for _s, l in ddg.successors[i]] for i in range(n)] + [[]], pad_value=0
        )
        self.pred_count = np.array(ddg.num_predecessors, dtype=np.int32)
        self.succ_count = np.array([len(ddg.successors[i]) for i in range(n)], dtype=np.int32)
        self.roots = np.array(ddg.roots, dtype=np.int32)

        # Guiding-heuristic inputs.
        cp = critical_path_info(ddg)
        self.heights = np.array(cp.height, dtype=np.float64)
        self.score_scale = float(max(cp.height) + 1)
        self.num_uses = np.count_nonzero(self.uses >= 0, axis=1).astype(np.float64)
        self.num_defs = np.count_nonzero(self.defs >= 0, axis=1).astype(np.float64)

        # Liveness inputs.
        self.total_use_counts = np.zeros(self.num_registers, dtype=np.int32)
        for inst in region:
            for reg in inst.uses:
                self.total_use_counts[self.reg_index[reg]] += 1
        self.live_out_mask = np.zeros(self.num_registers, dtype=bool)
        for reg in region.live_out:
            self.live_out_mask[self.reg_index[reg]] = True
        self.live_in_ids = np.array(
            sorted(self.reg_index[reg] for reg in region.live_in), dtype=np.int32
        )

        # Occupancy / APRP lookup tables, one row per class; index = pressure
        # clamped to the table width (beyond-table pressure -> occupancy 0).
        # They depend on the machine only, so regions share its read-only copy.
        self.occ_lut, self.aprp_lut = machine.pressure_luts
        self.lut_width = self.occ_lut.shape[1]
        self.max_occupancy = machine.max_occupancy

        # Closing-use bookkeeping of the vectorized engine. A register is in
        # its *last-use* state while it is live, not live-out and has exactly
        # one unscheduled use; an instruction's closing count is the number
        # of such registers it reads without redefining (what the LUC
        # heuristic and the pass-2 pressure preview need). These tables let
        # the engine keep the counts up to date instead of recomputing them.
        # user_ptr/user_ids: CSR of the distinct non-redefining readers of
        # each register.
        readers = [[] for _ in range(self.num_registers)]
        for inst in region:
            def_ids = {self.reg_index[r] for r in inst.defs}
            for reg in dict.fromkeys(self.reg_index[r] for r in inst.uses):
                if reg not in def_ids:
                    readers[reg].append(inst.index)
        self.user_ptr = np.zeros(self.num_registers + 1, dtype=np.int64)
        self.user_ptr[1:] = np.cumsum([len(r) for r in readers])
        self.user_ids = np.array(
            [i for users in readers for i in users], dtype=np.int32
        )
        # The closing counts a last-use flip of each register moves: each
        # reader's in the all-class plane (index num_classes) and, for a
        # constrained class, in the class's plane. CSR by register
        # (flip_ptr/flip_count) over (flip_plane, flip_user) pairs.
        flips = [
            [
                (plane, user)
                for plane in (self.num_classes, self.reg_class[reg])
                if plane >= 0
                for user in users
            ]
            for reg, users in enumerate(readers)
        ]
        self.flip_count = np.array([len(f) for f in flips], dtype=np.int64)
        self.flip_ptr = np.cumsum(self.flip_count) - self.flip_count
        pairs = np.array([p for f in flips for p in f], dtype=np.int64).reshape(-1, 2)
        self.flip_plane, self.flip_user = pairs.T
        # touched[i]: the distinct registers instruction i reads or writes
        # (the only ones its issue can change), padded with the sentinel
        # register ``num_registers``. touched_flags[i, f] says what i does
        # to each: reads, defines, redefines (both), or whether the
        # register is live-out; the class one-hot turns per-slot +-1s into
        # per-class pressure deltas. The sentinel register is never read or
        # defined, counts as live-out and has no class, so a padding slot
        # changes nothing in any update. Row ``n`` is the sentinel
        # instruction, all padding: lanes that issue nothing in a step
        # "issue" it, so the step needs no lane mask either.
        sentinel = self.num_registers
        self.touched = _pad_lists(
            [
                list(dict.fromkeys(self.reg_index[r] for r in inst.uses + inst.defs))
                for inst in region
            ]
            + [[]],
            pad_value=sentinel,
        )
        width = self.touched.shape[1]
        self.touched_flags = np.zeros((4, n + 1, width), dtype=bool)
        self.touched_class = np.zeros((n + 1, width, self.num_classes), dtype=np.int32)
        for inst in region:
            # Instruction rejects duplicate defs and uses, so plain flags
            # (not counts) describe each slot.
            assert len(set(inst.uses)) == len(inst.uses)
            assert len(set(inst.defs)) == len(inst.defs)
            use_ids = {self.reg_index[r] for r in inst.uses}
            def_ids = {self.reg_index[r] for r in inst.defs}
            for slot, reg in enumerate(self.touched[inst.index]):
                if reg == sentinel:
                    break
                self.touched_flags[:2, inst.index, slot] = (reg in use_ids, reg in def_ids)
                if self.reg_class[reg] >= 0:
                    self.touched_class[inst.index, slot, self.reg_class[reg]] = 1
        (
            self.touched_reads,
            self.touched_defines,
            self.touched_redefines,
            self.touched_live_out,
        ) = self.touched_flags
        self.touched_redefines[:] = self.touched_reads & self.touched_defines
        self.touched_live_out[:] = np.append(self.live_out_mask, True)[self.touched]
        # Counts at the start of construction (live-ins are the live set):
        # one plane per class, then a plane over all registers.
        live_in = np.zeros(self.num_registers, dtype=bool)
        live_in[self.live_in_ids] = True
        last_use = (self.total_use_counts == 1) & live_in & ~self.live_out_mask
        self.initial_closing = np.zeros((self.num_classes + 1, n), dtype=np.int32)
        for reg in np.flatnonzero(last_use):
            users = self.user_ids[self.user_ptr[reg] : self.user_ptr[reg + 1]]
            if self.reg_class[reg] >= 0:
                self.initial_closing[self.reg_class[reg], users] += 1
            self.initial_closing[-1, users] += 1

        # The available-list bound of Section V-A. Available = ready and
        # semi-ready instructions, which are pairwise independent, so the
        # transitive-closure bound applies to the combined list.
        closure = TransitiveClosure(ddg)
        self.tight_ready_bound = tight_ready_bound
        tight = closure.ready_list_upper_bound()
        self.ready_capacity = min(n, tight) if tight_ready_bound else n

    # -- transfer accounting ------------------------------------------------

    def device_arrays(self):
        """The arrays copied host->device (for transfer accounting). The
        sentinel instruction's rows are host-side padding, not region data."""
        n = self.num_instructions
        return (
            self.reg_class,
            self.uses,
            self.defs,
            self.succ_ids[:n],
            self.succ_lat[:n],
            self.pred_count,
            self.succ_count,
            self.roots,
            self.heights,
            self.num_uses,
            self.num_defs,
            self.total_use_counts,
            self.live_out_mask,
            self.live_in_ids,
            self.occ_lut,
            self.aprp_lut,
        )

    def per_ant_state_bytes(self, num_ants: int) -> int:
        """Preallocated per-ant state copied/zeroed on the device.

        Dominated by the available-list arrays of width ``ready_capacity``
        (this is where the tight bound pays off) plus the order/cycle
        buffers and the register bitmaps.
        """
        cap = self.ready_capacity
        per_ant = (
            cap * 4 * 2  # available ids + release cycles
            + self.num_instructions * 4 * 3  # order, cycles, pred counters
            + self.num_registers * (4 + 1)  # remaining uses + live flags
            + self.num_classes * 4 * 2  # current + peak pressure
            + 64  # scalars
        )
        return per_ant * num_ants
