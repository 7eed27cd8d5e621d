"""Regression tests for the spawn-indexed per-ant RNG streams.

The backend-equivalence argument rests on three stream properties
(see :mod:`repro.parallel.rng`): ant ``i`` owns spawn child ``i`` of the
launch seed regardless of population size or wavefront grouping, a batch
draw equals the ant-by-ant scalar draws, and wavefront-level decisions
come from the leader lane's stream. Each is pinned here, plus the literal
draw sequence for the suite's base seed so an accidental reseeding (or a
numpy spawn-semantics change) fails loudly instead of silently breaking
cross-backend bit-identity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.parallel.rng import DRAW_BUFFER, AntRngStreams

#: First draw of each of the first four spawn children of seed 2024.
#: Recorded once; any change means seeded schedules change everywhere.
GOLDEN_FIRST_DRAWS = (
    0.6505695732025213,
    0.12380904477931853,
    0.9211914659851209,
    0.07959297730799253,
)


class TestDrawSequenceGolden:
    def test_first_draws_are_pinned(self):
        streams = AntRngStreams(2024, 4)
        assert tuple(streams.uniform_ants()) == GOLDEN_FIRST_DRAWS

    def test_generator_seed_equals_integer_seed(self):
        # default_rng(s).spawn(n) and AntRngStreams(s, n) must agree, so the
        # scheduler may hand over either form.
        from_int = AntRngStreams(2024, 4)
        from_gen = AntRngStreams(np.random.default_rng(2024), 4)
        assert tuple(from_int.uniform_ants()) == tuple(from_gen.uniform_ants())


class TestSpawnIndexing:
    def test_ant_streams_do_not_depend_on_population_size(self):
        # The first k streams are identical for every population >= k:
        # a wider launch must not change any existing ant's draw sequence.
        narrow = AntRngStreams(7, 4)
        wide = AntRngStreams(7, 64)
        for i in range(4):
            assert narrow.generators[i].random() == wide.generators[i].random()

    def test_batch_draw_equals_scalar_draws(self):
        batch = AntRngStreams(7, 8)
        scalar = AntRngStreams(7, 8)
        for _step in range(5):
            batch_draws = batch.uniform_ants()
            scalar_draws = [scalar.uniform_ant(i) for i in range(8)]
            assert list(batch_draws) == scalar_draws

    def test_leader_draws_come_from_lane_zero_streams(self):
        streams = AntRngStreams(7, 8)
        reference = AntRngStreams(7, 8)
        leaders = streams.uniform_wavefront_leaders(2, 4)
        assert leaders[0] == reference.uniform_ant(0)
        assert leaders[1] == reference.uniform_ant(4)
        # Non-leader streams are untouched by a leader draw.
        assert streams.uniform_ant(1) == reference.uniform_ant(1)


class TestCoercion:
    def test_coerce_passes_streams_through(self):
        streams = AntRngStreams(7, 4)
        assert AntRngStreams.coerce(streams, 4) is streams

    def test_coerce_wraps_seeds_and_generators(self):
        assert isinstance(AntRngStreams.coerce(7, 4), AntRngStreams)
        assert isinstance(
            AntRngStreams.coerce(np.random.default_rng(7), 4), AntRngStreams
        )

    def test_coerce_rejects_mismatched_population(self):
        streams = AntRngStreams(7, 4)
        with pytest.raises(ConfigError):
            AntRngStreams.coerce(streams, 8)

    def test_rejects_empty_population_and_bad_geometry(self):
        with pytest.raises(ConfigError):
            AntRngStreams(7, 0)
        with pytest.raises(ConfigError):
            AntRngStreams(7, 8).uniform_wavefront_leaders(3, 4)


class TestBufferedDraws:
    """Draws come from per-ant buffers refilled by block draws; neither the
    values nor a checkpoint's resume point may depend on that."""

    def test_block_draw_equals_scalar_draws_and_state(self):
        scalar, block = (np.random.default_rng(2024).spawn(1)[0] for _ in range(2))
        values = [scalar.random() for _ in range(DRAW_BUFFER)]
        assert list(block.random(size=DRAW_BUFFER)) == values
        assert block.bit_generator.state == scalar.bit_generator.state

    def test_draws_cross_buffer_refills_unchanged(self):
        streams = AntRngStreams(7, 3)
        reference = [np.random.default_rng(7).spawn(3)[i] for i in range(3)]
        for _step in range(2 * DRAW_BUFFER + 5):
            expected = [g.random() for g in reference]
            assert list(streams.uniform_ants()) == expected

    def test_state_rewinds_unconsumed_draws(self):
        streams = AntRngStreams(7, 4)
        for _ in range(5):
            streams.uniform_ants()
        streams.uniform_ant(2)
        captured = streams.state()
        # Capturing leaves the live streams where they were.
        after = [streams.uniform_ant(i) for i in range(4)]
        resumed = AntRngStreams(99, 4)
        resumed.restore(captured)
        assert [resumed.uniform_ant(i) for i in range(4)] == after
        # The state is what the scalar draws alone would have left.
        plain = [np.random.default_rng(7).spawn(4)[i] for i in range(4)]
        for i, g in enumerate(plain):
            for _ in range(5 + (i == 2)):
                g.random()
            assert g.bit_generator.state == captured[i]

    def test_batch_to_scalar_resume_is_exact(self):
        # A checkpoint taken by the batch engine resumes draw for draw in
        # the scalar engine (and back).
        batch = AntRngStreams(11, 8)
        for _ in range(3):
            batch.uniform_wavefront_leaders(2, 4)
            batch.uniform_ants()
        scalar = AntRngStreams(11, 8)
        scalar.restore(batch.state())
        for _ in range(DRAW_BUFFER):
            assert list(batch.uniform_ants()) == [scalar.uniform_ant(i) for i in range(8)]
        batch.restore(scalar.state())
        assert list(batch.uniform_ants()) == [scalar.uniform_ant(i) for i in range(8)]

    def test_generator_without_advance_reads_one_draw_at_a_time(self):
        seed = np.random.Generator(np.random.MT19937(5))
        streams = AntRngStreams(seed, 2)
        streams.uniform_ants()
        captured = streams.state()
        expected = list(streams.uniform_ants())
        resumed = AntRngStreams(np.random.Generator(np.random.MT19937(6)), 2)
        resumed.restore(captured)
        assert list(resumed.uniform_ants()) == expected
