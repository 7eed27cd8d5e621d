"""Spawn-indexed per-ant RNG streams.

Both construction backends (:mod:`~repro.parallel.vectorized` and
:mod:`~repro.parallel.loop`) must make *exactly* the same random decisions
for a given seed, or the differential harness cannot demand bit-identical
schedules. A single shared generator cannot provide that: the vectorized
engine draws step-major (one batch across all ants per step) while a
scalar engine naturally draws ant-major, so the two would interleave one
stream differently.

The fix is one independent stream per ant *slot*, spawned from the launch
seed with :meth:`numpy.random.SeedSequence.spawn` semantics: ant ``i``
always owns spawn child ``i``. Consequences, each pinned by a regression
test:

* ant ``i``'s draw sequence depends only on ``(seed, i)`` — never on how
  many ants run beside it or how they are grouped into wavefronts;
* a batch draw across the population equals the ant-by-ant scalar draws,
  so backend equivalence holds by construction at the RNG layer and the
  differential harness only has to prove the *state evolution* equal;
* wavefront-level decisions (Section V-B) are drawn from the wavefront
  leader's stream (lane 0), keeping them lockstep-uniform without a
  second stream family.

The per-step draw discipline shared by both backends:

====== =====================================================================
pass 1 exploit decision (leader stream per wavefront, or every ant's
       stream at thread level), then one roulette draw per ant
pass 2 one stall draw per ant (only on steps where any ant considers a
       stall), then the pass-1 sequence
====== =====================================================================

Every ant draws on every step it is charged for — including exploiting
ants' unused roulette draws and inactive lanes' draws — exactly like the
paper's kernel, where a masked-off lane still executes the wavefront's
RNG instructions.

Draws are served from a per-ant buffer that is refilled with
``generator.random(size=DRAW_BUFFER)`` once it runs dry. For PCG64 (what
spawned streams are) a block draw yields exactly the values, and leaves
exactly the state, of that many scalar ``random()`` calls, so buffering
changes no ant's sequence; :meth:`AntRngStreams.state` rewinds each stream
past its unconsumed buffered draws, so a checkpoint still resumes at the
exact draw.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import ConfigError
from ..obs import record as _record

SeedLike = Union[int, np.random.Generator, "AntRngStreams"]

#: Draws fetched per refill of an ant's buffer.
DRAW_BUFFER = 64


class AntRngStreams:
    """One independent ``numpy.random.Generator`` per ant slot.

    ``seed`` may be an integer launch seed or an already-seeded
    :class:`numpy.random.Generator` (its spawn children are used, which
    for ``default_rng(s)`` equals spawning ``SeedSequence(s)`` directly).
    """

    def __init__(self, seed: SeedLike, num_ants: int):
        if num_ants < 1:
            raise ConfigError("need at least one ant stream")
        if isinstance(seed, np.random.Generator):
            root = seed
        else:
            root = np.random.default_rng(seed)
        self.num_ants = num_ants
        #: Stream ``i`` belongs to ant slot ``i`` (spawn-indexed: the first
        #: ``k`` streams are identical for every population size >= k).
        self.generators = tuple(root.spawn(num_ants))
        self._all = np.arange(num_ants)
        # A bit generator that cannot rewind (no ``advance``) is read one
        # draw at a time, so nothing is ever left unconsumed in its buffer.
        self._block = (
            DRAW_BUFFER
            if all(hasattr(g.bit_generator, "advance") for g in self.generators)
            else 1
        )
        self._buffer = np.empty((num_ants, self._block), dtype=np.float64)
        #: Next unread buffer column per ant; ``_block`` means empty.
        self._next = np.full(num_ants, self._block, dtype=np.intp)

    @classmethod
    def coerce(cls, rng: SeedLike, num_ants: int) -> "AntRngStreams":
        """Wrap a seed or generator; pass an existing stream set through."""
        if isinstance(rng, AntRngStreams):
            if rng.num_ants != num_ants:
                raise ConfigError(
                    "stream set has %d ants, launch needs %d"
                    % (rng.num_ants, num_ants)
                )
            return rng
        return cls(rng, num_ants)

    # -- state capture (checkpointed recovery) ------------------------------

    def state(self) -> list:
        """Every stream's bit-generator state, in ant-slot order.

        Each state is taken as of the ant's last *consumed* draw (buffered
        draws not yet handed out are rewound), and the streams themselves
        are left untouched. The returned structure is JSON-serializable
        (PCG64 state is a dict of ints), so a checkpoint can round-trip it
        losslessly; restoring it with :meth:`restore` continues each ant's
        draw sequence exactly where it stopped.
        """
        states = []
        for generator, unread in zip(self.generators, self._block - self._next):
            bit_generator = generator.bit_generator
            current = bit_generator.state
            if unread:
                bit_generator.advance(-int(unread))
                states.append(bit_generator.state)
                bit_generator.state = current
            else:
                states.append(current)
        return states

    def restore(self, states: list) -> None:
        """Restore a :meth:`state` capture into this stream set."""
        if len(states) != self.num_ants:
            raise ConfigError(
                "checkpoint has %d ant streams, launch needs %d"
                % (len(states), self.num_ants)
            )
        for generator, state in zip(self.generators, states):
            generator.bit_generator.state = state
        self._next[:] = self._block

    def _take(self, ants: np.ndarray) -> np.ndarray:
        """One buffered draw from each of ``ants`` (distinct slots)."""
        column = self._next[ants]
        empty = column >= self._block
        if empty.any():
            for ant in ants[empty].tolist():
                self._buffer[ant] = self.generators[ant].random(size=self._block)
            column = np.where(empty, 0, column)
        self._next[ants] = column + 1
        return self._buffer[ants, column]

    # -- draw primitives (the only ways the colonies consume randomness) ----

    def uniform_ants(self) -> np.ndarray:
        """One U[0,1) draw from every ant's stream, in ant-slot order."""
        values = self._take(self._all)
        recorder = _record.get_recorder()
        if recorder is not None:
            # Observed *after* the streams advanced, so the recorded
            # sequence is exactly what the colony consumed; with no ambient
            # recorder the draw path is untouched (recording off stays
            # bit-identical).
            recorder.observe_draws(None, values)
        return values

    def uniform_ant(self, ant: int) -> float:
        """One U[0,1) draw from a single ant's stream (scalar engines)."""
        column = self._next[ant]
        if column >= self._block:
            self._buffer[ant] = self.generators[ant].random(size=self._block)
            column = 0
        self._next[ant] = column + 1
        value = float(self._buffer[ant, column])
        recorder = _record.get_recorder()
        if recorder is not None:
            recorder.observe_draw(ant, value)
        return value

    def uniform_wavefront_leaders(
        self, num_wavefronts: int, wavefront_size: int
    ) -> np.ndarray:
        """One draw per wavefront, taken from its lane-0 (leader) stream."""
        if num_wavefronts * wavefront_size != self.num_ants:
            raise ConfigError(
                "wavefront geometry %dx%d does not cover %d ant streams"
                % (num_wavefronts, wavefront_size, self.num_ants)
            )
        leaders = self._all[::wavefront_size]
        values = self._take(leaders)
        recorder = _record.get_recorder()
        if recorder is not None:
            recorder.observe_draws(leaders, values)
        return values
