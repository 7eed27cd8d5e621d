"""Shared hypothesis strategies for regions and DDGs.

One home for the generators every property-based test draws from
(previously duplicated ad hoc across the DDG/heuristic/RP modules):

* :func:`make_region` — a deterministic generated region from a pattern
  name, seed and size (also usable outside hypothesis, e.g. for goldens);
* :func:`accumulate_region` — a pinned hand-built non-SSA region;
* :func:`regions` — a hypothesis strategy over generated regions;
* :func:`ddgs` — a hypothesis strategy over their dependence graphs;
* :func:`medium_regions` — the differential/seed-sweep sizing (large
  enough to exercise both passes, small enough for the scalar backend).

Import from here (``from strategies import ddgs``); ``conftest`` re-exports
the same names so older spellings keep working.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.ddg import DDG
from repro.ir.builder import RegionBuilder
from repro.suite.patterns import PATTERN_NAMES, pattern_region


def make_region(pattern: str, seed: int, size: int):
    """Deterministic generated region (used by strategies and tests)."""
    return pattern_region(pattern, random.Random(seed), size)


def accumulate_region():
    """A hand-built non-SSA region for the differential goldens: the
    generated suite reads and redefines no register in one instruction.
    Two accumulators are updated in place, a live-in SGPR is read and
    redefined, dead defs (no uses, not live-out) occur in both register
    classes, and v7's last reader redefines it with a dead value (so it
    may close v7 in neither engine's count)."""
    b = RegionBuilder("accumulate")
    b.inst("v_mov", defs=["v0"])
    b.inst("v_mov", defs=["v4"])
    for k in range(3):
        b.inst("global_load", defs=["v%d" % (10 + k)], uses=["s0"])
        b.inst("v_fma_f32", defs=["v0"], uses=["v0", "v%d" % (10 + k)])
        b.inst("v_mul_f32", defs=["v4", "v%d" % (20 + k)], uses=["v4", "v%d" % (10 + k)])
    b.inst("global_load", defs=["v7"], uses=["s0"])
    b.inst("v_mul_f32", defs=["v8"], uses=["v7"])
    b.inst("v_add", defs=["v7"], uses=["v7", "v8"])
    b.inst("s_add", defs=["s0"], uses=["s0", "s1"])
    b.inst("s_mov", defs=["s2"])
    b.inst("v_add", defs=["v5"], uses=["v0", "v4"])
    return b.live_out("v5", "s0").build()


@st.composite
def regions(draw, min_size: int = 2, max_size: int = 40):
    """Hypothesis strategy: a deterministic generated region."""
    pattern = draw(st.sampled_from(PATTERN_NAMES))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    return make_region(pattern, seed, size)


@st.composite
def ddgs(draw, min_size: int = 2, max_size: int = 40):
    """Hypothesis strategy: the DDG of a generated region."""
    return DDG(draw(regions(min_size=min_size, max_size=max_size)))


@st.composite
def medium_regions(draw, min_size: int = 6, max_size: int = 18):
    """Regions sized for cross-backend differential runs.

    Big enough that pass 2 is usually invoked (stalls, pressure targets),
    small enough that the scalar loop backend finishes in well under a
    second per schedule.
    """
    return draw(regions(min_size=min_size, max_size=max_size))
