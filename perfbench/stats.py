"""Arithmetic of the benchmark: percentiles, tail choice and self time.

Pure functions over plain numbers, so the tests can check them on
hand-made inputs without running the program.
"""

import math

#: The probe's fastest observed duration on the 2-vCPU virtual machine the
#: bounds were set on. Timings are reported scaled to that speed; see
#: README.md, "How time is measured".
QUIET_PROBE_S = 0.00088

#: Percentiles a timing may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def rank(p, n):
    """1-based nearest rank of percentile ``p`` among ``n`` sorted samples."""
    if n < 1:
        raise ValueError("no samples")
    # Rounded first, so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return min(n, max(1, math.ceil(round(p / 100.0 * n, 9))))


def percentile(values, p):
    """Nearest-rank percentile: a value that was actually measured."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def samples_beyond(p, n):
    """How many of ``n`` samples lie above the nearest-rank ``p``."""
    return n - rank(p, n)


def tail_percentile(n):
    """The highest of :data:`TAIL_CANDIDATES` with :data:`MIN_BEYOND` of
    ``n`` samples beyond it, or None when ``n`` is too small for any."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(p, n) >= MIN_BEYOND:
            return p
    return None


def scaled(seconds, probe_seconds):
    """``seconds`` measured while the probe took ``probe_seconds``,
    expressed at the speed where it takes :data:`QUIET_PROBE_S`."""
    return seconds * QUIET_PROBE_S / probe_seconds


def median(values):
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def self_times(spans):
    """Self time of every span: its duration minus its children's.

    ``spans`` is a sequence of ``(parent, start, end)`` with ``parent``
    the index of the enclosing span, or -1 for a root. Children lie inside
    their parent's interval, so the self times of a tree add up to its
    root's duration.
    """
    spans = list(spans)
    result = [end - start for _, start, end in spans]
    for parent, start, end in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


def self_time_by_name(names, spans):
    """Sum :func:`self_times` per span name."""
    totals = {}
    for name, value in zip(names, self_times(spans)):
        totals[name] = totals.get(name, 0.0) + value
    return totals
