"""Deterministic trace-context propagation (the causal spine of ``repro.obs``).

A :class:`TraceContext` carries the W3C-style triple ``trace_id`` /
``span_id`` / ``parent_id`` for one scheduling region's journey through
the system: pipeline -> invocation filter -> ACO scheduler -> backend ->
resilience ladder (retries, checkpoint resumes, engine downgrades). Every
telemetry event emitted while a context is installed is stamped with the
triple (see :meth:`repro.telemetry.Telemetry.emit`), and the span profiler
keys same-named spans by ``(name, trace_id)`` so per-region attribution
stays separable — which is exactly what lets one region's whole fault
story reconstruct as a single causal trace from a flat JSONL file.

Ids are **deterministic**: there is no wall clock and no RNG anywhere in
their derivation. A region's ``trace_id`` is a SHA-256 digest of the
region fingerprint (name + instruction count) and the scheduling seed;
child span ids chain the parent span id with a structural label
(``pass1``, ``attempt3``). Two seeded runs therefore produce *identical*
ids — traces diff cleanly, and the metrics snapshots built from them are
byte-stable.

The context stack is process-wide and single-threaded, matching the
reproduction's execution model. Installation is idempotent by design:
:func:`region_trace` reuses an ambient context instead of opening a new
one, so the pipeline, the multi-region batcher, the resilience ladder and
the schedulers can all guard their entry points without fighting over who
owns the region's trace — the outermost layer wins, and every retry of a
region (which rotates its *seed*) still shares the trace the region
started with.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = [
    "TraceContext",
    "current_trace",
    "trace_scope",
    "region_trace",
]

#: Hex digits kept for a trace id / a span id.
TRACE_ID_LEN = 16
SPAN_ID_LEN = 8

_SEP = "\x1f"


def _digest(*parts: object) -> str:
    payload = _SEP.join(str(p) for p in parts).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class TraceContext:
    """One span's identity within one trace (immutable value object)."""

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(self, trace_id: str, span_id: str, parent_id: Optional[str] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    @classmethod
    def for_region(cls, region: str, size: int, seed: int) -> "TraceContext":
        """The root context of one region's scheduling request.

        ``region``/``size`` fingerprint the region, ``seed`` separates
        repeated compilations of the same region (two suite runs with
        different seeds must not share a trace). No wall clock: the same
        inputs always yield the same ids.
        """
        trace_id = _digest("trace", region, size, seed)[:TRACE_ID_LEN]
        span_id = _digest(trace_id, "region")[:SPAN_ID_LEN]
        return cls(trace_id=trace_id, span_id=span_id, parent_id=None)

    def child(self, label: str) -> "TraceContext":
        """A child span of this one (same trace, chained span id)."""
        span_id = _digest(self.trace_id, self.span_id, label)[:SPAN_ID_LEN]
        return TraceContext(self.trace_id, span_id, parent_id=self.span_id)

    def fields(self) -> Dict[str, str]:
        """The triple as telemetry-event fields (parent omitted at root)."""
        out = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.parent_id == other.parent_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.parent_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TraceContext(trace=%s, span=%s, parent=%s)" % (
            self.trace_id, self.span_id, self.parent_id,
        )


#: The process-wide context stack (single-threaded, like the simulation).
_STACK: List[TraceContext] = []


def current_trace() -> Optional[TraceContext]:
    """The innermost installed context, or None when tracing is ambient-off."""
    return _STACK[-1] if _STACK else None


@contextmanager
def trace_scope(context: TraceContext) -> Iterator[TraceContext]:
    """Install ``context`` for the duration of the ``with`` block."""
    _STACK.append(context)
    try:
        yield context
    finally:
        _STACK.pop()


@contextmanager
def region_trace(region: str, size: int, seed: int) -> Iterator[TraceContext]:
    """Ensure a region context is installed for the ``with`` block.

    Reuses the ambient context when one is already active — the ladder's
    retries call the schedulers with *rotated* seeds, and a fresh context
    per attempt would split one region's story across several trace ids.
    The outermost caller (pipeline region, batch slot, or a scheduler used
    directly) establishes the trace; everyone beneath it inherits.
    """
    ambient = current_trace()
    if ambient is not None:
        yield ambient
        return
    with trace_scope(TraceContext.for_region(region, size, seed)) as context:
        yield context
