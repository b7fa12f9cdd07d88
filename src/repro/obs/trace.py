"""Hierarchical tracing spans with deterministic ids.

A :class:`Tracer` produces a forest of :class:`Span` trees.  Two design
rules keep span dumps reproducible, which is what lets tests assert on
them byte-for-byte:

* **ids come from a per-tracer counter**, assigned in span *start*
  (depth-first pre-) order — never from wall-clock time or randomness;
* **durations come from an injectable clock**
  (:class:`repro.resilience.clock.Clock`): under a
  :class:`~repro.resilience.clock.ManualClock` a traced run is exactly
  as deterministic as an untraced one.

Worker fan-out composes through :meth:`Tracer.adopt`: a worker records
into its own fresh tracer, ships the finished trees back as plain
dicts, and the parent splices them in input order, renumbering ids with
its own counter.  Renumbering walks the same pre-order as live
recording, so a serial run and a pool run of the same work produce
identical dumps.

:class:`NullTracer` is the default everywhere tracing is optional; its
:meth:`~NullTracer.span` hands back a shared no-op context manager, so
disabled tracing costs one attribute lookup and a method call per span
site (the "zero-cost when disabled" contract, bounded in
``benchmarks/test_throughput.py``).
"""

from __future__ import annotations

import re
import threading
from typing import Any, Iterator

from repro.resilience.clock import Clock, SystemClock

#: The documented span-name taxonomy (DESIGN.md §8): dot-separated
#: segments, the first purely ``[a-z_]``, later ones also allowing
#: digits and ``{}`` (for template names such as ``extract.f{group}``).
#: Statically enforced on span-name literals by lint rule PHL404.
SPAN_NAME_PATTERN = re.compile(r"^[a-z_]+(\.[a-z_{}0-9]+)*$")

#: The closed set of first segments a *dotted* span name may use
#: (DESIGN.md §8 and §11).  Single-segment names stay shape-checked
#: only — tests and scratch scripts use free-form one-word spans —
#: but a dotted name claims a place in the documented taxonomy, so
#: its root must be one of these subsystems.  Enforced by PHL404.
SPAN_NAME_ROOTS = frozenset({
    "analyze", "batch", "browse", "cache", "classify",
    "extract", "quality", "serve", "target", "train",
})


class Span:
    """One timed operation: a node in a trace tree.

    Attributes are plain JSON-able values supplied at
    :meth:`Tracer.span` entry or via :meth:`set` inside the block.
    ``duration`` is ``end - start`` in the tracer's clock seconds.
    """

    __slots__ = ("name", "span_id", "parent_id", "start", "end",
                 "attrs", "children")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        start: float,
        attrs: dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = start
        self.attrs = attrs
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        """Elapsed clock seconds between span entry and exit."""
        return self.end - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes discovered while the span is running."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":  # pragma: no cover - via Tracer.span
        return self

    def __exit__(self, *exc_info: object) -> None:  # pragma: no cover
        return None

    # ------------------------------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form of this subtree (picklable, JSON-able)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"duration={self.duration:.6f}, "
            f"children={len(self.children)})"
        )


class _ActiveSpan:
    """Context manager pairing a live :class:`Span` with its tracer."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._finish(self.span)


class Tracer:
    """Records hierarchical spans with counter-assigned ids.

    Parameters
    ----------
    clock:
        Time source for span durations; defaults to
        :class:`~repro.resilience.clock.SystemClock`.  Inject a
        :class:`~repro.resilience.clock.ManualClock` for byte-identical
        dumps across runs.

    Nesting is tracked per thread (a thread-local stack), and finished
    root spans are appended to :attr:`roots` under a lock, so one
    tracer instance is safe to share — though for deterministic dumps
    the batch layer gives each worker item a fresh tracer and splices
    the results in input order via :meth:`adopt`.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock or SystemClock()
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        """Pickle support (process pools ship instrumented pipelines):
        the lock and per-thread stack are process-local and recreated
        fresh on the other side."""
        state = {
            "clock": self.clock,
            "roots": self.roots,
            "_next_id": self._next_id,
        }
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.clock = state["clock"]
        self.roots = state["roots"]
        self._next_id = state["_next_id"]
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True: this tracer records spans (NullTracer reports False)."""
        return True

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        """Open a child span of the current one (or a new root).

        Use as a context manager::

            with tracer.span("extract", n_pages=4) as sp:
                ...
                sp.set(cache_hits=1)
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            name,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            start=self.clock.now(),
            attrs=attrs,
        )
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        return _ActiveSpan(self, span)

    def _finish(self, span: Span) -> None:
        span.end = self.clock.now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if span.parent_id is None:
            with self._lock:
                self.roots.append(span)

    # ------------------------------------------------------------------
    def adopt(self, records: list[dict[str, Any]]) -> None:
        """Splice finished span trees (as :meth:`Span.to_dict` payloads).

        Ids are renumbered from this tracer's counter in depth-first
        pre-order — the same order live recording assigns them — so a
        dump after adoption is identical to one produced by recording
        the same spans directly.  Times are kept verbatim (they already
        came from the same injectable clock family).
        """
        for record in records:
            span = self._adopt_one(record, parent_id=None)
            with self._lock:
                self.roots.append(span)

    def _adopt_one(
        self, record: dict[str, Any], parent_id: int | None
    ) -> Span:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            str(record["name"]),
            span_id=span_id,
            parent_id=parent_id,
            start=float(record["start"]),
            attrs=dict(record["attrs"]),
        )
        span.end = float(record["end"])
        span.children = [
            self._adopt_one(child, parent_id=span_id)
            for child in record.get("children", ())
        ]
        return span

    # ------------------------------------------------------------------
    def export_records(self) -> list[dict[str, Any]]:
        """Finished root-span trees as plain dicts (picklable)."""
        with self._lock:
            roots = list(self.roots)
        return [root.to_dict() for root in roots]

    def iter_spans(self) -> Iterator[Span]:
        """Every finished span, roots in record order, depth-first."""
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            yield from root.walk()

    def clear(self) -> None:
        """Drop every finished span (the id counter keeps counting)."""
        with self._lock:
            self.roots.clear()


class _NullSpan:
    """Shared no-op stand-in for a :class:`Span` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        """Discard attributes (tracing is disabled)."""
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost disabled tracer: every span is a shared no-op.

    API-compatible with :class:`Tracer` so instrumented code never
    branches on whether tracing is on; `benchmarks/test_throughput.py`
    bounds the live tracer's overhead against this baseline.
    """

    clock: Clock = SystemClock()
    roots: list[Span] = []

    @property
    def enabled(self) -> bool:
        """False: span sites are no-ops under this tracer."""
        return False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        """A shared, reusable no-op context manager."""
        return _NULL_SPAN

    def adopt(self, records: list[dict[str, Any]]) -> None:
        """Discard adopted records (tracing is disabled)."""

    def export_records(self) -> list[dict[str, Any]]:
        """Always empty."""
        return []

    def iter_spans(self) -> Iterator[Span]:
        """Always empty."""
        return iter(())

    def clear(self) -> None:
        """Nothing to drop."""


#: Module-wide default: instrumented code paths fall back to this when
#: no tracer is injected, making tracing strictly opt-in.
NULL_TRACER = NullTracer()

#: What instrumented signatures accept: a live tracer or the null one.
AnyTracer = Tracer | NullTracer
