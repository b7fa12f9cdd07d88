"""Outside-in spans: wrap public calls into each layer, aggregate per layer.

The benchmark never arms the program's own ``repro.obs`` tracers: doing
so moves ``analyze_many`` and the serving engine off the columnar path,
so the traced run would time a different program.  Instead
:func:`instrument` replaces bound methods on the *instances* the
benchmark built with thin timing wrappers, and :class:`SpanRecorder`
keeps every span in memory until the run ends.

A span is ``[name, start, end, parent, op, ok, rows]``: ``parent`` is
the index of the enclosing span (``-1`` at the root), ``op`` what the
call served, ``ok`` false when the call raised and ``rows`` the batch
size of batch calls.  A call that takes a URL (a page load, a triage
decision) records that URL as its ``op``; any other span takes its
parent's, and a root span the workload's current operation (the
navigation index in browse, the batch index in feed, the window index
in serve).  Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

from measure import percentile


class SpanRecorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: object = None
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, rows: bool = False, url: bool = False):
        """``fn`` timed as span ``name``.

        ``rows``: the first argument is a batch, count its rows.
        ``url``: the first argument is a URL, record it as the ``op``.
        """
        spans = self.spans

        def timed(*args, **kwargs):
            stack = self._stack()
            index = len(spans)
            parent = stack[-1] if stack else -1
            if url:
                op = args[0]
            else:
                op = spans[parent][4] if parent >= 0 else self.op
            span = [name, time.perf_counter(), 0.0, parent, op, True,
                    len(args[0]) if rows else 0]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = False
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        timed.__wrapped__ = fn
        return timed

    def write_jsonl(self, path) -> None:
        """Dump every span, one JSON object per line, times in ms."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, op, ok, rows) in enumerate(
                self.spans
            ):
                out.write(json.dumps({
                    "id": index, "name": name, "parent": parent,
                    "op": op, "ok": ok, "rows": rows,
                    "start_ms": round((start - origin) * 1e3, 4),
                    "end_ms": round((end - origin) * 1e3, 4),
                }) + "\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, rows, failed, busy/self ms, p50/p99 ms.

        A percentile without ten calls beyond it is ``None``.
        """
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _ok, _rows in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        durations: dict[str, list[float]] = defaultdict(list)
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "rows": 0, "failed": 0,
                     "busy_ms": 0.0, "self_ms": 0.0}
        )
        for index, (name, start, end, _parent, _op, ok, rows) in enumerate(
            self.spans
        ):
            ms = (end - start) * 1e3
            entry = totals[name]
            entry["calls"] += 1
            entry["rows"] += rows
            entry["failed"] += 0 if ok else 1
            entry["busy_ms"] += ms
            entry["self_ms"] += ms - child_ms[index]
            durations[name].append(ms)
        for name, entry in totals.items():
            entry["p50_ms"] = percentile(durations[name], 0.50)
            entry["p99_ms"] = percentile(durations[name], 0.99)
        return dict(totals)


def instrument(recorder: SpanRecorder, targets) -> list:
    """Wrap ``(obj, method, span_name, *flags)`` targets; return an undo list.

    ``flags`` are ``"rows"`` and ``"url"`` (see :meth:`SpanRecorder.wrap`).
    Each wrapper is set as an instance attribute, so it shadows the
    class method for that object only; :func:`restore` deletes it.
    """
    undo = []
    for obj, method, name, *flags in targets:
        setattr(obj, method, recorder.wrap(
            name, getattr(obj, method),
            rows="rows" in flags, url="url" in flags,
        ))
        undo.append((obj, method))
    return undo


def restore(undo) -> None:
    """Remove the wrappers :func:`instrument` installed."""
    for obj, method in reversed(undo):
        delattr(obj, method)
