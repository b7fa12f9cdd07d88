"""Measurement helpers: guarded percentiles and the run record."""

from __future__ import annotations

import math
import os
import platform
import resource
from pathlib import Path

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float | None:
    """Nearest-rank ``q`` percentile, or ``None`` when it is unsupported.

    Refuses (returns ``None``) unless at least :data:`MIN_BEYOND`
    samples lie beyond the requested rank, so a p99 needs 1000 samples
    and a median 20.
    """
    n = len(values)
    if n == 0 or n * (1.0 - q) < MIN_BEYOND:
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n) - 1)]


def peak_rss_mib() -> float:
    """Peak resident set of this process so far, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_ticks() -> tuple[int, int] | None:
    """``(steal, total)`` jiffies from ``/proc/stat``; ``None`` if unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    values = [int(value) for value in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted in user time.
    return steal, sum(values[:8])


def steal_share(before, after) -> float | None:
    """Host steal share between two :func:`cpu_ticks` readings."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(root: Path, seed: int) -> dict:
    """Environment stamp printed with every result."""
    import numpy

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }
