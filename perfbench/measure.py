"""Measurement helpers: percentiles, process-tree memory, host
fingerprint, and the benchmark-side span store.

Spans are recorded by the benchmark around calls into the program's
public functions (see :mod:`probes`), kept in memory, and written out
once the run ends.  A layer's self time is its span time minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import sys
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def tail_percentile(count: int) -> float:
    """The highest of p99/p95/p90/p50 with at least ten samples beyond
    it among *count* samples (p50 when even that has fewer)."""
    for q in (99.0, 95.0, 90.0):
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


# ------------------------------------------------------------- host / memory


def host_fingerprint() -> Dict[str, Any]:
    """Cores, Python, numpy, numba presence, multiprocessing start
    method: enough to tell two reports from different hosts apart."""
    import multiprocessing

    import numpy

    try:
        import numba  # noqa: F401

        numba_version: Optional[str] = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "mp_start_method": multiprocessing.get_start_method(),
        "platform": sys.platform,
    }


def _status_kb(pid: str, field: str) -> int:
    """A ``kB`` field of ``/proc/<pid>/status`` (0 once *pid* is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peak_rss() -> None:
    """Restart this process's resident-memory high-water mark, so that
    what ran before -- the serial reference, an earlier pass -- is not
    charged to the pass about to be measured (Linux ``clear_refs``)."""
    gc.collect()
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def _own_peak_kb() -> int:
    """This process's peak RSS since :func:`reset_peak_rss`."""
    return _status_kb("self", "VmHWM")


def _live_children() -> List[str]:
    me = str(os.getpid())
    out = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                # "pid (comm) state ppid ...": comm may hold spaces.
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            out.append(pid)
    return out


def peak_tree_mb(child_slots: int) -> float:
    """Peak RSS of this process since :func:`reset_peak_rss` plus
    *child_slots* concurrently running pool workers, each charged the
    largest peak any reaped child reached (``ru_maxrss`` of
    ``RUSAGE_CHILDREN``).

    For short-lived pool workers: call it once every worker has been
    joined.  Sampling the process tree instead would compete with the
    measured threads for the interpreter lock on every tick.
    """
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (_own_peak_kb() + child_slots * child) / 1024.0


def peak_live_tree_mb() -> float:
    """Peak RSS of this process since :func:`reset_peak_rss` plus the
    peak of every child still running (its ``VmHWM``): for long-lived
    children such as shard processes, read before they are stopped."""
    children = sum(_status_kb(pid, "VmHWM") for pid in _live_children())
    return (_own_peak_kb() + children) / 1024.0


# -------------------------------------------------------------------- spans


class SpanStore:
    """In-memory spans: ``(id, name, start, end, parent, rid, attrs)``.

    *rid* is the shared request identifier; spans shared by several
    requests (one ``exec.map`` serving a whole batch) carry ``rid=None``
    and are linked to their requests by the analysis.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.spans: List[Dict[str, Any]] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[int] = None,
        rid: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "rid": rid, **attrs,
            })
        return span_id

    def named(self, name: str) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True, default=str))
                fh.write("\n")


def exclusive_times(
    root: Tuple[float, float],
    intervals: Iterable[Tuple[str, float, float, int]],
) -> Dict[str, float]:
    """Split *root* among labelled ``(layer, start, end, depth)``
    intervals: every instant goes to the deepest interval covering it;
    instants no interval covers go to ``"unattributed"``."""
    lo, hi = root
    clipped = [
        (layer, max(lo, s), min(hi, e), depth)
        for layer, s, e, depth in intervals
        if min(hi, e) > max(lo, s)
    ]
    cuts = sorted({lo, hi, *(s for _, s, _, _ in clipped),
                   *(e for _, _, e, _ in clipped)})
    out: Dict[str, float] = {}
    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            continue
        owner, best = "unattributed", -1
        for layer, s, e, depth in clipped:
            if s <= a and e >= b and depth > best:
                owner, best = layer, depth
        out[owner] = out.get(owner, 0.0) + (b - a)
    return out


def now() -> float:
    return time.perf_counter()
