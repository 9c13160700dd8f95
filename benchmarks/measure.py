"""Timing statistics and the in-memory span recorder of the benchmark.

Spans are recorded by the benchmark around its own calls into the package's
public functions; nothing inside the package is instrumented.
"""

from __future__ import annotations

import math
import signal
import time
from array import array
from pathlib import Path

import numpy as np

# Percentiles considered for the tail figure, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0)
# The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail_percentile(n: int) -> float:
    """The highest percentile of TAIL_LADDER with >= TAIL_BEYOND of n
    samples beyond it; the median when no step qualifies, since fewer than
    20 samples hold no tail."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n * (100.0 - q) >= 100.0 * TAIL_BEYOND:
            best = q
    return best


def summarize(values) -> dict:
    """Median, tail (by the tail rule) and sample count of timing samples."""
    v = np.array(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("no samples to summarize")
    q = tail_percentile(v.size)
    return {"p50": float(np.median(v)), "tail": float(np.percentile(v, q)),
            "tail_q": q, "n": int(v.size)}


class HostSpeed:
    """Samples the host's speed while a run is measured.

    Other tenants of a shared host slow this process by up to about 1.8x, in
    phases seconds long, and no timer of our own process can tell that time
    apart from the program's. So a fixed calibration kernel runs every
    INTERVAL seconds from a SIGALRM handler, and each timing is rescaled by
    the kernel's speed in the same interval: reported = measured * K_REF /
    mean kernel time. K_REF is the kernel's fastest back-to-back time on the
    host the benchmark was defined on; it only sets the scale. The kernel is
    numpy and interpreter work like the package's own, written here so that
    no change to the package moves it. Intervals timed with clock() leave
    its runs out.
    """

    INTERVAL = 0.005
    K_REF = 0.054e-3    # seconds per kernel run, back to back, reference host
    _ITERS = 3

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        self._x = rng.uniform(size=(15, 2))
        self._w1 = rng.uniform(size=(30, 40))
        self._w2 = rng.uniform(size=(40, 50))
        self._b = rng.uniform(size=50)
        self.at = array("d")        # when each sample started
        self.took = array("d")      # the kernel's seconds
        self.spent = 0.0            # seconds inside the handler so far
        self._previous = None

    def kernel_seconds(self) -> float:
        """Run the kernel once; returns its wall time."""
        t0 = time.perf_counter()
        x = self._x
        for _ in range(self._ITERS):
            f = np.empty_like(x)
            for axis in range(2):
                lo = x[:, axis].min()
                hi = x[:, axis].max()
                f[:, axis] = (x[:, axis] - lo) / (hi - lo)
            h = np.maximum(f.reshape(-1) @ self._w1, 0.0) @ self._w2 + self._b
            float(h @ h)
        return time.perf_counter() - t0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        took = self.kernel_seconds()
        self.at.append(t0)
        self.took.append(took)
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        """perf_counter minus the time spent sampling, so intervals timed
        with it leave the kernel runs out."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float) -> float:
        """K_REF over the mean kernel time of the samples taken in
        [start, end], or of the nearest samples when none fell inside."""
        n = min(len(self.at), len(self.took))
        at = np.array(self.at)[:n]
        took = np.array(self.took)[:n]
        if n == 0:
            took = np.array([self.kernel_seconds() for _ in range(8)])
        else:
            inside = (at >= start) & (at <= end)
            if inside.any():
                took = took[inside]
            else:
                near = np.argsort(np.abs(at - 0.5 * (start + end)))[:4]
                took = took[near]
        return self.K_REF / float(np.mean(took))

    def bracket_factor(self, before, after) -> float:
        """K_REF over the mean of kernel times taken around an interval."""
        return self.K_REF / float(np.mean(list(before) + list(after)))


class Tracer:
    """Spans (name, start, end, parent) in flat arrays, kept in memory.

    Single-threaded: begin/end must nest. The parent of a span is the span
    open when it began, or -1 at top level.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(time.perf_counter())
        self.end.append(math.nan)
        self._open.append(idx)
        return idx

    def end_span(self, idx: int) -> float:
        """Close span idx (the innermost open one); returns its duration."""
        t = time.perf_counter()
        if not self._open or self._open[-1] != idx:
            raise RuntimeError("spans must close innermost first")
        self._open.pop()
        self.end[idx] = t
        return t - self.start[idx]

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end_span(idx)

    def arrays(self):
        """(name_id, start, end, parent) as numpy arrays (copies: a view
        would stop the recorder from growing)."""
        return (np.array(self.name_id, dtype=np.int64),
                np.array(self.start), np.array(self.end),
                np.array(self.parent, dtype=np.int64))

    def has(self, name: str) -> bool:
        return name in self._ids

    def per_name(self, name: str, self_time: bool = False) -> np.ndarray:
        """Durations (or self times) of every span called name, in order."""
        nid = self._ids.get(name)
        if nid is None:
            return np.empty(0)
        ids, start, end, parent = self.arrays()
        values = self_times(start, end, parent) if self_time else end - start
        return values[ids == nid]

    def write(self, path: Path) -> None:
        """Write every span to an .npz file (names plus the four columns)."""
        ids, start, end, parent = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names, dtype=str), name_id=ids,
                 start=start, end=end, parent=parent)


def self_times(start, end, parent) -> np.ndarray:
    """Self time of each span from flat (start, end, parent) columns.

    A child's interval is clipped to its parent's, and overlapping children
    are merged, so covered time is never counted twice.
    """
    s = np.asarray(start, dtype=np.float64).tolist()
    e = np.asarray(end, dtype=np.float64).tolist()
    par = np.asarray(parent, dtype=np.int64)
    out = [b - a for a, b in zip(s, e)]
    kids = np.flatnonzero(par >= 0)
    if kids.size:
        order = kids[np.lexsort((np.asarray(start)[kids], par[kids]))]
        par = par.tolist()
        cur_parent = -1
        covered_to = -math.inf
        for k in order.tolist():
            p = par[k]
            if p != cur_parent:
                cur_parent = p
                covered_to = s[p]
            lo = max(s[k], covered_to)
            hi = min(e[k], e[p])
            if hi > lo:
                out[p] -= hi - lo
                covered_to = hi
    return np.asarray(out)
