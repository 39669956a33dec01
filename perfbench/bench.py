"""Shared machinery: the pinned environment, child processes, spans and statistics."""

from __future__ import annotations

import json
import math
import os
import resource
import selectors
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = {"long-words": "wl_words", "exact-census": "wl_census", "monte-carlo": "wl_mc", "cli": "wl_cli"}

# One BLAS thread: at m = 200 a trial takes 19-21 ms with one OpenBLAS thread and
# 25-51 ms with two on a 2-core host, and traces differ in the last bits between
# thread counts.  A fixed hash seed keeps string-keyed tallies laid out alike in
# every process.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def pin_environment() -> None:
    """Re-execute this interpreter under PINNED_ENV unless it already runs under it.

    Must run before numpy is imported; exec replaces the process, so nothing is left running."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, os.path.abspath(sys.argv[0])] + sys.argv[1:])


def import_freecycle():
    """Import freecycle from this checkout's src/ and refuse a copy from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "freecycle", "__init__.py")):
        raise SystemExit(f"perfbench: no freecycle sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import freecycle

    if not os.path.abspath(freecycle.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported freecycle from {freecycle.__file__}, not {SRC}")
    return freecycle


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC
    return env


class Child(NamedTuple):
    """A finished child process: exit code, output, peak resident memory and wall time."""

    code: int
    out: str
    err: str
    rss_mb: float
    wall_s: float


def run_child(argv: list[str], *, timeout: float = 120.0, first_line: bool = False) -> Child:
    """Run argv to its end and reap it with wait4, which gives that child's own peak RSS.

    With ``first_line`` the reader closes stdout after one line, as ``| head -1`` does.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    sel.register(proc.stderr, selectors.EVENT_READ)
    try:
        while sel.get_map():
            left = start + timeout - time.perf_counter()
            if left <= 0:
                raise TimeoutError(f"{argv[:4]} ran past {timeout} s")
            for key, _ in sel.select(left):
                one_byte = first_line and key.fd == out_fd
                data = os.read(key.fd, 1 if one_byte else 65536)
                if data:
                    chunks[key.fd].append(data)
                if not data or (one_byte and data == b"\n"):
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    except BaseException:
        proc.kill()
        raise
    finally:
        sel.close()
        for f in (proc.stdout, proc.stderr):
            f.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, b"".join(chunks[out_fd]).decode(errors="replace"),
                 b"".join(chunks[err_fd]).decode(errors="replace"),
                 usage.ru_maxrss / 1024.0, time.perf_counter() - start)


# --- spans --------------------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent) kept in memory; disabled, it only calls through."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []

    def call(self, name: str, f, *args, **kwargs):
        if not self.enabled:
            return f(*args, **kwargs)
        with self.span(name):
            return f(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(i, ())):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def layer_samples(span_groups) -> dict[str, list[list[float]]]:
    """For each span name, the self times of its spans, one list per group (round)."""
    out: dict[str, list[list[float]]] = {}
    for g, spans in enumerate(span_groups):
        for (name, *_), t in zip(spans, self_times(spans)):
            rows = out.setdefault(name, [])
            while len(rows) <= g:
                rows.append([])
            rows[g].append(t)
    for rows in out.values():
        rows.extend([] for _ in range(len(span_groups) - len(rows)))
    return out


def write_trace(workload: str, seed: int, span_groups) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "fields": ["name", "start", "end", "parent"],
                   "rounds": [[list(s) for s in spans] for spans in span_groups]}, fh)
    return path


# --- statistics -------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def loglog_slope(xs, ys) -> float:
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
