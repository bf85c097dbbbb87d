"""Fixed slices of work that track how fast the machine runs right now.

On a machine shared with other tenants the same code can run twice as slow
for a tenth of a second or for a minute. The benchmark times a kernel right
before and right after each operation of a scaled workload and divides the
operation's wall time by the mean slowness of the two readings. The kernels
do not touch `leashed`, so a change to the program moves a scaled time by
the same factor as the raw one; what the scaling removes is the drift of the
machine.

Interpreted Python and vectorised numpy slow down by different factors under
the same contention, so a workload is scaled by a mix of kernels in the
proportions of its own work. A workload that keeps both cores busy is read
on both cores at once, and a fresh process's set-up by starting one.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

# Median kernel times on the reference machine (see README.md).
REFERENCE_S = {"python": 0.0100, "numpy": 0.0070, "python_pair": 0.0128, "start": 0.160}
# A fresh interpreter that imports numpy and nothing else: the same kind of
# work as a set-up (process start, finding, reading and running modules,
# loading numpy's shared libraries), none of it `leashed`.
START_KERNEL = (sys.executable, "-c", "import numpy; print('ready', flush=True)")
MIXES = {
    "python": {"python": 1.0},
    "mixed": {"python": 0.5, "numpy": 0.5},
    "both_cores": {"python_pair": 1.0},
}


class _Cell:
    __slots__ = ("t", "x")

    def __init__(self, t: int, x: float):
        self.t = t
        self.x = x


def python_kernel(rounds: int = 10_000) -> int:
    """Float arithmetic, attribute writes, small objects and list appends:
    the instruction mix of a game round, without numpy."""
    rows, acc = [], 0.0
    for t in range(rounds):
        x = (t % 97) * 0.5 - 24.0
        acc = max(min(acc + x / (1.0 + abs(acc)), 1e6), -1e6)
        rows.append(_Cell(t, acc))
    return len(rows)


def numpy_kernel(n: int = 1000) -> float:
    """One large vectorised evaluation, shaped like the brute-force betting
    oracle: log1p over an outer product, then a reduction."""
    v = np.linspace(-0.49, 0.49, n)
    g = np.linspace(-1.0, 1.0, n)
    return float(np.log1p(-np.outer(v, g)).sum())


def kernel_times(kernel, n: int) -> list:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def pair_times(n: int) -> list:
    """n timings of the Python kernel in each of two forked processes that
    run at the same time."""
    children = []
    for _ in range(2):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(r)
            try:
                os.write(w, json.dumps(kernel_times(python_kernel, n)).encode())
            finally:
                os._exit(0)
        os.close(w)
        children.append((pid, r))
    times = []
    for pid, r in children:
        with os.fdopen(r) as fh:
            times += json.loads(fh.read() or "[]")
        os.waitpid(pid, 0)
    if len(times) != 2 * n:
        raise RuntimeError("a calibration process ended without its timings")
    return times


TIMINGS = {
    "python": lambda n: kernel_times(python_kernel, n),
    "numpy": lambda n: kernel_times(numpy_kernel, n),
    "python_pair": pair_times,
}


def slowness(mix: str = "python", n: int = 3) -> float:
    """How much slower than the reference the machine runs now for the given
    mix: per kernel, the median of n timings over its reference, weighted."""
    return sum(weight * statistics.median(TIMINGS[name](n)) / REFERENCE_S[name]
               for name, weight in MIXES[mix].items())


def time_to_ready(argv) -> float:
    """Wall seconds from starting a process until it prints its first line,
    which must be `ready`; the process is then left to exit and reaped."""
    t0 = time.perf_counter()
    with subprocess.Popen(list(argv), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{argv[1:]} exited with code {proc.returncode} before it was ready")
    return dt


def start_slowness() -> float:
    """How much slower than the reference a fresh interpreter that imports
    numpy gets ready now."""
    return time_to_ready(START_KERNEL) / REFERENCE_S["start"]
