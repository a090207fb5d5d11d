"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared host, how much work one CPU second does changes from minute to
minute with what the neighbours run on the same cores and caches.  run.py
runs this kernel in a block after every op and divides each op's CPU time
by the kernel's, averaged over the blocks on either side of the op.  Host
slowdowns then cancel, while a change to the program moves the ratio.

The kernel is benchmark code only and calls nothing in the package.  Its
parts match the package's own work: a scalar Python loop and 17-digit
float formatting (what the table commands do per row), elementwise numpy
on a 65537-point grid (state evaluation and quadrature), and a tridiagonal
banded solve on 32769 points (one Crank-Nicolson step).  One run takes
about 15 ms on one core of a 2-vCPU Xeon VM.
"""

import time

import numpy as np
from scipy.linalg import solve_banded

_GRID = np.linspace(-8.0, 8.0, 65537)
_BANDS = np.vstack([np.full(32769, -0.5 + 0.1j), np.full(32769, 2.0 + 0.3j), np.full(32769, -0.5 + 0.1j)])
_RHS = np.exp(-np.linspace(-8.0, 8.0, 32769) ** 2).astype(complex)


def kernel() -> float:
    acc = 0.0
    for k in range(1, 6001):
        acc += (k * 0.5) ** 0.5 / (1.0 + 1e-3 * k)
    text = "\n".join(f"{v!r},{v * 0.5!r}" for v in _GRID[:2000].tolist())
    for _ in range(4):
        y = np.exp(-0.5 * _GRID * _GRID) * np.cos(3.0 * _GRID)
        acc += float(np.sum(y * y))
    for _ in range(2):
        acc += float(np.abs(solve_banded((1, 1), _BANDS, _RHS)).sum())
    return acc + len(text)


def block(min_cpu_s: float) -> float:
    """Run the kernel at least once and until ``min_cpu_s`` CPU seconds
    have passed; return the mean CPU seconds of one run."""
    runs, start = 0, time.process_time()
    while True:
        kernel()
        runs += 1
        spent = time.process_time() - start
        if spent >= min_cpu_s:
            return spent / runs
