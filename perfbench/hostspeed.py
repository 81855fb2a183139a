"""Reference kernel that tracks the speed of a shared host from moment to moment.

On a shared two-core VM the same job can take 30-40% longer for tens of
seconds at a time, and a whole run can fall into such a slow stretch.  The
benchmark therefore times this fixed kernel right next to every job (and
every set-up sample) and reports each job's wall time divided by the
kernel's time, scaled by ``NOMINAL_S``.  The result reads in seconds on a
host where the kernel takes ``NOMINAL_S``.  The kernel does not call altproj,
so a faster or slower program moves the ratio while a faster or slower host
moves both sides.  Raw wall times are recorded alongside.

The kernel mixes what altproj jobs spend their time on: a Python loop of
small vector updates (the Kaczmarz and Gram-Schmidt loops), BLAS
matrix-vector products at n = 150 (the iteration step), and float
formatting (the CSV writers).
"""

from __future__ import annotations

import time

import numpy as np

#: the kernel's time on a quiet host; only the scale of the reported times
NOMINAL_S = 0.006

_RNG = np.random.default_rng(0)
_ROWS = _RNG.standard_normal((120, 150))
_RHS = _RNG.standard_normal(120)
_BASIS = np.linalg.qr(_RNG.standard_normal((150, 110)))[0]


def reference_seconds():
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    x = np.zeros(150)
    for _ in range(3):
        for y, c in zip(_ROWS, _RHS):
            x -= y * ((y @ x - c) / (y @ y))
    v = _BASIS[:, 0].copy()
    for _ in range(200):
        v = _BASIS @ (_BASIS.T @ v)
        float(np.linalg.norm(v))
    "".join("%.17g," % f for f in _ROWS[:20].ravel())
    return time.perf_counter() - t0
