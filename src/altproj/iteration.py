"""The projection iteration x_n = P_{j_n} x_{n-1} and its diagnostics.

A run records iterate norms, step increments and (optionally) residuals to
the reference limit, which for schedules visiting every subspace infinitely
often is the projection of x_0 onto the intersection of all subspaces.

Two quantities from the convergence theory are computed from runs: the cycle
gaps ||T^n x - T^{n+1} x|| for the full-cycle operator T = P_J ... P_1, and
the smallest empirical constant A with

    ||x_n - x_m||^2 <= A * sum_{k=m}^{n-1} ||x_{k+1} - x_k||^2

over all recorded pairs n > m >= 1, whose finiteness forces norm convergence.

``run`` takes one Python step per iteration and does in it only what the
step must decide: the two products, through the bound methods ``q.dot`` and
``q.T.dot`` (the dgemv of ``q @ (q.T @ x)`` without ``np.dot``'s dispatcher),
the increment ``math.sqrt(d.dot(d))`` and the snap rule.  The residual is
taken in the step only when the increment is below ``stop_tol``, where the
stop rule reads it.  The iterate norms and residuals are recorded in blocks
of ``_NORM_BLOCK`` iterates as ``np.sqrt(np.vecdot(X, X))``.  ``vecdot``
runs the same BLAS ``ddot`` on each row as ``v.dot(v)``, so every recorded
number keeps the bits of ``np.linalg.norm(v)``.  Other batched forms do not:
``einsum`` and ``norm(axis=1)`` sum each row in another order, and over
2,900 iterates at n = 28 they changed the last bit of 502 and 689 rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import linalg

#: increments at or below this fraction of ||x_0|| snap the iterate in place,
#: so numerically-fixed points produce exactly-zero increments downstream
_SNAP_REL = 1e-14

#: iterates ``run`` holds before recording their norms and residuals at once
_NORM_BLOCK = 64

#: most entries of pairwise differences ``sakai_constant`` holds at once
_SAKAI_BLOCK = 2**15


@dataclass
class RunConfig:
    """Stopping policy for a run.

    The run stops early once the increment (and the residual, when a
    reference limit is tracked) stays below ``stop_tol`` for ``window_len``
    consecutive steps; the window guards against schedules that momentarily
    repeat an index.
    """

    max_steps: int = 100_000
    stop_tol: float = 1e-10
    window_len: int = 5

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not 0 < self.stop_tol < math.inf:  # NaN fails both comparisons
            raise ValueError(f"stop_tol must be a finite positive number, got {self.stop_tol!r}")
        if self.window_len < 1:
            raise ValueError("window_len must be >= 1")


@dataclass(eq=False)
class Trace:
    """History of one run.

    ``iterate_norms[t]`` is ||x_t|| for t = 0..T, ``increments[t]`` is
    ||x_{t+1} - x_t||, ``indices[t]`` is j_{t+1}; ``residuals`` is present
    only when a reference limit was tracked.
    """

    indices: list
    iterate_norms: list
    increments: list
    final_iterate: np.ndarray
    residuals: list | None = None
    stored_iterates: list | None = None
    converged: bool = False
    schedule_exhausted: bool = False
    reference: np.ndarray | None = None

    @property
    def steps(self):
        return len(self.indices)


def reference_limit(subspaces, x0):
    """Projection of ``x0`` onto the intersection of all subspaces."""
    return linalg.project(linalg.intersect(subspaces), x0)


def run(subspaces, schedule, x0, cfg=None, reference="auto", store_iterates=False):
    """Drive x_n = P_{j_n} x_{n-1} under ``schedule`` and record a Trace.

    ``reference`` is ``'auto'`` (compute the intersection projection and
    track residuals), ``None`` (no residual tracking) or an explicit vector.
    A finite schedule running out before ``cfg.max_steps`` truncates the
    trace and sets ``schedule_exhausted``; it is not an error.
    """
    ss = list(subspaces)
    if not ss:
        raise ValueError("need at least one subspace")
    n = ss[0].ambient_dim
    for s in ss:
        if s.ambient_dim != n:
            raise ValueError("subspaces live in different ambient dimensions")
    x = linalg.as_vector(x0, dim=n).astype(float, copy=True)
    x0_norm = linalg.start_norm(x)
    if schedule.J != len(ss):
        raise ValueError(f"schedule alphabet 1..{schedule.J} does not match {len(ss)} subspaces")
    cfg = cfg or RunConfig()

    ref = None
    if isinstance(reference, str):
        if reference != "auto":
            raise ValueError("reference must be 'auto', None, or a vector")
        ref = reference_limit(ss, x)
    elif reference is not None:
        ref = linalg.as_vector(reference, dim=n)

    # a zero subspace has an n x 0 basis, whose products give exact +0.0
    bases = [(q.dot, q.T.dot) for q in (s.basis for s in ss)]
    snap = _SNAP_REL * (x0_norm or 1.0)
    tol, sqrt = cfg.stop_tol, math.sqrt

    norms = [x0_norm]
    increments = []
    indices = []
    residuals = None
    if ref is not None:
        r = x - ref
        residuals = [sqrt(r.dot(r))]
    stored = [x] if store_iterates else None
    block = []  # iterates whose norms and residuals are not yet recorded

    def record():
        xs = np.array(block)
        norms.extend(np.sqrt(np.vecdot(xs, xs)).tolist())
        if residuals is not None:
            xs -= ref
            residuals.extend(np.sqrt(np.vecdot(xs, xs)).tolist())
        if stored is not None:
            stored.extend(block)  # x is never written in place, so no copy
        block.clear()

    # the residual of x for the stop rule, taken when the rule first reads it
    # after x moves; None while it is not taken and without a reference
    res = None if residuals is None else residuals[0]
    converged = False
    quiet = 0
    for j in islice(schedule.indices(), cfg.max_steps):
        project, project_t = bases[j - 1]
        x_next = project(project_t(x))
        d = x_next - x
        inc = sqrt(d.dot(d))
        if inc <= snap:  # numerically a fixed point of P_j: x and its norms stand
            inc = 0.0
        else:
            x = x_next
            res = None
        indices.append(j)
        increments.append(inc)
        block.append(x)
        if len(block) == _NORM_BLOCK:
            record()
        if inc < tol:
            if res is None and ref is not None:
                r = x - ref
                res = sqrt(r.dot(r))
            if res is None or res < tol:
                quiet += 1
                if quiet >= cfg.window_len:
                    converged = True
                    break
                continue
        quiet = 0
    if block:
        record()
    exhausted = not converged and len(indices) < cfg.max_steps

    return Trace(
        indices=indices,
        iterate_norms=norms,
        increments=increments,
        final_iterate=x,
        residuals=residuals,
        stored_iterates=stored,
        converged=converged,
        schedule_exhausted=exhausted,
        reference=ref,
    )


def kakutani_gaps(subspaces, x0, n_max):
    """Cycle gaps ||T^n x0 - T^{n+1} x0|| for n = 0..n_max, T = P_J ... P_1.

    One application of T projects onto subspace 1 first, then 2, and so on.
    """
    ss = list(subspaces)
    if not ss:
        raise ValueError("need at least one subspace")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    x = linalg.as_vector(x0, dim=ss[0].ambient_dim).astype(float, copy=True)
    linalg.start_norm(x)
    bases = [s.basis for s in ss]

    def cycle(v):
        for q in bases:
            v = q @ (q.T @ v)
        return v

    gaps = []
    current = x
    nxt = cycle(current)
    for _ in range(n_max + 1):
        gaps.append(float(np.linalg.norm(current - nxt)))
        current = nxt
        nxt = cycle(current)
    return gaps


def sakai_constant(trace):
    """Smallest empirical A bounding ||x_n - x_m||^2 by A * sum of increments^2.

    Maximizes over pairs n > m >= 1 of recorded iterates, so x_0 is left out
    (``divergence.sakai_blowup`` pairs it with the checkpoints).  Pairs with a
    zero increment sum are skipped; 0.0 when no pair has a positive
    denominator.  Needs a trace recorded with ``store_iterates=True``.

    Two reductions keep every ratio's bits and cut the work:

    - A state equal to the one before it, across an increment whose square
      is exactly 0, is dropped.  Every pair through it repeats a kept pair
      bit for bit: its differences square to the same values, and adding
      the 0.0 to a running sum leaves the sum unchanged.  Repeated letters
      give such states, since the snap rule in ``run`` makes them exact
      fixed points.
    - Rows m are scanned in blocks of at most ``_SAKAI_BLOCK`` difference
      entries.  Row m's window sums are the ``cumsum`` of the increments
      from x_m on.  In a block that starts at row m0, row m is padded with
      m - m0 leading zeros, so the block takes one ``cumsum``.  The zeros
      add exactly, so each sum keeps the bits of the row's own ``cumsum``,
      and the padded pairs n <= m sum to 0 and are skipped with the other
      zero-denominator pairs.
    """
    if trace.stored_iterates is None:
        raise ValueError("sakai_constant needs a trace recorded with store_iterates=True")
    xs = np.asarray(trace.stored_iterates[1:], dtype=float)  # x_1 .. x_T
    t = xs.shape[0]
    if t < 2:
        return 0.0
    inc2 = np.square(np.asarray(trace.increments[1:], dtype=float))  # steps 2..T
    repeat = (inc2 == 0.0) & np.all(xs[1:] == xs[:-1], axis=1)  # x_{k+2} repeats x_{k+1}
    xs = xs[np.concatenate(([True], ~repeat))]
    inc2 = inc2[~repeat]
    t, n = xs.shape
    best = 0.0
    m = 0
    while m < t - 1:
        width = t - 1 - m  # pairs (m, m+1 .. t-1) of the block's first row
        rows = min(width, max(1, _SAKAI_BLOCK // (width * max(n, 1))))
        # both quantities are formed per window: differencing global prefix
        # sums (and the Gram identity for distances) would cancel away the
        # tiny tail windows against the large early increments
        diff = (xs[m + 1:t] - xs[m:m + rows, None]).reshape(rows * width, n)
        numer = np.einsum("ij,ij->i", diff, diff)
        denom = np.cumsum(np.triu(np.broadcast_to(inc2[m:], (rows, width))), axis=1).ravel()
        mask = denom > 0.0
        if np.any(mask):
            best = max(best, float(np.max(numer[mask] / denom[mask])))
        m += rows
    return best
