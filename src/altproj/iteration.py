"""The projection iteration x_n = P_{j_n} x_{n-1} and its diagnostics.

A run records iterate norms, step increments and (optionally) residuals to
the reference limit, which for schedules visiting every subspace infinitely
often is the projection of x_0 onto the intersection of all subspaces.

Two quantities from the convergence theory are computed from runs: the cycle
gaps ||T^n x - T^{n+1} x|| for the full-cycle operator T = P_J ... P_1, and
the smallest empirical constant A with

    ||x_n - x_m||^2 <= A * sum_{k=m}^{n-1} ||x_{k+1} - x_k||^2

over all recorded pairs n > m >= 1, whose finiteness forces norm convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .schedules import ScheduleExhausted

#: increments at or below this fraction of ||x_0|| snap the iterate in place,
#: so numerically-fixed points produce exactly-zero increments downstream
_SNAP_REL = 1e-14


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
        if self.stop_tol <= 0:
            raise ValueError("stop_tol must be positive")
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


def reference_limit(subspaces, x0, tol=linalg.DEFAULT_TOL):
    """Projection of ``x0`` onto the intersection of all subspaces."""
    return linalg.project(linalg.intersect(subspaces, tol=tol), x0)


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

    bases = [s.basis for s in ss]
    snap = _SNAP_REL * (x0_norm or 1.0)

    norms = [x0_norm]
    increments = []
    indices = []
    residuals = None if ref is None else [float(np.linalg.norm(x - ref))]
    stored = [x.copy()] if store_iterates else None

    converged = False
    exhausted = False
    quiet = 0
    for step in range(1, cfg.max_steps + 1):
        try:
            j = schedule.emit(step)
        except ScheduleExhausted:
            exhausted = True
            break
        if not 1 <= j <= len(ss):
            raise ValueError(f"schedule emitted index {j} outside 1..{len(ss)}")
        q = bases[j - 1]
        x_next = q @ (q.T @ x) if q.shape[1] else np.zeros_like(x)
        inc = float(np.linalg.norm(x_next - x))
        if inc <= snap:  # numerically a fixed point of P_j
            x_next = x
            inc = 0.0
        indices.append(j)
        increments.append(inc)
        x = x_next
        norms.append(float(np.linalg.norm(x)))
        if stored is not None:
            stored.append(x.copy())
        res = None
        if residuals is not None:
            res = float(np.linalg.norm(x - ref))
            residuals.append(res)
        if inc < cfg.stop_tol and (res is None or res < cfg.stop_tol):
            quiet += 1
            if quiet >= cfg.window_len:
                converged = True
                break
        else:
            quiet = 0

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


def kakutani_gaps(subspaces, x0, n_max, tol=linalg.DEFAULT_TOL):
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
            v = q @ (q.T @ v) if q.shape[1] else np.zeros_like(v)
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
    """
    if trace.stored_iterates is None:
        raise ValueError("sakai_constant needs a trace recorded with store_iterates=True")
    xs = np.asarray(trace.stored_iterates[1:], dtype=float)  # x_1 .. x_T
    t = xs.shape[0]
    if t < 2:
        return 0.0
    inc2 = np.square(np.asarray(trace.increments[1:], dtype=float))  # steps 2..T
    best = 0.0
    for m in range(t - 1):
        # both quantities are formed per window: differencing global prefix
        # sums (and the Gram identity for distances) would cancel away the
        # tiny tail windows against the large early increments
        diff = xs[m + 1:t] - xs[m]
        numer = np.einsum("ij,ij->i", diff, diff)
        denom = np.cumsum(inc2[m:])
        mask = denom > 0.0
        if np.any(mask):
            best = max(best, float(np.max(numer[mask] / denom[mask])))
    return best
