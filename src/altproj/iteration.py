"""The projection iteration x_n = P_{j_n} x_{n-1} and its diagnostics.

A run records iterate norms, step increments and (optionally) residuals to
the reference limit, which for schedules visiting every subspace infinitely
often is the projection of x_0 onto the intersection of all subspaces.

Two quantities from the convergence theory are computed from runs: the cycle
gaps ||T^n x - T^{n+1} x|| for the full-cycle operator T = P_J ... P_1, and
the smallest empirical constant A with

    ||x_n - x_m||^2 <= A * sum_{k=m}^{n-1} ||x_{k+1} - x_k||^2

over all recorded pairs n > m >= 1, whose finiteness forces norm convergence.

``run`` steps the schedule in blocks of up to ``_NORM_BLOCK`` letters.  A
step in a block is only its two products, through the bound methods
``q.dot`` and ``q.T.dot`` (the dgemv of ``q @ (q.T @ x)`` without
``np.dot``'s dispatcher).  The block's states X are then stacked once, and
its increments, iterate norms and residuals are ``np.sqrt(np.vecdot(A, A))``
over the rows of ``X[1:] - X[:-1]``, ``X`` and ``X - ref``.  ``vecdot`` runs
the same BLAS ``ddot`` on each row as ``v.dot(v)``, so every recorded number
keeps the bits of ``np.linalg.norm(v)``.  Other batched forms do not:
``einsum`` and ``norm(axis=1)`` sum each row in another order, and over
2,900 iterates at n = 28 they changed the last bit of 502 and 689 rows.

One pass over the block then applies the snap and stop rules in step order.
A step whose increment is at or below the snap threshold holds x.  Where the
bits of such a step's state moved even so (by a tiny step, or one whose
``d . d`` underflows to 0), the block stepped on from the wrong state: it
ends at that step, which keeps the state before it, and its later letters
are stepped again.  After a cut the next block is half as long, and blocks
double again after one without a cut.  Three kinds of step nearly always
snap, so they take their increment and decide their snap as they are
stepped: a step whose letter repeats the one before it (the construction's
glued words), a step after a snapped step (a converged tail), and a step
whose letter cut a block and has not moved x since (a full-space letter, or
one whose subspace holds the one before it, snaps at every visit).
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

#: most letters ``run`` steps before taking their increments, norms and residuals at once
_NORM_BLOCK = 64

#: most entries of pairwise differences ``sakai_constant`` holds at once
_SAKAI_BLOCK = 2**15

#: smallest normal float64
_TINY = float(np.finfo(float).tiny)


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
    n = linalg.common_dim(*ss)
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

    cursor = islice(schedule.indices(), cfg.max_steps)
    pending = []  # letters after a cut, to be stepped again
    size = _NORM_BLOCK
    last, held = 0, False  # the previous letter, and whether its step snapped
    cut_by = [False] * (len(ss) + 1)  # letters that cut a block and have not moved x since
    converged = False
    quiet = 0
    while not converged:
        block = pending[:size]
        del pending[:size]
        block.extend(islice(cursor, size - len(block)))
        if not block:
            break
        xs = [x]  # xs[k] is the state before step k of the block
        blind = False  # whether a step left its snap to the block
        for j in block:
            project, project_t = bases[j - 1]
            x_next = project(project_t(x))
            if j == last or held or cut_by[j]:  # likely a fixed point
                d = x_next - x
                held = sqrt(d.dot(d)) <= snap
                if not held:
                    x = x_next
                    cut_by[j] = False
            else:
                x = x_next
                blind = True
            xs.append(x)
            last = j
        stack = np.concatenate(xs).reshape(len(xs), -1)
        d = stack[1:] - stack[:-1]
        incs = np.sqrt(np.vecdot(d, d))
        m = len(block)
        low = incs <= snap
        cut = False
        if blind and low.any():
            # a step at or below snap holds x; where its state moved even so,
            # the block stepped on from the wrong state: it ends at that step,
            # and its later letters are stepped again
            bits = stack.view(np.uint64)
            moved = np.flatnonzero(low & (bits[1:] != bits[:-1]).any(axis=1))
            if moved.size:
                cut = True
                k = int(moved[0])
                m = k + 1
                pending[:0] = block[m:]
                x, held, last = xs[k], True, block[k]
                cut_by[last] = True
                xs[m] = x
                stack = stack[:m + 1]
                stack[m] = x
                incs = incs[:m]
                incs[k] = 0.0
        size = max(size // 2, 1) if cut else min(2 * size, _NORM_BLOCK)
        rows = stack[1:]
        quiet_ok = incs < tol
        if residuals is not None:
            r = rows - ref
            res = np.sqrt(np.vecdot(r, r))
            quiet_ok &= res < tol
        # the stop rule in step order: a step that is not quiet resets it
        prev = -1
        for k in np.flatnonzero(quiet_ok).tolist():
            quiet = quiet + 1 if k == prev + 1 else 1
            prev = k
            if quiet >= cfg.window_len:
                converged = True
                m = k + 1
                break
        else:
            if prev != m - 1:
                quiet = 0
        indices.extend(block[:m])
        increments.extend(incs[:m].tolist())
        rows = rows[:m]
        norms.extend(np.sqrt(np.vecdot(rows, rows)).tolist())
        if residuals is not None:
            residuals.extend(res[:m].tolist())
        if stored is not None:
            stored.extend(xs[1:m + 1])  # x is never written in place, so no copy
        x = xs[m]
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
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    x = linalg.as_vector(x0, dim=linalg.common_dim(*ss)).astype(float, copy=True)
    linalg.start_norm(x)
    bases = [s.basis for s in ss]

    def cycle(v):
        for q in bases:
            v = q @ (q.T @ v)
        return v

    gaps = []
    for _ in range(n_max + 1):
        x, previous = cycle(x), x
        gaps.append(float(np.linalg.norm(previous - x)))
    return gaps


def sakai_constant(trace):
    """Smallest empirical A bounding ||x_n - x_m||^2 by A * sum of increments^2.

    Maximizes over pairs n > m >= 1 of recorded iterates, so x_0 is left out
    (``divergence.sakai_blowup`` pairs it with the checkpoints).  Pairs with a
    zero increment sum are skipped; 0.0 when no pair has a positive
    denominator.  Needs a trace recorded with ``store_iterates=True``.

    The answer has the bits of the per-pair scan: every ratio that can reach
    the maximum is formed as that scan forms it, and a bound that costs O(1)
    per pair rules out the rest.

    - **Repeats.** A state equal to the one before it, across an increment
      whose square is exactly 0, is dropped.  Every pair through it repeats
      a kept pair bit for bit: its differences square to the same values,
      and adding the 0.0 to a running sum leaves the sum unchanged.
      Repeated letters give such states, since the snap rule in ``run``
      makes them exact fixed points.
    - **Seed.** The neighbour pairs (m, m+1) are formed exactly first.  On a
      projection orbit their ratio is 1 up to rounding, so ``best`` starts
      near 1.
    - **Screen.** Rows m are taken in blocks of at most ``_SAKAI_BLOCK // 8``
      pairs, since the screen holds about eight arrays of that size.  Row
      m's window sums are the ``cumsum`` of the increments from x_m on.  In a
      block that starts at row m0, row m is padded with m - m0 leading
      zeros, so the block takes one ``cumsum``; the zeros add exactly, so
      each sum keeps the bits of the row's own ``cumsum``.  With the squared
      norms q_m taken once and the Gram entries G_mp = <x_m, x_p> from one
      ``dgemm`` per block,

          bound = (q_m (1 + s) + q_p (1 + s) - 2 G_mp) (1 + s),  s = (n + 8) 2^-50,

      and a pair is dropped only where ``bound < best * denom``; a NaN or
      inf bound is kept.  A block is screened only when every ``denom`` and
      ``best * denom`` in it is a normal float: the smallest increment
      square and ``best`` times it are at least 2^-1022, and ``best`` times
      the block's largest sum, the last of its first row, is finite.
      Rounding is monotone, so no window sum is below the smallest square
      it holds or above the sum over more terms.  Other blocks take the
      exact path whole.
    - **Exact path.** Each pair that is not dropped forms its difference and
      its ``einsum`` ratio as the scan does, at most ``_SAKAI_BLOCK``
      entries at a time.

    Why a dropped pair never beats ``best`` (u = 2^-53, g_k = ku / (1 - ku)):
    in any order, a computed sum of n products a_i b_i is within
    g_n sum |a_i b_i| of the exact sum (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., section 3.1), and |a_i b_i| <=
    (a_i^2 + b_i^2) / 2.  So the exact N = ||x_p - x_m||^2 =
    ||x_m||^2 + ||x_p||^2 - 2 <x_m, x_p> exceeds the computed
    q_m + q_p - 2 G_mp by at most 2 g_n (q_m + q_p), and the bound's own
    roundings before its last product cost at most 5u (q_m + q_p) more.
    The first factors 1 + s cover both, as s = 8 (n + 8) u, so the bracket
    is at least N.  The scan's computed numerator is at most
    (1 + g_{n+2}) N (the rounded differences and their sum), and
    ``best * denom`` rounds up by at most a factor 1 + u.  The last factor
    1 + s exceeds (1 + g_{n+2}) (1 + u)^3 with room of more than
    (7n + 58) u.  So ``bound < best * denom`` puts the scan's numerator
    below best * denom, and its rounded ratio is at most ``best``.  A
    product that underflows is off by at most 2^-1075; a pair's bound and
    numerator hold at most 4n + 4 such products, and that room on a normal
    best * denom (at least 2^-1022) covers (7n + 58) 2^-1075.  An overflow
    makes the bound inf or NaN, never -inf.  The Gram identity only rules
    pairs out and never gives a value, so the tiny tail windows, whose
    distances it would cancel away, reach the exact path.
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

    def exact(ms, ps, denom):
        nonlocal best
        step = max(1, _SAKAI_BLOCK // max(n, 1))
        for i in range(0, len(ms), step):
            diff = xs[ps[i:i + step]] - xs[ms[i:i + step]]
            numer = np.einsum("ij,ij->i", diff, diff)
            best = max(best, float(np.max(numer / denom[i:i + step])))

    ms = np.flatnonzero(inc2 > 0.0)
    exact(ms, ms + 1, inc2[ms])
    grow = 1.0 + (n + 8) * 2.0**-50
    with np.errstate(over="ignore"):  # an inf norm makes its bounds inf or NaN
        q_grown = np.vecdot(xs, xs) * grow  # q_m (1 + s)
    lo = float(np.min(inc2, initial=math.inf))  # every window sum holds an increment square
    pairs = _SAKAI_BLOCK // 8
    below = np.tri(max(1, math.isqrt(pairs)), k=-1, dtype=bool)  # below[r, c]: c < r
    m = 0
    while m < t - 2:  # rows with a pair beyond their neighbour
        width = t - 1 - m  # pairs (m, m+1 .. t-1) of the block's first row
        rows = min(width - 1, max(1, pairs // width))
        pad = np.broadcast_to(inc2[m:], (rows, width)).copy()
        pad[:, :rows][below[:rows, :rows]] = 0.0
        denom = np.cumsum(pad, axis=1)
        # denom[0, -1] is the block's largest sum
        if lo >= _TINY and best * lo >= _TINY and best * float(denom[0, -1]) < math.inf:
            with np.errstate(over="ignore", invalid="ignore"):
                bound = q_grown[m:m + rows, None] + q_grown[m + 1:t]
                bound += (-2.0 * xs[m:m + rows]) @ xs[m + 1:t].T
                bound *= grow
            keep = ~(bound < best * denom)  # NaN and inf bounds are kept
        else:
            keep = denom > 0.0
        keep[:, :rows] &= below.T[:rows, :rows]  # not the padded or neighbour pairs
        idx = np.flatnonzero(keep)  # pair (m + r, m + 1 + c) at r * width + c
        if idx.size:
            exact(m + idx // width, m + 1 + idx % width, denom.ravel()[idx])
        m += rows
    return best
