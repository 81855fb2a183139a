"""Cyclic projection onto affine hyperplanes: the Kaczmarz solver.

A consistent linear system sum_j a_ij x_j = c_i is a family of affine
hyperplanes V_i = {z : <z, y_i> = c_i} with normals y_i = (a_i1..a_iN).
Projecting onto a single hyperplane is closed-form,

    P_i(z) = z - y_i (<z, y_i> - c_i) / ||y_i||^2,

and sweeping the rows cyclically converges in norm to the solution closest
to the starting point; starting from zero this is the unique minimal-norm
solution.

Also here: the string-thirds demonstration, a 3-dimensional two-projection
iteration whose fixed line is the equal-thirds configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

#: sweeps with no residual improvement before the least-squares check runs
_STALL_SWEEPS = 50

#: rows per Gauss-Seidel block; bounds the Gram matrix of a tall system to
#: _BLOCK_ROWS^2 entries while a system of up to this many rows is one block
_BLOCK_ROWS = 256


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """A x = c held once as arrays, one hyperplane {z : <z, a_i> = c_i} per row.

    Build it with ``from_arrays``.  Row i and c_i are stored divided by
    2^e_i, where e_i = ``frexp(max_j |a_ij|)[1]``, so every stored row has its
    largest entry in [1/2, 1).  Multiplying by a power of two is exact (only
    entries below 2^-1022 of their row's largest round), leaves each
    hyperplane unchanged, and keeps every row norm and every entry of A A^T
    far from overflow.
    """

    normals: np.ndarray
    offsets: np.ndarray
    exponents: np.ndarray

    @classmethod
    def from_arrays(cls, a, c):
        a = linalg.as_matrix(a)
        c = linalg.as_vector(c, dim=a.shape[0])
        if not a.shape[0]:
            raise ValueError("system needs at least one row")
        peak = np.max(np.abs(a), axis=1, initial=0.0)
        zero = np.flatnonzero(peak == 0.0)
        if zero.size:
            raise ValueError(f"equation {zero[0] + 1} has an all-zero normal")
        e = np.frexp(peak)[1]
        with np.errstate(over="ignore"):
            offsets = np.ldexp(c, -e)
        big = np.flatnonzero(~np.isfinite(offsets))
        if big.size:
            i = big[0]
            raise ValueError(f"equation {i + 1}: right-hand side {c[i]!r} overflows float64 "
                             f"once the row is scaled to its largest coefficient {peak[i]!r}")
        normals = np.ldexp(a, -e[:, None])
        for v in (normals, offsets, e):
            v.flags.writeable = False
        return cls(normals, offsets, e)

    @property
    def ambient_dim(self):
        return self.normals.shape[1]

    def matrix(self):
        return np.ldexp(self.normals, self.exponents[:, None])

    def rhs(self):
        return np.ldexp(self.offsets, self.exponents)


@dataclass(eq=False)
class KaczmarzResult:
    """Solution estimate plus per-sweep residual history."""

    x: np.ndarray
    residual_history: list
    sweeps: int
    converged: bool
    suspected_inconsistent: bool = False


def _violation(r, norms):
    return float(np.max(np.abs(r) / norms))


def max_violation(system, x):
    """Largest normalized row violation max_i |<x,y_i> - c_i| / ||y_i||."""
    a = system.normals
    return _violation(system.offsets - a @ x, np.linalg.norm(a, axis=1))


def solve(system, x0, max_sweeps, tol=1e-10):
    """Cyclic Kaczmarz sweeps until the worst row violation drops to ``tol``.

    Rows are visited in fixed order 1..J each sweep.  The J projections of a
    sweep are one Gauss-Seidel step on A A^T (Bjorck & Elfving 1979): with
    D + L = tril(A A^T) they move x to x + A^T d, (D + L) d = c - A x.  So a
    sweep is ``r = c - A x; x += W^T r`` with ``W = triu(A A^T)^{-1} A``
    formed once per solve, and the residual after a sweep gives its violation
    max_i |r_i| / ||y_i|| without another pass over the rows.  Systems of
    more than 256 rows are swept in consecutive blocks of 256, each one such
    step, which keeps the Gram matrices small.

    A residual history entry is recorded after every sweep.  If the violation
    fails to decrease over 50 consecutive sweeps, the least-squares solution
    of A x = c is computed once.  A consistent system is solved exactly by
    it, so when it violates some row by more than ``tol`` the system is
    flagged suspected-inconsistent and the sweeps stop; otherwise they go on
    until convergence or ``max_sweeps``.
    """
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    if not 0 < tol < math.inf:  # NaN fails both comparisons
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    a, c = system.normals, system.offsets
    x = linalg.as_vector(x0, dim=system.ambient_dim).astype(float, copy=True)
    linalg.start_norm(x)
    norms = np.linalg.norm(a, axis=1)
    r = c - a @ x
    violation = _violation(r, norms)
    if violation <= tol:
        return KaczmarzResult(x=x, residual_history=[violation], sweeps=0, converged=True)
    blocks = [slice(s, s + _BLOCK_ROWS) for s in range(0, a.shape[0], _BLOCK_ROWS)]
    # upper-triangular with a positive diagonal: LU never pivots, so this is
    # back substitution
    weights = [np.linalg.solve(np.triu(a[b] @ a[b].T), a[b]) for b in blocks]

    history = []
    best = np.inf
    stall = 0
    converged = False
    suspect = False
    solvable = False  # set once the least-squares check has found a solution
    for _ in range(max_sweeps):
        # the first block starts from the residual the last sweep ended with
        x += weights[0].T @ r[blocks[0]]
        for b, w in zip(blocks[1:], weights[1:]):
            x += w.T @ (c[b] - a[b] @ x)
        r = c - a @ x
        violation = _violation(r, norms)
        history.append(violation)
        if violation <= tol:
            converged = True
            break
        if violation < best:
            best = violation
            stall = 0
        elif not solvable:
            stall += 1
            if stall >= _STALL_SWEEPS:
                x_ls = np.linalg.lstsq(a, c, rcond=None)[0]
                solvable = _violation(c - a @ x_ls, norms) <= tol
                if not solvable:
                    suspect = True
                    break
    return KaczmarzResult(x=x, residual_history=history, sweeps=len(history),
                          converged=converged, suspected_inconsistent=suspect)


def load_system(path, dense=False):
    """Read a linear system from a text file.

    Sparse format (default): first line ``n J``; then J lines
    ``c_i k idx_1 val_1 ... idx_k val_k`` with 0-based column indices.
    Dense format (``dense=True``): each line ``a_i1,...,a_iN,c_i``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [(no, ln) for no, ln in enumerate(lines, start=1) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty system file")
    if dense:
        rows = None
        for i, (no, ln) in enumerate(lines):
            try:
                vals = [float(t) for t in ln.split(",")]
            except ValueError as exc:
                raise ValueError(f"{path}:{no}: malformed dense row: {exc}") from None
            if len(vals) < 2:
                raise ValueError(f"{path}:{no}: dense row needs coefficients and a right-hand side")
            if rows is None:
                rows = np.empty((len(lines), len(vals)))
            elif len(vals) != rows.shape[1]:
                raise ValueError(f"{path}:{no}: expected {rows.shape[1]} entries, got {len(vals)}")
            rows[i] = vals
        return LinearSystem.from_arrays(rows[:, :-1], rows[:, -1])
    no0, header = lines[0]
    try:
        n, j = (int(t) for t in header.split())
    except ValueError:
        raise ValueError(f"{path}:{no0}: header must be 'n J'") from None
    if len(lines) - 1 != j:
        raise ValueError(f"{path}: header promises {j} rows, found {len(lines) - 1}")
    a = np.zeros((j, n))
    c = np.empty(j)
    for i, (no, ln) in enumerate(lines[1:]):
        toks = ln.split()
        try:
            c[i] = float(toks[0])
            k = int(toks[1])
            pairs = [(int(toks[2 + 2 * t]), float(toks[3 + 2 * t])) for t in range(k)]
        except (ValueError, IndexError):
            raise ValueError(f"{path}:{no}: malformed sparse row") from None
        for idx, val in pairs:
            if not 0 <= idx < n:
                raise ValueError(f"{path}:{no}: column index {idx} outside 0..{n - 1}")
            a[i, idx] = val
    return LinearSystem.from_arrays(a, c)


#: one fold-and-slide step on each end of the string
THIRDS_STEP_A = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
THIRDS_STEP_B = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])


def thirds_demo(x, y, z, n_iters):
    """Fold-and-slide iteration dividing a string of length x+y+z into thirds.

    Section lengths (x, y, z) evolve under the two averaging projections
    above (right end folded to the left clip, then left end to the right
    clip).  Returns the clip positions (left, right) = (x_k, x_k + y_k) for
    k = 0..n_iters and whether every deviation stayed within the geometric
    envelopes (2c/3) 4^-k for the left clip and (c/3) 4^(1-k) for the right.
    """
    if min(x, y, z) <= 0:
        raise ValueError("section lengths must be positive")
    if n_iters < 0:
        raise ValueError("n_iters must be >= 0")
    c = x + y + z
    step = THIRDS_STEP_B @ THIRDS_STEP_A
    v = np.array([x, y, z], dtype=float)
    positions = [(float(v[0]), float(v[0] + v[1]))]
    for _ in range(n_iters):
        v = step @ v
        positions.append((float(v[0]), float(v[0] + v[1])))
    bound_ok = True
    for k, (left, right) in enumerate(positions):
        left_ok = abs(left - c / 3.0) <= (2.0 * c / 3.0) * 4.0 ** (-k) + 1e-12 * c
        right_ok = abs(right - 2.0 * c / 3.0) <= (c / 3.0) * 4.0 ** (1 - k) + 1e-12 * c
        bound_ok = bound_ok and left_ok and right_ok
    return positions, bound_ok
