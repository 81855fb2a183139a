"""Friedrichs angle between two subspaces and the two-subspace rate identity.

The cosine c of the Friedrichs angle is the supremum of |<x, y>| over unit
vectors of the two subspaces after their common intersection has been removed
from each: the cosine of the first non-zero principal angle.  For the
alternating operator T = P2 P1 it governs uniform convergence exactly:

    ||(P2 P1)^n - P_M|| = c^(2n-1),    n >= 1,

with M the intersection.  ``rate_curve`` measures the left side and tabulates
it against the right side.

In finite dimension c < 1 always holds, so uniform geometric convergence is
guaranteed; the degenerate regime c = 1 (arbitrarily slow convergence) exists
only in infinite-dimensional spaces and is out of reach here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count, repeat

import numpy as np

from . import linalg

@dataclass(eq=False)
class RateCurve:
    """Measured vs predicted uniform rates for the alternating operator."""

    c: float
    measured: list
    predicted: list

    @property
    def abs_errors(self):
        return [abs(m - p) for m, p in zip(self.measured, self.predicted)]

    def rows(self):
        """(n, measured, predicted, abs_err) tuples, n starting at 1."""
        return list(zip(count(1), self.measured, self.predicted, self.abs_errors))


def _split(s1, s2):
    """Friedrichs cosine and an intersection basis from one angle computation."""
    pa = linalg.principal_angles(s1, s2)
    meet = int(np.count_nonzero(pa.sin <= linalg.DEFAULT_TOL))
    return (float(pa.cos[meet]) if meet < pa.cos.size else 0.0), pa.vectors1[:, :meet]


def friedrichs_cosine(s1, s2):
    """Cosine of the Friedrichs angle between two subspaces.

    Principal angles whose sine is at or below ``linalg.DEFAULT_TOL`` span
    the intersection; the cosine is that of the first angle beyond them, which
    lies in [0, 1].  If every angle lies in the intersection the supremum is
    empty and the cosine is 0 by convention.
    """
    return _split(s1, s2)[0]


def rate_curve(s1, s2, n_terms):
    """Measured ||(P2 P1)^n - P_M|| against c^(2n-1) for n = 1..n_terms.

    M and c come from one principal-angle call.  With H = Q2^T Q1,
    (P2 P1)^n - P_M = Q2 (H (H^T H)^(n-1) - Q2^T P_M Q1) Q1^T, since P_M =
    P2 P_M P1, and Q2, Q1 have orthonormal columns; so the norm is measured
    on that d2 x d1 compression instead of on n x n matrices.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    c, meet = _split(s1, s2)
    q1, q2 = s1.basis, s2.basis
    h = q2.T @ q1
    pm = (q2.T @ meet) @ (meet.T @ q1)
    powers = accumulate(repeat(h.T @ h, n_terms - 1), np.matmul, initial=h)
    measured = [linalg.operator_norm(power - pm) for power in powers]
    predicted = [c ** (2 * n - 1) for n in range(1, n_terms + 1)]
    return RateCurve(c=c, measured=measured, predicted=predicted)
