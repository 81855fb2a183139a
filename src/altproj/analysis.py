"""Friedrichs angle between two subspaces and the two-subspace rate identity.

The cosine c of the Friedrichs angle is the supremum of |<x, y>| over unit
vectors of the two subspaces after their common intersection has been removed
from each.  For the alternating operator T = P2 P1 it governs uniform
convergence exactly:

    ||(P2 P1)^n - P_M|| = c^(2n-1),    n >= 1,

with M the intersection.  ``rate_curve`` measures the left side and tabulates
it against the right side.

In finite dimension c < 1 always holds, so uniform geometric convergence is
guaranteed; the degenerate regime c = 1 (arbitrarily slow convergence) exists
only in infinite-dimensional spaces and is out of reach here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

#: basis directions whose residual after removing the intersection is at or
#: below this are treated as belonging to the intersection
DEFLATION_TOL = 1e-10


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
        return [
            (n + 1, m, p, abs(m - p))
            for n, (m, p) in enumerate(zip(self.measured, self.predicted))
        ]


def _deflate(s, m_comp):
    """Component of ``s`` orthogonal to the intersection (basis-wise removal)."""
    r = m_comp.basis @ (m_comp.basis.T @ s.basis)
    keep = np.linalg.norm(r, axis=0) > DEFLATION_TOL
    return linalg.orthonormalize(r[:, keep].T, tol=DEFLATION_TOL, ambient_dim=s.ambient_dim)


def friedrichs_cosine(s1, s2, tol=linalg.DEFAULT_TOL):
    """Cosine of the Friedrichs angle between two subspaces.

    The common intersection is removed from both sides first; the cosine is
    then the largest singular value of the cross-Gram matrix of the deflated
    orthonormal bases, clamped to [0, 1].  If either deflated side is the
    zero subspace the supremum is empty and the cosine is 0 by convention.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    m = linalg.intersect([s1, s2], tol=tol)
    m_comp = linalg.complement(m)
    d1 = _deflate(s1, m_comp)
    d2 = _deflate(s2, m_comp)
    if d1.dim == 0 or d2.dim == 0:
        return 0.0
    c = linalg.operator_norm(d1.basis.T @ d2.basis)
    return float(min(1.0, max(0.0, c)))


def rate_curve(s1, s2, n_terms, tol=linalg.DEFAULT_TOL):
    """Measured ||(P2 P1)^n - P_M|| against c^(2n-1) for n = 1..n_terms."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    c = friedrichs_cosine(s1, s2, tol=tol)
    p1 = linalg.projection_matrix(s1)
    p2 = linalg.projection_matrix(s2)
    pm = linalg.projection_matrix(linalg.intersect([s1, s2], tol=tol))
    t = p2 @ p1
    measured = []
    predicted = []
    power = np.eye(s1.ambient_dim)
    for n in range(1, n_terms + 1):
        power = power @ t
        measured.append(linalg.operator_norm(power - pm))
        predicted.append(c ** (2 * n - 1))
    return RateCurve(c=c, measured=measured, predicted=predicted)
