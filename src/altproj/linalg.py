"""Dense real vectors, matrices and subspaces of R^n.

Everything downstream (iteration, angle analysis, the Kaczmarz solver, the
non-convergence construction) is built on the primitives here: orthonormal
bases, projection application, subspace algebra (sum, principal angles and
the intersection, containment and equality read from them, orthogonal
complement) and spectral operator norms.

Subspaces are stored as matrices with orthonormal columns.  Bases are never
unique, so subspace comparisons are made on principal angles, which do not
depend on the basis, never on entrywise basis equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: default tolerance: relative for rank decisions, a sine threshold for
#: comparing subspaces by principal angles
DEFAULT_TOL = 1e-10

#: a basis matrix Q must satisfy ||Q^T Q - I||_max <= this to be accepted
BASIS_ORTHO_TOL = 1e-12


def _finite(a, ndim, what):
    """``a`` as a float array of ``ndim`` dimensions with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != ndim:
        raise ValueError(f"expected a {what}, got array of shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{what} contains non-finite entries")
    return m


def as_vector(x, dim=None):
    """Validate ``x`` as a finite 1-D float array, optionally of length ``dim``."""
    v = _finite(x, 1, "vector")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected length {dim}, got {v.shape[0]}")
    return v


def as_matrix(a):
    """Validate ``a`` as a finite 2-D float array."""
    return _finite(a, 2, "matrix")


def start_norm(x0):
    """``||x0||``, refusing a starting vector whose sum of squares overflows float64."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x0))
    if not np.isfinite(norm):
        raise ValueError("x0 is too large: the sum of squares in its norm overflows float64")
    return norm


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of R^n held as an ``n x d`` matrix with orthonormal columns.

    ``d = 0`` encodes the zero subspace {0}; ``d = n`` the full space.  An
    ``n x 0`` basis gives exact +0.0 from every product, and the complete QR
    of it is the identity, so no primitive treats the zero subspace apart.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis)
        n, d = b.shape
        if n != self.ambient_dim:
            raise ValueError(f"basis rows {n} do not match ambient dimension {self.ambient_dim}")
        if d > n:
            raise ValueError(f"basis has {d} columns in ambient dimension {n}")
        if np.max(np.abs(b.T @ b - np.eye(d)), initial=0.0) > BASIS_ORTHO_TOL:
            raise ValueError("basis columns are not orthonormal")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def dim(self):
        return self.basis.shape[1]

    @classmethod
    def zero(cls, n):
        return cls(n, np.zeros((n, 0)))

    @classmethod
    def full(cls, n):
        return cls(n, np.eye(n))


def common_dim(*subspaces):
    """The ambient dimension that ``subspaces`` share; refuses none, or two that differ."""
    dims = {s.ambient_dim for s in subspaces}
    if len(dims) != 1:
        raise ValueError("subspaces live in different ambient dimensions" if dims
                         else "need at least one subspace")
    return dims.pop()


def orthonormalize(vectors, tol=DEFAULT_TOL, ambient_dim=None):
    """Orthonormal basis of the span of ``vectors`` (CGS2).

    ``vectors`` is a sequence of vectors or a 2-D array of row vectors.  Each
    candidate is deflated against the accepted block Q by ``r -= Q (Q^T r)``,
    twice ("twice is enough"), and kept only if its residual then exceeds
    ``tol`` times the largest input norm (``tol`` itself when all are zero).
    The inputs are first scaled by the power of two that brings the largest
    entry into [1/2, 1), so no norm overflows; only subnormal results round.

    An empty input needs ``ambient_dim`` and yields the zero subspace.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        a = _finite(vectors, 2, "vector")
    else:
        vs = [as_vector(v) for v in vectors]
        if any(v.shape[0] != vs[0].shape[0] for v in vs):
            raise ValueError("input vectors have mismatched dimensions")
        a = np.array(vs) if vs else np.zeros((0, 0))
    if not a.shape[0]:
        if ambient_dim is None:
            raise ValueError("empty input: ambient_dim is required")
        return Subspace.zero(ambient_dim)
    n = a.shape[1]
    if ambient_dim is not None and ambient_dim != n:
        raise ValueError(f"vectors have length {n}, ambient_dim says {ambient_dim}")
    a = np.ldexp(a, -np.frexp(np.max(np.abs(a), initial=0.0))[1])
    scale = float(np.max(np.linalg.norm(a, axis=1))) or 1.0
    basis = np.empty((n, a.shape[0]), order="F")
    k = 0
    # bound methods of the accepted block: the gemv calls of ``@`` without its dispatch
    dot, tdot = basis[:, :0].dot, basis[:, :0].T.dot
    for v in a:
        r = v - dot(tdot(v))
        r -= dot(tdot(r))
        nr = math.sqrt(r.dot(r))  # np.linalg.norm's own formula
        if nr > tol * scale:
            np.divide(r, nr, out=basis[:, k])
            k += 1
            dot, tdot = basis[:, :k].dot, basis[:, :k].T.dot
    return Subspace(n, basis[:, :k])


def project(s, x):
    """Orthogonal projection of ``x`` onto the subspace ``s``: Q (Q^T x)."""
    x = as_vector(x, dim=s.ambient_dim)
    return s.basis @ (s.basis.T @ x)


def projection_matrix(s):
    """The ``n x n`` matrix Q Q^T of the orthogonal projection onto ``s``."""
    return s.basis @ s.basis.T


def complement(s):
    """Orthogonal complement: spans everything orthogonal to ``s``."""
    q, _ = np.linalg.qr(s.basis, mode="complete")
    return Subspace(s.ambient_dim, q[:, s.dim:])


def subspace_sum(s1, s2):
    """Span of the union of two subspaces."""
    n = common_dim(s1, s2)
    return orthonormalize(np.hstack([s1.basis, s2.basis]).T, ambient_dim=n)


@dataclass(frozen=True, eq=False)
class PrincipalAngles:
    """The min(d1, d2) principal angles between two subspaces, smallest first.

    ``angles[i]`` has cosine ``cos[i]`` and sine ``sin[i]``; the unit columns
    ``vectors1[:, i]`` of the first subspace and ``vectors2[:, i]`` of the
    second are its principal vectors, so ``vectors1.T @ vectors2 = diag(cos)``.
    """

    angles: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    vectors1: np.ndarray
    vectors2: np.ndarray


def principal_angles(s1, s2):
    """Principal angles and vectors by the cosine-sine method.

    With Q2 the basis of the smaller side and Q1 the other, the SVD of
    G = Q1^T Q2 gives the cosines and vectors (Bjorck & Golub 1973).  Every
    cosine rounds to 1 below about 1e-8, so the angles up to 45 degrees are
    resolved by their sines: the singular values of (I - Q1 Q1^T) Q2 =
    Q2 - Q1 G on their right singular vectors (Knyazev & Argentati 2002).
    """
    common_dim(s1, s2)
    swap = s2.dim > s1.dim
    q1, q2 = (s2.basis, s1.basis) if swap else (s1.basis, s2.basis)
    g = q1.T @ q2
    u, cos, vt = np.linalg.svd(g, full_matrices=False)
    v = vt.T
    small = int(np.count_nonzero(cos >= np.sqrt(0.5)))
    vs = v[:, :small]
    _, sin_small, zt = np.linalg.svd(q2 @ vs - q1 @ (g @ vs), full_matrices=False)
    v[:, :small] = vs @ zt[::-1].T  # ascending sines, like the angles
    gv = g @ v[:, :small]
    cos[:small] = np.linalg.norm(gv, axis=0)
    u[:, :small] = gv / cos[:small]
    cos = np.minimum(cos, 1.0)
    sin = np.concatenate([sin_small[::-1], np.sqrt(1.0 - cos[small:] ** 2)])
    vectors = (q2 @ v, q1 @ u) if swap else (q1 @ u, q2 @ v)
    return PrincipalAngles(np.arctan2(sin, cos), cos, sin, *vectors)


def intersect(subspaces, tol=DEFAULT_TOL):
    """Intersection of subspaces, folded pairwise over principal angles.

    Each step keeps the principal vectors of the running intersection whose
    angle to the next subspace has sine at or below ``tol``.
    """
    ss = list(subspaces)
    if not ss:
        raise ValueError("intersect needs at least one subspace")
    meet = ss[0]
    for s in ss[1:]:
        pa = principal_angles(meet, s)
        meet = Subspace(meet.ambient_dim, pa.vectors1[:, pa.sin <= tol])
    return meet


def contains(outer, inner, tol=DEFAULT_TOL):
    """True when ``inner`` lies in ``outer``: every principal angle has sine <= ``tol``.

    The largest sine is ||(I - P_outer) Q_inner||, so the verdict does not
    depend on the basis of either subspace.
    """
    common_dim(outer, inner)
    if inner.dim > outer.dim:
        return False
    return float(np.max(principal_angles(outer, inner).sin, initial=0.0)) <= tol


def subspaces_equal(s1, s2, tol=DEFAULT_TOL):
    """Equal dimensions and every principal angle with sine <= ``tol``."""
    return s1.dim == s2.dim and contains(s1, s2, tol)


def operator_norm(a):
    """Largest singular value of ``a``."""
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def random_subspace(rng, n, d):
    """Seeded random ``d``-dimensional subspace of R^n.

    Draws an ``n x d`` standard-normal matrix from ``rng`` (numpy Generator,
    PCG64 via ``numpy.random.default_rng(seed)``) and takes the Q of its
    Householder QR, with column signs set so that diag(R) > 0: Gram-Schmidt's
    basis up to rounding.  A draw with min |R_ii| <= DEFAULT_TOL * max |R_ii| is
    refused as degenerate.  Deterministic for a fixed seed.
    """
    if not 0 <= d <= n:
        raise ValueError(f"cannot draw a {d}-dimensional subspace of R^{n}")
    if d == 0:
        return Subspace.zero(n)
    q, r = np.linalg.qr(rng.standard_normal((n, d)))
    diag = np.diagonal(r)
    if np.min(np.abs(diag)) <= DEFAULT_TOL * np.max(np.abs(diag)):
        raise ValueError("degenerate random draw")  # probability zero
    return Subspace(n, q * np.sign(diag))


def read_lines(path, empty):
    """``(number, text)`` of each line of an input file, numbered from 1, cut
    at its first ``#`` and stripped; blank lines are skipped, and a file
    without a line is refused as ``path: empty``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, line) for no, raw in enumerate(fh, start=1)
                 if (line := raw.split("#", 1)[0].strip())]
    if not lines:
        raise ValueError(f"{path}: {empty}")
    return lines


def read_rows(path, what, empty, short=(1, "")):
    """Rows of comma-separated decimals from a text file, as one float matrix.

    Lines come from ``read_lines``.  Each line is one ``np.array(...,
    dtype=float)`` call, which reads its tokens as ``float()`` does.  A line
    is refused at ``path:line`` for a bad token, then for fewer than
    ``short[0]`` entries, then for another length than the first row's; a
    file without rows is refused as ``empty``.
    """
    lines = read_lines(path, empty)
    width = lines[0][1].count(",") + 1
    rows = np.empty((len(lines), width))
    for i, (no, line) in enumerate(lines):
        try:
            row = np.array(line.split(","), dtype=float)
        except ValueError as exc:
            raise ValueError(f"{path}:{no}: malformed {what}: {exc}") from None
        if row.size < short[0]:
            raise ValueError(f"{path}:{no}: {short[1]}")
        if row.size != width:
            raise ValueError(f"{path}:{no}: expected {width} entries, got {row.size}")
        rows[i] = row
    return rows


def load_subspace(path):
    """Read a subspace from a text file of basis vectors, one per line, by
    ``read_rows``.  The vectors are orthonormalized on load."""
    return orthonormalize(read_rows(path, "vector line", "no vectors found"))
