"""Dense real vectors, matrices and subspaces of R^n.

Everything downstream (iteration, angle analysis, the Kaczmarz solver, the
non-convergence construction) is built on the primitives here: orthonormal
bases, projection application, subspace algebra (sum, intersection,
orthogonal complement) and spectral operator norms.

Subspaces are stored as matrices with orthonormal columns.  Bases are never
unique, so subspace equality always means mutual containment up to a
tolerance, never entrywise basis equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .words import Word

#: default relative tolerance for rank decisions
DEFAULT_TOL = 1e-10

#: a basis matrix Q must satisfy ||Q^T Q - I||_max <= this to be accepted
BASIS_ORTHO_TOL = 1e-12


def as_vector(x, dim=None):
    """Validate ``x`` as a finite 1-D float array, optionally of length ``dim``."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {v.shape}")
    if v.size and not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected length {dim}, got {v.shape[0]}")
    return v


def as_matrix(a):
    """Validate ``a`` as a finite 2-D float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of R^n held as an ``n x d`` matrix with orthonormal columns.

    ``d = 0`` encodes the zero subspace {0}; ``d = n`` the full space.
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
        if d:
            gram = b.T @ b
            if np.max(np.abs(gram - np.eye(d))) > BASIS_ORTHO_TOL:
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
        a = np.asarray(vectors, dtype=float)
        if not np.all(np.isfinite(a)):
            raise ValueError("vector contains non-finite entries")
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
    for v in a:
        r, q = v.copy(), basis[:, :k]
        r -= q @ (q.T @ r)
        r -= q @ (q.T @ r)
        nr = float(np.linalg.norm(r))
        if nr > tol * scale:
            basis[:, k] = r / nr
            k += 1
    return Subspace(n, basis[:, :k])


def project(s, x):
    """Orthogonal projection of ``x`` onto the subspace ``s``: Q (Q^T x)."""
    x = as_vector(x, dim=s.ambient_dim)
    if s.dim == 0:
        return np.zeros_like(x)
    return s.basis @ (s.basis.T @ x)


def projection_matrix(s):
    """The ``n x n`` matrix Q Q^T of the orthogonal projection onto ``s``."""
    if s.dim == 0:
        return np.zeros((s.ambient_dim, s.ambient_dim))
    return s.basis @ s.basis.T


def complement(s):
    """Orthogonal complement: spans everything orthogonal to ``s``."""
    n, d = s.ambient_dim, s.dim
    if d == 0:
        return Subspace.full(n)
    if d == n:
        return Subspace.zero(n)
    q, _ = np.linalg.qr(s.basis, mode="complete")
    return Subspace(n, q[:, d:])


def subspace_sum(s1, s2, tol=DEFAULT_TOL):
    """Span of the union of two subspaces."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    return orthonormalize(np.hstack([s1.basis, s2.basis]).T, tol=tol, ambient_dim=s1.ambient_dim)


def intersect(subspaces, tol=DEFAULT_TOL):
    """Intersection of subspaces via the complement of the sum of complements."""
    ss = list(subspaces)
    if not ss:
        raise ValueError("intersect needs at least one subspace")
    n = ss[0].ambient_dim
    for s in ss:
        if s.ambient_dim != n:
            raise ValueError("subspaces live in different ambient dimensions")
    if len(ss) == 1:
        return ss[0]
    cols = np.hstack([complement(s).basis for s in ss])
    return complement(orthonormalize(cols.T, tol=tol, ambient_dim=n))


def contains(outer, inner, tol=DEFAULT_TOL):
    """True when every basis direction of ``inner`` lies in ``outer`` within ``tol``."""
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    if inner.dim == 0:
        return True
    residual = inner.basis - outer.basis @ (outer.basis.T @ inner.basis) if outer.dim else inner.basis
    return float(np.max(np.linalg.norm(residual, axis=0))) <= tol


def subspaces_equal(s1, s2, tol=DEFAULT_TOL):
    """Subspace equality = mutual containment within ``tol``."""
    return contains(s1, s2, tol) and contains(s2, s1, tol)


def operator_norm(a):
    """Largest singular value of ``a``."""
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def word_matrix(w, projections):
    """Operator product encoded by the word ``w`` over the given square matrices.

    The last letter of the word acts first on a vector; the empty word is the
    identity.  Letter exponents are evaluated with binary matrix powering, so
    the matrices need not be idempotent.
    """
    if not isinstance(w, Word):
        raise TypeError("w must be a Word")
    mats = [as_matrix(p) for p in projections]
    if not mats:
        raise ValueError("word_matrix needs at least one matrix")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise ValueError("all matrices must be square and of equal size")
    if w.alphabet > len(mats):
        raise ValueError(f"word uses {w.alphabet} letters but only {len(mats)} matrices given")
    return w.matrix(mats)


def random_subspace(rng, n, d, tol=DEFAULT_TOL):
    """Seeded random ``d``-dimensional subspace of R^n.

    Draws an ``n x d`` standard-normal matrix from ``rng`` (numpy Generator,
    PCG64 via ``numpy.random.default_rng(seed)``) and orthonormalizes its
    columns.  Deterministic for a fixed seed.
    """
    if not 0 <= d <= n:
        raise ValueError(f"cannot draw a {d}-dimensional subspace of R^{n}")
    if d == 0:
        return Subspace.zero(n)
    g = rng.standard_normal((n, d))
    s = orthonormalize(g.T, tol=tol, ambient_dim=n)
    if s.dim != d:
        raise ValueError("degenerate random draw")  # probability zero
    return s


def load_subspace(path, tol=DEFAULT_TOL):
    """Read a subspace from a text file: one basis vector per line.

    Lines hold comma-separated decimals; ``#`` starts a comment; all rows must
    have equal length.  Vectors need not be orthonormal, orthonormalization is
    applied on load.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed vector line: {exc}") from None
            if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: expected {len(rows[0])} entries, got {len(rows[-1])}")
    if not rows:
        raise ValueError(f"{path}: no vectors found")
    return orthonormalize(np.array(rows), tol=tol)
