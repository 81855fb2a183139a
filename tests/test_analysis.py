import numpy as np
import pytest

from altproj import analysis, linalg


def line(*coords):
    return linalg.orthonormalize([np.array(coords, dtype=float)])


def grid_sup_oracle(s1, s2, points=10_000):
    """Brute-force sup of |<x, y>| over unit vectors of the deflated subspaces.

    Walks a dense grid over the smaller deflated subspace; the inner sup over
    the other subspace at fixed x is ||P x||.  Handles deflated dimensions 1
    and 2, which covers every pair in ambient dimension <= 3.
    """
    m = linalg.intersect([s1, s2])
    mc = linalg.complement(m)
    deflated = []
    for s in (s1, s2):
        cols = [linalg.project(mc, s.basis[:, j]) for j in range(s.dim)]
        cols = [c for c in cols if np.linalg.norm(c) > 1e-10]
        deflated.append(linalg.orthonormalize(cols, ambient_dim=s.ambient_dim)
                        if cols else linalg.Subspace.zero(s.ambient_dim))
    d1, d2 = sorted(deflated, key=lambda s: s.dim)
    if d1.dim == 0 or d2.dim == 0:
        return 0.0
    if d1.dim == 1:
        candidates = d1.basis[:, 0][None, :]
    elif d1.dim == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
        candidates = np.outer(np.cos(theta), d1.basis[:, 0]) + np.outer(np.sin(theta), d1.basis[:, 1])
    else:
        raise NotImplementedError("oracle covers deflated dimensions 1 and 2")
    overlaps = np.linalg.norm(candidates @ d2.basis, axis=1)
    return float(np.max(overlaps))


class TestFriedrichsCosine:
    def test_two_lines_at_45_degrees(self):
        c = analysis.friedrichs_cosine(line(1.0, 1.0), line(1.0, 0.0))
        assert c == pytest.approx(np.sqrt(0.5), abs=1e-10)
        assert c == pytest.approx(grid_sup_oracle(line(1.0, 1.0), line(1.0, 0.0)), abs=1e-4)

    def test_identical_subspaces_deflate_to_zero(self):
        s = line(1.0, 2.0)
        assert analysis.friedrichs_cosine(s, s) == 0.0

    def test_orthogonal_lines(self):
        assert analysis.friedrichs_cosine(line(1.0, 0.0), line(0.0, 1.0)) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            s1 = linalg.random_subspace(rng, n, int(rng.integers(1, n)))
            s2 = linalg.random_subspace(rng, n, int(rng.integers(1, n)))
            assert abs(analysis.friedrichs_cosine(s1, s2)
                       - analysis.friedrichs_cosine(s2, s1)) <= 1e-12

    def test_strictly_below_one_in_finite_dimension(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            s1 = linalg.random_subspace(rng, n, int(rng.integers(1, n)))
            s2 = linalg.random_subspace(rng, n, int(rng.integers(1, n)))
            assert analysis.friedrichs_cosine(s1, s2) < 1.0 - 1e-12

    def test_matches_grid_oracle_in_low_dimension(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 4))
            s1 = linalg.random_subspace(rng, n, int(rng.integers(1, n)))
            s2 = linalg.random_subspace(rng, n, int(rng.integers(1, n)))
            assert analysis.friedrichs_cosine(s1, s2) == pytest.approx(
                grid_sup_oracle(s1, s2), abs=1e-4)


class TestRateCurve:
    def test_two_lines_first_powers(self):
        curve = analysis.rate_curve(line(1.0, 1.0), line(1.0, 0.0), 2)
        c = np.sqrt(0.5)
        assert curve.measured[0] == pytest.approx(c, abs=1e-10)
        assert curve.measured[1] == pytest.approx(c**3, abs=1e-10)
        assert curve.predicted == pytest.approx([c, c**3], abs=1e-12)

    def test_identical_lines_collapse_immediately(self):
        s = line(1.0, 0.0)
        curve = analysis.rate_curve(s, s, 3)
        assert curve.c == 0.0
        assert curve.measured == pytest.approx([0.0] * 3, abs=1e-12)
        assert curve.predicted == [0.0, 0.0, 0.0]

    def test_measured_matches_predicted_for_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s1 = linalg.random_subspace(rng, 8, int(rng.integers(1, 8)))
            s2 = linalg.random_subspace(rng, 8, int(rng.integers(1, 8)))
            curve = analysis.rate_curve(s1, s2, 8)
            assert max(curve.abs_errors) < 1e-8

    def test_measured_non_increasing(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            s1 = linalg.random_subspace(rng, 6, int(rng.integers(1, 6)))
            s2 = linalg.random_subspace(rng, 6, int(rng.integers(1, 6)))
            curve = analysis.rate_curve(s1, s2, 6)
            for a, b in zip(curve.measured, curve.measured[1:]):
                assert b <= a + 1e-10

    def test_geometric_decay_ratio(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            s1 = linalg.random_subspace(rng, 5, int(rng.integers(1, 5)))
            s2 = linalg.random_subspace(rng, 5, int(rng.integers(1, 5)))
            curve = analysis.rate_curve(s1, s2, 6)
            c2 = curve.c**2
            for a, b in zip(curve.measured, curve.measured[1:]):
                if a > 1e-10:
                    assert b / a == pytest.approx(c2, abs=1e-6)


def dense_rate_curve(s1, s2, n_terms):
    """The earlier ``rate_curve``: norms of powers of the n x n matrix P2 P1."""
    c, meet = analysis._split(s1, s2)
    t = linalg.projection_matrix(s2) @ linalg.projection_matrix(s1)
    power = np.eye(s1.ambient_dim)
    measured = []
    for _ in range(n_terms):
        power = power @ t
        measured.append(linalg.operator_norm(power - meet @ meet.T))
    return measured


class TestRateCurveOnTheCompression:
    def test_matches_the_dense_powers_and_the_rate(self):
        # every matrix in either computation has norm <= 1, so the k-th term
        # carries rounding of about k * n * eps in absolute terms; the bound
        # is fixed from the dtype before any pair is drawn
        eps = np.finfo(float).eps
        rng = np.random.default_rng(19)
        for _ in range(300):
            n = int(rng.integers(1, 24))
            m = int(rng.integers(0, n + 1))  # dimension of the shared part
            common = rng.standard_normal((m, n))
            s1, s2 = (linalg.orthonormalize(
                np.vstack([common, rng.standard_normal((int(rng.integers(0, n - m + 1)), n))]),
                ambient_dim=n) for _ in range(2))
            curve = analysis.rate_curve(s1, s2, 8)
            assert curve.predicted == [curve.c ** (2 * k - 1) for k in range(1, 9)]
            dense = dense_rate_curve(s1, s2, 8)
            for k, (got, old, rate) in enumerate(zip(curve.measured, dense, curve.predicted), 1):
                tol = 4 * k * n * eps
                assert abs(got - old) <= tol
                assert abs(got - rate) <= tol

    def test_zero_subspace_measures_zero(self):
        s = line(1.0, 2.0)
        for pair in ((s, linalg.Subspace.zero(2)), (linalg.Subspace.zero(2), s)):
            curve = analysis.rate_curve(*pair, 3)
            assert curve.measured == [0.0, 0.0, 0.0] == dense_rate_curve(*pair, 3)
