import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altproj import linalg


def line(*coords):
    return linalg.orthonormalize([np.array(coords, dtype=float)])


class TestOrthonormalize:
    def test_two_independent_vectors_span_the_plane(self):
        s = linalg.orthonormalize([np.array([1.0, 0.0]), np.array([1.0, 1.0])], tol=1e-10)
        assert s.dim == 2
        assert linalg.subspaces_equal(s, linalg.Subspace.full(2))

    def test_collinear_inputs_collapse_to_a_line(self):
        s = linalg.orthonormalize([np.array([1.0, 1.0]), np.array([2.0, 2.0])], tol=1e-10)
        assert s.dim == 1
        expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(np.abs(s.basis[:, 0]), np.abs(expected))

    def test_empty_input_gives_zero_subspace(self):
        s = linalg.orthonormalize([], ambient_dim=3)
        assert s.ambient_dim == 3 and s.dim == 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            linalg.orthonormalize([np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            linalg.orthonormalize([np.array([np.nan, 0.0])])

    def test_basis_orthonormal_within_tolerance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            count = int(rng.integers(1, n + 2))
            s = linalg.orthonormalize([rng.standard_normal(n) for _ in range(count)])
            if s.dim:
                gram = s.basis.T @ s.basis
                assert np.max(np.abs(gram - np.eye(s.dim))) <= 1e-12

    def test_nearly_dependent_candidates_stay_orthonormal(self):
        # one deflation pass would leave about 1e-16 * 10^g of u in the second direction
        rng = np.random.default_rng(11)
        for g in range(4, 9):
            for _ in range(10):
                u, w = rng.standard_normal((2, int(rng.integers(2, 9))))
                s = linalg.orthonormalize([u, u + 10.0**-g * w])
                assert s.dim == 2
                assert np.max(np.abs(s.basis.T @ s.basis - np.eye(2))) <= 1e-14


def mgs_oracle(vectors, tol=linalg.DEFAULT_TOL):
    """The earlier orthonormalize: modified Gram-Schmidt, one vector update at a time."""
    vs = [np.asarray(v, dtype=float) for v in vectors]
    scale = max((float(np.linalg.norm(v)) for v in vs), default=0.0) or 1.0
    cols = []
    for v in vs:
        r = v.copy()
        for q in cols:
            r -= (q @ r) * q
        for q in cols:
            r -= (q @ r) * q
        nr = float(np.linalg.norm(r))
        if nr > tol * scale:
            cols.append(r / nr)
    return np.column_stack(cols) if cols else np.zeros((vs[0].shape[0], 0))


@st.composite
def graded_column_sets(draw):
    """Rows spanning at most ``rank`` directions: basis rows, combinations of
    them, duplicates and zeros, each scaled by 10^g for g in -8..8."""
    n = draw(st.integers(1, 8))
    rank = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((rank, n))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["basis", "combination", "duplicate", "zero"]))
        if kind == "duplicate" and rows:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))].copy())
            continue
        if kind == "zero" or rank == 0:
            v = np.zeros(n)
        elif kind == "basis":
            v = base[draw(st.integers(0, rank - 1))]
        else:
            v = rng.standard_normal(rank) @ base
        rows.append(v * 10.0 ** draw(st.integers(-8, 8)))
    return np.array(rows)


class TestOrthonormalizeMatchesMGS:
    @settings(max_examples=300, deadline=None)
    @given(graded_column_sets())
    def test_same_rank_and_projection_as_mgs(self, rows):
        s = linalg.orthonormalize(list(rows), ambient_dim=rows.shape[1])
        q = mgs_oracle(rows)
        assert s.dim == q.shape[1]
        assert np.max(np.abs(linalg.projection_matrix(s) - q @ q.T), initial=0.0) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(graded_column_sets())
    def test_array_input_equals_list_of_rows(self, rows):
        from_array = linalg.orthonormalize(rows, ambient_dim=rows.shape[1])
        from_list = linalg.orthonormalize(list(rows), ambient_dim=rows.shape[1])
        assert np.array_equal(from_array.basis, from_list.basis)

    def test_array_input_validated_like_a_list(self):
        with pytest.raises(ValueError, match="non-finite"):
            linalg.orthonormalize(np.array([[1.0, np.inf]]))
        with pytest.raises(ValueError, match="ambient_dim says"):
            linalg.orthonormalize(np.eye(2), ambient_dim=3)

    def test_entries_near_the_float64_limit_keep_their_span(self):
        s = linalg.orthonormalize([np.array([1e308, 1e308])])
        assert s.dim == 1
        assert np.allclose(np.abs(s.basis[:, 0]), [2**-0.5, 2**-0.5], rtol=0, atol=1e-15)

    def test_power_of_two_scaling_keeps_the_bits(self):
        rows = np.random.default_rng(5).standard_normal((4, 6))
        base = linalg.orthonormalize(rows).basis
        for e in (-1000, -3, 5, 1000):
            assert np.array_equal(linalg.orthonormalize(np.ldexp(rows, e)).basis, base)


def cgs2_reference(rows, tol=linalg.DEFAULT_TOL):
    """The earlier CGS2 loop of ``orthonormalize``, through ``@`` and
    ``np.linalg.norm``, after the same power-of-two scaling."""
    a = np.asarray(rows, dtype=float)
    n = a.shape[1]
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
    return basis[:, :k]


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOrthonormalizeMatchesCGS2Reference:
    @settings(max_examples=300, deadline=None)
    @given(graded_column_sets())
    def test_bit_identical_basis(self, rows):
        assert same_bits(linalg.orthonormalize(rows, ambient_dim=rows.shape[1]).basis,
                         cgs2_reference(rows))

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_at_benchmark_sizes(self, seed):
        # Gaussian rows at n = 128..176, d = 0.75 n, with dependent rows mixed in
        rng = np.random.default_rng(seed)
        n = int(rng.choice([128, 144, 160, 176]))
        rows = rng.standard_normal((3 * n // 4, n))
        rows = np.vstack([rows, rng.standard_normal((n // 8, 3 * n // 4)) @ rows, rows[:3]])
        rows = rows[rng.permutation(rows.shape[0])]
        basis = linalg.orthonormalize(rows).basis
        assert basis.shape == (n, 3 * n // 4)
        assert same_bits(basis, cgs2_reference(rows))


class TestProject:
    def test_projection_onto_diagonal_line(self):
        s = line(1.0, 1.0)
        assert np.allclose(linalg.project(s, np.array([1.0, 0.0])), [0.5, 0.5])

    def test_coordinate_projection(self):
        s = line(1.0, 0.0)
        assert np.allclose(linalg.project(s, np.array([3.0, 4.0])), [3.0, 0.0])

    def test_identity_on_full_space(self):
        s = linalg.Subspace.full(2)
        x = np.array([2.5, -1.25])
        assert np.allclose(linalg.project(s, x), x)
        for n in range(1, 7):
            full, x = linalg.Subspace.full(n), -np.arange(1.0, n + 1.0)
            assert np.array_equal(linalg.project(full, x), x)
            assert np.array_equal(linalg.projection_matrix(full), np.eye(n))

    def test_zero_subspace_gives_plus_zero(self):
        for n in range(1, 7):
            zero, x = linalg.Subspace.zero(n), -np.arange(1.0, n + 1.0)
            for out, shape in ((linalg.project(zero, x), (n,)), (linalg.projection_matrix(zero), (n, n))):
                assert np.array_equal(out, np.zeros(shape)) and not np.signbit(out).any()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            linalg.project(line(1.0, 0.0), np.array([1.0, 2.0, 3.0]))


class TestComplement:
    def test_line_in_r3(self):
        s = line(1.0, 0.0, 0.0)
        c = linalg.complement(s)
        assert c.dim == 2
        assert np.max(np.abs(c.basis.T @ s.basis)) <= 1e-12

    def test_zero_subspace_complement_is_full(self):
        c = linalg.complement(linalg.Subspace.zero(2))
        assert linalg.subspaces_equal(c, linalg.Subspace.full(2))
        for n in range(1, 7):
            c = linalg.complement(linalg.Subspace.zero(n)).basis
            assert np.array_equal(c, np.eye(n)) and not np.signbit(c).any()

    def test_full_space_complement_is_zero(self):
        assert linalg.complement(linalg.Subspace.full(2)).dim == 0
        for n in range(1, 7):
            assert linalg.complement(linalg.Subspace.full(n)).basis.shape == (n, 0)

    def test_double_complement_returns_the_subspace(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(0, n + 1))
            s = linalg.random_subspace(rng, n, d)
            assert linalg.subspaces_equal(linalg.complement(linalg.complement(s)), s, tol=1e-10)


def tilted_pair(rng, n, angles):
    """Two subspaces of R^n whose principal angles are exactly ``angles``."""
    d = len(angles)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    bent = q[:, :d] * np.cos(angles) + q[:, d:2 * d] * np.sin(angles)
    return linalg.Subspace(n, q[:, :d]), linalg.Subspace(n, bent)


class TestPrincipalAngles:
    def check_vectors(self, s1, s2, pa):
        # unit principal vectors inside their subspaces, paired by the cosines
        for s, v in ((s1, pa.vectors1), (s2, pa.vectors2)):
            assert np.max(np.abs(v.T @ v - np.eye(v.shape[1])), initial=0.0) <= 1e-14
            assert np.max(np.abs(s.basis @ (s.basis.T @ v) - v), initial=0.0) <= 1e-14
        assert np.max(np.abs(pa.vectors1.T @ pa.vectors2 - np.diag(pa.cos)), initial=0.0) <= 1e-14

    @pytest.mark.parametrize("d1, d2", [(2, 5), (5, 2), (4, 4), (9, 3), (3, 9)])
    def test_matches_scipy_on_random_pairs(self, d1, d2):
        from scipy.linalg import subspace_angles

        rng = np.random.default_rng(d1 * 10 + d2)
        for _ in range(10):
            s1, s2 = linalg.random_subspace(rng, 9, d1), linalg.random_subspace(rng, 9, d2)
            pa = linalg.principal_angles(s1, s2)
            assert pa.angles.shape == (min(d1, d2),)
            assert np.all(np.diff(pa.angles) >= 0.0)
            assert np.allclose(pa.angles, np.sort(subspace_angles(s1.basis, s2.basis)),
                               rtol=0, atol=1e-12)
            assert np.allclose(pa.cos**2 + pa.sin**2, 1.0, rtol=0, atol=1e-14)
            self.check_vectors(s1, s2, pa)

    def test_tiny_angles_come_from_the_sine(self):
        # arccos of a cosine that rounds to 1 cannot see angles below ~1e-8;
        # scipy's routine takes every angle from its sine when all lie below
        # 45 degrees, so it is an oracle here
        from scipy.linalg import subspace_angles

        angles = np.array([1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4])
        s1, s2 = tilted_pair(np.random.default_rng(4), 14, angles)
        pa = linalg.principal_angles(s1, s2)
        assert np.allclose(pa.angles, angles, rtol=1e-6, atol=0)
        assert np.allclose(pa.angles, np.sort(subspace_angles(s1.basis, s2.basis)), rtol=1e-6, atol=0)
        assert abs(np.arccos(pa.cos[0]) - 1e-9) > 0.5e-9  # what the cosine alone gives
        self.check_vectors(s1, s2, pa)

    def test_tiny_and_wide_angles_together(self):
        angles = np.array([1e-9, 1e-6, 1e-4, 0.3, 1.2, np.pi / 2])
        s1, s2 = tilted_pair(np.random.default_rng(5), 12, angles)
        pa = linalg.principal_angles(s2, s1)
        assert np.allclose(pa.angles, angles, rtol=1e-6, atol=0)
        self.check_vectors(s2, s1, pa)

    def test_cluster_straddling_45_degrees_keeps_the_vectors_apart(self):
        # for some rotations the cosines and sines of two exact 45-degree
        # angles round to both sides of sqrt(1/2)
        e = np.eye(5)
        for seed in range(8):
            q = np.linalg.qr(np.random.default_rng(seed).standard_normal((5, 5)))[0]
            s1 = linalg.Subspace(5, q[:, :2])
            s2 = linalg.orthonormalize([q @ (e[0] + e[2]), q @ (e[1] + e[3])])
            pa = linalg.principal_angles(s1, s2)
            assert np.allclose(pa.angles, np.pi / 4, rtol=0, atol=1e-14)
            self.check_vectors(s1, s2, pa)

    def test_shared_subspace_gives_zero_angles(self):
        rng = np.random.default_rng(6)
        q = np.linalg.qr(rng.standard_normal((10, 10)))[0]
        s1 = linalg.Subspace(10, q[:, :5])
        s2 = linalg.orthonormalize(np.column_stack([q[:, :3], rng.standard_normal((10, 3))]).T)
        pa = linalg.principal_angles(s1, s2)
        assert np.max(pa.sin[:3]) <= 1e-14 and pa.sin[3] > 1e-3
        shared = linalg.Subspace(10, pa.vectors1[:, :3])
        assert linalg.subspaces_equal(shared, linalg.Subspace(10, q[:, :3]), tol=1e-14)

    def test_zero_and_full_subspaces(self):
        s = linalg.random_subspace(np.random.default_rng(7), 6, 4)
        for other in (linalg.Subspace.zero(6), s):
            pa = linalg.principal_angles(linalg.Subspace.zero(6), other)
            assert pa.angles.shape == (0,) and pa.vectors1.shape == pa.vectors2.shape == (6, 0)
        pa = linalg.principal_angles(linalg.Subspace.full(6), s)
        assert pa.angles.shape == (4,)
        assert np.max(pa.sin) <= 1e-15 and np.min(pa.cos) == pytest.approx(1.0, abs=1e-15)
        self.check_vectors(linalg.Subspace.full(6), s, pa)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different ambient"):
            linalg.principal_angles(line(1.0, 0.0), line(1.0, 0.0, 0.0))


class TestContains:
    def test_verdict_does_not_depend_on_the_basis(self):
        # span{e1 + t e3, e2} leaves span{e1, e2} by the sine t' = t/sqrt(1 + t^2);
        # the 45-degree basis has column residuals of only t'/sqrt(2)
        t = 1e-3
        a = np.array([1.0, 0.0, t]) / np.hypot(1.0, t)
        e2 = np.eye(3)[:, 1]
        outer = linalg.Subspace(3, np.eye(3)[:, :2])
        tol = 0.85 * t / np.hypot(1.0, t)
        bases = [np.column_stack([a, e2]), np.column_stack([a + e2, a - e2]) / np.sqrt(2.0)]
        assert [linalg.contains(outer, linalg.Subspace(3, b), tol=tol) for b in bases] == [False, False]
        assert [linalg.contains(outer, linalg.Subspace(3, b), tol=1.01 * t) for b in bases] == [True, True]

    def test_larger_subspace_is_never_contained(self):
        plane = linalg.Subspace(3, np.eye(3)[:, :2])
        assert linalg.contains(plane, line(1.0, 1.0, 0.0))
        assert not linalg.contains(line(1.0, 1.0, 0.0), plane, tol=1.0)
        assert not linalg.subspaces_equal(line(1.0, 0.0, 0.0), plane, tol=1.0)

    def test_zero_and_full_subspaces(self):
        for n in range(1, 7):
            zero, full = linalg.Subspace.zero(n), linalg.Subspace.full(n)
            assert linalg.contains(zero, zero, tol=0.0) and linalg.contains(full, zero, tol=0.0)
            assert linalg.contains(full, full, tol=0.0) and not linalg.contains(zero, full, tol=1.0)


class TestIntersect:
    def test_distinct_lines_meet_at_origin(self):
        assert linalg.intersect([line(1.0, 1.0), line(1.0, 0.0)]).dim == 0

    def test_idempotent(self):
        s = line(1.0, 2.0, 0.5)
        assert linalg.subspaces_equal(linalg.intersect([s, s]), s)

    def test_coordinate_planes_in_r3(self):
        z0 = linalg.orthonormalize([np.eye(3)[:, 0], np.eye(3)[:, 1]])
        y0 = linalg.orthonormalize([np.eye(3)[:, 0], np.eye(3)[:, 2]])
        meet = linalg.intersect([z0, y0])
        assert linalg.subspaces_equal(meet, line(1.0, 0.0, 0.0))


class TestSum:
    def test_coordinate_axes(self):
        s = linalg.subspace_sum(line(1.0, 0.0, 0.0), line(0.0, 1.0, 0.0))
        assert s.dim == 2

    def test_zero_subspace_is_identity_element(self):
        s = line(1.0, 2.0)
        assert linalg.subspaces_equal(linalg.subspace_sum(s, linalg.Subspace.zero(2)), s)

    def test_overlapping_spans(self):
        s = linalg.subspace_sum(line(1.0, 0.0, 0.0), line(1.0, 1.0, 0.0))
        expected = linalg.orthonormalize([np.eye(3)[:, 0], np.eye(3)[:, 1]])
        assert linalg.subspaces_equal(s, expected)


class TestOperatorNorm:
    def test_identity(self):
        assert linalg.operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        assert linalg.operator_norm(np.zeros((2, 2))) == 0.0

    def test_diagonal(self):
        assert linalg.operator_norm(np.diag([1.0, 2.0, 3.0])) == pytest.approx(3.0, rel=1e-10)


class TestProjectionLaws:
    """Seeded sweeps of the foundational projection identities."""

    def cases(self, count=200, seed=11):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(0, n + 1))
            s = linalg.random_subspace(rng, n, d)
            yield rng, n, s

    def test_idempotence(self):
        for rng, n, s in self.cases():
            x = rng.standard_normal(n)
            once = linalg.project(s, x)
            assert np.linalg.norm(linalg.project(s, once) - once) <= 1e-10 * max(1.0, np.linalg.norm(x))

    def test_self_adjointness(self):
        for rng, n, s in self.cases():
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            lhs = linalg.project(s, x) @ y
            rhs = x @ linalg.project(s, y)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_pythagoras(self):
        for rng, n, s in self.cases():
            x = rng.standard_normal(n)
            px = linalg.project(s, x)
            lhs = np.linalg.norm(x - px) ** 2
            rhs = np.linalg.norm(x) ** 2 - np.linalg.norm(px) ** 2
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)

    def test_contraction(self):
        for rng, n, s in self.cases():
            x = rng.standard_normal(n)
            assert np.linalg.norm(linalg.project(s, x)) <= np.linalg.norm(x) + 1e-12

    def test_closest_point(self):
        for rng, n, s in self.cases():
            if s.dim == 0:
                continue
            x = rng.standard_normal(n)
            y = linalg.project(s, rng.standard_normal(n))
            assert np.linalg.norm(x - linalg.project(s, x)) <= np.linalg.norm(x - y) + 1e-10

    def test_orthogonal_additivity(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(3, 10))
            d1 = int(rng.integers(1, n))
            u = linalg.random_subspace(rng, n, d1)
            pool = linalg.complement(u)
            d2 = int(rng.integers(0, pool.dim + 1))
            v = linalg.Subspace(n, pool.basis[:, :d2])
            combined = linalg.projection_matrix(u) + linalg.projection_matrix(v)
            together = linalg.projection_matrix(linalg.subspace_sum(u, v))
            assert np.max(np.abs(combined - together)) <= 1e-10

    def test_kernel_chain(self):
        # chained projections fix exactly the vectors every factor fixes
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            spaces = [linalg.random_subspace(rng, n, int(rng.integers(1, n))) for _ in range(3)]
            meet = linalg.intersect(spaces)
            x = linalg.project(meet, rng.standard_normal(n))
            chained = x.copy()
            for s in spaces:
                chained = linalg.project(s, chained)
            assert np.linalg.norm(chained - x) <= 1e-9 * max(1.0, np.linalg.norm(x))
            for s in spaces:
                assert np.linalg.norm(linalg.project(s, x) - x) <= 1e-9 * max(1.0, np.linalg.norm(x))

    def test_off_intersection_vector_is_not_fixed(self):
        m1 = line(1.0, 1.0)
        m2 = line(1.0, 0.0)
        x = np.array([1.0, 0.0])  # in m2 but not in the (trivial) intersection
        chained = linalg.project(m2, linalg.project(m1, x))
        assert np.linalg.norm(chained - x) > 0.1


class TestSubspaceFile:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "plane.csv"
        path.write_text("# a plane in R^3\n1,0,0\n1,1,0  # not orthonormal on purpose\n")
        s = linalg.load_subspace(path)
        expected = linalg.orthonormalize([np.eye(3)[:, 0], np.eye(3)[:, 1]])
        assert linalg.subspaces_equal(s, expected)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0\n1,2,3\n")
        with pytest.raises(ValueError, match="expected 2 entries"):
            linalg.load_subspace(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no vectors"):
            linalg.load_subspace(path)
