import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altproj import linalg
from altproj.words import Word


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

    def test_full_space_complement_is_zero(self):
        assert linalg.complement(linalg.Subspace.full(2)).dim == 0

    def test_double_complement_returns_the_subspace(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(0, n + 1))
            s = linalg.random_subspace(rng, n, d)
            assert linalg.subspaces_equal(linalg.complement(linalg.complement(s)), s, tol=1e-10)


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


class TestWordMatrix:
    def test_two_letter_word_on_two_lines(self):
        p1 = linalg.projection_matrix(line(1.0, 1.0))
        p2 = linalg.projection_matrix(line(1.0, 0.0))
        w = Word.from_letters(2, [2, 1])  # written a2 a1: a1 acts first
        out = linalg.word_matrix(w, [p1, p2]) @ np.array([1.0, 0.0])
        assert np.allclose(out, [0.5, 0.0])

    def test_empty_word_is_identity(self):
        p1 = linalg.projection_matrix(line(1.0, 1.0))
        assert np.allclose(linalg.word_matrix(Word.empty(1), [p1]), np.eye(2))

    def test_repeated_projection_letter_is_idempotent(self):
        p1 = linalg.projection_matrix(line(1.0, 1.0))
        w = Word.from_letters(1, [1, 1])
        assert np.allclose(linalg.word_matrix(w, [p1]), p1, atol=1e-12)

    def test_letter_out_of_range_rejected(self):
        p1 = linalg.projection_matrix(line(1.0, 1.0))
        with pytest.raises(ValueError, match="letters"):
            linalg.word_matrix(Word.from_letters(2, [2]), [p1])


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
