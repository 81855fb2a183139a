from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altproj import kaczmarz
from altproj.kaczmarz import LinearSystem


def random_sparse_system(rng, rows, cols, density=0.2):
    """Consistent system: draw x*, sparse A, set c = A x*."""
    a = np.zeros((rows, cols))
    for i in range(rows):
        k = max(2, int(round(density * cols)))
        idx = rng.choice(cols, size=k, replace=False)
        a[i, idx] = rng.standard_normal(k)
        if not np.linalg.norm(a[i]):
            a[i, rng.integers(cols)] = 1.0
    x_true = rng.standard_normal(cols)
    return LinearSystem.from_arrays(a, a @ x_true), x_true


def project_onto_row(y, c, z):
    """One sweep over the one-row system <x, y> = c: the projection of z onto it."""
    system = LinearSystem.from_arrays([y], [c])
    return kaczmarz.solve(system, z, max_sweeps=1, tol=np.finfo(float).tiny).x


class TestHyperplaneProject:
    def test_axis_plane(self):
        assert np.allclose(project_onto_row([1.0, 0.0], 2.0, np.array([0.0, 0.0])), [2.0, 0.0])

    def test_point_already_on_plane_is_fixed(self):
        z = np.array([1.0, 2.0])
        assert np.allclose(project_onto_row([1.0, 2.0], 5.0, z), z)

    def test_diagonal_plane_matches_minimizer(self):
        z = np.array([1.0, 0.0])
        projected = project_onto_row([1.0, 1.0], 0.0, z)
        # oracle: minimize ||z - (t, -t)|| over t
        ts = np.linspace(-2, 2, 400_001)
        candidates = np.stack([ts, -ts], axis=1)
        best = candidates[np.argmin(np.linalg.norm(candidates - z, axis=1))]
        assert np.allclose(projected, [0.5, -0.5], atol=1e-12)
        assert np.allclose(projected, best, atol=1e-5)

    def test_result_satisfies_the_equation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            y, c = rng.standard_normal(n) + 0.1, float(rng.standard_normal())
            out = project_onto_row(y, c, rng.standard_normal(n))
            assert abs(out @ y - c) <= 1e-10 * (1.0 + abs(c))

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            y, c = rng.standard_normal(n) + 0.1, float(rng.standard_normal())
            once = project_onto_row(y, c, rng.standard_normal(n))
            twice = project_onto_row(y, c, once)
            assert np.linalg.norm(twice - once) <= 1e-12 * (1.0 + np.linalg.norm(once))

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError, match="all-zero normal"):
            LinearSystem.from_arrays([[0.0, 0.0]], [1.0])


class TestSolve:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-10])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        system = LinearSystem.from_arrays([[1.0, 0.0]], [1.0])
        with pytest.raises(ValueError, match=f"tol must be a finite positive number, got {tol!r}"):
            kaczmarz.solve(system, np.zeros(2), max_sweeps=5, tol=tol)

    def test_orthogonal_normals_finish_in_one_sweep(self):
        system = LinearSystem.from_arrays(np.eye(2), np.array([2.0, 3.0]))
        result = kaczmarz.solve(system, np.zeros(2), max_sweeps=5, tol=1e-12)
        assert result.converged and result.sweeps == 1
        assert np.allclose(result.x, [2.0, 3.0])

    def test_starting_at_a_solution_is_immediate(self):
        system = LinearSystem.from_arrays(np.array([[1.0, 1.0]]), np.array([3.0]))
        result = kaczmarz.solve(system, np.array([1.0, 2.0]), max_sweeps=5, tol=1e-12)
        assert result.converged and result.sweeps == 0
        assert len(result.residual_history) == 1
        assert result.residual_history[0] <= 1e-12

    def test_minimal_norm_solution_matches_pseudoinverse(self):
        rng = np.random.default_rng(20)
        system, _ = random_sparse_system(rng, 20, 30)
        result = kaczmarz.solve(system, np.zeros(30), max_sweeps=50_000, tol=1e-13)
        oracle = np.linalg.pinv(system.matrix()) @ system.rhs()
        assert result.converged
        assert np.linalg.norm(result.x - oracle) < 1e-6

    def test_residual_history_non_increasing(self):
        rng = np.random.default_rng(21)
        system, _ = random_sparse_system(rng, 15, 25)
        result = kaczmarz.solve(system, np.zeros(25), max_sweeps=20_000, tol=1e-12)
        for a, b in zip(result.residual_history, result.residual_history[1:]):
            assert b <= a + 1e-12

    def test_sweeps_are_fejer_monotone(self):
        # distance to any fixed solution never increases across sweeps
        rng = np.random.default_rng(22)
        system, x_true = random_sparse_system(rng, 10, 16)
        x = rng.standard_normal(16)
        previous = np.linalg.norm(x - x_true)
        for _ in range(200):
            x = kaczmarz.solve(system, x, max_sweeps=1, tol=np.finfo(float).tiny).x
            current = np.linalg.norm(x - x_true)
            assert current <= previous + 1e-12
            previous = current

    def test_minimal_norm_solution_orthogonal_to_nullspace(self):
        rng = np.random.default_rng(23)
        system, _ = random_sparse_system(rng, 12, 20)
        result = kaczmarz.solve(system, np.zeros(20), max_sweeps=50_000, tol=1e-13)
        a = system.matrix()
        _, _, vh = np.linalg.svd(a)
        nullspace = vh[np.linalg.matrix_rank(a):]
        assert np.max(np.abs(nullspace @ result.x)) < 1e-8

    def test_inconsistent_system_is_flagged_not_raised(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        c = np.array([0.0, 1.0])  # x1 = 0 and x1 = 1 simultaneously
        result = kaczmarz.solve(LinearSystem.from_arrays(a, c), np.zeros(2),
                                max_sweeps=500, tol=1e-12)
        assert result.suspected_inconsistent
        assert not result.converged


def reference_solve(a, c, x0, max_sweeps, tol):
    """Cyclic Kaczmarz one row at a time, as ``solve`` computed it before the
    Gauss-Seidel form: (x, residual history, sweeps).  Its 50-sweep stall
    rule is left out, since no caller here runs more than 50 sweeps."""
    norms = np.linalg.norm(a, axis=1)

    def violation(x):
        return float(np.max(np.abs(a @ x - c) / norms))

    x = np.array(x0, dtype=float)
    if violation(x) <= tol:
        return x, [violation(x)], 0
    history = []
    for _ in range(max_sweeps):
        for y, ci in zip(a, c):
            x -= y * ((y @ x - ci) / (y @ y))
        history.append(violation(x))
        if history[-1] <= tol:
            break
    return x, history, len(history)


@st.composite
def systems(draw):
    """Dense, sparse, duplicate and dependent rows, as many as 12 in R^1..R^8
    (so tall and rank-deficient systems occur), each row and its right-hand
    side graded by 10^k, |k| <= 8; consistent or not."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((draw(st.integers(1, n)), n))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["dense", "sparse", "duplicate", "combination"]))
        if kind == "duplicate" and rows:
            v = rows[draw(st.integers(0, len(rows) - 1))].copy()
        elif kind == "combination":
            v = rng.standard_normal(base.shape[0]) @ base
        elif kind == "sparse":
            v = rng.standard_normal(n) * (rng.random(n) < 0.4)
            v[rng.integers(n)] = 1.0
        else:
            v = rng.standard_normal(n)
        rows.append(v)
    a = np.array(rows)
    c = a @ rng.standard_normal(n) if draw(st.booleans()) else rng.standard_normal(len(rows))
    grade = 10.0 ** np.array([draw(st.integers(-8, 8)) for _ in rows])
    x0 = rng.standard_normal(n) if draw(st.booleans()) else np.zeros(n)
    return a * grade[:, None], c * grade, x0


class TestGaussSeidelSweep:
    @settings(max_examples=400, deadline=None)
    @given(systems(), st.integers(1, 40), st.sampled_from([1e-6, 1e-8, 1e-10]),
           st.sampled_from([1, 3, kaczmarz._BLOCK_ROWS]))
    def test_matches_the_row_by_row_sweep(self, abx, max_sweeps, tol, block_rows):
        a, c, x0 = abx
        x_ref, history_ref, sweeps_ref = reference_solve(a, c, x0, max_sweeps, tol)
        system = LinearSystem.from_arrays(a, c)
        assert np.array_equal(system.matrix(), a) and np.array_equal(system.rhs(), c)
        with mock.patch.object(kaczmarz, "_BLOCK_ROWS", block_rows):
            result = kaczmarz.solve(system, x0, max_sweeps=max_sweeps, tol=tol)
        assert result.sweeps == sweeps_ref
        # both forms round relative to the largest distance in play: the start,
        # the result, or a hyperplane's distance from the origin.  On an
        # inconsistent system x can end far nearer the origin than that.
        reach = max(np.linalg.norm(x_ref), np.linalg.norm(x0),
                    np.max(np.abs(c) / np.linalg.norm(a, axis=1)))
        assert np.linalg.norm(result.x - x_ref) <= 1e-13 * reach
        assert np.max(np.abs(np.subtract(result.residual_history, history_ref))) <= 1e-13 * reach


def stalls(history, sweeps=50):
    """Whether the violation goes ``sweeps`` sweeps in a row without a new low."""
    best, run = np.inf, 0
    for v in history:
        best, run = (v, 0) if v < best else (best, run + 1)
        if run >= sweeps:
            return True
    return False


class TestStallCertificate:
    def test_consistent_ill_conditioned_systems_are_not_flagged(self):
        # consistent 30x30 systems at cond 1e4: the max violation often goes
        # 50 sweeps without a new low, which alone once flagged them
        rng = np.random.default_rng(41)
        tripped = 0
        for _ in range(20):
            u = np.linalg.qr(rng.standard_normal((30, 30)))[0]
            v = np.linalg.qr(rng.standard_normal((30, 30)))[0]
            a = (u * np.geomspace(1.0, 1e-4, 30)) @ v.T
            system = LinearSystem.from_arrays(a, a @ rng.standard_normal(30))
            result = kaczmarz.solve(system, np.zeros(30), max_sweeps=1000)
            assert not result.suspected_inconsistent
            assert result.sweeps == 1000
            tripped += stalls(result.residual_history)
        assert tripped >= 5


class TestOverflowSafeRows:
    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_huge_row_solves_to_the_true_point(self, big):
        # big (x1 + x2) = 1, x2 = 2: the solution is (1/big - 2, 2)
        system = LinearSystem.from_arrays(np.array([[big, big], [0.0, 1.0]]),
                                          np.array([1.0, 2.0]))
        result = kaczmarz.solve(system, np.zeros(2), max_sweeps=1000)
        assert result.converged
        assert np.allclose(result.x, [-2.0, 2.0], rtol=0, atol=1e-9)
        assert kaczmarz.max_violation(system, np.array([-2.0, 2.0])) <= 1e-15

    def test_rhs_too_large_for_its_row_is_refused(self):
        with pytest.raises(ValueError, match="equation 2: right-hand side .* overflows"):
            LinearSystem.from_arrays(np.array([[1.0, 0.0], [1e-300, 0.0]]),
                                     np.array([1.0, 1e300]))

    def test_all_zero_row_is_refused(self):
        with pytest.raises(ValueError, match="equation 1 has an all-zero normal"):
            LinearSystem.from_arrays(np.zeros((1, 2)), np.array([1.0]))

    def test_start_whose_norm_overflows_is_refused(self):
        system = LinearSystem.from_arrays(np.eye(2), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="x0 is too large"):
            kaczmarz.solve(system, np.array([1.7e308, 1.7e308]), max_sweeps=5)


class TestSystemFiles:
    def test_sparse_round_trip(self, tmp_path):
        path = tmp_path / "system.txt"
        path.write_text("3 2\n1.5 2 0 1.0 2 -2.0\n-4 1 1 3.0\n")
        system = kaczmarz.load_system(path)
        assert system.ambient_dim == 3
        assert np.allclose(system.matrix(), [[1.0, 0.0, -2.0], [0.0, 3.0, 0.0]])
        assert np.allclose(system.rhs(), [1.5, -4.0])

    def test_dense_round_trip(self, tmp_path):
        path = tmp_path / "dense.csv"
        path.write_text("1,0,2\n0,1,3\n")
        system = kaczmarz.load_system(path, dense=True)
        assert system.ambient_dim == 2
        assert np.allclose(system.matrix(), np.eye(2))
        assert np.allclose(system.rhs(), [2.0, 3.0])

    def test_ragged_dense_row_is_located(self, tmp_path):
        path = tmp_path / "dense.csv"
        path.write_text("1,0,2\n# comment\n\n0,1,3,4\n")
        with pytest.raises(ValueError) as exc:
            kaczmarz.load_system(path, dense=True)
        assert str(exc.value) == f"{path}:4: expected 3 entries, got 4"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x y\n")
        with pytest.raises(ValueError, match="header"):
            kaczmarz.load_system(path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n1 1 0 1.0\n")
        with pytest.raises(ValueError, match="promises"):
            kaczmarz.load_system(path)

    def test_column_index_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1.0 1 5 1.0\n")
        with pytest.raises(ValueError, match="outside"):
            kaczmarz.load_system(path)


class TestThirds:
    def test_three_iterations_get_within_eleven_millimetres_per_metre(self):
        positions, bound_ok = kaczmarz.thirds_demo(0.5, 0.3, 0.2, 3)
        assert bound_ok
        left, _ = positions[3]
        assert abs(left - 1.0 / 3.0) < 0.011

    def test_equal_thirds_is_a_fixed_point(self):
        positions, bound_ok = kaczmarz.thirds_demo(1 / 3, 1 / 3, 1 / 3, 6)
        assert bound_ok
        for left, right in positions:
            assert left == pytest.approx(1 / 3, abs=1e-12)
            assert right == pytest.approx(2 / 3, abs=1e-12)

    def test_single_step_matrices(self):
        assert np.allclose(kaczmarz.THIRDS_STEP_A @ np.array([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])
        assert np.allclose(kaczmarz.THIRDS_STEP_B @ np.array([1.0, 0.0, 0.0]), [0.5, 0.5, 0.0])

    def test_envelopes_hold_on_random_inputs(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            x, y, z = rng.uniform(0.05, 1.0, size=3)
            positions, bound_ok = kaczmarz.thirds_demo(x, y, z, 15)
            assert bound_ok
            c = x + y + z
            left, right = positions[-1]
            assert abs(left - c / 3.0) <= (2 * c / 3.0) * 4.0**-15 + 1e-10
            assert abs(right - 2 * c / 3.0) <= (c / 3.0) * 4.0**-14 + 1e-10

    def test_positions_converge_to_thirds(self):
        positions, _ = kaczmarz.thirds_demo(0.9, 0.05, 0.05, 20)
        left, right = positions[-1]
        assert abs(left - 1.0 / 3.0) < 1e-10
        assert abs(right - 2.0 / 3.0) < 1e-10

    def test_non_positive_lengths_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            kaczmarz.thirds_demo(1.0, 0.0, 1.0, 3)
