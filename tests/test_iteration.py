import numpy as np
import pytest

from altproj import iteration, linalg
from altproj.iteration import RunConfig
from altproj.schedules import Schedule


def line(*coords):
    return linalg.orthonormalize([np.array(coords, dtype=float)])


def two_lines():
    return [line(1.0, 1.0), line(1.0, 0.0)]


def coordinate_subspace(n, dims):
    return linalg.Subspace(n, np.eye(n)[:, dims])


class TestRun:
    def test_two_line_alternation_reaches_the_origin(self):
        trace = iteration.run(two_lines(), Schedule.periodic([1, 2]), np.array([1.0, 2.0]))
        assert trace.converged
        assert np.linalg.norm(trace.final_iterate) < 1e-9
        # residuals decay geometrically: each full cycle halves the distance
        res = [r for r in trace.residuals[2::2] if r > 1e-12]
        ratios = [b / a for a, b in zip(res, res[1:]) if a > 1e-11]
        assert all(abs(r - 0.5) < 1e-6 for r in ratios)

    def test_single_subspace_fixes_after_one_step(self):
        s = line(2.0, 1.0, 0.0)
        x0 = np.array([1.0, 2.0, 3.0])
        trace = iteration.run([s], Schedule.periodic([1]), x0,
                              RunConfig(max_steps=50), store_iterates=True)
        first = trace.stored_iterates[1]
        assert np.allclose(first, linalg.project(s, x0))
        for later in trace.stored_iterates[2:]:
            assert np.array_equal(later, first)
        assert all(inc == 0.0 for inc in trace.increments[1:])

    def test_start_inside_the_intersection_never_moves(self):
        spaces = [coordinate_subspace(4, [0, 1, 2]), coordinate_subspace(4, [0, 1])]
        meet = linalg.intersect(spaces)
        x0 = linalg.project(meet, np.array([1.0, -2.0, 3.0, 4.0]))
        trace = iteration.run(spaces, Schedule.periodic([1, 2]), x0, RunConfig(max_steps=20))
        assert all(inc <= 1e-13 for inc in trace.increments)
        assert np.allclose(trace.final_iterate, x0, atol=1e-12)

    def test_explicit_schedule_exhaustion_truncates(self):
        trace = iteration.run(two_lines(), Schedule.explicit([1, 2, 1]),
                              np.array([1.0, 2.0]), RunConfig(max_steps=10))
        assert trace.schedule_exhausted
        assert trace.steps == 3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            iteration.run(two_lines(), Schedule.periodic([1, 2]), np.array([1.0, 2.0, 3.0]))

    def test_start_whose_norm_overflows_is_rejected(self):
        # every norm the trace records would be inf, and the snap rule would
        # freeze the iterate at its start
        for x0 in ([1e308, 1e308], [1e200, 0.0]):
            with pytest.raises(ValueError, match="x0 is too large"):
                iteration.run(two_lines(), Schedule.periodic([1, 2]), np.array(x0))

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError, match="alphabet"):
            iteration.run(two_lines(), Schedule.periodic([1, 2, 3]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-10])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # a NaN tolerance would pass a "<= 0" check and no step could ever stop
        with pytest.raises(ValueError, match=f"stop_tol must be a finite positive number, got {tol!r}"):
            RunConfig(stop_tol=tol)


class TestTraceInvariants:
    def seeded_traces(self, count=25, seed=17):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(2, 9))
            J = int(rng.integers(1, 5))
            spaces = [linalg.random_subspace(rng, n, int(rng.integers(1, n + 1))) for _ in range(J)]
            pattern = [int(rng.integers(1, J + 1)) for _ in range(int(rng.integers(1, 2 * J + 1)))]
            x0 = rng.standard_normal(n)
            yield iteration.run(spaces, Schedule.periodic(pattern, J=J), x0,
                                RunConfig(max_steps=400, stop_tol=1e-12))

    def test_norms_never_increase(self):
        for trace in self.seeded_traces():
            for a, b in zip(trace.iterate_norms, trace.iterate_norms[1:]):
                assert b <= a + 1e-12

    def test_increment_identity(self):
        # each step satisfies ||x_k||^2 - ||x_{k+1}||^2 = ||x_{k+1} - x_k||^2
        for trace in self.seeded_traces(seed=19):
            for k, inc in enumerate(trace.increments):
                lhs = inc**2
                rhs = trace.iterate_norms[k] ** 2 - trace.iterate_norms[k + 1] ** 2
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)


class TestReferenceLimit:
    def test_two_line_limit_is_origin(self):
        assert np.allclose(iteration.reference_limit(two_lines(), np.array([1.0, 2.0])), [0.0, 0.0])

    def test_string_thirds_spaces_average(self):
        # ranges of the two fold-and-slide projections meet along the diagonal
        m1 = linalg.orthonormalize([np.eye(3)[:, 0], np.array([0.0, 1.0, 1.0])])
        m2 = linalg.orthonormalize([np.array([1.0, 1.0, 0.0]), np.eye(3)[:, 2]])
        x0 = np.array([0.2, 0.5, 0.9])
        expected = np.full(3, x0.sum() / 3.0)
        assert np.allclose(iteration.reference_limit([m1, m2], x0), expected, atol=1e-12)

    def test_single_subspace(self):
        s = line(1.0, 1.0)
        x0 = np.array([1.0, 0.0])
        assert np.allclose(iteration.reference_limit([s], x0), linalg.project(s, x0))


class TestKakutaniGaps:
    def test_two_line_gaps_halve(self):
        gaps = iteration.kakutani_gaps(two_lines(), np.array([1.0, 0.0]), 3)
        assert gaps[0] == pytest.approx(0.5, abs=1e-12)
        for a, b in zip(gaps[1:], gaps[2:]):
            assert b / a == pytest.approx(0.5, abs=1e-9)

    def test_start_in_intersection_gives_zero_gaps(self):
        spaces = [coordinate_subspace(3, [0, 1]), coordinate_subspace(3, [0])]
        x0 = np.array([2.0, 0.0, 0.0])
        assert iteration.kakutani_gaps(spaces, x0, 4) == pytest.approx([0.0] * 5, abs=1e-13)

    def test_single_subspace_gap_vanishes_after_first(self):
        gaps = iteration.kakutani_gaps([line(1.0, 2.0)], np.array([1.0, 0.0]), 3)
        assert gaps[0] > 0.0
        assert gaps[1:] == pytest.approx([0.0] * 3, abs=1e-13)

    def test_zero_and_full_subspaces_are_exact(self):
        for n in range(1, 7):
            x0 = -np.arange(1.0, n + 1.0)
            zero, full = linalg.Subspace.zero(n), linalg.Subspace.full(n)
            assert iteration.kakutani_gaps([full, zero], x0, 2) == [float(np.linalg.norm(x0)), 0.0, 0.0]
            assert iteration.kakutani_gaps([full], x0, 2) == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("spaces, cause", [
        ([line(1.0, 0.0), line(1.0, 0.0, 0.0)], "subspaces live in different ambient dimensions"),
        ([], "need at least one subspace"),
    ])
    def test_refuses_spaces_as_run_does(self, spaces, cause):
        # numpy's matmul once named a core-dimension mismatch instead
        with pytest.raises(ValueError) as gaps:
            iteration.kakutani_gaps(spaces, np.array([1.0, 0.0]), 3)
        with pytest.raises(ValueError) as run:
            iteration.run(spaces, Schedule.periodic([1, 2]), np.array([1.0, 0.0]))
        assert str(gaps.value) == str(run.value) == cause

    def test_start_whose_norm_overflows_is_rejected(self):
        # every gap would be inf: ||x0 - T x0|| squares entries near 1e200
        with pytest.raises(ValueError, match="x0 is too large"):
            iteration.kakutani_gaps(two_lines(), np.array([1e200, 0.0]), 3)


class TestSakaiConstant:
    def test_requires_stored_iterates(self):
        trace = iteration.run(two_lines(), Schedule.periodic([1, 2]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="store_iterates"):
            iteration.sakai_constant(trace)

    def test_decreasing_chain_is_at_most_one(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            q = linalg.random_subspace(rng, 4, 4).basis  # random orthogonal frame
            chain = [linalg.Subspace(4, q[:, :3]), linalg.Subspace(4, q[:, :2]),
                     linalg.Subspace(4, q[:, :1])]
            x0 = rng.standard_normal(4)
            trace = iteration.run(chain, Schedule.explicit([1, 2, 3]), x0,
                                  RunConfig(max_steps=3), store_iterates=True)
            assert iteration.sakai_constant(trace) <= 1.0 + 1e-9

    def test_single_subspace_has_zero_constant(self):
        trace = iteration.run([line(1.0, 1.0)], Schedule.periodic([1]), np.array([1.0, 0.0]),
                              RunConfig(max_steps=30), store_iterates=True)
        assert iteration.sakai_constant(trace) == 0.0

    def test_ruler_schedule_obeys_quasiperiodic_bound(self):
        # bound (I-1)(I-2)+3 = 9 for the capped ruler over three subspaces (I = 4)
        rng = np.random.default_rng(31)
        spaces = [linalg.random_subspace(rng, 6, int(d)) for d in (2, 3, 4)]
        x0 = rng.standard_normal(6)
        trace = iteration.run(spaces, Schedule.ruler(3), x0,
                              RunConfig(max_steps=600, stop_tol=1e-13), store_iterates=True)
        constant = iteration.sakai_constant(trace)
        assert constant <= 9.0


class TestConvergenceProperties:
    def test_random_schedules_converge_in_finite_dimension(self):
        rng = np.random.default_rng(37)
        for _ in range(8):
            n = int(rng.integers(2, 13))
            J = int(rng.integers(2, 5))
            spaces = [linalg.random_subspace(rng, n, int(rng.integers(1, n))) for _ in range(J)]
            seq = [int(rng.integers(1, J + 1)) for _ in range(100_000)]
            trace = iteration.run(spaces, Schedule.explicit(seq, J=J), rng.standard_normal(n),
                                  RunConfig(max_steps=100_000, stop_tol=1e-8, window_len=5),
                                  reference=None)
            assert trace.converged, "increments failed to fall below 1e-8 within 1e5 steps"

    def test_periodic_and_ruler_reach_the_reference_limit(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            n = 8
            spaces = [linalg.random_subspace(rng, n, int(rng.integers(1, 5))) for _ in range(3)]
            x0 = rng.standard_normal(n)
            for schedule in (Schedule.periodic([1, 2, 3]), Schedule.ruler(3)):
                trace = iteration.run(spaces, schedule, x0,
                                      RunConfig(max_steps=50_000, stop_tol=1e-9))
                assert trace.residuals[-1] < 1e-6

    def test_two_subspace_runs_match_the_reference(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            spaces = [linalg.random_subspace(rng, 8, int(rng.integers(1, 4))) for _ in range(2)]
            x0 = rng.standard_normal(8)
            trace = iteration.run(spaces, Schedule.periodic([1, 2]), x0,
                                  RunConfig(max_steps=10_000, stop_tol=1e-10))
            assert trace.residuals[-1] < 1e-8
