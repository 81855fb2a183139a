"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criteria 12 and 13 exercise the glued non-convergence construction at
the stated budgets eps = (1/32, 1/64): k = 39 and 79 rotation stages, sum r =
1.2e116 and 3.2e283, exponents s of up to 5173 and 22781 digits.  The
construction evaluates them exactly at 974 bits, in about 11 s each on a
2-core x86-64 VM (see the notes on the divergence module).
"""

import contextlib
import json
import math
import subprocess
import sys
import time

import numpy as np
from test_analysis import grid_sup_oracle

from altproj import analysis, divergence, iteration, kaczmarz, linalg
from altproj.iteration import RunConfig
from altproj.schedules import Schedule


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {title}: PASS")


def timed_under(budget_s, started):
    elapsed = time.monotonic() - started
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeded the {budget_s}s budget"


def test_01_projection_algebra_property_suite():
    started = time.monotonic()
    with criterion(1, "projection algebra (1000 seeded cases, dims 2-12)"):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(0, n + 1))
            s = linalg.random_subspace(rng, n, d)
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            px = linalg.project(s, x)
            scale = max(1.0, float(np.linalg.norm(x)))
            # idempotence
            assert np.linalg.norm(linalg.project(s, px) - px) <= 1e-10 * scale
            # self-adjointness
            assert abs(px @ y - x @ linalg.project(s, y)) <= 1e-10 * scale * max(1.0, np.linalg.norm(y))
            # norm splitting
            lhs = np.linalg.norm(x - px) ** 2
            assert abs(lhs - (np.linalg.norm(x) ** 2 - np.linalg.norm(px) ** 2)) <= 1e-9 * max(1.0, lhs)
            # contraction
            assert np.linalg.norm(px) <= np.linalg.norm(x) + 1e-12
            # closest point
            if s.dim:
                inside = linalg.project(s, y)
                assert np.linalg.norm(x - px) <= np.linalg.norm(x - inside) + 1e-10
            # orthogonal additivity
            pool = linalg.complement(s)
            d2 = int(rng.integers(0, pool.dim + 1))
            v = linalg.Subspace(n, pool.basis[:, :d2])
            lhs_m = linalg.projection_matrix(s) + linalg.projection_matrix(v)
            rhs_m = linalg.projection_matrix(linalg.subspace_sum(s, v))
            assert np.max(np.abs(lhs_m - rhs_m)) <= 1e-10
            # chained fixed points agree with the intersection
            other = linalg.random_subspace(rng, n, int(rng.integers(0, n + 1)))
            meet = linalg.intersect([s, other])
            z = linalg.project(meet, x)
            zscale = max(1.0, float(np.linalg.norm(z)))
            chained = linalg.project(other, linalg.project(s, z))
            assert np.linalg.norm(chained - z) <= 1e-9 * zscale
            assert np.linalg.norm(linalg.project(s, z) - z) <= 1e-9 * zscale
            assert np.linalg.norm(linalg.project(other, z) - z) <= 1e-9 * zscale
            # double complement
            assert linalg.subspaces_equal(linalg.complement(linalg.complement(s)), s, tol=1e-10)
        timed_under(10.0, started)


def test_02_two_subspace_convergence():
    started = time.monotonic()
    with criterion(2, "two-subspace alternation in R^8 (100 seeded pairs)"):
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            s1 = linalg.random_subspace(rng, 8, d1)
            s2 = linalg.random_subspace(rng, 8, d2)
            x0 = rng.standard_normal(8)
            trace = iteration.run([s1, s2], Schedule.periodic([1, 2]), x0,
                                  RunConfig(max_steps=10_000, stop_tol=1e-9, window_len=3))
            assert trace.residuals[-1] < 1e-8, f"seed {seed}: residual {trace.residuals[-1]:.3e}"
        timed_under(30.0, started)


def three_subspace_instances(count=20):
    for seed in range(count):
        rng = np.random.default_rng(2000 + seed)
        spaces = [linalg.random_subspace(rng, 10, int(rng.integers(1, 8))) for _ in range(3)]
        x0 = rng.standard_normal(10)
        yield seed, spaces, x0


def test_03_periodic_three_subspace_convergence():
    started = time.monotonic()
    with criterion(3, "periodic J=3 in R^10 + cycle gaps"):
        for seed, spaces, x0 in three_subspace_instances():
            trace = iteration.run(spaces, Schedule.periodic([1, 2, 3]), x0,
                                  RunConfig(max_steps=100_000, stop_tol=1e-9))
            assert trace.residuals[-1] < 1e-6, f"seed {seed}"
            gaps = iteration.kakutani_gaps(spaces, x0, 3000)
            assert min(gaps) < 1e-10, f"seed {seed}: min gap {min(gaps):.3e}"
        timed_under(30.0, started)


def test_04_quasiperiodic_ruler_convergence_and_constant():
    started = time.monotonic()
    with criterion(4, "capped-ruler convergence + increment-sum constant"):
        ruler = Schedule.ruler(3)
        from altproj.schedules import quasiperiod_bound
        bound_i = quasiperiod_bound(ruler)
        assert bound_i == 4.0
        limit = (bound_i - 1) * (bound_i - 2) + 3  # = 9
        for seed, spaces, x0 in three_subspace_instances():
            trace = iteration.run(spaces, ruler, x0, RunConfig(max_steps=100_000, stop_tol=1e-9))
            assert trace.residuals[-1] < 1e-6, f"seed {seed}"
            stored = iteration.run(spaces, ruler, x0,
                                   RunConfig(max_steps=1500, stop_tol=1e-300),
                                   store_iterates=True)
            constant = iteration.sakai_constant(stored)
            assert constant <= limit, f"seed {seed}: constant {constant:.3f} > {limit}"
        # monotone chains satisfy the inequality with constant 1
        rng = np.random.default_rng(404)
        for _ in range(10):
            frame = linalg.random_subspace(rng, 4, 4).basis
            chain = [linalg.Subspace(4, frame[:, :3]), linalg.Subspace(4, frame[:, :2]),
                     linalg.Subspace(4, frame[:, :1])]
            trace = iteration.run(chain, Schedule.explicit([1, 2, 3]), rng.standard_normal(4),
                                  RunConfig(max_steps=3), store_iterates=True)
            assert iteration.sakai_constant(trace) <= 1.0 + 1e-9
        timed_under(60.0, started)


def test_05_two_line_reproduction():
    with criterion(5, "two-line alternation from (1,2) reaches the origin"):
        m1 = linalg.orthonormalize([np.array([1.0, 1.0])])
        m2 = linalg.orthonormalize([np.array([1.0, 0.0])])
        trace = iteration.run([m1, m2], Schedule.periodic([1, 2]), np.array([1.0, 2.0]),
                              RunConfig(max_steps=100, stop_tol=1e-14))
        assert trace.steps <= 100
        assert float(np.linalg.norm(trace.final_iterate)) < 1e-10


def test_06_string_thirds():
    with criterion(6, "string thirds: 3 iterations, envelopes to n=15"):
        positions, bound_ok = kaczmarz.thirds_demo(0.5, 0.3, 0.2, 15)
        assert bound_ok
        left3, _ = positions[3]
        assert abs(left3 - 1.0 / 3.0) < 0.011
        for k, (left, right) in enumerate(positions):
            assert abs(left - 1.0 / 3.0) <= (2.0 / 3.0) * 4.0 ** (-k) + 1e-12
            assert abs(right - 2.0 / 3.0) <= (1.0 / 3.0) * 4.0 ** (1 - k) + 1e-12


def test_07_kaczmarz_minimal_norm():
    started = time.monotonic()
    with criterion(7, "Kaczmarz 20x30 sparse system vs pseudoinverse"):
        rng = np.random.default_rng(707)
        a = np.zeros((20, 30))
        for i in range(20):
            idx = rng.choice(30, size=6, replace=False)
            a[i, idx] = rng.standard_normal(6)
        x_true = rng.standard_normal(30)
        system = kaczmarz.LinearSystem.from_arrays(a, a @ x_true)
        result = kaczmarz.solve(system, np.zeros(30), max_sweeps=100_000, tol=1e-13)
        oracle = np.linalg.pinv(a) @ (a @ x_true)
        assert result.converged
        assert np.linalg.norm(result.x - oracle) < 1e-6
        for r1, r2 in zip(result.residual_history, result.residual_history[1:]):
            assert r2 <= r1 + 1e-12
        timed_under(5.0, started)


def test_08_rate_identity_and_angle_oracle():
    with criterion(8, "uniform rate identity + brute-force angle oracle"):
        for seed in range(50):
            rng = np.random.default_rng(808 + seed)
            s1 = linalg.random_subspace(rng, 8, int(rng.integers(1, 8)))
            s2 = linalg.random_subspace(rng, 8, int(rng.integers(1, 8)))
            curve = analysis.rate_curve(s1, s2, 8)
            assert max(curve.abs_errors) < 1e-8, f"seed {seed}"
        rng = np.random.default_rng(818)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            s1 = linalg.random_subspace(rng, n, int(rng.integers(1, n)))
            s2 = linalg.random_subspace(rng, n, int(rng.integers(1, n)))
            got = analysis.friedrichs_cosine(s1, s2)
            assert abs(got - grid_sup_oracle(s1, s2)) < 1e-4


def test_09_quarter_circle_budgets():
    started = time.monotonic()
    with criterion(9, "rotation chain at eps = 0.5 and 0.3"):
        for eps in (0.5, 0.3):
            k = divergence.k_of_eps(eps)
            n = k + 2
            x = linalg.Subspace.full(n)
            u, v = np.eye(n)[:, 0], np.eye(n)[:, 1]
            result = divergence.quarter_circle(x, u, v, eps)
            assert result.achieved_error < 2.0 * eps
            p_w = linalg.projection_matrix(linalg.orthonormalize([u, v]))
            for j, (space, r) in enumerate(zip(result.chain, result.r), start=1):
                p = linalg.projection_matrix(space)
                line = np.outer(result.h[j], result.h[j])
                power = np.linalg.matrix_power(p @ p_w @ p, r)
                assert linalg.operator_norm(power - line) < eps / k, f"eps {eps}, stage {j}"
        timed_under(60.0, started)


def test_10_replace_projection_inequalities():
    with criterion(10, "chain replacement: posted inequalities + exact ladder"):
        e = linalg.Subspace.full(8)
        x = linalg.Subspace(8, np.eye(8)[:, :4])
        chain = [linalg.Subspace(8, np.eye(8)[:, :2]), linalg.Subspace(8, np.eye(8)[:, :3])]
        y, s, betas = divergence.replace_projection(chain, x, e, eps=0.1, eta=0.5, a=1)
        assert s[-1] == 149
        p_x, p_y = linalg.projection_matrix(x), linalg.projection_matrix(y)
        assert linalg.operator_norm(p_x - p_y) < 0.5
        assert linalg.intersect([x, y], tol=1e-12).dim == 0
        sandwich = p_x @ p_y @ p_x
        for s_j, x_j in zip(s, chain):
            power = np.linalg.matrix_power(sandwich, s_j)
            assert linalg.operator_norm(power - linalg.projection_matrix(x_j)) < 0.1


def test_11_triple_error_budget():
    with criterion(11, "three-subspace word at eps = 0.5, eta = 0.25"):
        e = linalg.Subspace.full(10)
        x = linalg.Subspace(10, np.eye(10)[:, :5])
        result = divergence.build_triple(e, x, np.eye(10)[:, 0], np.eye(10)[:, 1],
                                         eps=0.5, eta=0.25, s_cap=10**13)
        assert result.achieved_error < 1.5
        assert result.eta_achieved < 0.25
        assert linalg.intersect([result.X, result.Y], tol=1e-12).dim == 0


def test_12_glued_non_cauchy_window(stated_build):
    # the clock starts where the session's one build started
    started = time.monotonic() - stated_build.seconds
    with criterion(12, "glued construction K=2, eps = (1/32, 1/64)"):
        # stated budgets: exponents up to 22781 digits, evaluated exactly at
        # 974 bits (see notes in the divergence module); measured distances
        # 0.032 and 0.047, norms 0.968 and 0.953, gap 1.36
        construction = stated_build.construction
        budgets = np.cumsum(4.0 * np.asarray(construction.epsilons))
        for state, target, budget in zip(construction.checkpoint_states,
                                         construction.e[1:], budgets):
            assert np.linalg.norm(state - target) < budget
        assert construction.non_cauchy_gap > 1.0
        for state in construction.checkpoint_states:
            assert np.linalg.norm(state) >= 0.75
        timed_under(600.0, started)


def test_13_increment_sum_constant_blowup(stated_build):
    with criterion(13, "empirical increment-sum constant exceeds J - 1 = 2"):
        assert divergence.sakai_blowup(stated_build.construction) > 2.0


def test_14_cli_determinism(tmp_path):
    with criterion(14, "byte-identical CLI outputs"):
        (tmp_path / "m1.csv").write_text("1,1\n")
        (tmp_path / "m2.csv").write_text("1,0\n")
        out = tmp_path / "trace.csv"

        def invoke():
            proc = subprocess.run(
                [sys.executable, "-m", "altproj.cli", "--seed", "3", "run",
                 "--spaces", str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv"),
                 "--schedule", "periodic:1,2", "--x0", "1,2", "--out", str(out)],
                capture_output=True, text=True, check=False)
            assert proc.returncode == 0
            return proc.stdout, out.read_bytes()

        first, second = invoke(), invoke()
        assert first[0] == second[0]
        assert first[1] == second[1]
        json.loads(first[0])  # stdout carries a valid JSON report
