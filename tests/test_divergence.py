import hashlib
import math
import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from conftest import relaxed_construction, word_matrix

from altproj import divergence, iteration, linalg
from altproj.divergence import (
    BudgetExceeded,
    ExponentCapExceeded,
    GluedConstruction,
    build_triple,
    glue,
    k_of_eps,
    quarter_circle,
    replace_projection,
    sakai_blowup,
)
from altproj.iteration import RunConfig
from altproj.schedules import Schedule
from altproj.words import Word


def coordinate_subspace(n, count, start=0):
    return linalg.Subspace(n, np.eye(n)[:, start:start + count])


class TestKOfEps:
    def test_one_half_needs_three_steps(self):
        # cos(pi/4)^2 = 1/2 exactly, so k = 2 must fail the strict inequality
        assert math.cos(math.pi / 6) ** 3 > 0.5
        assert k_of_eps(0.5) == 3

    def test_full_budget_needs_two_steps(self):
        # cos(pi/2) = 0 exactly, so k = 1 must fail
        assert k_of_eps(1.0) == 2

    def test_one_fifth_needs_six_steps(self):
        assert math.cos(math.pi / 10) ** 5 <= 0.8
        assert math.cos(math.pi / 12) ** 6 > 0.8
        assert k_of_eps(0.2) == 6

    def test_matches_direct_scan(self):
        for eps in (0.9, 0.7, 0.45, 0.31, 0.12, 0.05):
            k = k_of_eps(eps)
            assert math.cos(math.pi / (2 * k)) ** k > 1 - eps
            if k > 1:
                assert not math.cos(math.pi / (2 * (k - 1))) ** (k - 1) > 1 - eps + 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            k_of_eps(0.0)

    def test_matches_the_mpmath_least_k(self):
        # least k by a 256-bit mpmath bisection; at 1e-6 float64 cos(pi/2k)^k
        # cannot tell consecutive k apart, and a scan stopped at 1,233,655
        pins = {0.45: 3, 2.0**-5: 39, 2.0**-6: 79, 2.0**-7: 158, 2.0**-8: 316, 2.0**-9: 632,
                2.0**-10: 1263, 1e-4: 12337, 1e-6: 1233700}
        assert {eps: k_of_eps(eps) for eps in pins} == pins

    def test_tiny_budgets_give_the_exact_least_k(self):
        # in a child with a time limit: a scan with an absolute guard of 1e-12
        # never ends below eps = 1e-12, and takes minutes at 1e-9
        tiny = [1e-9, 1e-13, 2.0**-40, 1e-100, 5e-324]
        proc = subprocess.run(
            [sys.executable, "-c", "from altproj.divergence import k_of_eps; "
             f"print(*(k_of_eps(e) for e in {tiny!r}))"],
            capture_output=True, text=True, check=True, timeout=20)
        ks = [int(token) for token in proc.stdout.split()]
        assert ks[:2] == [1233700550, 12337005501362]
        for eps, k in zip(tiny, ks):
            mp = mpmath.MPContext()
            mp.prec = 3 * k.bit_length() + 64

            def above(j):
                return j * mp.log(mp.cos(mp.pi / (2 * j))) > mp.log1p(-mp.mpf(eps))
            assert above(k) and not above(k - 1), eps


@pytest.fixture(scope="module")
def half():
    x = linalg.Subspace.full(5)
    return quarter_circle(x, np.eye(5)[:, 0], np.eye(5)[:, 1], 0.5)


class TestQuarterCircle:

    def test_error_below_twice_eps(self, half):
        assert half.achieved_error < 1.0

    def test_intermediate_sandwich_bounds(self, half):
        # each powered sandwich approximates its line projection within eps/k
        p_w = linalg.projection_matrix(linalg.orthonormalize([np.eye(5)[:, 0], np.eye(5)[:, 1]]))
        for j, (space, r) in enumerate(zip(half.chain, half.r), start=1):
            p = linalg.projection_matrix(space)
            line = np.outer(half.h[j], half.h[j])
            power = np.linalg.matrix_power(p @ p_w @ p, r)
            assert linalg.operator_norm(power - line) < 0.5 / half.k

    def test_top_power_is_minimal(self, half):
        # r is searched on the pre-perturbation spaces; only the chain's top
        # member carries no perturbation, so minimality is observable there
        k, r = half.k, half.r[-1]
        assert r > 1
        p_w = linalg.projection_matrix(linalg.orthonormalize([np.eye(5)[:, 0], np.eye(5)[:, 1]]))
        p = linalg.projection_matrix(half.chain[-1])
        line = np.outer(half.h[k], half.h[k])
        below = np.linalg.matrix_power(p @ p_w @ p, r - 1)
        assert linalg.operator_norm(below - line) >= 0.5 / k

    def test_consecutive_line_projections_land_near_target(self, half):
        x = np.eye(5)[:, 0]
        for j in range(1, half.k + 1):
            x = np.outer(half.h[j], half.h[j]) @ x
        assert np.linalg.norm(x - np.eye(5)[:, 1]) < 0.5

    def test_h_vectors_make_equal_angles(self, half):
        expected = math.cos(math.pi / (2 * half.k))
        for a, b in zip(half.h, half.h[1:]):
            assert a @ b == pytest.approx(expected, abs=1e-12)

    def test_chain_is_nested_with_growing_dimensions(self, half):
        for j, space in enumerate(half.chain, start=1):
            assert space.dim == j + 1
        for inner, outer in zip(half.chain, half.chain[1:]):
            assert linalg.contains(outer, inner, tol=1e-10)

    def test_alphas_strictly_decrease_to_zero(self, half):
        assert half.alphas[0] == 0.5
        for a, b in zip(half.alphas, half.alphas[1:]):
            assert b < a
        assert half.alphas[-1] == 0.0

    def test_word_shape(self, half):
        assert half.phi.alphabet == half.k + 1
        assert half.phi.length == 3 * sum(half.r)
        assert half.phi.letter_count(1) == sum(half.r)

    def test_word_matches_direct_evaluation(self, half):
        # the dense word matrix reproduces the exactly evaluated error
        p_w = linalg.projection_matrix(linalg.orthonormalize([np.eye(5)[:, 0], np.eye(5)[:, 1]]))
        mats = [p_w] + [linalg.projection_matrix(s) for s in half.chain]
        out = word_matrix(half.phi, mats) @ np.eye(5)[:, 0]
        assert np.linalg.norm(out - np.eye(5)[:, 1]) == pytest.approx(half.achieved_error, abs=1e-9)

    def test_second_budget_also_builds(self):
        x = linalg.Subspace.full(6)
        res = quarter_circle(x, np.eye(6)[:, 0], np.eye(6)[:, 1], 0.3)
        assert res.k == 4
        assert res.achieved_error < 0.6

    def test_small_subspace_rejected(self):
        x = linalg.Subspace.full(3)
        with pytest.raises(ValueError, match="too small"):
            quarter_circle(x, np.eye(3)[:, 0], np.eye(3)[:, 1], 0.5)

    @pytest.mark.parametrize("u, v, cause", [
        (2 * np.eye(6)[0], np.eye(6)[1], "u must be a unit vector"),
        (np.eye(6)[0], np.eye(6)[1] / 2, "v must be a unit vector"),
        (np.eye(6)[5], np.eye(6)[1], "u must lie in the given subspace"),
        (np.eye(6)[0], np.eye(6)[5], "v must lie in the given subspace"),
        (np.eye(6)[0], np.sqrt(0.5) * (np.eye(6)[0] + np.eye(6)[1]), "u and v must be orthogonal"),
    ])
    def test_endpoints_must_be_orthonormal_in_the_subspace(self, u, v, cause):
        with pytest.raises(ValueError) as info:
            quarter_circle(coordinate_subspace(6, 5), u, v, 0.5)
        assert str(info.value) == cause

    def test_cap_trips_for_tiny_eps(self):
        # stage 3 needs r = 49839393; exponents are uncapped unless asked
        x = linalg.Subspace.full(45)
        with pytest.raises(ExponentCapExceeded) as info:
            quarter_circle(x, np.eye(45)[:, 0], np.eye(45)[:, 1], 1 / 32, r_cap=10**6)
        assert info.value.stage == 3
        assert info.value.required == 49839393


class TestReplaceProjection:
    def test_reference_ladder(self):
        # chain dims 2 c 3 inside X of dimension 4, enclosing space R^8
        e = linalg.Subspace.full(8)
        x = coordinate_subspace(8, 4)
        chain = [coordinate_subspace(8, 2), coordinate_subspace(8, 3)]
        y, s, betas = replace_projection(chain, x, e, eps=0.1, eta=0.5, a=1)
        assert s[-1] == 149                      # smallest s with 1.015625^-s < 0.1
        assert s == sorted(s, reverse=True)
        assert betas[-1] == 0.125                # eta / 4
        assert betas == sorted(betas)

    def test_posted_inequalities(self):
        e = linalg.Subspace.full(8)
        x = coordinate_subspace(8, 4)
        chain = [coordinate_subspace(8, 2), coordinate_subspace(8, 3)]
        y, s, betas = replace_projection(chain, x, e, eps=0.1, eta=0.5, a=1)
        p_x = linalg.projection_matrix(x)
        p_y = linalg.projection_matrix(y)
        assert linalg.operator_norm(p_x - p_y) < 0.5
        assert linalg.intersect([x, y], tol=1e-12).dim == 0
        sandwich = p_x @ p_y @ p_x
        for s_j, x_j in zip(s, chain):
            power = np.linalg.matrix_power(sandwich, s_j)
            assert linalg.operator_norm(power - linalg.projection_matrix(x_j)) < 0.1

    @pytest.mark.parametrize("rotated", [False, True], ids=["prefix", "rotated"])
    def test_diagonal_action(self, rotated):
        # the rotated X_1 = span{e1 + e2, e3} is no column prefix of X_2's basis
        e = linalg.Subspace.full(8)
        x = coordinate_subspace(8, 4)
        ident = np.eye(8)
        tiers = [ident[:, 0], ident[:, 1], ident[:, 2], ident[:, 3]]
        if rotated:
            tiers[:3] = [(ident[:, 0] + ident[:, 1]) / np.sqrt(2.0), ident[:, 2],
                         (ident[:, 0] - ident[:, 1]) / np.sqrt(2.0)]
        chain = [linalg.Subspace(8, np.column_stack(tiers[:2])), coordinate_subspace(8, 3)]
        y, s, betas = replace_projection(chain, x, e, eps=0.1, eta=0.5, a=1)
        p = linalg.projection_matrix(x) @ linalg.projection_matrix(y) @ linalg.projection_matrix(x)
        gammas = [betas[0], betas[0], betas[1], betas[2]]
        for v, gamma in zip(tiers, gammas):
            assert np.linalg.norm(p @ v - v / (1.0 + gamma**2)) <= 1e-10

    def test_degenerate_chain_is_near_identity_on_x(self):
        e = linalg.Subspace.full(6)
        x = coordinate_subspace(6, 3)
        y, s, betas = replace_projection([x], x, e, eps=0.05, eta=0.5, a=1)
        p_x = linalg.projection_matrix(x)
        p_y = linalg.projection_matrix(y)
        power = np.linalg.matrix_power(p_x @ p_y @ p_x, s[0])
        assert linalg.operator_norm(power - p_x) < 0.05

    def test_exponents_exceed_a(self):
        e = linalg.Subspace.full(8)
        x = coordinate_subspace(8, 4)
        chain = [coordinate_subspace(8, 2)]
        _, s, _ = replace_projection(chain, x, e, eps=0.2, eta=0.9, a=37)
        assert s[-1] > 37

    def test_insufficient_room_rejected(self):
        e = coordinate_subspace(8, 6)
        x = coordinate_subspace(8, 4)
        with pytest.raises(ValueError, match="dim"):
            replace_projection([coordinate_subspace(8, 2)], x, e, eps=0.1, eta=0.5, a=1)

    @pytest.mark.parametrize("change, cause", [
        ({"eps": 0.0}, "eps and eta must be positive"),
        ({"eta": -0.5}, "eps and eta must be positive"),
        ({"eps": 1.0}, "eps must lie below 1: every inequality holds trivially beyond"),
        ({"a": 0}, "a must be >= 1"),
        ({"chain": []}, "chain must be non-empty"),
        ({"chain": [coordinate_subspace(8, 2, start=4)]},
         "chain members must be nested inside the top subspace"),
        ({"chain": [coordinate_subspace(8, 3), coordinate_subspace(8, 2)]},
         "chain members must be nested inside the top subspace"),
        ({"e_space": coordinate_subspace(8, 6, start=2)},
         "the top subspace must lie inside the enclosing space"),
    ])
    def test_malformed_inputs_are_refused(self, change, cause):
        args = {"chain": [coordinate_subspace(8, 2)], "x_space": coordinate_subspace(8, 4),
                "e_space": linalg.Subspace.full(8), "eps": 0.1, "eta": 0.5, "a": 1, **change}
        with pytest.raises(ValueError) as info:
            replace_projection(**args)
        assert str(info.value) == cause

    def test_cap_guard(self):
        e = linalg.Subspace.full(8)
        x = coordinate_subspace(8, 4)
        chain = [coordinate_subspace(8, 2), coordinate_subspace(8, 3)]
        with pytest.raises(ExponentCapExceeded):
            replace_projection(chain, x, e, eps=1e-3, eta=0.5, a=1, s_cap=10**4)

    def test_unrepresentable_chain_reaches_the_ladder(self):
        # placeholder members nest by construction: no float64 check reads them
        from altproj import _intrinsic

        chain = [divergence.Unrepresentable("exact only")] * 2
        y, s, betas = replace_projection(chain, coordinate_subspace(8, 4), linalg.Subspace.full(8),
                                         eps=0.1, eta=0.5, a=1)
        assert isinstance(y, divergence.Unrepresentable) and y.reason == "exact only"
        assert (s, betas) == _intrinsic.tilt_ladder(2, 0.1, 0.5, 1, None)

    @pytest.mark.parametrize("eps, eta", [(8.9e-119, 4.9e-286), (1.6e-286, 2.7e-118)])
    def test_budgets_beyond_float64_certify_the_ladder(self, eps, eta):
        # beta^2 underflows float64 and s passes 2^53 here: the ladder must
        # still come out exact, with no float64 view of the tilt
        e = linalg.Subspace.full(8)
        x = coordinate_subspace(8, 4)
        chain = [coordinate_subspace(8, 2), coordinate_subspace(8, 3)]
        y, s, betas = replace_projection(chain, x, e, eps=eps, eta=eta, a=1)
        assert isinstance(y, divergence.Unrepresentable)
        with pytest.raises(ArithmeticError, match="float64 cannot represent"):
            linalg.projection_matrix(y)
        assert betas[-1] == Fraction(eta) / 4
        assert betas == sorted(betas) and s == sorted(s, reverse=True)
        mpmath = pytest.importorskip("mpmath")
        ctx = mpmath.MPContext()
        ctx.prec = max(x.bit_length() for x in s) + 64
        eps_mp = ctx.mpf(eps)

        def beta(b):
            return ctx.mpf(b.numerator) / b.denominator

        def kept_loss(s_j, b):  # 1 - (1 + b^2)^-s on a kept tier
            return -ctx.expm1(-s_j * ctx.log1p(beta(b) ** 2))

        def survives(s_j, b):  # (1 + b^2)^-s on a killed tier
            return ctx.exp(-s_j * ctx.log1p(beta(b) ** 2))

        for j, s_j in enumerate(s):  # tier j + 1
            assert kept_loss(s_j, betas[j]) < eps_mp
            assert survives(s_j, betas[j + 1]) < eps_mp
            # minimality: one halving fewer breaks the kept tier, one power
            # fewer spares the killed tier (unless s is forced above s(j+1))
            if 2 * betas[j] < betas[j + 1]:
                assert kept_loss(s_j, 2 * betas[j]) >= eps_mp
            floor = s[j + 1] + 1 if j + 1 < len(s) else 2
            if s_j > floor:
                assert survives(s_j - 1, betas[j + 1]) >= eps_mp


class TestChainViews:
    # sha256 of the chain bases of the eps = 0.45 triples, laid out as glue
    # lays them out, seeds 0-2: one CGS2 pass over the perturbed vectors gives
    # every prefix X_j bit for bit as orthonormalizing each prefix on its own
    DIGESTS = {
        2: "162319957d7dccb67e48f7a869248400603c31ebc07735606867bd82dedaea0e",
        3: "1c3680f61cb62f2e9cd112c81c6e43d9d15c37537934e5638b02e5c1858071cd",
        4: "ce905e87d75b7064e2e47fb10bcddef6b9064dfc2d407a892707a928000694d2",
        5: "40c6058cf2f0d0434ab7a8e7f4d2e01f91e2261e2097a788bf2e798c876f8067",
    }

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_chain_bases_are_pinned(self, K):
        digest = hashlib.sha256()
        k = k_of_eps(0.45)
        slab = 2 * (k + 2) - 2
        n = K + 1 + K * slab
        ident = np.eye(n)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            for i in range(K):
                off = K + 1 + i * slab
                cols = np.zeros((n, k))
                cols[off:off + slab] = linalg.random_subspace(rng, slab, slab).basis[:, :k]
                x = linalg.Subspace(n, np.column_stack([ident[:, i], ident[:, i + 1], cols]))
                for member in quarter_circle(x, ident[:, i], ident[:, i + 1], 0.45).chain:
                    digest.update(member.basis.tobytes())
        assert digest.hexdigest() == self.DIGESTS[K]

    # sha256 of every tilt view Y and of M1-M3 of the eps = 0.45
    # constructions, seeds 0-2: the adapted bases and the glued unions
    # pinned bit for bit
    GLUED_DIGESTS = {
        2: "d9a89d11e833386aafdf63cbe871da6813659505ec65ee336b17c2d36571c37e",
        3: "9be005b6f7811a8b1938fc6a3a939611f52ef7cd9da8e9a971295feb1cf61348",
        4: "477330f4298064388fa6f533c15464a1ea51b03636f3fb03416cf532ef2d375a",
        5: "bf478603362fe3eaea9bdaf35945a973dc8c3f4be830fcc21332de0b6b06c69d",
    }

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_tilt_views_and_glued_bases_are_pinned(self, K):
        digest = hashlib.sha256()
        for seed in range(3):
            con = relaxed_construction(seed, K)
            for space in [t.Y for t in con.triples] + [con.M1, con.M2, con.M3]:
                digest.update(space.basis.tobytes())
        assert digest.hexdigest() == self.GLUED_DIGESTS[K]


class TestContractionInequality:
    """Replacing letters in an operator word moves the product by at most the
    per-letter drift times the letter count."""

    def test_commuting_letter_replacement_bound(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            n = 6
            # draw E once; each A_i splits along E and its complement, so it
            # commutes with E as the bound requires
            frame = linalg.random_subspace(rng, n, n).basis
            cut = int(rng.integers(1, n))
            e_mat = linalg.projection_matrix(linalg.Subspace(n, frame[:, :cut]))
            a_mats = []
            for _ in range(3):
                da = int(rng.integers(0, cut + 1))
                db = int(rng.integers(0, n - cut + 1))
                cols = list(frame[:, :da].T) + list(frame[:, cut:cut + db].T)
                s = linalg.orthonormalize(cols, ambient_dim=n) if cols else linalg.Subspace.zero(n)
                a_mats.append(linalg.projection_matrix(s))
            b_mats = [linalg.projection_matrix(
                linalg.random_subspace(rng, n, int(rng.integers(1, n)))) for _ in range(3)]
            letters = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 7)))]
            w = Word.from_letters(3, letters)
            lhs = linalg.operator_norm(word_matrix(w, a_mats) @ e_mat - word_matrix(w, b_mats) @ e_mat)
            rhs = sum(w.letter_count(i + 1) * linalg.operator_norm(a_mats[i] @ e_mat - b_mats[i] @ e_mat)
                      for i in range(3))
            assert lhs <= rhs + 1e-10

    def test_identity_e_gives_max_drift_bound(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            n = 6
            a_mats = [linalg.projection_matrix(
                linalg.random_subspace(rng, n, int(rng.integers(1, n)))) for _ in range(3)]
            b_mats = [linalg.projection_matrix(
                linalg.random_subspace(rng, n, int(rng.integers(1, n)))) for _ in range(3)]
            letters = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 7)))]
            w = Word.from_letters(3, letters)
            lhs = linalg.operator_norm(word_matrix(w, a_mats) - word_matrix(w, b_mats))
            rhs = w.length * max(linalg.operator_norm(a - b) for a, b in zip(a_mats, b_mats))
            assert lhs <= rhs + 1e-10


@pytest.fixture(scope="module")
def triple():
    e = linalg.Subspace.full(10)
    x = coordinate_subspace(10, 5)
    return build_triple(e, x, np.eye(10)[:, 0], np.eye(10)[:, 1],
                        eps=0.5, eta=0.25, s_cap=10**13)


class TestBuildTriple:
    def test_replaces_the_chain_through_replace_projection(self, monkeypatch):
        calls = []
        replace = divergence.replace_projection

        def counted(*args):
            calls.append(args)
            return replace(*args)

        monkeypatch.setattr(divergence, "replace_projection", counted)
        build_triple(linalg.Subspace.full(10), coordinate_subspace(10, 5),
                     np.eye(10)[:, 0], np.eye(10)[:, 1], eps=0.5, eta=0.25, s_cap=10**13)
        assert len(calls) == 1

    def test_error_below_three_eps(self, triple):
        assert triple.achieved_error < 1.5

    def test_tilt_stays_below_eta(self, triple):
        assert triple.eta_achieved < 0.25
        assert linalg.operator_norm(
            linalg.projection_matrix(triple.X) - linalg.projection_matrix(triple.Y)
        ) == pytest.approx(triple.eta_achieved, abs=1e-12)

    def test_x_and_y_meet_only_at_origin(self, triple):
        assert linalg.intersect([triple.X, triple.Y], tol=1e-12).dim == 0

    def test_plane_letter_count_is_preserved_by_substitution(self, triple):
        assert triple.psi.letter_count(1) == triple.quarter.phi.letter_count(1)

    def test_word_uses_three_letters(self, triple):
        assert triple.psi.alphabet == 3
        assert triple.psi.letter_count(2) > 0 and triple.psi.letter_count(3) > 0

    def test_exponent_ladder_recorded(self, triple):
        assert triple.s == sorted(triple.s, reverse=True)
        assert triple.betas == sorted(triple.betas)
        assert triple.betas[-1] == 0.25 / 4.0

    def test_gap_below_float64_range_stays_exact(self, monkeypatch):
        # a top tilt below float64's normal range must not read as a zero gap
        from altproj import _intrinsic

        ladder = _intrinsic.tilt_ladder

        def shrunk_ladder(*args):
            s, betas = ladder(*args)
            return s, [b / 2**1100 for b in betas]

        monkeypatch.setattr(_intrinsic, "tilt_ladder", shrunk_ladder)
        monkeypatch.setattr(_intrinsic, "tilt_error", lambda *args: 0.0)
        triple = build_triple(linalg.Subspace.full(10), coordinate_subspace(10, 5),
                              np.eye(10)[:, 0], np.eye(10)[:, 1], eps=0.5, eta=0.25, s_cap=10**13)
        assert triple.eta_achieved == triple.betas[-1] == Fraction(1, 16 * 2**1100)
        assert isinstance(triple.Y, divergence.Unrepresentable)

    def test_tilt_view_is_cross_checked(self, monkeypatch):
        # a tilt gap that disagrees with the principal angles must stop the build
        tilt_gap = divergence._tilt_gap
        monkeypatch.setattr(divergence, "_tilt_gap", lambda gamma: tilt_gap(gamma) + 1e-6)
        with pytest.raises(ArithmeticError, match="disagrees with the tilt structure"):
            build_triple(linalg.Subspace.full(10), coordinate_subspace(10, 5),
                         np.eye(10)[:, 0], np.eye(10)[:, 1], eps=0.5, eta=0.25, s_cap=10**13)


class TestCertification:
    """Decisions within rounding of their bound are undecided, and are
    recomputed at doubled precision up to ``_MAX_BITS``."""

    def test_undecided_compute_is_retried_at_doubled_precision(self):
        from altproj import _intrinsic

        seen = []

        def compute(num):
            seen.append(num.prec)
            if num.prec < 256:
                raise _intrinsic._Undecided
            return "decided"

        assert _intrinsic._certified(compute, 53) == "decided"
        assert seen == [53, 128, 256]

    def test_compute_that_never_decides_is_refused(self):
        from altproj import _intrinsic

        seen = []

        def compute(num):
            seen.append(num.prec)
            raise _intrinsic._Undecided

        bits = 2 * _intrinsic._MAX_BITS
        with pytest.raises(ArithmeticError) as info:
            _intrinsic._certified(compute, 53)
        assert str(info.value) == f"rounding still decides the outcome at {bits} bits"
        assert seen[-1] == bits

    def test_decisions_within_rounding_are_undecided(self):
        from altproj._intrinsic import (_FLOAT64, _QUOTIENT_ROUNDING_BITS, _floor, _positive,
                                        _positive_definite3, _Undecided)

        # 1.0 < 2.0, and 1.0 < 1.0 + 2^-52 within rounding, as keep - s rate(beta) > 0
        assert _floor(_FLOAT64, 3.5) == 3
        assert _positive(_FLOAT64, 2.0 - 1.0, 2.0, _QUOTIENT_ROUNDING_BITS) is True
        assert _positive_definite3(_FLOAT64, np.eye(3).tolist()) is True
        singular = np.diag([1.0, 1.0, 0.0]).tolist()
        for decide in (lambda: _floor(_FLOAT64, 3.0),
                       lambda: _positive(_FLOAT64, (1.0 + 2**-52) - 1.0, 1.0 + 2**-52,
                                         _QUOTIENT_ROUNDING_BITS),
                       lambda: _positive_definite3(_FLOAT64, singular)):
            with pytest.raises(_Undecided):
                decide()

    @pytest.mark.parametrize("bits", [53, 200])
    def test_positive_is_decided_only_beyond_the_slack(self, bits):
        from altproj._intrinsic import _context, _positive, _slack, _Undecided

        num = _context(bits)
        scale = num.mpf(3)
        slack = _slack(num, scale)
        for value, verdict in ((2 * slack, True), (-2 * slack, False)):
            assert _positive(num, value, scale) is verdict
        for value in (slack / 2, -slack / 2, 0 * slack):
            with pytest.raises(_Undecided):
                _positive(num, value, scale)
        # between the 3-bit and the 8-bit slack
        value = 4 * _slack(num, scale, 3)
        assert value < slack
        assert _positive(num, value, scale, 3) is True
        with pytest.raises(_Undecided):
            _positive(num, value, scale, 8)

    def test_tier_basis_cancellation_is_undecided(self):
        # the tier sums cancel down to alpha_min^2 = 2^-160 of their terms
        from altproj._intrinsic import _FLOAT64, _chain_basis, _tier_basis, _Undecided

        alphas = [Fraction(1, 2), Fraction(1, 2**40), Fraction(1, 2**80), Fraction(0)]
        with pytest.raises(_Undecided):
            _tier_basis(_FLOAT64, 3, alphas)
        _, cols, tiers = _chain_basis(53, 3, alphas)
        gram = [[float(sum(a * b for a, b in zip(c, d))) for d in cols] for c in cols]
        assert np.abs(np.array(gram) - np.eye(5)).max() < 1e-15 and tiers == [1, 1, 2, 3, 4]


class TestRatio:
    def test_rounds_as_float64_where_float64_is_normal(self):
        from altproj._intrinsic import ratio

        rng = random.Random(0)
        checked = 0
        for _ in range(5000):
            x = rng.uniform(0.5, 1.0) * 2.0 ** rng.randint(-60, 60)
            n = rng.randrange(1, 2 ** rng.randint(1, 1100))
            quotient = float(Fraction(x) / n)
            if quotient >= np.finfo(float).tiny:
                exact = ratio(x, n)
                assert isinstance(exact, Fraction) and exact == Fraction(quotient)
                checked += 1
        assert checked > 3000


class TestGlue:
    def test_budget_violation_raises(self):
        with pytest.raises(BudgetExceeded, match="1/2"):
            glue(2, [0.2, 0.2])

    def test_desk_scale_cap_reports_offending_triple(self):
        with pytest.raises(ExponentCapExceeded) as info:
            glue(2, [1 / 32, 1 / 64], seed=0, r_cap=10**6)
        assert info.value.triple == 1
        assert "triple 1" in str(info.value)
        assert "eps" in str(info.value)

    def test_wrong_budget_count_rejected(self):
        with pytest.raises(ValueError, match="expected 2"):
            glue(2, [0.01])

    @pytest.mark.parametrize("K, epsilons, cause", [
        (2, [1e-4, 1e-4], "triple 1 (eps = 0.0001): k = 12337"),
        # the default budgets 2^-(i+4) first pass the limit at triple 7
        (7, [2.0 ** -(i + 4) for i in range(1, 8)], "triple 7 (eps = 0.000488281): k = 2527"),
    ])
    def test_stages_beyond_the_limit_are_refused_before_the_layout(self, monkeypatch, K,
                                                                   epsilons, cause):
        def layout(*args, **kwargs):
            raise AssertionError("the coordinate layout was built")
        monkeypatch.setattr(np, "eye", layout)
        monkeypatch.setattr(linalg, "random_subspace", layout)
        with pytest.raises(ValueError) as info:
            glue(K, epsilons)
        assert str(info.value) == f"{cause} rotation stages exceed the limit of 2048"

    def test_negative_seed_is_refused_before_the_layout(self, monkeypatch):
        def layout(*args, **kwargs):
            raise AssertionError("the coordinate layout was built")
        monkeypatch.setattr(np.random, "default_rng", layout)
        monkeypatch.setattr(np, "eye", layout)
        with pytest.raises(ValueError) as info:
            glue(2, [0.06, 0.06], seed=-1)
        assert str(info.value) == "seed must be non-negative, got -1"

    def test_k_minimum(self):
        with pytest.raises(ValueError, match="K >= 2"):
            glue(1, [0.01])

    @pytest.mark.parametrize("epsilons", [[0.1, 0.0], [-0.1, 0.1]])
    def test_non_positive_budget_rejected(self, epsilons):
        with pytest.raises(ValueError) as info:
            glue(2, epsilons)
        assert str(info.value) == "accuracy budgets must be positive"

    @pytest.mark.parametrize("K", [2, 3])
    def test_eps_over_phi_below_float64_reaches_the_ladder_exactly(self, monkeypatch, K):
        # |phi|_W = 10^400 of triple 2 puts eps/|phi|_W, the eta of triple 1,
        # below float64's range; it must reach the tilt ladder as a positive dyadic
        from altproj import _intrinsic

        counts = iter([10, 10**400, 10])

        def stub_quarter(*args, **kwargs):
            count = next(counts)
            return SimpleNamespace(k=2, chain=[divergence.Unrepresentable("stub")] * 2,
                                   phi=SimpleNamespace(letter_count=lambda letter: count,
                                                       length=count))

        class Reached(Exception):
            pass

        seen = []

        def stub_ladder(*args):
            seen.append(args)
            raise Reached

        monkeypatch.setattr(divergence, "quarter_circle", stub_quarter)
        monkeypatch.setattr(_intrinsic, "tilt_ladder", stub_ladder)
        with pytest.raises(Reached):
            glue(K, [0.04] * K)
        [(_, _, eta, _, _)] = seen
        quotient = Fraction(0.04) / 10**400
        assert eta == _intrinsic.ratio(0.04, 10**400)
        assert isinstance(eta, Fraction) and eta > 0 and float(eta) == 0.0
        assert eta.denominator & (eta.denominator - 1) == 0
        assert abs(eta - quotient) <= quotient / 2**53

    def test_stage_errors_name_the_triple(self, monkeypatch):
        from altproj import _intrinsic

        monkeypatch.setattr(_intrinsic, "tilt_error", lambda *args: 1.0)
        with pytest.raises(ArithmeticError, match=r"^triple 1 \(eps = 0\.06\): triple word error 1 "):
            glue(2, [0.06, 0.06])


@pytest.fixture(scope="module")
def counted_glue():
    """``glue(2, [0.06, 0.06])`` with its tier-frame builds and word evaluations counted."""
    from altproj import _intrinsic

    counts = {"frames": 0, "evaluations": 0, "states": []}
    chain_basis, glued_words = _intrinsic._chain_basis, _intrinsic.glued_words

    def counted_chain_basis(*args):
        counts["frames"] += 1
        return chain_basis(*args)

    def counted_glued_words(*args):
        apply_word, bits = glued_words(*args)

        def counted_apply(i, states):
            counts["evaluations"] += 1
            counts["states"].append(len(states))
            return apply_word(i, states)

        return counted_apply, bits

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_intrinsic, "_chain_basis", counted_chain_basis)
        mp.setattr(_intrinsic, "glued_words", counted_glued_words)
        construction = glue(2, [0.06, 0.06], seed=0)
    return construction, counts


class TestGlueEngine:
    def test_one_frame_per_triple_and_one_pass_per_word(self, counted_glue):
        _, counts = counted_glue
        assert counts["frames"] == 2  # the rotation errors' frames serve every later evaluation
        assert counts["evaluations"] == 2
        assert counts["states"] == [2, 2]  # the running state and e_i

    def test_outputs_pinned(self, counted_glue):
        construction, _ = counted_glue
        assert [a.hex() for a in construction.achieved] == ["0x1.005a34480688ep-4"] * 2
        assert [float(np.linalg.norm(s)).hex() for s in construction.checkpoint_states] == [
            "0x1.dff4c7aaa8e38p-1", "0x1.c1eaf6bc5d362p-1"]
        assert construction.non_cauchy_gap.hex() == "0x1.48e47f3ad370dp+0"
        assert construction.precision == 190
        for t in construction.triples:
            assert t.quarter.achieved_error.hex() == "0x1.005a34480688bp-4"
            assert t.achieved_error.hex() == "0x1.005a34480688bp-4"

    def test_three_triples_pinned(self):
        construction = glue(3, [1 / 32] * 3, seed=0)
        assert [a.hex() for a in construction.achieved] == ["0x1.02dc884cea742p-5"] * 3
        assert construction.non_cauchy_gap.hex() == "0x1.59191a6932fecp+0"
        assert construction.precision == 418
        assert [max(t.s).bit_length() for t in construction.triples] == [16070] * 3

    def test_word_contracts_the_rounding_of_the_exact_state(self, counted_glue):
        from altproj import _intrinsic

        construction, _ = counted_glue
        triples = construction.triples
        apply_word, num = _intrinsic.glued_words(triples, {0: [0], 1: [2]})
        assert num.prec == construction.precision == 190
        zero = num.mpf(0)
        e_1 = ([num.mpf(1), zero, zero], [[zero] * t.quarter.k for t in triples])
        (state,) = apply_word(0, [e_1])  # the running state after word 1, at 190 bits
        rounded = ([num.mpf(float(x)) for x in state[0]],
                   [[num.mpf(float(x)) for x in zl] for zl in state[1]])
        image, image_of_rounded = apply_word(1, [state, rounded])

        def distance(a, b):
            return num.sqrt(sum((x - y) ** 2 for x, y in zip(a[0], b[0]))
                            + sum((x - y) ** 2 for za, zb in zip(a[1], b[1]) for x, y in zip(za, zb)))

        moved = distance(state, rounded)
        assert 0 < moved < 1e-15  # float64 rounding moved the state
        assert distance(image, image_of_rounded) <= moved + num.ldexp(1, 16 - num.prec)
        # the report measures the exact states, each number rounded once
        assert construction.non_cauchy_gap == float(distance(state, image))


class TestAssemble:
    """Integration: glue's assembly over real triples with relaxed budgets.

    These accuracy budgets violate the divergence budget (so nothing is
    claimed about gap sizes); they exercise the grouping, substitution,
    per-word verification, checkpoints and gap arithmetic end to end.
    """

    def test_needs_two_triples(self):
        with pytest.raises(ValueError) as info:
            divergence.assemble([object()], [], [0.1])
        assert str(info.value) == "need at least two triples"

    def test_per_word_bounds_verified(self, construction):
        for achieved, eps in zip(construction.achieved, construction.epsilons):
            assert achieved < 4.0 * eps

    def test_three_subspaces_meet_only_at_origin(self, construction):
        meet = linalg.intersect([construction.M1, construction.M2, construction.M3], tol=1e-8)
        assert meet.dim == 0

    def test_checkpoints_accumulate_word_lengths(self, construction):
        lengths = [w.length for w in construction.words]
        assert construction.checkpoints == [lengths[0], lengths[0] + lengths[1]]
        assert construction.schedule.word.length == sum(lengths)

    def test_checkpoint_states_track_targets(self, construction):
        for state, target, budget in zip(construction.checkpoint_states,
                                         construction.e[1:],
                                         np.cumsum(4.0 * np.asarray(construction.epsilons))):
            assert np.linalg.norm(state - target) < budget

    def test_gap_is_distance_between_checkpoint_states(self, construction):
        a, b = construction.checkpoint_states[:2]
        assert construction.non_cauchy_gap == pytest.approx(float(np.linalg.norm(a - b)), abs=1e-12)

    def test_caveat_attached(self, construction):
        assert "non-Cauchy window" in construction.caveat

    def test_exponents_match_the_dense_power_searches(self, construction):
        # the values the float64 dense searches found for this fixture
        for t in construction.triples:
            assert t.quarter.r == [3, 37, 586]
            assert t.s == [14321947017218, 218535573, 3339]
        assert construction.precision == 53  # float64 suffices here

    def test_gap_is_independent_of_the_layout_seed(self):
        # the gap is measured in M1's orthonormal frame, not between float64 vectors of R^n
        gaps = {relaxed_construction(seed).non_cauchy_gap.hex() for seed in (0, 1, 2)}
        assert gaps == {"0x1.2e6a095dd3753p-1"}

    def test_float64_outputs_pinned(self):
        c = relaxed_construction(seed=0)
        assert c.precision == 53
        assert [a.hex() for a in c.achieved] == ["0x1.d756828f648e5p-2", "0x1.d498f1ddcbca4p-2"]
        assert [float(np.linalg.norm(s)).hex() for s in c.checkpoint_states] == [
            "0x1.183ba893bb1a6p-1", "0x1.38a6d39ff52ccp-2"]

    def test_relaxed_budgets_stay_in_float64(self):
        # the benchmark's construction jobs run at these budgets
        code = ("import sys, numpy as np; from altproj import divergence, linalg; "
                "e = linalg.Subspace.full(10); x = linalg.Subspace(10, np.eye(10)[:, :5]); "
                "divergence.build_triple(e, x, np.eye(10)[:, 0], np.eye(10)[:, 1], "
                "eps=0.45, eta=0.2, s_cap=10**14); print('mpmath' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "False"

    def test_states_match_a_high_precision_dense_evaluation(self, construction):
        dense_states, dense_achieved = dense_evaluation(construction)
        for state, dense in zip(construction.checkpoint_states, dense_states):
            assert np.max(np.abs(intrinsic(construction, state) - dense)) < 1e-12
        assert np.max(np.abs(np.asarray(construction.achieved) - dense_achieved)) < 1e-12


def intrinsic(construction, state):
    """A state's coordinates along e_1..e_{K+1}, then each triple's z directions."""
    axes = list(construction.e) + [z for t in construction.triples for z in t.quarter.z]
    return np.array([float(state @ a) for a in axes])


def dense_evaluation(construction, prec=192):
    """Checkpoint states and word errors from dense projection matrices built
    and powered at ``prec`` bits (float64 cannot resolve tilts ~3e-9 under
    exponents ~1e13).  The space is laid out as e_1..e_{K+1}, then each
    triple's z directions, then its tilt directions, all coordinate vectors;
    the chain is re-derived by Gram-Schmidt, independently of the closed forms
    in the divergence module."""
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.MPContext()
    ctx.prec = prec
    K, triples = construction.K, construction.triples
    ks = [t.quarter.k for t in triples]
    n = (K + 1) + sum(ks) + sum(k + 2 for k in ks)

    def unit(i):
        vec = ctx.zeros(n, 1)
        vec[i] = 1
        return vec

    def outer(a, b):
        return a * b.T

    m1 = ctx.zeros(n, n)
    for i in range(K + 1 + sum(ks)):
        m1[i, i] = 1
    tilts = []
    z_off, w_off = K + 1, K + 1 + sum(ks)
    for i, t in enumerate(triples):
        k = t.quarter.k
        u, v = unit(i), unit(i + 1)
        z = [unit(z_off + j) for j in range(k)]
        h = [ctx.cos(ctx.pi * j / (2 * k)) * u + ctx.sin(ctx.pi * j / (2 * k)) * v
             for j in range(k + 1)]
        alphas = [ctx.mpf(a.numerator) / a.denominator for a in t.quarter.alphas]
        p = [h[j] + alphas[j] * z[j] for j in range(k)] + [h[k]]
        basis, tiers = [], []
        for j, vec in enumerate(p + [u, v] + z):
            for _ in range(2):
                for b in basis:
                    vec = vec - (b.T * vec)[0] * b
            norm = ctx.norm(vec)
            if norm > ctx.mpf(2) ** (-prec // 2):
                basis.append(vec / norm)
                tiers.append(1 if j <= 1 else min(j, k + 1))
        assert len(basis) == k + 2
        p_y = ctx.zeros(n, n)
        for c, (b, tier) in enumerate(zip(basis, tiers)):
            g = ctx.mpf(t.betas[tier - 1].numerator) / t.betas[tier - 1].denominator
            y = b + g * unit(w_off + c)
            p_y += outer(y, y) / (1 + g * g)
        tilts.append(p_y)
        z_off += k
        w_off += k + 2
    m2, m3 = outer(unit(0), unit(0)), ctx.zeros(n, n)
    for i, p_y in enumerate(tilts, start=1):
        if i % 2 == 0:
            m2 += p_y
        else:
            m3 += p_y
    if (K + 1) % 2 == 0:
        m2 += outer(unit(K), unit(K))
    else:
        m3 += outer(unit(K), unit(K))
    projections = [m1, m2, m3]

    def power(m, e):
        vals, vecs = ctx.eigsy((m + m.T) / 2)
        return vecs * ctx.diag([min(max(x, 0), 1) ** e for x in vals]) * vecs.T

    def matrix(word):
        out = ctx.eye(n)
        for item, e in word.factors:
            if isinstance(item, Word):
                out = out * (matrix(item) if e == 1 else power(matrix(item), e))
            else:
                out = out * projections[item - 1]
        return out

    words = [matrix(w) for w in construction.words]
    states, achieved = [], []
    x = unit(0)
    for i, w in enumerate(words):
        x = w * x
        states.append(np.array([float(x[j]) for j in range(K + 1 + sum(ks))]))
        achieved.append(float(ctx.norm(w * unit(i) - unit(i + 1))))
    return states, np.array(achieved)


@pytest.fixture
def stated(stated_build):
    return stated_build.construction


class TestStatedBudgets:
    """glue at eps = (1/32, 1/64), far beyond float64 (acceptance 12 and 13
    assert the window itself)."""

    def test_exponents_and_precision(self, stated):
        assert [t.quarter.k for t in stated.triples] == [39, 79]
        # a dense evaluation at 800 bits gives these first four exponents;
        # float64's gave 51035667948 at stage 4, where it resolves
        # 1 - lambda = 1.4e-10 only to about 1e-6
        assert stated.triples[0].quarter.r[:4] == [2, 48486, 49839393, 51035968470]
        assert [len(str(max(t.quarter.r))) for t in stated.triples] == [117, 284]
        assert [max(t.s).bit_length() for t in stated.triples] == [17184, 75675]
        assert stated.precision == 974

    def test_views_say_float64_cannot_hold_them(self, stated):
        assert isinstance(stated.M2, divergence.Unrepresentable)
        assert isinstance(stated.triples[0].Y, divergence.Unrepresentable)
        with pytest.raises(ArithmeticError, match="below float64 resolution"):
            stated.M3.basis
        assert stated.M1.dim == 3 + 39 + 79

    def test_rebuild_is_byte_identical(self, stated):
        again = glue(2, [1 / 32, 1 / 64], seed=0)
        assert [t.s for t in again.triples] == [t.s for t in stated.triples]
        for a, b in zip(again.checkpoint_states, stated.checkpoint_states):
            assert a.tobytes() == b.tobytes()
        assert again.achieved == stated.achieved


class TestSakaiBlowup:
    def synthetic_construction(self):
        # tiny hand-made instance: words short enough to run literally
        n = 4
        ident = np.eye(n)
        e = [ident[:, 0], ident[:, 1], ident[:, 2]]
        m1 = linalg.orthonormalize([e[0] + e[1], e[1] + e[2]], ambient_dim=n)
        m2 = linalg.orthonormalize([e[1]], ambient_dim=n)
        m3 = linalg.orthonormalize([e[2]], ambient_dim=n)
        words = [Word.from_letters(3, [2, 1]), Word.from_letters(3, [3, 1])]
        full = words[1] * words[0]
        projections = [linalg.projection_matrix(s) for s in (m1, m2, m3)]
        states = []
        x = e[0].copy()
        for w in words:
            x = word_matrix(w, projections) @ x
            states.append(x.copy())
        return GluedConstruction(
            ambient_dim=n, K=2, epsilons=[0.9, 0.9], M1=m1, M2=m2, M3=m3,
            e=e, words=words, schedule=Schedule.from_word(full, J=3),
            checkpoints=[2, 4], achieved=[0.0, 0.0], checkpoint_states=states,
            non_cauchy_gap=float(np.linalg.norm(states[0] - states[1])))

    def test_matches_manual_trace(self):
        con = self.synthetic_construction()
        value = sakai_blowup(con)
        cfg = RunConfig(max_steps=4, stop_tol=1e-300)
        trace = iteration.run([con.M1, con.M2, con.M3], con.schedule, con.e[0], cfg,
                              reference=None, store_iterates=True)
        assert value == pytest.approx(iteration.sakai_constant(trace), abs=1e-12)
        assert value >= 1.0  # any motion makes the adjacent-pair ratio 1

    def test_needs_two_triples(self):
        con = self.synthetic_construction()
        con.K = 1
        with pytest.raises(ValueError) as info:
            sakai_blowup(con)
        assert str(info.value) == "need a construction with K >= 2"

    def test_refuses_astronomical_schedules(self, monkeypatch):
        # the checkpoint bound never steps the schedule, however long
        con = self.synthetic_construction()
        expected = sakai_blowup(con)
        con.words = [Word.group(Word.from_letters(3, [2, 3, 2]), 10**9)] * 2
        full = con.words[1] * con.words[0]
        con.schedule = Schedule.from_word(full, J=3)

        def no_stepping(*args, **kwargs):
            raise AssertionError("sakai_blowup stepped the schedule")

        monkeypatch.setattr(iteration, "run", no_stepping)
        assert sakai_blowup(con) == expected
