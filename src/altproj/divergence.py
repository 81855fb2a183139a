"""Desk-scale construction of projection schedules that stall convergence.

The pieces, bottom-up:

* ``quarter_circle`` rotates a unit vector u onto an orthogonal unit vector v
  through k equally spaced intermediate lines, approximating each line
  projection by a high power of a three-projection sandwich over a nested
  chain X_1 c ... c X_k.  The output word phi over {plane W, chain} carries
  u to within 2*eps of v.

* ``replace_projection`` swaps the whole chain for just two subspaces: X (the
  chain's top) and a slight tilt Y of it, with ||P_X - P_Y|| < eta and
  (P_X P_Y P_X)^s(j) within eps of each chain projection P_{X_j}.

* ``build_triple`` composes the two: a word psi over three letters
  {W, X, Y} with ||psi(P_W, P_X, P_Y) u - v|| < 3*eps.  It keeps X, Y, psi
  and the quarter circle; W = span{u, v} is the quarter circle's plane.

* ``glue`` chains K triples on (mostly) orthogonal blocks so the iterates
  visit an orthonormal set e_1, e_2, ..., e_{K+1}: three fixed subspaces
  M1, M2, M3 and one finite schedule whose checkpoint iterates stay within
  4*sum(eps_i) of distinct orthonormal vectors -- a non-Cauchy window.

In R^n the full infinite schedule must eventually converge (finite-
dimensional norm convergence), so only this windowed non-Cauchy behaviour --
not true divergence -- is realizable here; every report states that caveat.

The required powers grow extremely fast as eps shrinks (this growth is
exactly why genuine divergence needs infinitely many dimensions).  At the
budgets eps = (1/32, 1/64) the two rotation chains have k = 39 and 79
stages, the exponents r reach 10^116 and 10^283, the tilts beta fall to
2e-2646 and 6e-11534, and the exponents s reach 5173 and 22781 digits.
Float64 holds none of this, so every triple is computed in its own intrinsic
coordinates (u, v, z_0..z_{k-1} of X, and the tilt of each chain tier) from
closed forms that lose nothing to cancellation:

* the candidate space of rotation stage j is a hyperplane containing h_j,
  and its sandwich contracts at 1 - lambda_j = 1 / (1 + sum_{i<j}
  sin^2(pi (j - i) / 2k) / alpha_i^2); a trial perturbation reduces to the
  2x2 Gram matrix G = W^T P_X W, because P_X P_W P_X = A A^T with A = P_X W
  has rank 2 and (A A^T)^r = A G^(r-1) A^T;
* every tilt beta_j = (eta/4) 2^-m is an exact dyadic (eta and the ladder's
  eps are quotients eps/|phi| kept as 53-bit dyadic Fractions, which cannot
  underflow), P_X P_Y P_X is 1 / (1 + beta_j^2) on chain tier j, and each
  exponent s(j) is the exact minimal integer of a scalar inequality;
* a glued word acts on the chain spaces of its triple's group plus the lines
  e_1..e_{K+1} that the other group's tilts touch, so each sandwich power
  (B C B)^r reduces to the power of a (K+1) x (K+1) matrix.

Exponents are exact Python ints.  Everything else is computed, in the private
module ``_intrinsic`` (imported with this module; mpmath still loads only once
a computation needs more than 53 bits), at a precision derived from the
construction -- the bits of the exponents it decides plus a guard -- in
float64 when that suffices and with mpmath otherwise; an integer or an
inequality counts as decided only when its rounding bound cannot flip it, and
is recomputed at doubled precision when it can.  Float64 views of the
subspaces (the chain, the tilt Y, the glued M1..M3) are built wherever
float64 resolves them, each from one CGS2 pass, and every tilt view is
cross-checked on its principal angles to X; elsewhere they are
``Unrepresentable`` placeholders that say why instead of returning rounded
subspaces.  The power searches take optional caps and raise
``ExponentCapExceeded`` naming the offending stage when an exponent would
exceed one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

import numpy as np

from . import _intrinsic as exact, linalg
from .schedules import Schedule
from .words import Word

#: perturbations and tilts at or below float64 rank resolution get no view
_VIEW_RESOLUTION = linalg.DEFAULT_TOL

#: most rotation stages k(eps) that ``glue`` builds a triple with: each stage
#: adds two ambient coordinates and a chain member, and k(eps) ~ 1.23/eps,
#: so this admits eps down to about 6e-4, every default budget up to K = 6
#: (k = 1263 at 2^-10)
MAX_STAGES = 2048

FINITE_DIM_CAVEAT = (
    "finite-dimensional ambient space: the infinite schedule must eventually "
    "converge, so this construction demonstrates a non-Cauchy window over its "
    "checkpoints, not true divergence"
)


#: raised by the power searches of ``_intrinsic``; exported from here
ExponentCapExceeded = exact.ExponentCapExceeded


class BudgetExceeded(ValueError):
    """The accuracy budget sum(4 eps_i) < 1/2 was violated."""


class Unrepresentable:
    """Stands in for a float64 subspace view that float64 cannot resolve.

    Reading its ``basis``, ``dim`` or ``ambient_dim`` raises
    ``ArithmeticError`` with the reason, so no computation proceeds on a
    rounded subspace.
    """

    def __init__(self, reason):
        self.reason = reason

    def _refuse(self):
        raise ArithmeticError(f"float64 cannot represent this subspace: {self.reason}")

    basis = property(_refuse)
    dim = property(_refuse)
    ambient_dim = property(_refuse)

    def __repr__(self):
        return f"Unrepresentable({self.reason!r})"


def k_of_eps(eps):
    """Smallest k >= 1 with cos(pi/2k)^k strictly above 1 - eps.

    k = 1 never qualifies (cos(pi/2) = 0) and k = 2 exactly when eps > 1/2
    (cos(pi/4)^2 = 1/2), so the exact ties at eps = 1 and 1/2 fail.  Smaller
    budgets go to ``_intrinsic.rotation_stages``, exact in a few evaluations
    at every float eps.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    return 2 if eps > 0.5 else exact.rotation_stages(eps)


@dataclass(eq=False)
class QuarterCircleResult:
    """Output of ``quarter_circle``; see the module docstring.

    ``alphas`` are exact dyadic Fractions; ``chain`` holds float64 views or
    ``Unrepresentable`` placeholders; ``z`` are the perturbation directions
    in the ambient space.  Fields that may hold ints beyond the interpreter's
    int-to-str limit are left out of the repr.  ``_frame`` is the tier frame
    the rotation error was evaluated on, kept for the later evaluations.
    """

    k: int
    h: list
    alphas: list
    chain: list
    r: list
    phi: Word = field(repr=False)
    achieved_error: float
    z: list = field(repr=False, default=None)
    _frame: tuple = field(repr=False, default=None)


def quarter_circle(x_space, u, v, eps, r_cap=None):
    """Rotate u to v inside ``x_space`` by a finite word of projections.

    Needs u, v orthonormal in ``x_space`` and dim >= k(eps) + 2 to host the
    k perturbation directions.  Returns the nested chain X_1 c ... c X_k,
    whose perturbations alpha_j start at 1/2 and halve until a stage fits,
    the minimal powers r(j) with ||(P_{X_j} P_W P_{X_j})^r(j) - P_{line h_j}||
    < eps/k, and the word phi = (b_k c b_k)^r(k) ... (b_1 c b_1)^r(1) over
    {c = W, b_j = X_j} achieving ||phi u - v|| < 2 eps.  ``r_cap`` (None:
    no cap) bounds the exponents.
    """
    k = k_of_eps(eps)
    n = x_space.ambient_dim
    u = linalg.as_vector(u, dim=n)
    v = linalg.as_vector(v, dim=n)
    for name, w in (("u", u), ("v", v)):
        if abs(np.linalg.norm(w) - 1.0) > 1e-10:
            raise ValueError(f"{name} must be a unit vector")
        if np.linalg.norm(linalg.project(x_space, w) - w) > 1e-10:
            raise ValueError(f"{name} must lie in the given subspace")
    if abs(u @ v) > 1e-10:
        raise ValueError("u and v must be orthogonal")
    if x_space.dim < k + 2:
        raise ValueError(f"subspace dimension {x_space.dim} too small: need k + 2 = {k + 2}")

    alphas, r_list = exact.rotation_ladder(k, eps, r_cap)

    w_plane = linalg.orthonormalize([u, v], ambient_dim=n)
    # k orthonormal perturbation directions inside x_space, orthogonal to W
    z_pool = linalg.intersect([linalg.complement(w_plane), x_space])
    z = [z_pool.basis[:, i] for i in range(k)]
    h = [u * math.cos(math.pi * j / (2.0 * k)) + v * math.sin(math.pi * j / (2.0 * k))
         for j in range(k + 1)]
    chain = _chain_views(h, z, alphas, n)

    # phi = (b_k c b_k)^r(k) ... (b_1 c b_1)^r(1); letter 1 = c = W, letter j+1 = b_j
    factors = []
    for j in range(k, 0, -1):
        sandwich = Word.from_letters(k + 1, [j + 1, 1, j + 1])
        factors.append((sandwich, r_list[j - 1]))
    phi = Word(k + 1, tuple(factors))

    achieved, frame = exact.rotation_error(k, alphas, r_list)
    if achieved >= 2.0 * eps:
        raise ArithmeticError(f"rotation word error {achieved:.6g} did not meet 2*eps = {2 * eps:.6g}")
    return QuarterCircleResult(k=k, h=h, alphas=alphas, chain=chain, r=r_list,
                               phi=phi, achieved_error=achieved, z=z, _frame=frame)


def _chain_views(h, z, alphas, n):
    """Float64 chain X_j = span{h_i + alpha_i z_i : i <= j}, where float64 resolves it.

    One CGS2 pass keeps the column order, so X_j is the prefix of j + 1 columns.
    """
    k = len(z)
    smallest = min(alphas[:k])
    if smallest <= _VIEW_RESOLUTION:
        reason = f"chain perturbation alpha = {exact.sci(smallest)} is below float64 resolution"
        return [Unrepresentable(reason) for _ in range(k)]
    perturbed = [h[i] + float(alphas[i]) * z[i] for i in range(k)] + [h[k]]
    basis = linalg.orthonormalize(perturbed, ambient_dim=n).basis
    if basis.shape[1] != k + 1:
        reason = f"the chain collapsed to dimension {basis.shape[1]} < k + 1 = {k + 1} in float64"
        return [Unrepresentable(reason) for _ in range(k)]
    return [linalg.Subspace(n, basis[:, :j + 1]) for j in range(1, k + 1)]


# -- chain replacement ------------------------------------------------------------


def _tilt_view(chain, x_space, e_space, betas):
    """Float64 tilt Y spanned by e_i + gamma_i w_i, where float64 resolves it.

    e_i is an orthonormal basis of X adapted to the chain (gamma_i = beta of
    the chain tier of e_i) and w_i are orthonormal in E orthogonal to X.  The
    view's principal angles to X are cross-checked: the largest sine must be
    ``_tilt_gap`` of the largest gamma, and the smallest must be positive.
    The adapted basis is one CGS2 pass over the stacked bases of the chain
    and X; the tier sizes are the steps in dimension along the chain.  A
    member whose basis opens the next one's, as ``_chain_views`` builds
    them, is left out: CGS2 would drop its columns there again.
    """
    for member in chain:
        if isinstance(member, Unrepresentable):
            return member
    if min(betas) <= _VIEW_RESOLUTION:
        return Unrepresentable(f"tilt beta_1 = {exact.sci(min(betas))} is below float64 resolution")
    n = x_space.ambient_dim
    nested = list(chain) + [x_space]
    stacked = [s.basis for s, after in zip(nested, nested[1:])
               if not np.array_equal(s.basis, after.basis[:, :s.dim])] + [x_space.basis]
    adapted = linalg.orthonormalize(np.hstack(stacked).T, ambient_dim=n)
    if adapted.dim != x_space.dim:
        raise ValueError("chain basis extension does not fill the top subspace")
    tier_sizes = np.diff([0] + [s.dim for s in nested])
    pool = linalg.intersect([linalg.complement(x_space), e_space])
    w = pool.basis[:, :x_space.dim]
    gammas = np.repeat([float(b) for b in betas], tier_sizes)
    y_space = linalg.Subspace(n, (adapted.basis + w * gammas) / np.sqrt(1.0 + gammas**2))
    sin = linalg.principal_angles(x_space, y_space).sin
    if abs(sin[-1] - _tilt_gap(gammas.max())) > 1e-12:
        raise ArithmeticError(f"||P_X - P_Y|| = {sin[-1]:.17g} disagrees with the tilt structure")
    if sin[0] <= 1e-12:
        raise ArithmeticError("tilted subspace unexpectedly intersects the original")
    return y_space


def _tilt_gap(gamma):
    """||P_X - P_Y|| = gamma / sqrt(1 + gamma^2) for the largest tilt gamma."""
    gamma = float(gamma)
    return gamma / math.sqrt(1.0 + gamma * gamma)


def replace_projection(chain, x_space, e_space, eps, eta, a, s_cap=None):
    """Tilted copy Y of ``x_space`` whose sandwich powers walk the chain.

    Returns (Y, s, betas) with a < s(k) < ... < s(1) exact ints, beta_1 <
    ... < beta_{k+1} = eta/4 exact dyadic Fractions, and

        ||(P_X P_Y P_X)^s(j) - P_{X_j}|| < eps for each chain member,
        ||P_X - P_Y|| < eta,    X intersect Y = {0}.

    Y is spanned by e_i + gamma_i w_i over an orthonormal basis e_i of X
    adapted to the chain (gamma_i = beta of the chain tier of e_i) and
    orthonormal w_i drawn from E orthogonal to X, which requires
    dim(X-perp within E) >= dim X.

    The sandwich P_X P_Y P_X is 1/(1 + gamma_i^2) on e_i, so the first
    inequality is max((1 + beta_{j+1}^2)^-s(j), 1 - (1 + beta_j^2)^-s(j)) < eps,
    decided exactly; ||P_X - P_Y|| = max gamma/sqrt(1 + gamma^2) and, as every
    gamma_i > 0, X and Y meet only at the origin.  Y is a float64 view where
    float64 resolves the tilts (and is then cross-checked on its principal
    angles to X), an ``Unrepresentable`` placeholder elsewhere.  The nesting
    check skips ``Unrepresentable`` chain members, whose exact coordinates
    nest by construction.  ``s_cap`` (None: no cap) bounds the exponents.
    """
    if eps <= 0 or eta <= 0:
        raise ValueError("eps and eta must be positive")
    if eps >= 1:
        raise ValueError("eps must lie below 1: every inequality holds trivially beyond")
    if a < 1:
        raise ValueError("a must be >= 1")
    chain = list(chain)
    if not chain:
        raise ValueError("chain must be non-empty")
    views = [s for s in chain if not isinstance(s, Unrepresentable)] + [x_space]
    for inner, outer in zip(views, views[1:]):
        if not linalg.contains(outer, inner, tol=1e-8):
            raise ValueError("chain members must be nested inside the top subspace")
    if not linalg.contains(e_space, x_space, tol=1e-8):
        raise ValueError("the top subspace must lie inside the enclosing space")
    if e_space.dim - x_space.dim < x_space.dim:
        raise ValueError(f"need dim(X-perp within E) >= dim X = {x_space.dim}, "
                         f"have {e_space.dim - x_space.dim}")
    s_exp, betas = exact.tilt_ladder(len(chain), eps, eta, a, s_cap)
    return _tilt_view(chain, x_space, e_space, betas), s_exp, betas


# -- triples ----------------------------------------------------------------------


@dataclass(eq=False)
class TripleResult:
    """Two nearly parallel subspaces X, Y and a word psi over {W, X, Y} carrying
    u to within 3*eps of v; W = span{u, v} is the plane of ``quarter``, and Y
    is the checked float64 view of ``_tilt_view`` or ``Unrepresentable``.
    ``eta_achieved`` is ||P_X - P_Y|| as a float or, where the top tilt beta
    is below float64's normal range, beta itself: exact, and the gap to
    relative beta^2/2, so it never reads 0.0 for distinct X and Y."""

    X: linalg.Subspace
    Y: linalg.Subspace
    psi: Word = field(repr=False)
    eta_achieved: float | Fraction
    achieved_error: float
    s: list = field(repr=False)
    betas: list = field(repr=False)
    quarter: QuarterCircleResult = field(repr=False, default=None)


def build_triple(e_space, x_space, u, v, eps, eta, r_cap=None, s_cap=None):
    """Compose the rotation word with the chain replacement.

    Runs ``quarter_circle`` at accuracy ``eps``, then the chain replacement
    at accuracy eps/|phi| (rounded to 53 bits, as a dyadic Fraction that
    cannot underflow), and substitutes each chain letter b_j of phi by the
    sandwich block (a2 a3 a2)^s(j) to obtain psi over {a1 = W, a2 = X, a3 = Y}.
    """
    return _extend(quarter_circle(x_space, u, v, eps, r_cap=r_cap), e_space, x_space, eps, eta, s_cap)


def _extend(qc, e_space, x_space, eps, eta, s_cap):
    """The chain replacement and psi of ``build_triple`` on the quarter circle ``qc``."""
    y_space, s_exp, betas = replace_projection(
        qc.chain, x_space, e_space, exact.ratio(eps, qc.phi.length), eta, 1, s_cap)

    block = Word.from_letters(3, [2, 3, 2])
    mapping = {1: 1}
    for j in range(1, qc.k + 1):
        mapping[j + 1] = Word.group(block, s_exp[j - 1])
    psi = qc.phi.substitute(mapping, alphabet=3)

    achieved = exact.tilt_error(qc, s_exp, betas)
    if achieved >= 3.0 * eps:
        raise ArithmeticError(f"triple word error {achieved:.6g} did not meet 3*eps = {3 * eps:.6g}")
    beta = betas[-1]
    return TripleResult(X=x_space, Y=y_space, psi=psi,
                        eta_achieved=beta if beta < np.finfo(float).tiny else _tilt_gap(beta),
                        achieved_error=achieved, s=list(s_exp), betas=list(betas), quarter=qc)


# -- gluing -----------------------------------------------------------------------


@dataclass(eq=False)
class GluedConstruction:
    """Three subspaces plus one finite schedule traversing an orthonormal set.

    ``words[i]`` moves the iterate from near e_i to near e_{i+1};
    ``checkpoints[i]`` is the 1-based step count after word i has been fully
    applied.  The orbit from e_1 stays at ``precision`` bits (53 is float64)
    between words; ``checkpoint_states`` are its float64 roundings, while
    ``achieved[i]`` = ||word_i(...) e_i - e_{i+1}|| and ``non_cauchy_gap``
    are evaluations at that precision, each rounded once, not enclosures (a
    +400-bit evaluation moves them by up to 3e-12 relative).  M2 and M3 are
    ``Unrepresentable`` where float64 cannot resolve the tilts.
    """

    ambient_dim: int
    K: int
    epsilons: list
    M1: linalg.Subspace
    M2: linalg.Subspace
    M3: linalg.Subspace
    e: list
    words: list = field(repr=False)
    schedule: Schedule = field(repr=False)
    checkpoints: list = field(repr=False)
    achieved: list
    checkpoint_states: list
    non_cauchy_gap: float
    triples: list = field(repr=False, default=None)
    caveat: str = FINITE_DIM_CAVEAT
    precision: int = 53


def glue(K, epsilons, seed=0, r_cap=None, s_cap=None):
    """Chain K triples into three subspaces and one schedule.

    Preconditions: K >= 2, seed >= 0 and sum(4 eps_i) < 1/2 (the budget that keeps the
    checkpoint iterates near the orthonormal e_i).  The word lengths grow
    beyond any stepping (that growth is the mechanism that defeats norm
    convergence in infinite dimension), so the construction is evaluated
    exactly in intrinsic coordinates.  Measured at eps = (1/32, 1/64),
    seed 0: k = 39 and 79, sum r = 1.2e116 and 3.2e283, s up to 5173 and
    22781 digits, words evaluated at 974 bits (mpmath), checkpoint errors
    0.032 and 0.047 against budgets 0.125 and 0.1875, gap 1.36, in about
    8 s on a 2-core x86-64 VM.  Triple i's eta is its neighbours' smaller
    eps/|phi|_W, a dyadic that may lie far below float64's range: 2e-572 for
    triple 2 at eps = (1/32, 1/64, 1/128), which builds at 1925 bits in about
    90 s.  An exponent beyond ``r_cap`` or ``s_cap`` (None: no cap) raises
    ``ExponentCapExceeded`` tagged with the offending triple; any other
    ``ArithmeticError`` of a triple's stages is re-raised with its type and
    the triple named.
    """
    epsilons = [float(e) for e in epsilons]
    if K < 2:
        raise ValueError("glue needs K >= 2")
    if len(epsilons) != K:
        raise ValueError(f"expected {K} accuracy budgets, got {len(epsilons)}")
    if any(e <= 0 for e in epsilons):
        raise ValueError("accuracy budgets must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    budget = 4.0 * sum(epsilons)
    if budget >= 0.5:
        raise BudgetExceeded(
            f"sum(4 eps_i) = {budget:.6g} must stay below 1/2 for the checkpoint "
            "iterates to stay near the orthonormal targets")

    k_values = [k_of_eps(e) for e in epsilons]
    for i, (e, k) in enumerate(zip(epsilons, k_values)):
        if k > MAX_STAGES:
            raise ValueError(f"triple {i + 1} (eps = {e:.6g}): k = {k} rotation stages exceed "
                             f"the limit of {MAX_STAGES}")

    # coordinate layout: e_1..e_{K+1} first, then one slab per triple
    slabs = [2 * (k + 2) - 2 for k in k_values]  # X_i fill + tilt room
    total = (K + 1) + sum(slabs)
    rng = np.random.default_rng(seed)

    basis_e = list(np.eye(K + 1, total))
    x_spaces = []
    e_spaces = []
    for i, (slab, off) in enumerate(zip(slabs, np.cumsum([K + 1] + slabs[:-1]))):
        # seeded rotation inside the slab: X_i gets the first k_i directions
        slab_cols = np.zeros((total, slab))
        slab_cols[off:off + slab] = linalg.random_subspace(rng, slab, slab).basis
        x_cols = np.column_stack([basis_e[i], basis_e[i + 1], slab_cols[:, :k_values[i]]])
        x_spaces.append(linalg.Subspace(total, x_cols))
        e_spaces.append(linalg.Subspace(total, np.column_stack([x_cols, slab_cols[:, k_values[i]:]])))

    def tagged(i, build):
        prefix = f"triple {i + 1} (eps = {epsilons[i]:.6g}): "
        try:
            return build()
        except ExponentCapExceeded as exc:
            raise ExponentCapExceeded(prefix + str(exc), stage=exc.stage, triple=i + 1,
                                      required=exc.required) from None
        except ArithmeticError as exc:
            raise type(exc)(prefix + str(exc)) from None

    # first pass: rotation words (fixes N_i = |phi_i|_W needed for the eta ladder)
    quarters = [tagged(i, lambda i=i: quarter_circle(
        x_spaces[i], basis_e[i], basis_e[i + 1], epsilons[i], r_cap=r_cap)) for i in range(K)]

    deltas = [exact.ratio(epsilons[i], quarters[i].phi.letter_count(1)) for i in range(K)]
    etas = [min(deltas[j] for j in (i - 1, i + 1) if 0 <= j < K) for i in range(K)]

    triples = [tagged(i, lambda i=i: _extend(
        quarters[i], e_spaces[i], x_spaces[i], epsilons[i], etas[i], s_cap)) for i in range(K)]
    return assemble(triples, basis_e, epsilons)


def assemble(triples, e_vectors, epsilons):
    """Glue prebuilt triples into the three subspaces, words and schedule.

    Triple i's tilt subspace Y_i joins M2 when i is even (1-based: triples
    1, 3, ... are odd) -- the grouping alternates so that the two tilts
    adjacent to triple i live together in the subspace that stands in for
    its plane W_i.  The line spanned by e_1 seeds the group that covers
    triple 1's plane.  Triple i must carry e_i to e_{i+1}.  The running state
    stays in the words' evaluation context from e_1 to the report.
    """
    K = len(triples)
    if K < 2:
        raise ValueError("need at least two triples")
    n = triples[0].X.ambient_dim
    # group A = tilts of even-numbered triples, group B = odd-numbered ones;
    # the end lines span{e_1} and span{e_{K+1}} seed the groups that stand in
    # for the first and last planes (a finite chain has no outer neighbours
    # to supply those directions)
    lines = {0: [0], 1: []}
    lines[(K + 1) % 2].append(K)

    def union(parity):
        spaces = [t.Y for i, t in enumerate(triples, start=1) if i % 2 == parity]
        for space in spaces:
            if isinstance(space, Unrepresentable):
                return space
        cols = [e_vectors[e] for e in lines[parity]]
        cols += [c for s in spaces for c in s.basis.T]
        return linalg.orthonormalize(cols, ambient_dim=n)

    m1 = linalg.orthonormalize([c for t in triples for c in t.X.basis.T], ambient_dim=n)
    m2, m3 = union(0), union(1)

    # per-triple letter map {W, X, Y_i} -> global {1 = M1, 2 = M2, 3 = M3}:
    # the tilt letter goes to its own group, the plane letter to the other
    mappings = ({1: 3, 2: 1, 3: 2},   # even i: W -> M3, X -> M1, Y_i -> M2
                {1: 2, 2: 1, 3: 3})   # odd i: W -> M2, X -> M1, Y_i -> M3
    words = [t.psi.substitute(mappings[i % 2], alphabet=3) for i, t in enumerate(triples, start=1)]

    full = words[0]
    for w in words[1:]:
        full = w * full  # later words act after earlier ones
    schedule = Schedule.from_word(full, J=3)

    checkpoints = list(accumulate(w.length for w in words))

    apply_word, num = exact.glued_words(triples, lines)
    unit = [[num.mpf(int(e == c)) for e in range(K + 1)] for c in range(K + 1)]
    zeros = [[num.mpf(0)] * t.quarter.k for t in triples]

    def distance(a, b):  # M1's frame is orthonormal; pow(d, 2) and d * d can differ in float64
        return float(num.sqrt(sum((x - y) ** 2 for x, y in zip(a[0], b[0]))
                              + sum((x - y) * (x - y) for za, zb in zip(a[1], b[1])
                                    for x, y in zip(za, zb))))

    achieved = []
    states = [(unit[0], zeros)]
    for i in range(K):
        # one pass moves the running state and checks the word from e_i
        state, image = apply_word(i, [states[-1], (unit[i], zeros)])
        states.append(state)
        achieved.append(distance(image, (unit[i + 1], zeros)))
        if achieved[-1] >= 4.0 * epsilons[i]:
            raise ArithmeticError(
                f"glued word {i + 1} error {achieved[-1]:.6g} did not stay below "
                f"4*eps = {4 * epsilons[i]:.6g}")

    return GluedConstruction(
        ambient_dim=n, K=K, epsilons=list(epsilons), M1=m1, M2=m2, M3=m3,
        e=[np.asarray(e, dtype=float) for e in e_vectors], words=words,
        schedule=schedule, checkpoints=checkpoints, achieved=achieved,
        checkpoint_states=[_ambient(s, e_vectors, triples, n) for s in states[1:]],
        non_cauchy_gap=distance(states[1], states[2]), triples=triples, precision=num.prec)


def _ambient(state, e_vectors, triples, n):
    """A state in M1 coordinates, rounded to a float64 vector of R^n."""
    out = np.zeros(n)
    for coef, vec in zip([*state[0], *(x for zl in state[1] for x in zl)],
                         [*e_vectors, *(z for t in triples for z in t.quarter.z)]):
        out += float(coef) * np.asarray(vec, dtype=float)
    return out


def sakai_blowup(construction):
    """Lower bound on the increment-sum constant A of the construction's schedule.

    For an orthogonal projection P, ||x - Px||^2 = ||x||^2 - ||Px||^2, so the
    squared increments between steps m < n sum to ||x_m||^2 - ||x_n||^2.  The
    ratio ||x_n - x_m||^2 / (||x_m||^2 - ||x_n||^2) over pairs among x_0 = e_1
    and the checkpoint states is therefore the constant's ratio for those pairs
    of steps.  Its maximum over those pairs, x_0 included, bounds A over all
    pairs n > m >= 0 from below without stepping the schedule;
    ``iteration.sakai_constant`` takes n > m >= 1 instead.  Pairs without
    motion are skipped; 0.0 when none moved.
    """
    if construction.K < 2:
        raise ValueError("need a construction with K >= 2")
    points = [np.asarray(construction.e[0], dtype=float)]
    points += [np.asarray(s, dtype=float) for s in construction.checkpoint_states]
    best = 0.0
    for m, x_m in enumerate(points):
        for x_n in points[m + 1:]:
            denom = float(x_m @ x_m - x_n @ x_n)
            if denom > 0.0:
                diff = x_n - x_m
                best = max(best, float(diff @ diff) / denom)
    return best
