"""Exact arithmetic for the non-convergence construction, in intrinsic coordinates.

``divergence`` builds the construction; this module computes its numbers.
Each triple lives in the coordinates (u, v, z_0..z_{k-1}) of its space X,
with the chain X_1 c ... c X_k given by exact dyadic perturbations alpha_j
and each chain tier tilted by an exact dyadic beta.  Exponents are exact
Python ints; every other quantity is a scalar at a precision derived from the
exponents it decides: float64 when that suffices, an mpmath context
otherwise (mpmath is imported only then).  An integer or an inequality counts
as decided only beyond its rounding bound, and is recomputed at doubled
precision otherwise.  ``divergence`` imports this module with itself, so
importing the package or a module other than ``divergence`` loads none of it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: bits carried beyond the magnitude of every exponent a computation decides
_GUARD_BITS = 32

#: rounding error, as a power of two in units of the last place, granted to
#: a chain of scalar operations before its result counts as decided; the
#: exponent quotients and comparisons are a few correctly rounded operations
_ROUNDING_BITS = 8
_QUOTIENT_ROUNDING_BITS = 3

#: precision beyond which an undecided comparison is reported, not retried
_MAX_BITS = 1 << 22

#: halvings of alpha tried per rotation stage
_MAX_HALVINGS = 60


class ExponentCapExceeded(RuntimeError):
    """A power search needs an exponent beyond the configured cap."""

    def __init__(self, message, stage=None, triple=None, required=None):
        super().__init__(message)
        self.stage = stage
        self.triple = triple
        self.required = required


# -- scalar arithmetic at a chosen precision -----------------------------------


class _Float64:
    """float64 under the names of the mpmath context functions used here."""

    prec = 53
    pi = math.pi
    mpf = staticmethod(float)
    sqrt = staticmethod(math.sqrt)
    sin = staticmethod(math.sin)
    exp = staticmethod(math.exp)
    log = staticmethod(math.log)


_FLOAT64 = _Float64()


def _context(bits):
    """Scalars carrying ``bits`` of precision: float64 when that suffices."""
    if bits <= _Float64.prec:
        return _FLOAT64
    import mpmath  # deferred: budgets that float64 resolves never load it

    ctx = mpmath.MPContext()
    ctx.prec = int(bits)
    return ctx


class _Undecided(Exception):
    """Rounding at the current precision could flip a decision."""


def _certified(compute, bits):
    """``compute(num)`` at ``bits`` of precision, doubled while it is undecided."""
    while True:
        try:
            return compute(_context(bits))
        except _Undecided:
            if bits > _MAX_BITS:
                raise ArithmeticError(f"rounding still decides the outcome at {bits} bits") from None
            bits = 2 * max(bits, 64)


def _value(num, x):
    """An exact int or dyadic Fraction as a scalar of ``num``."""
    if num is _FLOAT64:
        return float(x)
    if isinstance(x, Fraction):
        den = x.denominator
        if den & (den - 1) == 0:  # dyadic: a shift, not a division by a huge int
            return num.ldexp(num.mpf(x.numerator), 1 - den.bit_length())
        return num.mpf(x.numerator) / den
    return num.mpf(x)


def _start_bits(log2_exponent):
    """Starting precision for deciding an exponent of about 2^log2_exponent:
    float64 while it leaves a few bits below the integer, else the
    exponent's bits plus a guard; certification raises it where needed."""
    if log2_exponent <= _Float64.prec - 3:
        return _Float64.prec
    return math.ceil(log2_exponent) + _GUARD_BITS


def _slack(num, scale, rounding=_ROUNDING_BITS):
    """The rounding bound of a result of magnitude ``scale``."""
    return abs(scale) * (math.ldexp(1.0, rounding - num.prec) if num is _FLOAT64
                         else num.ldexp(num.mpf(1), rounding - num.prec))


def _log1p(num, x):
    """log(1 + x), by its series once |x| < 2^-32: at thousands of bits the
    logarithm of 1 + x costs far more than the few terms the series needs."""
    if num is _FLOAT64:
        return math.log1p(x)
    if not x:
        return num.mpf(0)
    if num.mag(x) >= -32:
        return num.log1p(x)
    total, term, n = x, x, 1
    tiny = _slack(num, x)
    while abs(term) > tiny:
        n += 1
        term = -term * x
        total += term / n
    return total


def _floor(num, q):
    """floor(q) as an int, decided beyond the rounding of q."""
    f = math.floor(q) if num is _FLOAT64 else num.floor(q)
    slack = _slack(num, q, _QUOTIENT_ROUNDING_BITS)
    if q - f > slack and f + 1 - q > slack:
        return int(f)
    raise _Undecided


def _less(num, x, y):
    """x < y for a few correctly rounded operations' results, decided beyond rounding."""
    if abs(x - y) <= _slack(num, y, _QUOTIENT_ROUNDING_BITS):
        raise _Undecided
    return x < y


def _sines(num, k):
    """sin(pi m / 2k) for m = 0..k; cos(pi i / 2k) is entry k - i."""
    return [num.sin(num.pi * m / (2 * k)) for m in range(k + 1)]


def _log2(x):
    """log2 of a positive int or Fraction of any size."""
    x = Fraction(x)
    return math.log2(x.numerator) - math.log2(x.denominator)


def sci(x):
    """Short scientific form of a positive int or Fraction of any size."""
    x = Fraction(x)
    lg = math.log10(x.numerator) - math.log10(x.denominator)
    e = math.floor(lg)
    mant = 10.0 ** (lg - e)
    if mant >= 9.9995:
        mant, e = 1.0, e + 1
    return f"{mant:.3f}e{e:+03d}"


# -- rotation chain -------------------------------------------------------------


def rotation_stages(eps):
    """Least k >= 3 with cos(pi/2k)^k > 1 - eps, for 0 < eps <= 1/2.

    In logarithms the inequality reads k log1p(-2 sin^2(pi/4k)) >
    log1p(-eps).  Its left side rises with k and lies below -pi^2/(8k)
    (log cos x < -x^2/2), so k exceeds q = pi^2/(8 (-log1p(-eps))), by less
    than 2: the search walks up from floor(q) in at most three comparisons,
    each decided beyond rounding at a precision above the bits of k.  No
    cos(pi/2k)^k with k >= 3 is rational, so none is a tie.
    """
    def least(num):
        target = _log1p(num, -num.mpf(eps))

        def passes(k):
            s = num.sin(num.pi / (4 * k))
            gap = k * _log1p(num, -2 * s * s) - target
            if abs(gap) <= _slack(num, target):
                raise _Undecided
            return gap > 0

        k = max(3, int(num.pi ** 2 / (8 * -target)))
        while not passes(k):
            k += 1
        return k

    # k < 2/eps <= 2^(2 - e) for eps = m 2^e with 1/2 <= m < 1
    return _certified(least, _start_bits(2 - math.frexp(eps)[1] + _ROUNDING_BITS))


def _perturbation_fits(num, gram, q, w, cos_j, sin_j, r, bound):
    """Whether ||(P_X P_W P_X)^r - P_{h_j}|| < bound for the trial chain member.

    ``gram`` = (H11, H12, H22, det H) of H = I + sum_{i<j} c_i c_i^T / alpha_i^2
    over the fixed perturbations, ``w`` = 1/alpha^2 of the trial one and
    ``q`` = 1 + sum_{i<j} sin^2(theta_j - theta_i) / alpha_i^2.  With the
    trial term added, W^T P_X W = I - H^-1 has eigenvalues mu = 1 - 1/eta
    (eta those of H), so on the orthonormal frame {a_1, a_2, t} the
    difference is diag(mu_1^r, mu_2^r, 0) - x x^T with x = (sqrt(mu_1) c.g_1,
    sqrt(mu_2) c.g_2, tau), tau^2 = c^T H^-1 c = q / det H.
    """
    h11, h12, h22, det = _with_perturbation(gram, w, cos_j, sin_j, q)
    d = h11 - h22
    disc = num.sqrt(d * d + 4 * h12 * h12)
    eta1 = (h11 + h22 + disc) / 2
    eta2 = det / eta1
    g = ((disc + d) / 2, h12) if d >= 0 else (h12, (disc - d) / 2)
    norm = num.sqrt(g[0] * g[0] + g[1] * g[1])
    g = (g[0] / norm, g[1] / norm)
    gam = (g[0] * cos_j + g[1] * sin_j, g[0] * sin_j - g[1] * cos_j)
    power = _value(num, r)
    x, p = [], []
    for eta, gm in zip((eta1, eta2), gam):
        p.append(num.exp(power * _log1p(num, -1 / eta)))
        x.append(num.sqrt(1 - 1 / eta) * gm)
    x.append(num.sqrt(q / det))
    diff = [[(p[a] if a == b and a < 2 else 0) - x[a] * x[b] for b in range(3)] for a in range(3)]
    return all(_positive_definite3(num, [[(bound if a == b else 0) - sign * diff[a][b]
                                          for b in range(3)] for a in range(3)])
               for sign in (1, -1))


def _with_perturbation(gram, w, cos_t, sin_t, q):
    """(H11, H12, H22, det H) of H + w c c^T, c = (cos_t, sin_t), given
    q = (c^perp)^T H c^perp (matrix determinant lemma: no cancellation)."""
    h11, h12, h22, det = gram
    return (h11 + w * cos_t * cos_t, h12 + w * cos_t * sin_t, h22 + w * sin_t * sin_t,
            det + w * q)


def _positive_definite3(num, a):
    """Sylvester's criterion on a symmetric 3x3 matrix, decided beyond rounding."""
    minors = (
        (a[0][0], abs(a[0][0])),
        (a[0][0] * a[1][1] - a[0][1] ** 2, abs(a[0][0] * a[1][1]) + a[0][1] ** 2),
    )
    terms = (a[0][0] * a[1][1] * a[2][2], -a[0][0] * a[1][2] ** 2, -a[0][1] ** 2 * a[2][2],
             2 * a[0][1] * a[1][2] * a[0][2], -a[1][1] * a[0][2] ** 2)
    minors += ((sum(terms), sum(abs(t) for t in terms)),)
    for value, scale in minors:
        slack = _slack(num, scale)
        if value < -slack:
            return False
        if value <= slack:
            raise _Undecided
    return True


def _rotation_stage(num, k, j, alphas, gram, bound, r_cap):
    """Exponent r(j), perturbation alpha_j and the updated Gram sums of stage j."""
    sines = _sines(num, k)
    w = [1 / _value(num, a) ** 2 for a in alphas]
    # (h_j^perp)^T H h_j^perp: 1 / (1 - lambda_j) for the candidate hyperplane
    q = 1 + sum(w[i] * sines[j - i] ** 2 for i in range(j))
    r = _floor(num, -num.log(_value(num, bound)) / -_log1p(num, -1 / q)) + 1
    if r_cap is not None and r > r_cap:
        raise ExponentCapExceeded(
            f"power search at stage {j} needs exponent ~{sci(r)} beyond the cap {sci(r_cap)}; "
            "a larger eps keeps the construction desk-scale", stage=j, required=r)
    if j == k:
        return r, Fraction(0), gram
    if gram is None:  # H_0 = I + e_u e_u^T / alpha_0^2
        gram = _with_perturbation((1, 0, 1, 1), w[0], 1, 0, 1)
    cos_j, sin_j = sines[k - j], sines[j]
    alpha = alphas[-1] / 2
    for _ in range(_MAX_HALVINGS):
        if _perturbation_fits(num, gram, q, 1 / _value(num, alpha) ** 2, cos_j, sin_j, r, bound):
            return r, alpha, _with_perturbation(gram, 1 / _value(num, alpha) ** 2, cos_j, sin_j, q)
        alpha /= 2
    raise ValueError(f"no perturbation size survived at stage {j}")


def rotation_ladder(k, eps, r_cap):
    """Exact exponents r(1..k) and perturbations alpha_0 = 1/2 .. alpha_k = 0."""
    bound = eps / k
    log2_rate = max(0.0, math.log2(-math.log(bound)))
    alphas = [Fraction(1, 2)]
    r_list = []
    gram = None
    for j in range(1, k + 1):
        # r(j) <= L (1 + j / alpha_min^2) + 1 bounds the bits the stage decides
        bits = _start_bits(log2_rate + math.log2(1 + j) + 2 * _log2(1 / alphas[-1]) + 2)
        r, alpha, gram = _certified(
            lambda num: _rotation_stage(num, k, j, alphas, gram, bound, r_cap), bits)
        r_list.append(r)
        alphas.append(alpha)
    return alphas, r_list


def _tier_basis(num, k, alphas):
    """Orthonormal basis of span{u, v, z_0..z_{k-1}} adapted to the chain.

    Coordinates are (u, v, z_0, .., z_{k-1}).  Column 0 is p_0 / |p_0|,
    column t spans X_t minus X_{t-1} (the part of p_t = h_t + alpha_t z_t
    orthogonal to X_{t-1}, namely Y H^-1 c_t + alpha_t z_t with Y the graph
    basis of the complement of X_{t-1}), and the last column is the normal of
    X_k.  Returns (columns, tiers), tier 1 holding columns 0 and 1.
    """
    sines = _sines(num, k)
    cos = sines[::-1]
    a = [_value(num, x) for x in alphas]
    w = [1 / x ** 2 for x in a[:k]]
    n = k + 2
    zero = num.mpf(0)

    def unit(vec):
        norm = num.sqrt(sum(x * x for x in vec))
        return [x / norm for x in vec]

    cols = [unit([1 + zero, zero, a[0]] + [zero] * (k - 1))]
    tiers = [1]
    gram = _with_perturbation((1, 0, 1, 1), w[0], 1, 0, 1)
    for t in range(1, k + 1):
        h11, h12, h22, det = gram
        g0 = (h22 * cos[t] - h12 * sines[t]) / det
        g1 = (h11 * sines[t] - h12 * cos[t]) / det
        vec = [g0, g1] + [zero] * k
        for i in range(t):
            vec[2 + i] = -(cos[i] * g0 + sines[i] * g1) / a[i]
        if t < k:
            vec[2 + t] = a[t]
            q = 1 + sum(w[i] * sines[t - i] ** 2 for i in range(t))
            gram = _with_perturbation(gram, w[t], cos[t], sines[t], q)
        cols.append(unit(vec))
        tiers.append(t)
    cols.append(unit([-1 + zero, zero] + [cos[i] / a[i] for i in range(k)]))
    tiers.append(k + 1)
    for row, other, want in ((0, 0, 1), (1, 1, 1), (0, 1, 0)):
        if abs(sum(c[row] * c[other] for c in cols) - want) > _slack(num, n * n):
            raise _Undecided  # cancellation ate the precision
    return cols, tiers


def _chain_basis(bits, k, alphas):
    """The tier frame (bits, columns, tiers): ``_tier_basis`` accurate to
    ``bits``.  Its sums cancel down to alpha_min^2 of their terms, so it starts
    that many bits higher."""
    smallest = min(a for a in alphas if a)
    return (bits,) + _certified(lambda num: _tier_basis(num, k, alphas),
                                bits + math.ceil(2 * _log2(1 / smallest)))


def _frame_at(bits, quarter):
    """``quarter``'s tier frame at ``bits``: the rotation error's if built there."""
    frame = quarter._frame
    return frame if frame and frame[0] == bits else _chain_basis(bits, quarter.k, quarter.alphas)


# -- sandwich powers ------------------------------------------------------------


def _sandwich_powers(num, blocks, lines, chol, groups, states):
    """Apply prod (B C B)^r over ``groups`` (first group acts first) to each state.

    B is sum_b F_b diag(d_b) F_b^T plus the identity on ``lines``; each block
    b = (u_row, v_row, ia, ib) holds the rows of its tier basis F_b at its two
    e-lines; ``chol`` is the Cholesky factor of the compression of C to the
    e-lines.  Since B C B = B E C_E E^T B, the power is (B C B)^r =
    B E (C_E K)^(r-1) C_E E^T B with K = E^T B^2 E, and only the e-line
    coefficients of a state enter each group.  Each state is a pair (tier
    coordinates of each block, line coordinates); every state shares one
    K and one eigendecomposition per group.
    """
    m = max(max(b[3] for b in blocks), max(lines, default=0)) + 1
    zero = num.mpf(0)
    for ds, r in groups:
        k_mat = [[zero] * m for _ in range(m)]
        for (u_row, v_row, ia, ib), d in zip(blocks, ds):
            d2 = [dc * dc for dc in d]
            k_mat[ia][ia] = sum(f * f * dc for f, dc in zip(u_row, d2))
            k_mat[ib][ib] = sum(f * f * dc for f, dc in zip(v_row, d2))
            k_mat[ia][ib] = k_mat[ib][ia] = sum(f * g * dc for f, g, dc in zip(u_row, v_row, d2))
        for e in lines:
            k_mat[e][e] = 1 + zero
        vectors = []
        for y, line_vals in states:
            a = [zero] * m
            for (u_row, v_row, ia, ib), d, yb in zip(blocks, ds, y):
                a[ia] = sum(f * dc * yc for f, dc, yc in zip(u_row, d, yb))
                a[ib] = sum(f * dc * yc for f, dc, yc in zip(v_row, d, yb))
            for e in lines:
                a[e] = line_vals[e]
            vectors.append(a)
        states = [([[dc * (coef[ia] * f + coef[ib] * g) for f, g, dc in zip(u_row, v_row, d)]
                    for (u_row, v_row, ia, ib), d in zip(blocks, ds)],
                   {e: coef[e] for e in lines})
                  for coef in _power_action(num, k_mat, chol, r, vectors)]
    return states


def _power_action(num, k_mat, chol, r, vectors):
    """(C K)^(r-1) C a for each a in ``vectors``, with C = L L^T, through the
    symmetric L^T K L: one eigendecomposition serves every vector."""
    m = len(k_mat)
    kl = [[sum(k_mat[i][p] * chol[p][j] for p in range(m)) for j in range(m)] for i in range(m)]
    t_mat = [[sum(chol[p][i] * kl[p][j] for p in range(m)) for j in range(m)] for i in range(m)]
    vals, vecs = _eigh(num, t_mat)
    scale = [1] * m
    if r > 1:  # eigenvalues lie in [0, 1]: L^T K L is a compressed product of contractions
        power = _value(num, r - 1)
        scale = [num.exp(power * num.log(min(tau, 1))) if tau > 0 else 0 * tau for tau in vals]
    out = []
    for a in vectors:
        b = [sum(chol[p][i] * a[p] for p in range(m)) for i in range(m)]
        proj = [sum(vecs[p][i] * b[p] for p in range(m)) * scale[i] for i in range(m)]
        c = [sum(vecs[i][p] * proj[p] for p in range(m)) for i in range(m)]
        out.append([sum(chol[i][p] * c[p] for p in range(m)) for i in range(m)])
    return out


def _eigh(num, sym):
    """Eigenvalues and eigenvectors (as columns of a nested list) of a symmetric matrix."""
    m = len(sym)
    if num is _FLOAT64:
        vals, vecs = np.linalg.eigh(np.array(sym, dtype=float))
        return [float(v) for v in vals], vecs.tolist()
    vals, vecs = num.eigsy(num.matrix(sym))
    return [vals[i] for i in range(m)], [[vecs[i, j] for j in range(m)] for i in range(m)]


def _cholesky(num, sym):
    """Lower Cholesky factor (nested list) of a symmetric positive definite matrix."""
    m = len(sym)
    if num is _FLOAT64:
        return np.linalg.cholesky(np.array(sym, dtype=float)).tolist()
    low = num.cholesky(num.matrix(sym))
    return [[low[i, j] for j in range(m)] for i in range(m)]


def _decay(num, power, rate):
    """(1 + beta^2)^-s = exp(-s log1p(beta^2)) for ``power`` = s as a scalar,
    flushed to 0 far below the precision."""
    x = power * rate
    if x > (num.prec + 64) * math.log(2):
        return 0 * rate
    return num.exp(-x)


def _bits_of(*exponents):
    """Precision resolving powers up to the largest exponent given."""
    return max(int(e).bit_length() for e in exponents) + _GUARD_BITS


def rotation_error(k, alphas, r_list):
    """||phi u - v|| of the rotation word, and the tier frame it used.

    b_j = P_{X_j} keeps the tiers 1..j of the adapted basis and drops the rest.
    """
    bits, cols, tiers = frame = _chain_basis(_bits_of(*r_list), k, alphas)
    groups = [([[1 if t <= j else 0 for t in tiers]], r) for j, r in enumerate(r_list, start=1)]
    return _triple_error(_context(bits), cols, groups), frame


def tilt_error(quarter, s_list, betas):
    """||psi u - v|| of the three-letter word over ``quarter``'s chain.

    b_j = (P_X P_Y P_X)^s(j) is (1 + beta^2)^-s(j) on each chain tier.
    """
    bits = evaluation_bits(quarter.r, s_list, betas)
    _, cols, tiers = _frame_at(bits, quarter)
    num = _context(bits)
    rates = _tier_rates(num, tiers, betas)
    groups = [([[_decay(num, power, x) for x in rates]], r)
              for power, r in zip([_value(num, s) for s in s_list], quarter.r)]
    return _triple_error(num, cols, groups)


def ratio(x, n):
    """x / n for a float x and an int n of any size, rounded to nearest at 53 bits
    as float64 rounds, but as a dyadic Fraction with no exponent range to underflow."""
    q = Fraction(x) / n
    e = Fraction(2) ** (q.numerator.bit_length() - q.denominator.bit_length())
    return Fraction(float(q / e)) * e


def _triple_error(num, cols, groups):
    """||word u - v|| for sandwich groups over one tier basis and the plane
    {u, v}, whose compression to itself is the identity.  The identity takes
    the basis entries' own precision, so multiplying by it rounds nothing."""
    u_row = [c[0] for c in cols]
    v_row = [c[1] for c in cols]
    one = u_row[0] ** 0
    [((y,), _)] = _sandwich_powers(num, [(u_row, v_row, 0, 1)], [], [[one, 0 * one], [0 * one, one]],
                                   groups, [([u_row], {})])
    return float(num.sqrt(sum((a - b) ** 2 for a, b in zip(y, v_row))))


# -- chain replacement ----------------------------------------------------------


def tilt_ladder(k, eps, eta, a, s_cap):
    """Exact exponents s(1..k) and dyadic tilts beta_1..beta_{k+1} = eta/4.

    Top down from s(k) = max(a + 1, smallest s killing beta_{k+1}): beta_j is
    beta_{j+1} 2^-m for the least m >= 1 whose tier survives s(j) within eps,
    and s(j-1) = max(s(j) + 1, the least s with (1 + beta_j^2)^-s < eps).  A
    float estimate from log2(eps), with -log1p(-eps) taken as eps, fixes the
    precision, so -log(eps) is taken once at high precision and eps and eta
    may be Fractions below float64's range.
    """
    top = Fraction(eta) / 4
    log2_kill = math.log2(max(-_log2(eps), 1e-300) * math.log(2))
    log2_keep = _log2(eps)  # -log1p(-eps) ~ eps
    lg_s = max(math.log2(a + 1), log2_kill - 2 * _log2(top))
    lg_b = 2 * _log2(top)
    for _ in range(k - 1):  # beta_k, s(k-1), ..., beta_2, s(1)
        lg_b -= 2 * max(1, math.floor((lg_s + lg_b - log2_keep) / 2) + 1)
        lg_s = max(lg_s, log2_kill - lg_b)
    return _certified(lambda num: _tilt_steps(num, k, eps, top, a, s_cap), _start_bits(lg_s + 4))


def _tilt_steps(num, k, eps, top, a, s_cap):
    """The ladder of ``tilt_ladder`` with every decision taken in ``num``."""
    kill = -num.log(_value(num, eps))
    keep = -_log1p(num, -_value(num, eps))

    def rate(beta):
        return _log1p(num, _value(num, beta * beta))

    def smallest_killing(beta):  # least s with (1 + beta^2)^-s < eps
        return _floor(num, kill / rate(beta)) + 1

    def keeps(s, beta):  # 1 - (1 + beta^2)^-s < eps
        return _less(num, _value(num, s) * rate(beta), keep)

    def capped(j, s):
        if s_cap is not None and s > s_cap:
            raise ExponentCapExceeded(
                f"tier {j} needs exponent {sci(s)} beyond the cap {sci(s_cap)}; "
                "larger eps or eta keeps the ladder desk-scale", stage=j, required=s)
        return s

    betas = [None] * (k + 2)
    s_exp = [None] * (k + 1)
    betas[k + 1] = top
    s_exp[k] = capped(k, max(a + 1, smallest_killing(top)))
    for j in range(k, 0, -1):
        s, upper = s_exp[j], betas[j + 1]
        # s beta^2 ~ keep at the boundary: start there, then step to the least m
        m = max(1, math.ceil((math.log2(s) + 2 * _log2(upper) - _log2(eps)) / 2))
        while not keeps(s, upper / 2 ** m):
            m += 1
        while m > 1 and keeps(s, upper / 2 ** (m - 1)):
            m -= 1
        betas[j] = upper / 2 ** m
        if j > 1:
            s_exp[j - 1] = capped(j - 1, max(s + 1, smallest_killing(betas[j])))
    return s_exp[1:], betas[1:]


def _tier_rates(num, tiers, betas):
    """log1p(beta^2) of each basis column's chain tier."""
    by_tier = [_log1p(num, _value(num, b * b)) for b in betas]
    return [by_tier[t - 1] for t in tiers]


def evaluation_bits(r_list, s_list, betas):
    """Bits that resolve the sandwich powers: those of the largest r plus a guard,
    and more than float64 once an s or a beta^2 leaves float64's range."""
    bits = _bits_of(*r_list)
    if max(s_list) >= 2**52 or min(betas) < Fraction(1, 2**400):
        bits = max(bits, 64)
    return bits


# -- glued words ----------------------------------------------------------------


def glued_words(triples, lines):
    """Evaluator of the glued words on M1 coordinates (e-lines, per-triple z).

    Word i's tilt letter is the sum of its parity group's tilts (and lines),
    so P_M1 P_Mt P_M1 is the sum of their sandwiches S_l and B = sum_l S_l^s
    plus the lines; the plane letter compresses, on the range of B, to the
    e-lines: S_l' on {e_l', e_l'+1} for each triple l' of the other group,
    plus its lines.  Returns the function mapping (i, [(xe, xz), ...]) to
    word i's images of those states in one pass, and the context ``num`` it
    evaluates in; states go in and come out as ``num`` scalars, so an orbit
    keeps its working precision from word to word.  Each triple's tier frame
    is the one its quarter circle built, unless the words need another one.
    """
    K = len(triples)
    bits = max(evaluation_bits(t.quarter.r, t.s, t.betas) for t in triples)
    num = _context(bits)
    frames = []
    for t in triples:
        _, cols, tiers = _frame_at(bits, t.quarter)
        rates = _tier_rates(num, tiers, t.betas)
        shrink = [1 / (1 + _value(num, t.betas[tier - 1] ** 2)) for tier in tiers]
        frames.append((cols, rates, shrink))

    def apply_word(i, states):
        tilt = (i + 1) % 2
        members = [l for l in range(K) if (l + 1) % 2 == tilt]
        c_mat = [[num.mpf(0)] * (K + 1) for _ in range(K + 1)]
        for l in range(K):
            if (l + 1) % 2 != tilt:
                cols, _, shrink = frames[l]
                for a in (0, 1):
                    for b in (0, 1):
                        c_mat[l + a][l + b] = sum(c[a] * c[b] * f for c, f in zip(cols, shrink))
        for e in lines[1 - tilt]:
            c_mat[e][e] = 1 + c_mat[e][e]
        chol = _cholesky(num, c_mat)
        blocks = [([c[0] for c in frames[l][0]], [c[1] for c in frames[l][0]], l, l + 1)
                  for l in members]
        inputs = []
        for xe, xz in states:
            y = []
            for l in members:
                x_l = [xe[l], xe[l + 1]] + list(xz[l])
                y.append([sum(c[p] * x_l[p] for p in range(len(c))) for c in frames[l][0]])
            inputs.append((y, {e: xe[e] for e in lines[tilt]}))
        t = triples[i]
        groups = [([[_decay(num, power, x) for x in frames[l][1]] for l in members], r)
                  for power, r in zip([_value(num, s) for s in t.s], t.quarter.r)]
        images = []
        for y, line_vals in _sandwich_powers(num, blocks, lines[tilt], chol, groups, inputs):
            xe = [num.mpf(0)] * (K + 1)
            xz = [[num.mpf(0)] * tr.quarter.k for tr in triples]
            for l, yl in zip(members, y):
                cols = frames[l][0]
                x_l = [sum(c[p] * yc for c, yc in zip(cols, yl)) for p in range(len(cols))]
                xe[l], xe[l + 1], xz[l] = x_l[0], x_l[1], x_l[2:]
            for e, val in line_vals.items():
                xe[e] = val
            images.append((xe, xz))
        return images

    return apply_word, num
