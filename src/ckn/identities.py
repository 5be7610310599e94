"""Numerical verification of the algebraic and integral identities behind
the inequality: the weight-shift identity for |x|^4 |Delta u|^2, the Hardy
dilation identity, the sign function separating the critical cases, the
coefficient identities of the sharp critical constant, and the two-sided
equivalence between the two second-order energies, with its sharp bounds in
closed form.

Every integral check is done per spherical mode: with u = f(r) Psi_k the Laplacian acts
as f'' + (N-1)/r f' - lambda_k/r^2 f, so each identity becomes one-dimensional quadrature
at high accuracy, from three weighted sums per profile that serve every mode (_sums).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadGridSpec, CknError, MaxIters, ScalarOverflow, WeightOutOfRange
from .numerics import (RadialProfile, apply_rows, checked_sums, diff_rows, grid_power,
                       quadrature_terms, tail_nodes, with_derivatives)
from .params import CknParams, check_alpha, check_index

__all__ = ["verify_iid", "verify_hardy_identity", "xi_sign",
           "rellich_coeff_identities", "equivalence_ratio", "equivalence_bounds",
           "equivalence_bracket", "weighted_hardy_check"]


def _per_profile(prof, k, N: int, each):
    """each(grid, profiles, lambda_k's) iterates over the results of each profile's modes in
    turn; a failed tail check raises when its result is drawn.  One profile gives the result
    of one mode k or the list over a sequence of modes, a sequence of profiles the iterator.
    Every k passes params.check_index first (ValueError)."""
    one = np.ndim(k) == 0
    ks = [check_index(j, "k") for j in ([k] if one else k)]
    lams = np.array([float(j * (N - 2 + j)) for j in ks])
    if isinstance(prof, RadialProfile):
        out = list(each(prof.grid, [prof], lams))
        return out[0] if one else out
    profs = list(prof)
    if len({p.grid for p in profs}) > 1:
        raise BadGridSpec("the profiles of one call must share one grid")
    return each(profs[0].grid, profs, lams) if profs else iter(())


def _bracket(x, d1, d2, c: float) -> np.ndarray:
    """f'' + c f' from f's derivatives d1, d2, written into the scratch row x."""
    return np.add(d2, np.multiply(d1, c, out=x), out=x)


@np.errstate(invalid="ignore", over="ignore")  # inf - inf or overflow: NaN sums fail the tail rule
def _sums(profs, pairs, count: int) -> np.ndarray:
    """The kernel: S[i, j] = sum W a^2, sum W a b, sum W b^2 (columns) on the grid and on its tail
    nodes (rows) for the j-th of the count (a, b, W) that pairs(profile i, x[3]) yields, every
    product in one scratch x.  With a = f'' + c f', b = f they give each mode's sum W (a -
    lambda_k b)^2 within 1.8e-15 relative of the plain sum (measured: k <= 11, N = 5..9)."""
    n, h = profs[0].grid.n, profs[0].grid.h
    S, x, m = np.empty((len(profs), count, 2, 3)), np.empty((4, n)), tail_nodes(n, h)
    for s, prof in zip(S, map(with_derivatives, profs)):
        for out, (a, b, row) in zip(s, pairs(prof, x[3])):
            for o, (f, g) in zip(x, ((a, a), (a, b), (b, b))):
                np.multiply(f, g, out=o)
            np.matmul(x[:3], row, out=out[0])
            np.add(x[:3, :m] @ row[:m], x[:3, -m:] @ row[-m:], out=out[1])
    return S


@np.errstate(invalid="ignore", over="ignore")  # as in _sums
def _squares(S, lams, whats):
    """The one tail rule (checked_sums), per profile and mode, on the integrals of the squared
    brackets f'' + c f' - lambda_k f (f'' + (c+1)/r f' - lambda_k/r^2 f in t) of _sums' S."""
    sq = S[..., :1] - 2.0 * lams * S[..., 1:2] + lams * lams * S[..., 2:]
    return checked_sums(*sq.transpose(2, 1, 0, 3), whats)


def _relerr(lhs, rhs) -> tuple[float, float, float]:
    return lhs, rhs, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def verify_iid(v_mode, k, N: int):
    """Check int |x|^4 |Delta u|^2 dx = int |Delta v|^2 dx for u = |x|^{-2} v, mode by
    mode: (lhs, rhs, relative error) per profile and mode (_per_profile)."""
    def each(grid, profs, lams):
        rows = quadrature_terms(np.ones(grid.n), grid, np.array([N - 1.0, N - 5.0]))
        r2, d = grid_power(-2.0, grid, "r^-2"), [diff_rows(grid.h, j) for j in (1, 2)]

        def pairs(v, x):          # (L u)^2 r^{N+3} dr and (L v)^2 r^{N-1} dr
            u = v.values * r2
            yield _bracket(x, *(apply_rows(r, u) for r in d), N - 2.0), u, rows[0]
            yield _bracket(x, v.d1, v.d2, N - 2.0), v.values, rows[1]
        S = _sums(profs, pairs, 2)
        for lhs, rhs in _squares(S, lams, ("verify_iid lhs", "verify_iid rhs")):
            yield _relerr(lhs, rhs)
    return _per_profile(v_mode, k, N, each)


def verify_hardy_identity(w_mode, k, N: int):
    """Check the dilation identity (N-2) int |grad w|^2 = 2 int Delta w (x . grad w), mode
    by mode: (lhs, rhs, relative error) per profile and mode (_per_profile)."""
    def each(grid, profs, lams):
        row, cross = quadrature_terms(np.ones(grid.n), grid, N - 3.0), []

        def pairs(w, x):          # the lambda-free part of Delta w (x . grad w), then grad w
            cross.append(row @ (_bracket(x, w.d1, w.d2, N - 2.0) * w.d1))
            yield w.d1, w.values, row
        S = _sums(profs, pairs, 1)
        # |grad w|^2 = w'^2 + lambda w^2; Delta w (x . grad w) = (w'' + (N-2) w' - lambda w) w'
        with np.errstate(invalid="ignore", over="ignore"):        # as in _sums
            grad = S[..., :1] + lams * S[..., 2:]
            cross = np.array(cross)[:, None] - lams * S[:, 0, 0, 1:2]
        for (g,), c in zip(checked_sums(*grad.transpose(2, 1, 0, 3), ("verify_hardy lhs",)),
                           cross.ravel().tolist()):
            yield _relerr((N - 2.0) * g, 2.0 * c)
    return _per_profile(w_mode, k, N, each)


@np.errstate(over="ignore", invalid="ignore")
def _xi(N: int, alpha):
    """xi of xi_sign, array-capable, unchecked (np.float_power is libm pow, as CPython's ** is)."""
    A = -(N * alpha / (2.0 * (N - 2.0))) * ((N - 4.0) * alpha / (2.0 * (N - 2.0)) + (N - 2.0))
    B = -2.0 * alpha / (N - 2.0)
    xi = (B * N - 2.0 * A + np.float_power(B, 2) - 4.0 * B) * N ** 2 / 4.0
    return xi + A * (A - (B - 2.0) * N)


def xi_sign(N: int, alpha: float) -> tuple[float, int]:
    """Discriminant separating the critical lower-boundary cases:

        A = -(N alpha / (2(N-2))) ((N-4) alpha / (2(N-2)) + (N-2)),
        B = -2 alpha / (N-2),
        xi = (BN - 2A + B^2 - 4B) N^2/4 + A (A - (B-2) N).

    xi > 0 iff alpha > 0, xi = 0 iff alpha = 0, xi < 0 iff 2-N < alpha < 0; ScalarOverflow
    where xi leaves the float range, from |alpha| of about 1e77 on.  _xi is the formula.
    """
    N, alpha = check_alpha(N, alpha)
    xi = float(_xi(N, alpha))
    if not math.isfinite(xi):
        raise ScalarOverflow(f"xi overflows at N = {N}, alpha = {alpha}")
    return xi, (xi > 0) - (xi < 0)


def rellich_coeff_identities(N: int, alpha: float
                             ) -> tuple[float, float, float, float]:
    """Coefficient identities of the sharp critical constant for alpha < 0.

    With eta = -2 - N alpha/(2(N-2)) and mu = -(N-4) alpha/(N-2):

        (2 eta + alpha)(N + 2 eta + alpha) - 2 eta (N + alpha + eta - 2) = -C_{mu,1}
        eta^2 (N + alpha + eta - 2)^2
            - (N-4) eta (N + alpha + eta - 2)(2 eta + alpha + 2)         =  C_{mu,2}

    where C_{mu,1} = (N^2-4N+8)/(2(N-4)^2) mu (2(N-4) - mu) and
    C_{mu,2} = N^2/(16(N-4)^2) mu^2 (2(N-4)-mu)^2 - (N-2)/2 mu (2(N-4)-mu).
    Returns (lhs1, rhs1, lhs2, rhs2).
    """
    N, alpha = check_alpha(N, alpha, 0.0)
    eta = -2.0 - N * alpha / (2.0 * (N - 2.0))
    mu = -(N - 4.0) * alpha / (N - 2.0)
    s = N + alpha + eta - 2.0
    lhs1 = (2.0 * eta + alpha) * (N + 2.0 * eta + alpha) - 2.0 * eta * s
    c1 = (N ** 2 - 4.0 * N + 8.0) / (2.0 * (N - 4.0) ** 2) * mu * (2.0 * (N - 4.0) - mu)
    lhs2 = eta ** 2 * s ** 2 - (N - 4.0) * eta * s * (2.0 * eta + alpha + 2.0)
    c2 = (N ** 2 / (16.0 * (N - 4.0) ** 2) * mu ** 2 * (2.0 * (N - 4.0) - mu) ** 2
          - (N - 2.0) / 2.0 * mu * (2.0 * (N - 4.0) - mu))
    return lhs1, -c1, lhs2, c2


def equivalence_bounds(params: CknParams) -> tuple[float, float]:
    """Sharp bounds (lo, hi) of the ratio of equivalence_ratio: its inf and sup over all
    profiles and modes; exactly (1.0, 1.0) at alpha = 0.

    For u = r^{-kappa1} phi(t) Psi_k, t = ln r, each energy is int |P_c(i xi - kappa1)|^2
    |phi^(xi)|^2 dxi, P_c(z) = z^2 + c z - lambda_k, c = N - 2 (numerator, P_1) or
    N + alpha - 2 (denominator, P_2).  In y = xi^2, |P_c|^2 = y^2 + p_c y + q_c with
    A_c = kappa1^2 - c kappa1 - lambda_k, p_c = (c - 2 kappa1)^2 - 2 A_c, q_c = A_c^2, so a
    mode's extremes of R = |P_1|^2/|P_2|^2 lie at y = 0, at the roots y > 0 of
    (p2 - p1) y^2 + 2 (q2 - q1) y + p1 q2 - p2 q1 = 0, or at y -> inf, where R -> 1.

    The scan over k stops by a proven rule.  A_2 = -kappa1 kappa2 - lambda_k < 0 at every
    admissible point, A_1 = A_2 + alpha kappa1, and d ln|P_c|^2/d lambda = 2 (y - A_c)/|P_c|^2.
    (i) For alpha > 0, 0 < y - A_2 and y - A_1 < y - A_2, so d ln R/d lambda < 0 where
        R >= 1: max(1, R) falls with k and hi is mode 0's.  For alpha < 0, y - A_1 > y - A_2
        > 0, so d ln R/d lambda > 0 where R <= 1, and lo is mode 0's.
    (ii) P_1(z) = P_2(z) - alpha z with |z|^2 = y + kappa1^2.  Once -A_2 >= kappa1^2,
        |P_2|^2 >= (y - A_2)^2 >= -A_2 (y + kappa1^2): R lies in [max(0, 1 - d)^2, (1 + d)^2],
        d = |alpha|/sqrt(-A_2), at this mode and (d falls with k) at every later one.
    So the scan stops at the first such k where that bound is inside the running interval on
    the other side of (i).  It ends near k = |alpha| (by k = 6 for |alpha| <= 6); MaxIters
    past 1e5 modes.
    """
    N, alpha, beta, k1 = params.N, params.alpha, params.beta, params.kappa1
    if alpha == 0.0:
        return 1.0, 1.0
    b1, b2 = 2.0 - 2.0 * alpha + beta, 2.0 - alpha + beta       # c - 2 kappa1
    dp = alpha * (alpha - N - beta)                              # p1 - p2
    lo = hi = 1.0                                                # y -> inf
    for k in range(10 ** 5):
        a2 = -params.cal_B - k * (N - 2.0 + k)
        a1 = a2 + alpha * k1
        p1, q1, p2, q2 = b1 * b1 - 2.0 * a1, a1 * a1, b2 * b2 - 2.0 * a2, a2 * a2
        dq = alpha * k1 * (a1 + a2)                              # q1 - q2
        c = p1 * dq - dp * q1               # stationary points: dp y^2 + 2 dq y + c = 0
        disc, ys = dq * dq - dp * c, []
        if disc >= 0.0 and (s := -dq - math.copysign(math.sqrt(disc), dq)):
            ys = [c / s, s / dp] if dp else [c / s]     # linear at dp = 0: N - alpha + beta = 0
        rs = [q1 / q2] + [(y * y + p1 * y + q1) / (y * y + p2 * y + q2) for y in ys if y > 0.0]
        lo, hi = min(lo, *rs), max(hi, *rs)
        if -a2 >= k1 * k1:
            d = abs(alpha) / math.sqrt(-a2)
            if max(0.0, 1.0 - d) ** 2 >= lo if alpha > 0.0 else (1.0 + d) ** 2 <= hi:
                return lo, hi
    raise MaxIters(f"equivalence_bounds: no stop within 1e5 modes at alpha = {alpha}")


def equivalence_bracket(params: CknParams) -> float:
    """Least c with every ratio of equivalence_ratio in [1/c, c]: max(hi, 1/lo) of
    equivalence_bounds, and inf where lo = 0 (the numerator energy degenerates on a mode)."""
    lo, hi = equivalence_bounds(params)
    return max(hi, 1.0 / lo) if lo > 0.0 else math.inf


def equivalence_ratio(u_mode, k, params: CknParams):
    """Ratio of the two second-order energies for a single-mode profile:

        int |x|^{2 alpha - beta} |Delta u|^2 dx
        / int |x|^{-beta} |div(|x|^alpha grad u)|^2 dx.

    Identically 1 at alpha = 0; always inside the sharp bounds [lo, hi] of
    equivalence_bounds(params).  One ratio per profile and mode (see _per_profile).
    """
    def each(grid, profs, lams):
        row = quadrature_terms(np.ones(grid.n), grid, 2.0 * params.kappa1 - 1.0)

        def pairs(u, x):
            for c in (params.N - 2.0, params.N + params.alpha - 2.0):
                yield _bracket(x, u.d1, u.d2, c), u.values, row
        S = _sums(profs, pairs, 2)
        for num, den in _squares(S, lams, ("equivalence_ratio numerator",
                                           "equivalence_ratio denominator")):
            if not den:
                raise CknError("zero denominator: profile has no energy")
            yield num / den
    return _per_profile(u_mode, k, params.N, each)


@np.errstate(invalid="ignore", over="ignore")    # as in _sums
def weighted_hardy_check(u_mode: RadialProfile, k: int, N: int, a_w: float
                         ) -> tuple[float, float]:
    """Both sides of the weighted Hardy inequality per mode:

        int |x|^{-2a-2} u^2 dx  <=  (2/(N-2a-2))^2 int |x|^{-2a} |grad u|^2 dx.

    Returns (lhs, rhs); requires a_w < (N-2)/2.
    """
    check_index(k, "k")
    if not a_w < (N - 2.0) / 2.0:
        raise WeightOutOfRange(f"need a < (N-2)/2 = {(N - 2) / 2}, got {a_w}")
    u = with_derivatives(u_mode)
    row = quadrature_terms(np.ones(u.grid.n), u.grid, N - 2.0 * a_w - 3.0)
    s = _sums([u], lambda u, x: [(u.d1, u.values, row)], 1)[0, 0]
    (lhs,) = next(checked_sums(*s[:, 2:], ("weighted_hardy lhs",)))
    return lhs, (2.0 / (N - 2.0 * a_w - 2.0)) ** 2 * float(s[0, 0] + k * (N - 2 + k) * s[0, 2])
