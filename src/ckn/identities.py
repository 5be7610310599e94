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

import contextlib
import math

import numpy as np

from .errors import BadGridSpec, CknError, MaxIters, ScalarOverflow, WeightOutOfRange
from .numerics import (RadialProfile, checked_sums, grid_power, quadrature_terms, tail_nodes,
                       with_derivatives)
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


def _sums(a, b, row, h: float) -> np.ndarray:
    """The kernel: sum W a^2, sum W a b, sum W b^2 (columns) for W the quadrature row, on the
    whole grid and on its tail nodes (rows).  For a = f'' + c f' and b = f they give every
    mode's sum W (a - lambda_k b)^2 = sum W a^2 - 2 lambda_k sum W a b + lambda_k^2 sum W b^2,
    within 1.8e-15 relative of the plain per-mode sum (measured: k <= 11, N = 5..9, 3 grids)."""
    x, m = np.empty((3, len(row))), tail_nodes(len(row), h)
    for out, (f, g) in zip(x, ((a, a), (a, b), (b, b))):       # one array, no stacked copies
        np.multiply(f, g, out=out)
    return np.array([x @ row, x[:, :m] @ row[:m] + x[:, -m:] @ row[-m:]])


@np.errstate(invalid="ignore", over="ignore")  # inf - inf or overflow: NaN sums fail the tail rule
def _squares(f: RadialProfile, c: float, row, lams) -> np.ndarray:
    """_sums of the squared mode bracket f'' + c f' - lambda_k f (f'' + (c+1)/r f' - lambda_k/r^2 f
    in t, e^{-2t} booked into row) on the whole grid and the tail nodes, one column per k."""
    s = _sums(f.d2 + c * f.d1, f.values, row, f.grid.h)
    return s[:, :1] - 2.0 * lams * s[:, 1:2] + lams * lams * s[:, 2:]


def _relerr(lhs, rhs) -> tuple[float, float, float]:
    return lhs, rhs, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def verify_iid(v_mode, k, N: int):
    """Check int |x|^4 |Delta u|^2 dx = int |Delta v|^2 dx for u = |x|^{-2} v, mode by
    mode: (lhs, rhs, relative error) per profile and mode (_per_profile)."""
    def each(grid, profs, lams):
        rows = quadrature_terms(np.ones(grid.n), grid, np.array([N - 1.0, N - 5.0]))
        r2 = grid_power(-2.0, grid, "r^-2")
        for v in map(with_derivatives, profs):
            u = with_derivatives(RadialProfile(grid=grid, values=v.values * r2))
            # (L u)^2 r^{N+3} dr and (L v)^2 r^{N-1} dr
            sq = np.stack([_squares(f, N - 2.0, row, lams) for f, row in zip((u, v), rows)], 1)
            for lhs, rhs in checked_sums(*sq, ("verify_iid lhs", "verify_iid rhs")):
                yield _relerr(lhs, rhs)
    return _per_profile(v_mode, k, N, each)


def verify_hardy_identity(w_mode, k, N: int):
    """Check the dilation identity (N-2) int |grad w|^2 = 2 int Delta w (x . grad w), mode
    by mode: (lhs, rhs, relative error) per profile and mode (_per_profile)."""
    def each(grid, profs, lams):
        row = quadrature_terms(np.ones(grid.n), grid, N - 3.0)
        for w in map(with_derivatives, profs):
            # |grad w|^2 = w'^2 + lambda w^2; Delta w (x . grad w) = (w'' + (N-2) w' - lambda w) w'
            with np.errstate(invalid="ignore", over="ignore"):    # as in _squares
                s = _sums(w.d1, w.values, row, grid.h)
                cross = float(row @ ((w.d2 + (N - 2.0) * w.d1) * w.d1)) - lams * s[0, 1]
                grad = s[:, :1] + lams * s[:, 2:]
            for (g,), c in zip(checked_sums(*grad, ("verify_hardy lhs",)), cross.tolist()):
                yield _relerr((N - 2.0) * g, 2.0 * c)
    return _per_profile(w_mode, k, N, each)


def xi_sign(N: int, alpha: float) -> tuple[float, int]:
    """Discriminant separating the critical lower-boundary cases:

        A = -(N alpha / (2(N-2))) ((N-4) alpha / (2(N-2)) + (N-2)),
        B = -2 alpha / (N-2),
        xi = (BN - 2A + B^2 - 4B) N^2/4 + A (A - (B-2) N).

    xi > 0 iff alpha > 0, xi = 0 iff alpha = 0, xi < 0 iff 2-N < alpha < 0; ScalarOverflow
    where xi leaves the float range, from |alpha| of about 1e77 on.
    """
    N, alpha = check_alpha(N, alpha)
    A = -(N * alpha / (2.0 * (N - 2.0))) * ((N - 4.0) * alpha / (2.0 * (N - 2.0)) + (N - 2.0))
    B = -2.0 * alpha / (N - 2.0)
    with contextlib.suppress(OverflowError):
        xi = (B * N - 2.0 * A + B ** 2 - 4.0 * B) * N ** 2 / 4.0 + A * (A - (B - 2.0) * N)
        if math.isfinite(xi):
            return xi, (xi > 0) - (xi < 0)
    raise ScalarOverflow(f"xi overflows at N = {N}, alpha = {alpha}")


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
        for u in map(with_derivatives, profs):
            sq = np.stack([_squares(u, c, row, lams)
                           for c in (params.N - 2.0, params.N + params.alpha - 2.0)], 1)
            for num, den in checked_sums(*sq, ("equivalence_ratio numerator",
                                               "equivalence_ratio denominator")):
                if not den:
                    raise CknError("zero denominator: profile has no energy")
                yield num / den
    return _per_profile(u_mode, k, params.N, each)


@np.errstate(invalid="ignore", over="ignore")    # as in _squares
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
    s = _sums(u.d1, u.values, quadrature_terms(np.ones(u.grid.n), u.grid, N - 2.0 * a_w - 3.0),
              u.grid.h)
    (lhs,) = next(checked_sums(*s[:, 2:], ("weighted_hardy lhs",)))
    return lhs, (2.0 / (N - 2.0 * a_w - 2.0)) ** 2 * float(s[0, 0] + k * (N - 2 + k) * s[0, 2])
