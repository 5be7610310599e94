"""Numerical verification of the algebraic and integral identities behind
the inequality: the weight-shift identity for |x|^4 |Delta u|^2, the Hardy
dilation identity, the sign function separating the critical cases, the
coefficient identities of the sharp critical constant, and the two-sided
equivalence between the two second-order energies.

Every integral check is done per spherical mode: with u = f(r) Psi_k the
Laplacian acts as f'' + (N-1)/r f' - lambda_k/r^2 f, so each identity
becomes one-dimensional quadrature at high accuracy.  The verify functions
take one mode k or a sequence of modes.  For a sequence, the t-derivatives of
the profile are taken once, the brackets of all modes form one (k x n)
array, and one numerics.simpson_terms call gives every tail check and
integral (numerics.checked_integrals), with the results and the first
failed tail check of the one-mode calls, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AlphaOutOfRange, CknError, WeightOutOfRange
from .numerics import RadialProfile, checked_integrals, grid_power, simpson_terms, with_derivatives
from .params import CknParams

__all__ = ["verify_iid", "verify_hardy_identity", "xi_sign",
           "rellich_coeff_identities", "equivalence_ratio",
           "equivalence_bracket", "weighted_hardy_check"]


def _modes(k, N: int) -> tuple[np.ndarray, bool]:
    """lambda_k as a column, one row per mode of k (one mode or a sequence of
    modes), and whether k is one mode."""
    one = np.ndim(k) == 0
    return np.array([float(j * (N - 2 + j)) for j in ([k] if one else k)]).reshape(-1, 1), one


def _brackets(prof: RadialProfile, coeff: float, lams: np.ndarray) -> np.ndarray:
    """t-space brackets of the mode operator f'' + (coeff+1)/r f' - lambda_k/r^2 f,
    i.e. (d2 + coeff*d1 - lambda_k) applied to the samples of prof (which
    carries its derivatives), one row per lambda_k; the caller books the
    e^{-2t} factor into the quadrature weight."""
    return prof.d2 + coeff * prof.d1 - lams * prof.values


def _relerr(lhs, rhs) -> tuple[float, float, float]:
    lhs, rhs = float(lhs), float(rhs)
    return lhs, rhs, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def verify_iid(v_mode: RadialProfile, k, N: int):
    """Check int |x|^4 |Delta u|^2 dx = int |Delta v|^2 dx for u = |x|^{-2} v,
    mode by mode.  Returns (lhs, rhs, relative error) for one mode k, and the
    list of the one-mode results for a sequence of modes."""
    lams, one = _modes(k, N)
    grid = v_mode.grid
    v = with_derivatives(v_mode)
    u = with_derivatives(RadialProfile(grid=grid, values=v.values * grid_power(-2.0, grid, "r^-2")))
    # (L u)^2 r^{N+3} dr and (L v)^2 r^{N-1} dr
    sq = np.square([_brackets(u, N - 2.0, lams), _brackets(v, N - 2.0, lams)])
    lhs, rhs = checked_integrals(simpson_terms(sq, grid, np.array([[N - 1.0], [N - 5.0]])),
                                 grid.h, ("verify_iid lhs", "verify_iid rhs"))
    out = [_relerr(a, b) for a, b in zip(lhs, rhs)]
    return out[0] if one else out


def verify_hardy_identity(w_mode: RadialProfile, k, N: int):
    """Check the dilation identity (N-2) int |grad w|^2 = 2 int Delta w (x . grad w),
    mode by mode.  Returns (lhs, rhs, relative error) for one mode k, and the
    list of the one-mode results for a sequence of modes."""
    lams, one = _modes(k, N)
    w = with_derivatives(w_mode)
    terms = simpson_terms(np.array([w.d1 ** 2 + lams * w.values ** 2,        # |grad w|^2
                                    _brackets(w, N - 2.0, lams) * w.d1]),   # Delta w (x . grad w)
                          w.grid, N - 3.0)
    grad = checked_integrals(terms[:1], w.grid.h, ("verify_hardy lhs",))[0]
    out = [_relerr((N - 2.0) * a, 2.0 * b) for a, b in zip(grad, terms[1].sum(axis=-1))]
    return out[0] if one else out


def xi_sign(N: int, alpha: float) -> tuple[float, int]:
    """Discriminant separating the critical lower-boundary cases:

        A = -(N alpha / (2(N-2))) ((N-4) alpha / (2(N-2)) + (N-2)),
        B = -2 alpha / (N-2),
        xi = (BN - 2A + B^2 - 4B) N^2/4 + A (A - (B-2) N).

    xi > 0 iff alpha > 0, xi = 0 iff alpha = 0, xi < 0 iff 2-N < alpha < 0.
    """
    alpha = float(alpha)
    if not alpha > 2 - N:
        raise AlphaOutOfRange(f"need alpha > {2 - N}, got {alpha}")
    A = -(N * alpha / (2.0 * (N - 2.0))) * ((N - 4.0) * alpha / (2.0 * (N - 2.0)) + (N - 2.0))
    B = -2.0 * alpha / (N - 2.0)
    xi = (B * N - 2.0 * A + B ** 2 - 4.0 * B) * N ** 2 / 4.0 + A * (A - (B - 2.0) * N)
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
    if not (2 - N < alpha < 0):
        raise AlphaOutOfRange(f"need {2 - N} < alpha < 0, got {alpha}")
    eta = -2.0 - N * alpha / (2.0 * (N - 2.0))
    mu = -(N - 4.0) * alpha / (N - 2.0)
    s = N + alpha + eta - 2.0
    lhs1 = (2.0 * eta + alpha) * (N + 2.0 * eta + alpha) - 2.0 * eta * s
    c1 = (N ** 2 - 4.0 * N + 8.0) / (2.0 * (N - 4.0) ** 2) * mu * (2.0 * (N - 4.0) - mu)
    lhs2 = eta ** 2 * s ** 2 - (N - 4.0) * eta * s * (2.0 * eta + alpha + 2.0)
    c2 = (N ** 2 / (16.0 * (N - 4.0) ** 2) * mu ** 2 * (2.0 * (N - 4.0) - mu) ** 2
          - (N - 2.0) / 2.0 * mu * (2.0 * (N - 4.0) - mu))
    return lhs1, -c1, lhs2, c2


def _hardy_rellich_mode_constant(N: int, w: float, lambda_k: float) -> float:
    """Sharp per-mode constant of int |x|^{w-2}|grad u|^2 <= D int |x|^w |Delta u|^2,
    from the Fourier symbols of the mode operator in the log variable."""
    W = w + N - 1.0
    sigma = (3.0 - W) / 2.0
    c1 = 2.0 * sigma + N - 2.0
    c0 = sigma * (sigma + N - 2.0) - lambda_k
    s = sigma ** 2 + lambda_k
    if c1 == 0.0 and c0 >= 0.0:
        raise WeightOutOfRange(f"no weighted Hardy-Rellich constant at w = {w}")

    def ratio(y: float) -> float:
        den = (y - c0) ** 2 + c1 ** 2 * y
        return (y + s) / den if den > 0 else math.inf

    disc = (s + c0) ** 2 - c1 ** 2 * s
    best = ratio(0.0)
    if disc >= 0.0:
        y_star = -s + math.sqrt(disc)
        if y_star > 0.0:
            best = max(best, ratio(y_star))
    return best


def _hardy_rellich_constant(N: int, w: float) -> float:
    """sup over spherical modes of the per-mode constant; the mode constants
    decay like 1/lambda_k, so the scan stops once they decrease."""
    best, prev, drops = 0.0, math.inf, 0
    for k in range(0, 64):
        dk = _hardy_rellich_mode_constant(N, w, float(k * (N - 2 + k)))
        best = max(best, dk)
        drops = drops + 1 if dk < prev else 0
        if drops >= 2:
            break
        prev = dk
    return best


def equivalence_bracket(params: CknParams) -> float:
    """Explicit constant c such that the energy ratio of equivalence_ratio
    lies in [1/c, c] for every admissible profile.

    Assembled conservatively from the two proof branches: the Delta-side
    branch uses the sharp weighted Hardy-Rellich constant D at weight
    w = 2 alpha - beta; the div-side branch uses E = (2/(N+beta))^2 (from
    the weighted Hardy inequality; E = (2/T)^2 when beta >= alpha - 2).
    """
    N, alpha, beta = params.N, params.alpha, params.beta
    a = abs(alpha)
    D = _hardy_rellich_constant(N, 2.0 * alpha - beta)
    T = 2.0 * params.kappa1
    E = (2.0 / (N + beta)) ** 2 if alpha - beta - 2.0 > 0 else (2.0 / T) ** 2
    return max(1.0 + a * (1.0 + D) + D * alpha ** 2,
               1.0 + a * (1.0 + E) + E * alpha ** 2)


def equivalence_ratio(u_mode: RadialProfile, k, params: CknParams):
    """Ratio of the two second-order energies for a single-mode profile:

        int |x|^{2 alpha - beta} |Delta u|^2 dx
        / int |x|^{-beta} |div(|x|^alpha grad u)|^2 dx.

    Identically 1 at alpha = 0; always inside [1/c, c] with
    c = equivalence_bracket(params).  One ratio for one mode k, and the list
    of the one-mode ratios for a sequence of modes.
    """
    lams, one = _modes(k, params.N)
    u = with_derivatives(u_mode)
    sq = np.square([_brackets(u, params.N - 2.0, lams),
                    _brackets(u, params.N + params.alpha - 2.0, lams)])
    num, den = checked_integrals(simpson_terms(sq, u.grid, 2.0 * params.kappa1 - 1.0), u.grid.h,
                                 ("equivalence_ratio numerator", "equivalence_ratio denominator"))
    if not np.all(den):
        raise CknError("zero denominator: profile has no energy")
    out = [float(a) / float(b) for a, b in zip(num, den)]
    return out[0] if one else out


def weighted_hardy_check(u_mode: RadialProfile, k: int, N: int, a_w: float
                         ) -> tuple[float, float]:
    """Both sides of the weighted Hardy inequality per mode:

        int |x|^{-2a-2} u^2 dx  <=  (2/(N-2a-2))^2 int |x|^{-2a} |grad u|^2 dx.

    Returns (lhs, rhs); requires a_w < (N-2)/2.
    """
    if not a_w < (N - 2.0) / 2.0:
        raise WeightOutOfRange(f"need a < (N-2)/2 = {(N - 2) / 2}, got {a_w}")
    u = with_derivatives(u_mode)
    lam = float(k * (N - 2 + k))
    terms = simpson_terms(np.array([u.values ** 2, u.d1 ** 2 + lam * u.values ** 2]),
                          u.grid, N - 2.0 * a_w - 3.0)
    lhs = checked_integrals(terms[:1], u.grid.h, ("weighted_hardy lhs",))[0]
    return float(lhs), (2.0 / (N - 2.0 * a_w - 2.0)) ** 2 * float(terms[1].sum())
