"""Closed-form extremals and best constants.

Everything here is an explicit formula: the radial extremal profile U, its
scalings and its amplitude-free shape in t = ln r, the classical
second-order Sobolev constant S0, the one-dimensional constant B(M) of the
effective-dimension problem, the radial best constant S_r, the weighted
Rellich constant, the sharp constant of the critical case with negative
alpha, the two linearized profiles Z0/Z1, the eigenvalues of every
linearized mode, and the Rellich test-sequence quotient.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import EpsOutOfRange, GridTooSmall, MOutOfRange, NonPositiveRadius, ScalarOverflow
from .numerics import LogGrid
from .params import CknParams, check_alpha, check_dimension, check_index, require_subcritical

__all__ = [
    "ExtremalSpec", "extremal_u", "extremal_shape", "scaling_direction", "sobolev_s0", "b_of_m",
    "omega_sphere", "radial_constant_sr", "rellich_constant",
    "rellich_constant_alt", "critical_constant", "linearized_mode",
    "linearized_degree", "linearized_eigenvalue", "rellich_test_quotient", "rellich_limit_grid",
    "RAMP_WIDTH", "RAMP_NODES",
]


@dataclass(frozen=True)
class ExtremalSpec:
    """A scaled copy of the extremal: lam^{kappa1} U(lam r), amplitude C by default."""

    params: CknParams
    lam: float = 1.0
    amplitude: float | None = None

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(f"scaling must be positive and finite, got {self.lam}")
        if self.amplitude is None:
            object.__setattr__(self, "amplitude", self.params.C_amp)
        require_subcritical(self.params, "the extremal amplitude")
        if not 0 < self.amplitude < math.inf:
            raise ScalarOverflow(f"amplitude {self.amplitude} at M = {self.params.M_dim:.6g}")


def _softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) without overflow."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _family(P: CknParams, r, lam: float, log_c: float, a: float, odd: bool, what: str):
    """c e^{-a z} (1+e^z)^{-(M-4a)/2}, times tanh(z/2) if odd, at z = 2 nu ln(lam r), r > 0:
    U (a = 1), kappa1 U + r U' and Z0 (a = 1, odd), Z1 (a = 1/2).  One exponential per sample,
    of log c - a z - (M-4a)/2 softplus(z), whose terms never cancel (M > 4a): BadGridSpec where
    it overflows (numerics.grid_exp), and no factor goes subnormal on its own."""
    require_subcritical(P, what)
    r_arr = np.asarray(r, dtype=float)
    if not np.all(r_arr > 0):                 # NaN fails too; r = inf gives 0
        raise NonPositiveRadius(f"{what} requires r > 0")
    z = 2.0 * P.nu * (np.log(r_arr) + math.log(lam))
    out = (numerics.grid_exp(log_c - a * z - (P.M_dim - 4.0 * a) / 2.0 * _softplus(z), what)
           * (np.tanh(z / 2.0) if odd else 1.0))
    return out if out.ndim else float(out)


def extremal_u(spec: ExtremalSpec, r) -> np.ndarray | float:
    """Extremal profile  amplitude * lam^{kappa1} (lam r)^{-2nu} (1+(lam r)^{2nu})^{-(M-4)/2}.

    Behaves like r^{-(alpha-beta-2)} at the origin and r^{-(N+alpha-2)} at
    infinity, which is what the quadrature tail checks rely on.  BadGridSpec
    where a sample overflows (radii near e^{-700}; numerics.grid_exp).
    """
    log_c = math.log(spec.amplitude) + spec.params.kappa1 * math.log(spec.lam)
    return _family(spec.params, r, spec.lam, log_c, 1.0, False, "extremal U")


def extremal_shape(params: CknParams, t, m: float | None = None) -> np.ndarray:
    """cosh(nu t)^m = r^{kappa1} U(r) / C_cosh at r = e^t, m = -(M-4)/2 (m = -(M-2)/2 gives
    r^{kappa1} Z1 2^{(M-2)/2}): even, at most 1, finite everywhere, also where C_amp overflows."""
    require_subcritical(params, "extremal_shape")
    z = np.abs(params.nu * np.array(t, dtype=float, ndmin=1))
    m = params.m_exp if m is None else m
    # ln cosh z in one form, within 1.5 eps to z = 20; past it off by log1p(e^{-2z}) < 4.3e-18
    log_cosh = 0.5 * np.log1p(np.sinh(np.minimum(z, 20.0)) ** 2) + np.maximum(z - 20.0, 0.0)
    return np.exp(m * log_cosh).reshape(np.shape(t))[()]


def scaling_direction(spec: ExtremalSpec, r) -> np.ndarray | float:
    """d/d lam of the scaled extremal at the spec's lam: kappa1 U + r U' in closed form,
    -amplitude nu (M-4)/2 lam^{kappa1-1} (lam r)^{-2nu} (1+(lam r)^{2nu})^{-(M-4)/2} tanh(z/2)
    with z = 2 nu ln(lam r).  BadGridSpec where a sample overflows (numerics.grid_exp)."""
    P = spec.params
    log_c = (math.log(spec.amplitude) + math.log(P.nu * (P.M_dim - 4.0) / 2.0)
             + (P.kappa1 - 1.0) * math.log(spec.lam))
    return -_family(P, r, spec.lam, log_c, 1.0, True, "scaling direction")


def omega_sphere(N: int) -> float:
    """Surface area of the unit sphere in R^N: 2 pi^{N/2} / Gamma(N/2)."""
    return math.exp(math.log(2.0) + N / 2.0 * math.log(math.pi) - math.lgamma(N / 2.0))


def sobolev_s0(N: int) -> float:
    """Best constant of the second-order Sobolev inequality in R^N (N >= 5):

        pi^2 N (N-4) (N^2-4) * (Gamma(N/2) / Gamma(N))^{4/N}.
    """
    N = check_dimension(N)
    return (math.pi ** 2 * N * (N - 4) * (N ** 2 - 4)
            * math.exp(4.0 / N * (math.lgamma(N / 2.0) - math.lgamma(float(N)))))


def b_of_m(M: float) -> float:
    """One-dimensional biharmonic Sobolev constant in effective dimension M > 4:

        (M-4)(M-2)M(M+2) * (Gamma(M/2)^2 / (2 Gamma(M)))^{4/M}.
    """
    if not 4 < M < math.inf:
        raise MOutOfRange(f"need finite M > 4, got {M}")
    return ((M - 4.0) * (M - 2.0) * M * (M + 2.0)
            * math.exp(4.0 / M * (2.0 * math.lgamma(M / 2.0) - math.log(2.0) - math.lgamma(M))))


def radial_constant_sr(params: CknParams) -> float:
    """Best constant of the weighted inequality restricted to radial functions:

        (2/(alpha-beta-2))^{2(alpha-beta-2)/T - 4} * omega_{N-1}^{2(alpha-beta-2)/T} * B(M)

    with T = N + 2 alpha - beta - 4 and M = 2T/(alpha-beta-2).
    """
    require_subcritical(params, "radial_constant_sr")
    anb2 = 2.0 * params.nu                    # derive's alpha - beta - 2, the one M is made of
    T = 2.0 * params.kappa1
    e = 2.0 * anb2 / T
    return ((2.0 / anb2) ** (e - 4.0) * omega_sphere(params.N) ** e * b_of_m(params.M_dim))


def rellich_constant(N: int, alpha: float) -> float:
    """Sharp constant of the weighted Rellich inequality (the p = 2 boundary):

        (N(N-4)/4)^2 + 2 (Q - N + 2) ((N-4)/2)^2 + Q^2 = ((N-2+alpha)/2)^4,
        Q = (2+alpha)/2 * (N - 2 + alpha - (2+alpha)/2),

    evaluated in the collapsed form, because the sum cancels as alpha -> 2 - N
    (1e-9 relative error at N = 8).  ScalarOverflow where it leaves the float range, from
    |alpha| of about 1e77 on."""
    N, alpha = check_alpha(N, alpha)
    with contextlib.suppress(OverflowError):
        return ((N - 2.0 + alpha) / 2.0) ** 4
    raise ScalarOverflow(f"the Rellich constant overflows at N = {N}, alpha = {alpha}")


def rellich_constant_alt(N: int, alpha: float) -> float:
    """The Rellich constant as H^2, H = ((N-2)/2 + alpha/2)^2 the sharp constant of
    int |x|^alpha |grad u|^2 >= H int |x|^{alpha-2} u^2; equal to the sum in
    rellich_constant because Q + ((N-4)/2)^2 = H; ScalarOverflow where rellich_constant has it."""
    N, alpha = check_alpha(N, alpha)
    half = (N - 2.0) / 2.0 + alpha / 2.0
    hardy = half * half
    if not math.isfinite(hardy * hardy):
        raise ScalarOverflow(f"the Rellich constant overflows at N = {N}, alpha = {alpha}")
    return hardy * hardy


def critical_constant(N: int, alpha: float) -> float:
    """Sharp constant on the critical lower boundary with 2 - N < alpha < 0:

        (1 + alpha/(N-2))^{4 - 4/N} * S0(N),  strictly below S0.
    """
    N, alpha = check_alpha(N, alpha, 0.0)
    return (1.0 + alpha / (N - 2.0)) ** (4.0 - 4.0 / N) * sobolev_s0(N)


def linearized_mode(params: CknParams, which: int, r) -> np.ndarray | float:
    """Radial factor of the linearized-solution basis.

    which = 0: Z0(r) = (1 - r^{2+beta-alpha}) (1 + r^{alpha-beta-2})^{-(N-2+alpha)/(alpha-beta-2)}
               = r^{-2nu} (1 + r^{2nu})^{-(M-4)/2} tanh(z/2), z = 2 nu ln r,
               proportional to the scaling direction kappa1 U + r U'.
    which = 1: Z1(r) = r^{(2+beta-alpha)/2} (1 + r^{alpha-beta-2})^{-(N-2+alpha)/(alpha-beta-2)},
               the extra direction that appears exactly on the Felli-Schneider curve.
    BadGridSpec where a sample overflows (numerics.grid_exp).
    """
    check_index(which, "which", (0, 1))
    return _family(params, r, 1.0, 0.0, 1.0 - which / 2.0, which == 0, f"Z{which}")


def linearized_degree(params: CknParams, k: int) -> float:
    """Real degree l_k = -(M-2)/2 + sqrt(((M-2)/2)^2 + q^2 lambda_k), lambda_k = k(N-2+k), taken
    as q^2 lambda_k / ((M-2)/2 + sqrt(...)), which does not cancel.  l_0 = 0, and l_1 = 1
    exactly on the Felli-Schneider curve."""
    require_subcritical(params, "linearized_degree")
    check_index(k, "k")
    half = (params.M_dim - 2.0) / 2.0
    q2lam = params.q_pow ** 2 * k * (params.N - 2.0 + k)
    return q2lam / (half + math.sqrt(half * half + q2lam))


def linearized_eigenvalue(params: CknParams, k: int, n: int = 0) -> float:
    """Eigenvalue nu_{k,n} (n = 0, 1, ... from the bottom) of the mode-k pencil
    E_k f = nu D f of spectral.mode_eigenpairs:

        nu_{k,n} = Gamma_{M+2(l_k+n)}/Gamma_M, Gamma_X = (X-4)(X-2)X(X+2), l_k = linearized_degree.

    The map u(r) = r^{-a} v(r^{1/q}) of transforms.to_dimension_m turns mode k
    of the N-dimensional pencil into the radial fourth-order problem in
    dimension M with sphere eigenvalue q^2 lambda_k = l_k (l_k + M - 2), and
    stereographic projection carries that to the Paneitz operator of S^M
    linearized at its constant solution.  The Paneitz operator acts on degree-l
    harmonics as Gamma_{M+2l}/16, also for real degree l (Branson, J. Funct.
    Anal. 74, 1987; Beckner, Ann. Math. 138, 1993); the real degree l_k plays
    the part it plays in the first-order problem (Felli-Schneider, JDE 2003;
    Dolbeault-Esteban-Loss, Invent. Math. 2016).  The extremal U is the
    eigenfunction of nu_{0,0} = 1, the scaling direction that of
    nu_{0,1} = (M+4)/(M-4) = p - 1, and l_1 = 1, so nu_{1,0} = p - 1, exactly
    on the Felli-Schneider curve.  The eigenfunctions, in s = r^{1/q}, are the Gegenbauer
    profiles s^{l_k} (1+s^2)^{-(M-4)/2-l_k} C_n^{l_k+(M-1)/2}((1-s^2)/(1+s^2)).
    """
    check_index(n, "n")
    M = params.M_dim
    x = M + 2.0 * (linearized_degree(params, k) + n)
    return (x - 4.0) * (x - 2.0) * x * (x + 2.0) / ((M - 4.0) * (M - 2.0) * M * (M + 2.0))


#: Width (in t = ln r) of the quintic cutoff ramp used by the Rellich
#: test sequence; the ramp spans r in [1, e^RAMP_WIDTH].
RAMP_WIDTH = 12.0
#: Fewest grid steps per ramp accepted: below 12 the quotient is off by up to 75 %, from 20 by 8e-4.
RAMP_NODES = 24


def _cutoff(t: np.ndarray, L: float = RAMP_WIDTH):
    """C^2 cutoff in t = ln r: 1 for t <= 0, 0 for t >= L, quintic ramp between.

    The ramp is g(t) = 1 - S(t/L) with S(u) = 6u^5 - 15u^4 + 10u^3, which has
    S' = S'' = 0 at both ends.  Returns (g, dg/dt, d2g/dt2) by products of u = t/L clipped
    to [0, 1], not pow: g = 1 - u^3 (10 + u (6u - 15)), g' = -30 u^2 (1-u)^2 / L and
    g'' = -60 u (1-u) (1-2u) / L^2, whose factors make the end values exact.  Built once
    per call of rellich_test_quotient, whatever the number of eps.
    """
    u = np.clip(t / L, 0.0, 1.0)
    uv = u * (1.0 - u)
    return (1.0 - u * u * u * (10.0 + u * (6.0 * u - 15.0)), (-30.0 / L) * (uv * uv),
            (-60.0 / (L * L)) * (uv * (1.0 - 2.0 * u)))


def rellich_limit_grid(n: int = numerics.DEFAULT_N) -> LogGrid:
    """Grid wide enough at the origin for the slowly-decaying test sequences."""
    return numerics.make_grid(-400.0, 15.0, n)


def rellich_test_quotient(N: int, eps, grid: LogGrid) -> float | list[float]:
    """Quotient of the Rellich test sequence u_eps = r^{-(N-4)/2 + eps} g(r):

        int |x|^4 |div(|x|^{-2} grad u_eps)|^2 dx / int |x|^{-4} u_eps^2 dx,

    with the fixed cutoff of _cutoff.  Decreases to ((N-4)/2)^4 as eps -> 0+; the grid must
    reach far below r = 1 (see rellich_limit_grid), as the mass concentrates near the origin
    like r^{2 eps - 1}, and give the ramp RAMP_NODES steps or more (GridTooSmall otherwise).

    One eps gives a float, a flat sequence (tuple, list, ndarray) the list of quotients.
    Every eps is checked (0 < eps < 1/2, EpsOutOfRange) before any is evaluated; one cutoff
    and one trapezoid sum serve them all, each row summed on its own, so a sequence gives bit
    for bit the quotients of one call per eps.
    """
    es = np.array(eps, dtype=float, ndmin=1)
    if es.ndim != 1 or not np.all((0 < es) & (es < 0.5)):
        raise EpsOutOfRange(f"need 0 < eps < 1/2, one or a flat sequence, got {eps}")
    N = check_dimension(N)
    if RAMP_WIDTH / grid.h < RAMP_NODES:
        raise GridTooSmall(f"cutoff ramp spans {RAMP_WIDTH / grid.h:.3g} steps, need {RAMP_NODES}")
    if not es.size:
        return []
    sigma = es[:, None] - (N - 4.0) / 2.0
    g, g1, g2 = _cutoff(grid.ts)
    rho = g2 + (2.0 * sigma + N - 4.0) * g1 + sigma * (sigma + N - 4.0) * g
    samples = np.stack([rho ** 2, np.broadcast_to(g ** 2, rho.shape)], axis=1)
    # both integrands of one eps share the weight r^{2 sigma + N - 5}
    num, den = numerics.quadrature_terms(samples, grid, 2.0 * sigma + N - 5.0).sum(axis=-1).T
    quotients = (num / den).tolist()
    return quotients[0] if np.ndim(eps) == 0 else quotients
