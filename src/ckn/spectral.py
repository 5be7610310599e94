"""Per-mode linearized eigenproblems and the closed-form second variation.

For each spherical mode k the linearization of the Euler-Lagrange equation
at the radial extremal U reduces to the generalized eigenproblem

    E_k(f) = nu * D(f),
    E_k(f) = int [f'' + (N-1+alpha)/r f' - lambda_k/r^2 f]^2 r^{N+2alpha-beta-1} dr,
    D(f)   = int U^{p-2} f^2 r^{gamma+N-1} dr.

Mode 0 has nu_1 = 1 (eigenprofile U) and nu_2 = p - 1 (the scaling
direction); the mode-1 bottom eigenvalue crosses p - 1 exactly on the
Felli-Schneider curve, which is the spectral face of the symmetry-breaking
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dsbmv

from . import _forms, numerics
from .closedform import linearized_degree, linearized_eigenvalue, omega_sphere
from .errors import GridTooSmall, MOutOfRange, NoConvergence, RellichBoundary, WrongRegion
from .numerics import RESIDUAL_MARGIN, LogGrid, RadialProfile, log_gamma
from .params import CknParams, RegionClass, second_variation_gap
from .variational import ModeSpec, make_mode

__all__ = ["SpectralResult", "mode_eigenpairs", "mode_eigenvalue",
           "second_variation_z1", "second_variation_bracket", "second_variation_sign",
           "linearized_residual", "spectral_gap"]

#: Shift, basis size (clamped to the order) and stopping tolerance of the one shift-invert
#: Lanczos run per mode (see mode_eigenpairs).  Every mode-k eigenvalue is >= 1 (the mode-0
#: bottom eigenvalue), so E - SHIFT D is positive definite and the eigenvalues nearest 0.9
#: are the wanted ones.
SHIFT, LANCZOS_NCV, LANCZOS_TOL = 0.9, 10, 1e-8


@dataclass(frozen=True)
class SpectralResult:
    """Eigenpair: profile normalized to unit weighted mass (int U^{p-2} f^2 r^{gamma+N-1}
    dr = 1) and positive at the first interior node.  eigenvalue is its Rayleigh quotient
    sum w (B_k phi)^2.  residual, the backward error ||E x - nu D x|| / ((||E||_1 + |nu|
    max D) ||x||), is normalized by ||E||_1 ~ h^-4: about 1e-18 at n = 4001, and below
    1e-12 even for an eigenvalue 1e-5 off, so accuracy rests on mode_eigenpairs' argument
    and the closed-form tests, not on residual.  iters counts the Cholesky solves of the
    mode's one Lanczos run, which both mode-0 indices share."""

    eigenvalue: float
    profile: RadialProfile
    residual: float
    iters: int


def mode_eigenpairs(params: CknParams, mode: ModeSpec, grid: LogGrid) -> list[SpectralResult]:
    """Eigenpairs of index 1 and 2 (k = 0) or index 1 (k >= 1) of the mode-k
    pencil (E, D = diag(d)), in that order, from one band assembly, one
    banded Cholesky factor of E - SHIFT D (NoConvergence if there is none:
    then the pencil has an eigenvalue below SHIFT) and one Lanczos run
    (ARPACK through eigsh) on D^{1/2} (E - SHIFT D)^{-1} D^{1/2}, whose largest
    eigenvalues theta = 1/(nu - SHIFT) are the wanted ones (ARPACK Users' Guide, 4.2).

    The run keeps LANCZOS_NCV vectors and stops at Ritz residual LANCZOS_TOL: nu is
    not the Ritz value but the Rayleigh quotient sum w (B_k phi)^2 of x = (E - SHIFT D)^{-1}
    D^{1/2} y (D^{-1/2} y up to scale), one inverse-iteration step beyond the Ritz vector y,
    so its error is quadratic in the Ritz residual and the last solve damps high frequencies;
    nu sits on the eps/h^4 floor of the sum, below that of SHIFT + 1/theta or x^T E x."""
    if not params.subcritical:
        raise RellichBoundary("mode_eigenpairs requires beta < alpha - 2")
    # r^{-kappa1}, built first: a grid on which it overflows raises BadGridSpec before the solve
    back = _forms.from_scaled(params, grid, 1.0)
    ab = _forms.energy_band(params, mode.lambda_k, grid)
    d = _forms.mass_vector(params, grid)
    solve = _forms.cholesky_solver(np.vstack([ab[:-1], ab[-1] - SHIFT * d]),
                                   f"mode {mode.k}: E - {SHIFT} D")
    root_d = np.sqrt(d)
    solves = 0

    def op(y: np.ndarray) -> np.ndarray:
        nonlocal solves
        solves += 1
        return root_d * solve(root_d * y)

    m = len(d)
    # a fixed start vector keeps every answer reproducible bit for bit
    v0 = np.random.default_rng(1234).standard_normal(m)
    try:
        thetas, Y = spla.eigsh(spla.LinearOperator((m, m), matvec=op, dtype=float),
                               2 if mode.k == 0 else 1, which="LA", v0=v0,
                               ncv=min(LANCZOS_NCV, m), tol=LANCZOS_TOL)
    except spla.ArpackNoConvergence as exc:
        raise NoConvergence(f"Lanczos on mode {mode.k}: {exc}") from None
    X = solve(root_d[:, None] * Y)
    norm_e = float(dsbmv(_forms.BAND, 1.0, np.abs(ab), np.ones(m)).max())
    w = numerics.trapezoid_weights(grid.n, grid.h)
    apply_b = _forms.mode_applier(params, mode.lambda_k, grid)
    results = []
    for j in np.argsort(-thetas):
        x = X[:, j]
        x = x / math.sqrt(np.dot(x * d, x))
        # positive at the first interior node, zero at the clamped nodes
        phi = np.pad(-x if x[0] < 0 else x, _forms.N_CLAMP)
        nu = float(w @ apply_b(phi) ** 2)
        residual = float(np.linalg.norm(dsbmv(_forms.BAND, 1.0, ab, x) - nu * (d * x))
                         / ((norm_e + abs(nu) * d.max()) * np.linalg.norm(x)))
        profile = RadialProfile(grid=grid, values=phi * back)
        results.append(SpectralResult(eigenvalue=nu, profile=profile, residual=residual,
                                      iters=solves))
    return results


def mode_eigenvalue(params: CknParams, mode: ModeSpec, index: int,
                    grid: LogGrid) -> SpectralResult:
    """index-th eigenpair of the mode-k pencil (index 2 only for k = 0):
    entry index - 1 of mode_eigenpairs, whose one solve serves both mode-0
    indices, so a caller that wants both calls that instead."""
    if index not in (1, 2):
        raise ValueError("index must be 1 or 2")
    if index == 2 and mode.k != 0:
        raise ValueError("index 2 is only available for mode k = 0")
    return mode_eigenpairs(params, mode, grid)[index - 1]


def second_variation_bracket(params: CknParams) -> float:
    """Positive factor 2 int X1'^2 s^{M-3} ds + (3M - 9 + chi) int X1^2 s^{M-5} ds
    multiplying chi - (M-1) in the second variation along the mode-1
    direction X1 = s (1+s^2)^{-(M-2)/2}.  Both are Beta integrals (s^2 =
    x/(1-x)); MOutOfRange where B0 = B(M/2, M/2) underflows (M > ~1000)."""
    if not params.subcritical:
        raise RellichBoundary("second variation requires beta < alpha - 2")
    M = params.M_dim
    chi = params.q_pow ** 2 * (params.N - 1.0)
    b0 = math.exp(2.0 * log_gamma(M / 2.0) - log_gamma(M))
    if b0 < np.finfo(float).tiny:
        raise MOutOfRange(f"B(M/2, M/2) underflows at M = {M}")
    i1 = 0.5 * b0 * ((M - 2.0) * (M - 4.0) + 4.0 / (M - 2.0))     # int X1'^2 s^{M-3} ds
    i2 = 2.0 * b0 * (M - 1.0) / (M - 2.0)                           # int X1^2 s^{M-5} ds
    return 2.0 * i1 + (3.0 * M - 9.0 + chi) * i2


def second_variation_z1(params: CknParams) -> float:
    """Second variation of the energy at U along the mode-1 direction Z1:

        (omega_{N-1}/N) nu^3 [chi - (M-1)]
            * { 2 int X1'^2 s^{M-3} ds + [(3M-9) + chi] int X1^2 s^{M-5} ds },

    chi = q^2 (N-1).  Negative exactly when beta < beta_fs (alpha > 0),
    zero on the Felli-Schneider curve, positive above it: the sign decides
    whether the radial extremal is a local minimum against mode-1
    perturbations.
    """
    P = params
    return (omega_sphere(P.N) / P.N * P.nu ** 3
            * float(second_variation_gap(P.N, P.q_pow, P.M_dim)) * second_variation_bracket(P))


def second_variation_sign(params: CknParams) -> int:
    """Sign of second_variation_z1 without the bracket (it is always
    positive, so the sign is that of chi - (M-1))."""
    if not params.subcritical:
        raise RellichBoundary("second variation requires beta < alpha - 2")
    return int(np.sign(second_variation_gap(params.N, params.q_pow, params.M_dim)))


def linearized_residual(params: CknParams, which: int, grid: LogGrid) -> float:
    """Normalized sup residual of the effective-dimension linearized ODE of mode k,

        (L_s - q^2 lambda_k/s^2)^2 X = nu_{k,n} Gamma_M (1+s^2)^{-4} X, L_s = d_ss + (M-1)/s d_s,

    at X0 = (1-s^2)(1+s^2)^{-(M-2)/2} (which = 0: k = 0, n = 1, the scaling direction) or
    X1 = s^{l_1}(1+s^2)^{-(M-4)/2-l_1} (which = 1: k = 1, n = 0), with l_k from
    closedform.linearized_degree and nu_{k,n} from closedform.linearized_eigenvalue.  Both
    are exact solutions at every subcritical point; l_1 = 1 on the Felli-Schneider curve.
    As beta -> alpha - 2, l_1 grows and X1 narrows: at (5, 1, -1.1), l_1 = 16.6 and the
    residual is 2.8e-7 on the default grid, 1.7e-8 at n = 8001; (5, 1, -1.01) needs n = 16001.
    Derivatives are finite differences of samples at numerics.anchored_ts, so the value
    certifies the profile rather than restating algebra; BadGridSpec where s^2 overflows.
    """
    if which not in (0, 1):
        raise ValueError("which must be 0 or 1")
    M, l1 = params.M_dim, linearized_degree(params, 1)     # RellichBoundary at beta = alpha - 2
    if which == 0:
        return _mode_residual(params, 0, 1, grid,
                              lambda t, s2: (1.0 - s2) * (1.0 + s2) ** (-(M - 2.0) / 2.0))

    def x1(t, s2):
        # in log space and scaled to peak 1 (the residual is homogeneous in X):
        # s^{l_1} and (1+s^2)^{-l_1} overflow apart for large l_1, and X1 underflows at large M
        log_x = l1 * t - (l1 + (M - 4.0) / 2.0) * np.log1p(s2)
        return np.exp(log_x - log_x.max())
    return _mode_residual(params, 1, 0, grid, x1)


def _mode_residual(params: CknParams, k: int, n: int, grid: LogGrid, profile) -> float:
    """linearized_residual's value for X = profile(t, s^2), s = e^t at numerics.anchored_ts,
    and eigenvalue nu_{k,n}; GridTooSmall where no node lies RESIDUAL_MARGIN inside both ends."""
    if grid.n <= 2 * RESIDUAL_MARGIN:
        raise GridTooSmall(f"need more than {2 * RESIDUAL_MARGIN} nodes, got {grid.n}")
    M, c = params.M_dim, make_mode(params, k).q2lambda_k
    t = numerics.anchored_ts(grid)
    s = numerics.grid_exp(t, "s")
    s2 = numerics.grid_exp(s, "s^2", 2.0 * t[-1], np.square)
    x = profile(t, s2)
    # Everything is evaluated multiplied by s^4 and expressed through d/dt (t = ln s), which
    # keeps all terms bounded: with G1 = s^2 (L_s - c/s^2) X the left side becomes
    # s^4 (L_s - c/s^2)^2 X = G1'' + (M-6) G1' + (8 - 2M - c) G1.
    prof = numerics.with_derivatives(RadialProfile(grid=grid, values=x))
    g1 = prof.d2 + (M - 2.0) * prof.d1 - c * x
    gp = numerics.with_derivatives(RadialProfile(grid=grid, values=g1))
    lhs = gp.d2 + (M - 6.0) * gp.d1 + (8.0 - 2.0 * M - c) * g1
    gamma_m = (M - 4.0) * (M - 2.0) * M * (M + 2.0)
    eig_term = linearized_eigenvalue(params, k, n) * gamma_m * (s / (1.0 + s2)) ** 4 * x
    res = np.abs(lhs - eig_term)
    return float(res[RESIDUAL_MARGIN:-RESIDUAL_MARGIN].max() / np.abs(eig_term).max())


def spectral_gap(params: CknParams, grid: LogGrid) -> float:
    """Lowest nonradial eigenvalue nu_{1,0} on the critical lower boundary with alpha < 0,
    from the mode-1 pencil on grid.  nu_{k,0} = Gamma_{M+2 l_k}/Gamma_M rises with l_k, and
    l_k with k, so mode 1 is the lowest nonradial mode.  It is not the third eigenvalue
    counted over all modes: the radial nu_{0,2} = (M+4)(M+6)/((M-4)(M-2)) lies below it at
    (5, -2), (6, -1.5) and (7, -3).  Grid-dependent; the tests hold it to
    closedform.linearized_eigenvalue(params, 1, 0)."""
    if params.region is not RegionClass.CRITICAL_UPPER_ALPHA_NEG:
        raise WrongRegion("spectral_gap is defined on the critical lower "
                          "boundary with 2 - N < alpha < 0")
    value = mode_eigenvalue(params, make_mode(params, 1), 1, grid).eigenvalue
    if value <= params.p - 1.0:
        raise NoConvergence(f"gap surrogate {value} does not exceed p-1 = {params.p - 1.0}")
    return value
