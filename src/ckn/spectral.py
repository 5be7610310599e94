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
from .closedform import extremal_shape, linearized_degree, linearized_eigenvalue, omega_sphere
from .errors import BadGridSpec, MOutOfRange, NoConvergence, WrongRegion
from .numerics import LogGrid, RadialProfile
from .params import (CknParams, RegionClass, check_index, require_subcritical,
                     second_variation_gap)
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
    require_subcritical(params, "mode_eigenpairs")
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
    """index-th eigenpair of the mode-k pencil (index 2 only for k = 0): entry index - 1 of
    mode_eigenpairs, whose one solve serves both mode-0 indices; a caller wanting both calls it."""
    if check_index(index, "index", (1, 2)) == 2 and mode.k != 0:
        raise ValueError("index 2 is only available for mode k = 0")
    return mode_eigenpairs(params, mode, grid)[index - 1]


def second_variation_bracket(params: CknParams) -> float:
    """Positive factor 2 int X1'^2 s^{M-3} ds + (3M - 9 + chi) int X1^2 s^{M-5} ds
    multiplying chi - (M-1) in the second variation along the mode-1
    direction X1 = s (1+s^2)^{-(M-2)/2}.  Both are Beta integrals (s^2 =
    x/(1-x)); MOutOfRange where B0 = B(M/2, M/2) underflows (M > ~1000)."""
    require_subcritical(params, "the second variation")
    M = params.M_dim
    chi = params.q_pow ** 2 * (params.N - 1.0)
    b0 = math.exp(2.0 * math.lgamma(M / 2.0) - math.lgamma(M))
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
    require_subcritical(params, "the second variation")
    return int(np.sign(second_variation_gap(params.N, params.q_pow, params.M_dim)))


def linearized_residual(params: CknParams, k: int, n: int, grid: LogGrid) -> float:
    """Normalized sup residual of the effective-dimension linearized ODE of mode k,

        (L_s - q^2 lambda_k/s^2)^2 X = nu_{k,n} Gamma_M (1+s^2)^{-4} X, L_s = d_ss + (M-1)/s d_s,

    at X_{k,n} = s^{l_k}(1+s^2)^{-(M-4)/2-l_k} C_n^{l_k+(M-1)/2}((1-s^2)/(1+s^2)), exact at
    every subcritical point for any k, n >= 0 (check_index: ValueError before any work); (0, 1)
    is the scaling direction, (1, 0) the mode-1 one.  With X = s^m phi, m = -(M-4)/2, and
    sigma = ln s at numerics.anchored_ts, the equation times s^{4-m} is the even ODE

        phi'''' - (4 - 2b) phi'' + b^2 phi = nu_{k,n} (Gamma_M/16) sech^4(sigma) phi,
        b = m(m+M-2) - q^2 lambda_k,

    solved by phi = cosh(sigma)^{m-l_k} C_n^{l_k+(M-1)/2}(-tanh sigma): numerics.even_residual's
    sup over max|rhs|, BadGridSpec where phi underflows at every node.  The width in sigma,
    about (2/(M-4+2l_k))^{1/2}, sets n: (5, 1, -1.1), M = 82, passes at n = 8001, (5, 1, -1.001),
    M = 8002, at n = 16001.  Finite differences of samples, so the value certifies the profile."""
    nu_kn = linearized_eigenvalue(params, k, n)
    from scipy.special import eval_gegenbauer     # here, so import ckn skips its ~4 MB
    M, lk, m = params.M_dim, linearized_degree(params, k), -(params.M_dim - 4.0) / 2.0
    b = m * (m + M - 2.0) - make_mode(params, k).q2lambda_k
    t = numerics.anchored_ts(grid) / params.nu       # sigma / nu: cosh(nu t) is cosh(sigma)
    phi = (extremal_shape(params, t, m - lk)
           * eval_gegenbauer(n, lk + (M - 1.0) / 2.0, -np.tanh(params.nu * t)))
    rhs = (nu_kn * (M - 4.0) * (M - 2.0) * M * (M + 2.0) / 16.0
           * extremal_shape(params, t, -4.0) * phi)
    if not rhs.any():
        raise BadGridSpec(f"X_{k},{n} underflows at every node: the grid misses its peak")
    return numerics.even_residual(phi, grid, 4.0 - 2.0 * b, b * b, rhs) / float(np.abs(rhs).max())


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
