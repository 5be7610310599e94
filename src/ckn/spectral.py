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
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _forms, numerics
from .errors import NoConvergence, RellichBoundary, WrongRegion
from .numerics import RESIDUAL_MARGIN, LogGrid, RadialProfile
from .params import CknParams, RegionClass, second_variation_gap
from .variational import ModeSpec, make_mode

__all__ = ["SpectralResult", "mode_eigenvalue", "second_variation_z1",
           "second_variation_bracket", "second_variation_sign",
           "linearized_residual", "gamma_comparison", "spectral_gap"]

#: Shift of the one shift-invert Lanczos run per mode.  Every mode-k
#: eigenvalue is >= 1 (the mode-0 bottom eigenvalue), so the eigenvalues
#: nearest 0.9 are the wanted ones: 1 and p - 1 for k = 0, the bottom
#: eigenvalue for k >= 1.
SHIFT = 0.9


@dataclass(frozen=True)
class SpectralResult:
    """Converged eigenpair: profile normalized to unit weighted mass
    (int U^{p-2} f^2 r^{gamma+N-1} dr = 1) and positive at the first
    interior node.  residual is the normwise backward error
    ||E x - nu D x|| / ((||E||_1 + |nu| max D) ||x||) of the weak-form
    eigenpair, far below 1e-8 |nu| at convergence.  iters is the number of
    factor solves of the mode's one Lanczos run, which both mode-0
    indices share."""

    eigenvalue: float
    profile: RadialProfile
    residual: float
    iters: int


def _mode_solves(params: CknParams, mode: ModeSpec, grid: LogGrid) -> list[SpectralResult]:
    """Eigenpairs of index 1 and 2 (k = 0) or index 1 (k >= 1) of the mode-k
    pencil (E, diag(d)): one assembly, one factorization of E - SHIFT diag(d)
    and one shift-invert Lanczos run (ARPACK through eigsh)."""
    if not params.subcritical:
        raise RellichBoundary("mode_eigenvalue requires beta < alpha - 2")
    E = _forms.energy_matrix(params, mode.lambda_k, grid, clamp=True)
    d = _forms.mass_vector(params, grid, clamp=True)
    D = sp.diags(d)
    lu = spla.splu((E - SHIFT * D).tocsc())
    solves = 0

    def solve(y: np.ndarray) -> np.ndarray:
        nonlocal solves
        solves += 1
        return lu.solve(y)

    # a fixed start vector keeps every answer reproducible bit for bit
    v0 = np.random.RandomState(1234).standard_normal(E.shape[0])
    try:
        nus, X = spla.eigsh(E, 2 if mode.k == 0 else 1, M=D, sigma=SHIFT, which="LM",
                            OPinv=spla.LinearOperator(E.shape, matvec=solve, dtype=float),
                            v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise NoConvergence(f"shift-invert Lanczos on mode {mode.k}: {exc}") from None
    norm_e = float(np.max(np.abs(E).sum(axis=0)))
    results = []
    for j in np.argsort(nus):
        nu, x = float(nus[j]), X[:, j]
        x = x / math.sqrt(np.dot(x * d, x))
        residual = float(np.linalg.norm(E @ x - nu * (d * x))
                         / ((norm_e + abs(nu) * d.max()) * np.linalg.norm(x)))
        # positive at the first interior node, zero at the clamped nodes
        phi = np.pad(-x if x[0] < 0 else x, _forms.N_CLAMP)
        profile = RadialProfile(grid=grid, values=_forms.from_scaled(params, grid, phi))
        results.append(SpectralResult(eigenvalue=nu, profile=profile, residual=residual,
                                      iters=solves))
    return results


def mode_eigenvalue(params: CknParams, mode: ModeSpec, index: int,
                    grid: LogGrid) -> SpectralResult:
    """index-th eigenvalue of the mode-k pencil (index 2 only for k = 0),
    from the mode's one shift-invert Lanczos run about SHIFT = 0.9."""
    if index not in (1, 2):
        raise ValueError("index must be 1 or 2")
    if index == 2 and mode.k != 0:
        raise ValueError("index 2 is only available for mode k = 0")
    return _mode_solves(params, mode, grid)[index - 1]


def _x1_integrals(M: float, grid: LogGrid | None = None) -> tuple[float, float]:
    """(int X1'^2 s^{M-3} ds, int X1^2 s^{M-5} ds) for X1 = s (1+s^2)^{-(M-2)/2},
    by quadrature on the given grid."""
    g = grid if grid is not None else numerics.make_grid()
    s = g.nodes
    env = (1.0 + s ** 2)
    x1 = s * env ** (-(M - 2.0) / 2.0)
    x1p = (1.0 - (M - 3.0) * s ** 2) * env ** (-M / 2.0)
    return (numerics.integrate(x1p ** 2, g, M - 3.0),
            numerics.integrate(x1 ** 2, g, M - 5.0))


def second_variation_bracket(params: CknParams, grid: LogGrid | None = None) -> float:
    """Positive factor 2 int X1'^2 s^{M-3} ds + (3M - 9 + chi) int X1^2 s^{M-5} ds
    multiplying chi - (M-1) in the second variation along the mode-1 direction."""
    if not params.subcritical:
        raise RellichBoundary("second variation requires beta < alpha - 2")
    M = params.M_dim
    chi = params.q_pow ** 2 * (params.N - 1.0)
    i1, i2 = _x1_integrals(M, grid)
    return 2.0 * i1 + (3.0 * M - 9.0 + chi) * i2


def second_variation_z1(params: CknParams, grid: LogGrid | None = None) -> float:
    """Second variation of the energy at U along the mode-1 direction Z1:

        (omega_{N-1}/N) nu^3 [chi - (M-1)]
            * { 2 int X1'^2 s^{M-3} ds + [(3M-9) + chi] int X1^2 s^{M-5} ds },

    chi = q^2 (N-1).  Negative exactly when beta < beta_fs (alpha > 0),
    zero on the Felli-Schneider curve, positive above it: the sign decides
    whether the radial extremal is a local minimum against mode-1
    perturbations.
    """
    from .closedform import omega_sphere

    P = params
    chi = P.q_pow ** 2 * (P.N - 1.0)
    return (omega_sphere(P.N) / P.N * P.nu ** 3
            * (chi - (P.M_dim - 1.0)) * second_variation_bracket(P, grid))


def second_variation_sign(params: CknParams) -> int:
    """Sign of second_variation_z1 without quadrature (the bracket is
    always positive, so the sign is that of chi - (M-1))."""
    if not params.subcritical:
        raise RellichBoundary("second variation requires beta < alpha - 2")
    return int(np.sign(second_variation_gap(params.N, params.q_pow, params.M_dim)))


def linearized_residual(params: CknParams, which: int, grid: LogGrid) -> float:
    """Normalized sup residual of the effective-dimension linearized ODE

        (L_s - varpi_k/s^2)^2 X = (q^2 lambda_k - varpi_k)
              (2/s^2 X'' + 2(M-3)/s^3 X' - [2(M-4) + q^2 lambda_k + varpi_k]/s^4 X)
            + (p_M - 1) Gamma_M (1+s^2)^{-4} X,

    where L_s = d^2/ds^2 + (M-1)/s d/ds and p_M = 2M/(M-4), with
    X = X0 = (1-s^2)(1+s^2)^{-(M-2)/2} (which = 0, k = 0) or
    X = X1 = s(1+s^2)^{-(M-2)/2} (which = 1, k = 1).

    X0 always solves its equation; X1 solves it exactly only on the
    Felli-Schneider curve, where q^2 lambda_1 = varpi_1.  Derivatives are
    taken by finite differences from the samples, so the value certifies
    the profile rather than restating algebra.
    """
    if which not in (0, 1):
        raise ValueError("which must be 0 or 1")
    if not params.subcritical:
        raise RellichBoundary("linearized_residual requires beta < alpha - 2")
    M = params.M_dim
    k = which
    varpi = float(k) * (M - 2.0 + k)
    q2lam = params.q_pow ** 2 * k * (params.N - 2.0 + k)
    s = grid.nodes
    env = (1.0 + s ** 2) ** (-(M - 2.0) / 2.0)
    x = ((1.0 - s ** 2) * env) if which == 0 else (s * env)

    # Everything is evaluated multiplied by s^4 and expressed through
    # d/dt (t = ln s), which keeps all terms bounded: with
    # G1 = s^2 (L_s - varpi/s^2) X the left side becomes
    # s^4 (L_s - varpi/s^2)^2 X = G1'' + (M-6) G1' + (8 - 2M - varpi) G1.
    prof = numerics.with_derivatives(RadialProfile(grid=grid, values=x))
    g1 = prof.d2 + (M - 2.0) * prof.d1 - varpi * x
    gp = numerics.with_derivatives(RadialProfile(grid=grid, values=g1))
    lhs = gp.d2 + (M - 6.0) * gp.d1 + (8.0 - 2.0 * M - varpi) * g1

    gamma_m = (M - 4.0) * (M - 2.0) * M * (M + 2.0)
    p_m = 2.0 * M / (M - 4.0)
    ratio4 = (s / (1.0 + s ** 2)) ** 4
    eig_term = (p_m - 1.0) * gamma_m * ratio4 * x
    # s^2 X'' = X_tt - X_t and s X' = X_t
    extra = (q2lam - varpi) * (2.0 * (prof.d2 - prof.d1) + 2.0 * (M - 3.0) * prof.d1
                               - (2.0 * (M - 4.0) + q2lam + varpi) * x)
    res = np.abs(lhs - extra - eig_term)
    m = RESIDUAL_MARGIN
    return float(res[m:-m].max() / np.abs(eig_term).max())


def gamma_comparison(M: float, k: int) -> tuple[float, float, bool]:
    """Both sides of the mode-exclusion comparison (p_M - 1) Gamma_M vs
    Gamma_{M+2k}, Gamma_X = (X-4)(X-2)X(X+2).

    Equality holds identically at k = 1 (both sides reduce to
    (M-2)M(M+2)(M+4)); for k >= 2 the right side strictly dominates, which
    is what rules out nontrivial higher-mode solutions.
    """
    if not M > 4:
        from .errors import MOutOfRange

        raise MOutOfRange(f"need M > 4, got {M}")
    if k < 1:
        raise ValueError("k must be >= 1")
    gm = (M - 4.0) * (M - 2.0) * M * (M + 2.0)
    m2 = M + 2.0 * k
    lhs = (2.0 * M / (M - 4.0) - 1.0) * gm
    rhs = (m2 - 4.0) * (m2 - 2.0) * m2 * (m2 + 2.0)
    holds = lhs <= rhs * (1.0 + 1e-12) if k == 1 else lhs < rhs
    return lhs, rhs, holds


def spectral_gap(params: CknParams, grid: LogGrid) -> float:
    """Numerical surrogate for the third eigenvalue on the critical lower
    boundary with alpha < 0: the minimum over k in {1, 2, 3} of the mode-k
    bottom eigenvalue.  Grid-dependent; reported, not asserted against any
    closed form, beyond the requirement that it exceed p - 1."""
    if params.region is not RegionClass.CRITICAL_UPPER_ALPHA_NEG:
        raise WrongRegion("spectral_gap is defined on the critical lower "
                          "boundary with 2 - N < alpha < 0")
    value = min(mode_eigenvalue(params, make_mode(params, k), 1, grid).eigenvalue
                for k in (1, 2, 3))
    if value <= params.p - 1.0:
        raise NoConvergence(f"gap surrogate {value} does not exceed p-1 = {params.p - 1.0}")
    return value
