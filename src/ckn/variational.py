"""Discrete Rayleigh quotients: radial energies, constrained minimization,
and the perturbed quotient that exhibits symmetry breaking.

The quotient being minimized is

    I(u) = int |x|^{-beta} |div(|x|^alpha grad u)|^2 dx
           / ( int |x|^gamma |u|^p dx )^{2/p},

whose radial minimum is the closed-form constant radial_constant_sr and
whose behavior under single-mode perturbations of the extremal U decides
between symmetry and symmetry breaking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _forms, numerics
from .closedform import ExtremalSpec, extremal_u, omega_sphere
from .errors import AmplitudeTooLarge, Diverged, MaxIters, RellichBoundary
from .numerics import LogGrid, RadialProfile, trapezoid_weights
from .params import CknParams

__all__ = ["ModeSpec", "make_mode", "radial_energy", "mode_energy",
           "minimize_radial", "perturbed_quotient"]

#: Armijo constant and initial step of the projected descent.
ARMIJO_C = 1e-4
STEP_SEED = 1e-2
#: Descent stops when the preconditioned gradient norm falls below this
#: multiple of the current quotient value.
GRAD_TOL = 1e-7


@dataclass(frozen=True)
class ModeSpec:
    """Spherical mode k with its sphere eigenvalue and effective-dimension data.

    lambda_k = k(N-2+k); varpi_k = k(M-2+k); q2lambda_k = q^2 lambda_k.
    q2lambda_k >= varpi_k for k >= 1, with equality at k = 1 exactly on the
    Felli-Schneider curve.
    """

    k: int
    lambda_k: float
    varpi_k: float
    q2lambda_k: float
    multiplicity: int


def make_mode(params: CknParams, k: int) -> ModeSpec:
    if k < 0:
        raise ValueError(f"mode index must be >= 0, got {k}")
    if not params.subcritical:
        raise RellichBoundary("mode data requires beta < alpha - 2")
    N = params.N
    lam = float(k * (N - 2 + k))
    mult = 1 if k == 0 else ((N + 2 * k - 2) * math.factorial(N + k - 3)
                             // (math.factorial(N - 2) * math.factorial(k)))
    return ModeSpec(k=k, lambda_k=lam,
                    varpi_k=float(k) * (params.M_dim - 2.0 + k),
                    q2lambda_k=params.q_pow ** 2 * lam,
                    multiplicity=mult)


def _mode_form(u: RadialProfile, params: CknParams, lambda_k: float) -> float:
    """int [f'' + (N-1+alpha)/r f' - lambda_k/r^2 f]^2 r^{N+2alpha-beta-1} dr."""
    grid = u.grid
    phi = _forms.to_scaled(params, grid, u.values)
    B = _forms.mode_operator(params, lambda_k, grid)
    img = B @ phi
    integrand = img * img
    numerics.require_tail(integrand, grid, -1.0, "mode energy")
    return float(np.sum(trapezoid_weights(grid.n, grid.h) * integrand))


def radial_energy(u: RadialProfile, params: CknParams) -> float:
    """Full N-dimensional weighted energy int |x|^{-beta}|div(|x|^alpha grad u)|^2 dx
    of the radial function u (sphere factor included)."""
    return omega_sphere(params.N) * _mode_form(u, params, 0.0)


def mode_energy(f: RadialProfile, params: CknParams, mode: ModeSpec) -> float:
    """Radial factor of the mode-k energy (sphere factor excluded; callers
    multiply by the squared sphere norm of their harmonic)."""
    return _mode_form(f, params, mode.lambda_k)


def _star_norm_p(phi: np.ndarray, w: np.ndarray, p: float) -> float:
    return float(np.sum(w * np.abs(phi) ** p))


def minimize_radial(params: CknParams, init: RadialProfile,
                    max_iters: int = 2000, tol: float = 1e-10
                    ) -> tuple[float, RadialProfile]:
    """Minimize the radial quotient by projected descent from init.

    Descent directions are preconditioned with the (factorized) energy
    operator itself, i.e. this is gradient flow in the energy inner
    product; the fixed points are exactly the discrete Euler-Lagrange
    profiles, the same set as for the plain gradient.  Each accepted step
    uses Armijo backtracking (constant 1e-4, halving, step seed 1e-2) and
    the iterate is renormalized onto the unit constraint sphere.

    Returns (quotient value, normalized profile).  The value on success is
    within 0.5% of radial_constant_sr; see the errors for the two failure
    modes.
    """
    if not params.subcritical:
        raise RellichBoundary("minimize_radial requires beta < alpha - 2")
    grid = init.grid
    n, h = grid.n, grid.h
    keep = _forms.keep_indices(n)
    w = trapezoid_weights(n, h)[keep]
    A = _forms.energy_matrix(params, 0.0, grid, clamp=True)
    pre = spla.splu((A + 1e-10 * params.K0 * sp.diags(w)).tocsc())
    p = params.p
    om = omega_sphere(params.N)
    pref = om ** (1.0 - 2.0 / p)

    phi = _forms.to_scaled(params, grid, init.values)[keep]
    norm = _star_norm_p(phi, w, p)
    if norm <= 0:
        raise ValueError("init profile must be nonzero")
    phi = phi / norm ** (1.0 / p)
    value = float(phi @ (A @ phi))
    step = STEP_SEED
    rises = 0
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        grad = 2.0 * (A @ phi - value * (w * np.abs(phi) ** (p - 2.0) * phi))
        direction = pre.solve(grad)
        slope = float(grad @ direction)
        if math.sqrt(max(slope, 0.0)) < GRAD_TOL * max(value, 1.0):
            converged = True
            break
        accepted = False
        for _ in range(60):
            trial = phi - step * direction
            trial /= _star_norm_p(trial, w, p) ** (1.0 / p)
            trial_value = float(trial @ (A @ trial))
            if trial_value <= value - ARMIJO_C * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True          # stalled at rounding level of the objective
            break
        rises = rises + 1 if trial_value > value else 0
        if rises >= 10:
            raise Diverged("quotient increased for 10 consecutive accepted steps")
        prev_value, phi, value = value, trial, trial_value
        step = min(step * 1.5, 1.0)
        if abs(prev_value - value) < tol * max(value, 1e-300) and it > 5:
            converged = True
            break
    if not converged:
        raise MaxIters(f"no stationary point within {max_iters} iterations")
    profile = RadialProfile(grid=grid, values=_forms.from_scaled(
        params, grid, np.pad(phi, _forms.N_CLAMP)))
    return pref * value, profile


def _gauss_sphere(N: int, n_nodes: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Polar-angle quadrature: nodes cos(theta_j) and weights for
    int_0^pi (.) sin^{N-2}(theta) dtheta by Gauss-Legendre."""
    x, wgl = np.polynomial.legendre.leggauss(n_nodes)
    theta = math.pi * (x + 1.0) / 2.0
    return np.cos(theta), wgl * (math.pi / 2.0) * np.sin(theta) ** (N - 2)


def perturbed_quotient(params: CknParams, t_amp: float, mode: ModeSpec,
                       direction: RadialProfile) -> float:
    """Quotient I(U + t f Psi_k) for the axisymmetric harmonic Psi_k.

    k = 0 uses Psi = 1 and k = 1 uses Psi = x_1/|x|.  The direction f is
    rescaled so that the energy of f Psi equals the energy of U, making
    t the relative perturbation size; |t| <= 0.2 is enforced.  The
    denominator's sphere integral uses 64-point Gauss-Legendre quadrature
    in the polar angle with surface measure sin^{N-2}(theta) dtheta.

    For k = 1 with alpha > 0 and beta below the Felli-Schneider curve the
    value drops strictly below radial_constant_sr for small t; above the
    curve it rises.
    """
    if mode.k not in (0, 1):
        raise ValueError("perturbed_quotient supports modes k in {0, 1}")
    if abs(t_amp) > 0.2:
        raise AmplitudeTooLarge(f"|t| must be <= 0.2 after normalization, got {t_amp}")
    grid = direction.grid
    N, p = params.N, params.p
    om = omega_sphere(N)
    om_sub = omega_sphere(N - 1)
    sphere_sq = om if mode.k == 0 else om / N          # int_S Psi_k^2

    e_u = _mode_form(RadialProfile(grid=grid, values=extremal_u(ExtremalSpec(params), grid.nodes)),
                     params, 0.0)
    e_f = _mode_form(direction, params, mode.lambda_k)
    if e_f <= 0:
        raise ValueError("direction must have positive energy")
    scale = math.sqrt(om * e_u / (sphere_sq * e_f))
    f = direction.values * scale
    u = extremal_u(ExtremalSpec(params), grid.nodes)

    if mode.k == 0:
        numerator = om * _mode_form(RadialProfile(grid=grid, values=u + t_amp * f), params, 0.0)
    else:
        # cross term vanishes: the two pieces live in orthogonal sphere modes;
        # the scaled direction has sphere-weighted energy equal to ||U||^2
        numerator = om * e_u * (1.0 + t_amp ** 2)

    cosines, wq = _gauss_sphere(N)
    vals = np.abs(u[:, None] + t_amp * f[:, None] *
                  (np.ones_like(cosines) if mode.k == 0 else cosines)[None, :]) ** p
    radial = vals @ wq                                  # per-radius sphere integral
    numerics.require_tail(radial, grid, params.gamma + N - 1.0, "perturbed quotient denominator")
    den = om_sub * numerics.integrate(radial, grid, params.gamma + N - 1.0)
    return numerator / den ** (2.0 / p)
