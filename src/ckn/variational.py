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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _forms, numerics
from .closedform import extremal_shape, omega_sphere
from .errors import AmplitudeTooLarge, BadGridSpec, CknError, MaxIters
from .numerics import LogGrid, RadialProfile, trapezoid_weights
from .params import CknParams, check_index, is_index, require_subcritical

__all__ = ["ModeSpec", "make_mode", "radial_energy", "mode_energy",
           "minimize_radial", "perturbed_quotient"]

@dataclass(frozen=True)
class ModeSpec:
    """Spherical mode k: lambda_k = k(N-2+k) and its effective-dimension image q2lambda_k =
    q^2 lambda_k = l_k (l_k + M - 2), l_k the real degree of closedform.linearized_degree."""

    k: int
    lambda_k: float
    q2lambda_k: float
    multiplicity: int


def make_mode(params: CknParams, k: int) -> ModeSpec:
    check_index(k, "k")
    require_subcritical(params, "make_mode")
    N = params.N
    lam = float(k * (N - 2 + k))
    mult = (N + 2 * k - 2) * math.comb(N + k - 3, k) // (N - 2)
    return ModeSpec(k=k, lambda_k=lam, q2lambda_k=params.q_pow ** 2 * lam, multiplicity=mult)


def _mode_form(phi: np.ndarray, grid: LogGrid, params: CknParams, lambda_k: float) -> float:
    """int (B_k phi)^2 dt: mode_energy of f = r^{-kappa1} phi, from the scaled samples phi."""
    img = _forms.mode_applier(params, lambda_k, grid)(phi)
    terms = trapezoid_weights(grid.n, grid.h) * (img * img)
    return float(numerics.checked_integrals(terms, grid.h, ("mode energy",)))


def radial_energy(u: RadialProfile, params: CknParams) -> float:
    """Full N-dimensional weighted energy int |x|^{-beta}|div(|x|^alpha grad u)|^2 dx
    of the radial function u (sphere factor included)."""
    return omega_sphere(params.N) * _mode_form(
        _forms.to_scaled(params, u.grid, u.values), u.grid, params, 0.0)


def mode_energy(f: RadialProfile, params: CknParams, mode: ModeSpec) -> float:
    """Radial factor of the mode-k energy (sphere factor excluded; callers
    multiply by the squared sphere norm of their harmonic)."""
    return _mode_form(_forms.to_scaled(params, f.grid, f.values), f.grid, params, mode.lambda_k)


def minimize_radial(params: CknParams, init: RadialProfile,
                    max_iters: int = 2000, tol: float = 1e-10
                    ) -> tuple[float, RadialProfile]:
    """Minimize the radial quotient from init by nonlinear inverse power iteration
    (Hein & Buehler, NIPS 2010) with a safeguarded Anderson(1) step (Walker & Ni, 2011).

    A, the clamped mode-0 energy form (_forms.energy_band), is factored once by banded
    Cholesky and B_0's rows are built once (_forms.mode_applier).  A step solves
    s = A^{-1} w |phi|^{p-2} phi at unit sum w |s|^p and values (trapezoid sum of (B phi)^2, as
    in mode_energy) the renormalized trial s - gamma (s - s_prev), gamma = <dg, g>_w / <dg, dg>_w
    in trapezoid weights for g = s - phi, dg = g - g_prev.  It keeps the trial if that is below
    the current value, else s (valued only then), which never raises it: the quotient is a ratio
    of convex 2-homogeneous functionals.  So the value never rises.  The loop stops at the first
    step that lowers the value by at most tol times it; max_iters >= 1 bounds the solves: 8.69
    on average from certify-class starts, where s alone (the plain iteration) takes 16.35.

    Returns (quotient value, normalized profile), the value within 0.5% of radial_constant_sr.
    Raises CknError unless max_iters is an integer >= 1 (is_index) and 0 <= tol <= 1e-6, or when
    init, in scaled variables, is zero or not finite; BadGridSpec before any solve where init fails
    check_samples or r^{+-kappa1} or the starting energy overflows, MaxIters after max_iters solves,
    TailInadequate when the outermost nodes carry more of the final energy integrand than TAIL_TOL
    (the grid cuts the extremal off), NoConvergence if rounding leaves A with no Cholesky factor.
    """
    require_subcritical(params, "minimize_radial")
    if not (is_index(max_iters) and max_iters >= 1 and 0.0 <= tol <= 1e-6):
        raise CknError(f"need integer max_iters >= 1, 0 <= tol <= 1e-6: got {max_iters!r}, {tol!r}")
    grid = init.grid
    back = _forms.from_scaled(params, grid, 1.0)         # BadGridSpec where r^-kappa1 overflows
    keep = _forms.keep_indices(grid.n)
    w_full = trapezoid_weights(grid.n, grid.h)
    w = w_full[keep]
    band = _forms.energy_band(params, 0.0, grid)         # BadGridSpec where it overflows
    apply_b0, p = _forms.mode_applier(params, 0.0, grid), params.p

    def scaled(x: np.ndarray) -> np.ndarray:
        return x / float(np.sum(w * np.abs(x) ** p)) ** (1.0 / p)

    def valued(x: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        # a fresh array per step: one reused buffer fragmented the heap (peak RSS)
        padded = np.zeros(grid.n)
        padded[keep] = x
        sq = apply_b0(padded) ** 2
        return x, float(w_full @ sq), sq

    phi = _forms.to_scaled(params, grid, init.values)[keep]
    if not 0 < np.sum(w * np.abs(phi) ** p) < math.inf:
        raise CknError("init profile must be finite and nonzero")
    with np.errstate(over="ignore"):          # judged here, before A is factored
        phi, value, sq = valued(scaled(phi))
    if not value < math.inf:
        raise BadGridSpec(f"the energy form overflows on the starting profile at h = {grid.h:.3g}")
    solve = _forms.cholesky_solver(band, "radial energy form")
    s_prev = g_prev = None
    for _ in range(max_iters):
        s = scaled(solve(w * np.abs(phi) ** (p - 2.0) * phi))
        g, trial = s - phi, None
        if g_prev is not None:
            dg = g - g_prev
            den = float(w @ (dg * dg))
            if den > 0:
                trial = valued(scaled(s - float(w @ (dg * g)) / den * (s - s_prev)))
        step = trial if trial is not None and trial[1] < value else valued(s)
        s_prev, g_prev = s, g
        drop = value - step[1]
        if drop > 0:
            phi, value, sq = step
        if drop <= tol * value:
            break
    else:
        raise MaxIters(f"no stationary point within {max_iters} solves")
    numerics.checked_integrals(w_full * sq, grid.h, ("radial minimizer",))
    profile = RadialProfile(grid=grid, values=np.pad(phi, _forms.N_CLAMP) * back)
    return omega_sphere(params.N) ** (1.0 - 2.0 / p) * value, profile


@functools.cache
def _gauss_sphere(N: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """count-point Gauss-Gegenbauer rule, lam = (N-2)/2, in c = cos theta for int_0^pi g(cos theta)
    sin^{N-2}(theta) dtheta, by Golub & Welsch (Math. Comp. 23, 1969); cached, read-only."""
    lam, k = (N - 2) / 2.0, np.arange(1.0, count)
    off = np.sqrt(k * (k + 2.0 * lam - 1.0) / (4.0 * (k + lam) * (k + lam - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(off, 1), UPLO="U")      # the Jacobi matrix
    weights = vecs[0] ** 2 * (omega_sphere(N) / omega_sphere(N - 1))   # mu0 = int (1-c^2)^{lam-1/2}
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _sphere_mean(u: np.ndarray, tf: np.ndarray, N: int, p: float) -> np.ndarray:
    """Sphere mean of (u + t f x_1/|x|)^p, |t f| <= 3u/4: u^p 2F1(-p/2, (1-p)/2; N/2; y^2), y = tf/u
    (DLMF 15.2.1), to the first J >= p/2 with |a_J| Y^J/(1 - Y) < ulp(1)/2, Y = max y^2 (README)."""
    y2 = np.square(np.divide(tf, u, out=np.zeros_like(u), where=u > 0))   # y only where u > 0
    top, a = float(y2.max()), [1.0]
    while (j := len(a) - 1) < p / 2 or abs(a[j]) * top ** j > np.finfo(float).epsneg * (1 - top):
        a.append(a[j] * (j - p / 2) * (j + (1 - p) / 2) / ((j + 1) * (j + N / 2)))
    return np.polyval(a[-2::-1], y2) * u ** p


def perturbed_quotient(params: CknParams, t_amp: float, mode: ModeSpec,
                       direction: RadialProfile) -> float:
    """Quotient I(U + t f Psi_k) for the axisymmetric harmonic Psi_k.

    k = 0 uses Psi = 1 and k = 1 uses Psi = x_1/|x|.  The direction f is
    rescaled so that the energy of f Psi equals the energy of U, making
    t the relative perturbation size; |t| <= 0.2 is enforced (NaN fails it).
    The quotient is 0-homogeneous and is taken in t on extremal_shape and r^{kappa1} f over
    its max (CknError if that is zero or not finite), where r^{gamma+N-1} dr = dt; the sphere
    integral of |u + t f Psi|^p is omega_N times its mean, the power itself for k = 0 and a series
    where |t f| <= 3U/4 (_sphere_mean), else 64 Gauss-Gegenbauer nodes in c for the kink (README).

    For k = 1 with alpha > 0 and beta below the Felli-Schneider curve the
    value drops strictly below radial_constant_sr for small t; above the
    curve it rises.
    """
    check_index(mode.k, "mode k", (0, 1))
    if not abs(t_amp) <= 0.2:
        raise AmplitudeTooLarge(f"|t| must be <= 0.2 after normalization, got {t_amp}")
    grid, N, p = direction.grid, params.N, params.p
    om, om_sub = omega_sphere(N), omega_sphere(N - 1)
    sphere_sq = om if mode.k == 0 else om / N          # int_S Psi_k^2

    u = extremal_shape(params, grid.ts)
    f = _forms.to_scaled(params, grid, direction.values)
    top = np.max(np.abs(f))
    if not 0 < top < math.inf:
        raise CknError("direction must be finite and nonzero on the grid")
    e_u = _mode_form(u, grid, params, 0.0)
    e_f = _mode_form(f / top, grid, params, mode.lambda_k)    # f^2 would underflow at large M
    if not e_f > 0:
        raise CknError("direction must have positive energy")
    f *= math.sqrt(om * e_u / (sphere_sq * e_f)) / top

    if mode.k == 0:
        numerator = om * _mode_form(u + t_amp * f, grid, params, 0.0)
    else:
        # cross term vanishes: the two pieces live in orthogonal sphere modes;
        # the scaled direction has sphere-weighted energy equal to ||U||^2
        numerator = om * e_u * (1.0 + t_amp ** 2)

    tf = t_amp * f
    if mode.k == 0 or np.all(np.abs(tf) <= 0.75 * u):  # 1 + y c >= 1/4, no kink: omega_N times mean
        scale, radial = om, np.abs(u + tf) ** p if mode.k == 0 else _sphere_mean(u, tf, N, p)
    else:   # |u + t f c|^p may have a kink in c: 64 Gauss-Gegenbauer nodes (README)
        cosines, wq = _gauss_sphere(N, 64)
        scale, radial = om_sub, wq @ np.abs(np.multiply.outer(cosines, tf) + u) ** p
    den = scale * float(numerics.checked_integrals(trapezoid_weights(grid.n, grid.h) * radial,
                                                   grid.h, ("perturbed quotient denominator",)))
    return numerator / den ** (2.0 / p)
