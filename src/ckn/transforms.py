"""Changes of variables for the radial problem and their residual checks.

Two substitutions carry all of the radial theory:

* Emden-Fowler: u(r) = r^{-kappa1} phi(tau), tau = -ln r, turning the
  weighted fourth-order radial equation into the constant-coefficient ODE
  phi'''' - K2 phi'' + K0 phi = |phi|^{p-2} phi on the line, solved exactly
  by phi = C_cosh (cosh(nu tau))^{m}.

* Effective dimension: v(s) = r^a u(r), r = s^q with a = N + alpha - 2 and
  q = 2/(2 + beta - alpha) < 0, mapping the weighted radial energy onto the
  unweighted radial biharmonic energy in (possibly non-integer) dimension
  M = 2(N + 2 alpha - beta - 4)/(alpha - beta - 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import GridTooSmall, MOutOfRange, RellichBoundary
from .numerics import (RESIDUAL_MARGIN, LogGrid, RadialProfile, differentiate, integrate,
                       require_tail)
from .params import CknParams

__all__ = [
    "EmdenFowlerProfile", "to_emden_fowler", "from_emden_fowler",
    "cosh_profile", "cosh_constants", "ode_residual", "cosh_ansatz_check",
    "to_dimension_m", "from_dimension_m", "rayleigh_m",
]

#: Default grid of the exact-solution ODE residual check: the node count
#: balances the h^4 truncation of the stacked stencils against the
#: eps/h^4 amplification of sample rounding, which is where the sup
#: residual of an exact solution bottoms out in double precision.
ODE_CHECK_GRID = (-10.0, 10.0, 1401)


@dataclass(frozen=True)
class EmdenFowlerProfile:
    """Samples of phi(tau) on a uniform grid in tau = -ln r."""

    grid: LogGrid
    phi: np.ndarray
    params: CknParams


def to_emden_fowler(u: RadialProfile, params: CknParams) -> EmdenFowlerProfile:
    """phi(tau) = r^{kappa1} u(r) at r = e^{-tau}; inverse of from_emden_fowler."""
    t = u.grid.ts
    phi = u.values * np.exp(params.kappa1 * t)
    grid = numerics.make_grid(-u.grid.t_max, -u.grid.t_min, u.grid.n)
    return EmdenFowlerProfile(grid=grid, phi=phi[::-1].copy(), params=params)


def from_emden_fowler(ef: EmdenFowlerProfile) -> RadialProfile:
    """Radial samples u(r) = r^{-kappa1} phi(-ln r)."""
    grid = numerics.make_grid(-ef.grid.t_max, -ef.grid.t_min, ef.grid.n)
    values = ef.phi[::-1] * np.exp(-ef.params.kappa1 * grid.ts)
    return RadialProfile(grid=grid, values=values)


def cosh_constants(params: CknParams) -> tuple[float, float, float]:
    """(C_cosh, nu, m) of the exact profile C_cosh (cosh(nu tau))^m.

    m = -4/(p-2), nu = (alpha-beta-2)/2, and C_cosh = C_amp * 2^m.
    """
    if not params.subcritical:
        raise RellichBoundary("cosh ansatz requires beta < alpha - 2")
    return params.C_amp * 2.0 ** params.m_exp, params.nu, params.m_exp


def cosh_profile(params: CknParams, grid: LogGrid) -> EmdenFowlerProfile:
    """Exact solution samples C_cosh (cosh(nu tau))^m on the given tau grid."""
    c, nu, m = cosh_constants(params)
    tau = grid.ts
    z = np.abs(nu * tau)
    logcosh = z + np.log1p(np.exp(-2.0 * z)) - math.log(2.0)
    return EmdenFowlerProfile(grid=grid, phi=c * np.exp(m * logcosh), params=params)


def ode_residual(profile: EmdenFowlerProfile) -> float:
    """Sup residual of phi'''' - K2 phi'' + K0 phi = |phi|^{p-2} phi,
    normalized by the magnitude 1 + max|phi|^{p-1} of the equation.

    The fourth derivative is the second-derivative stencil applied twice,
    and the sup skips RESIDUAL_MARGIN nodes at each end where the stacked
    one-sided stencils lose accuracy.  The floor of this quantity is set
    by rounding of the float64 samples amplified through the fourth
    derivative (about eps/h^4 relative), not by truncation, once the grid
    is finer than a few thousand nodes.
    """
    if profile.grid.n < 201:
        raise GridTooSmall(f"need n >= 201 for fourth derivatives, got {profile.grid.n}")
    P = profile.params
    phi = RadialProfile(grid=profile.grid, values=profile.phi)
    d2 = differentiate(phi, 2)
    d4 = differentiate(d2, 2)
    lhs = d4.values - P.K2 * d2.values + P.K0 * profile.phi
    rhs = np.abs(profile.phi) ** (P.p - 2.0) * profile.phi
    res = np.abs(lhs - rhs) / (1.0 + np.abs(profile.phi) ** (P.p - 1.0)).max()
    m = RESIDUAL_MARGIN
    return float(res[m:-m].max())


def cosh_ansatz_check(params: CknParams) -> tuple[float, float, float]:
    """Normalized residuals of the three algebraic relations that make the
    cosh profile an exact solution:

      1. m^4 nu^4 - K2 m^2 nu^2 + K0 = 0
      2. (m^2 + (m-2)^2) nu^2 - K2 = 0
      3. C_cosh^{p-2} = m(m-1)(m-2)(m-3) nu^4

    All three are < 1e-10 for admissible parameters away from beta = alpha-2.
    """
    c, nu, m = cosh_constants(params)
    K2, K0, p = params.K2, params.K0, params.p
    t1 = m ** 4 * nu ** 4
    t2 = K2 * m ** 2 * nu ** 2
    r1 = abs(t1 - t2 + K0) / max(t1, t2, K0)
    r2 = abs((m ** 2 + (m - 2.0) ** 2) * nu ** 2 - K2) / K2
    amp = m * (m - 1.0) * (m - 2.0) * (m - 3.0) * nu ** 4
    r3 = abs(c ** (p - 2.0) - amp) / abs(amp)
    return r1, r2, r3


def to_dimension_m(u: RadialProfile, params: CknParams) -> RadialProfile:
    """v(s) = r^a u(r) at r = s^q.

    q < 0 reverses orientation, so the resulting grid is re-sorted to be
    ascending in s; ln s = ln r / q maps [t_min, t_max] onto
    [t_max/q, t_min/q].
    """
    if not params.subcritical:
        raise RellichBoundary("to_dimension_m requires beta < alpha - 2")
    q = params.q_pow
    t = u.grid.ts
    values = (u.values * np.exp(params.a_shift * t))[::-1].copy()
    grid = numerics.make_grid(u.grid.t_max / q, u.grid.t_min / q, u.grid.n)
    return RadialProfile(grid=grid, values=values)


def from_dimension_m(v: RadialProfile, params: CknParams) -> RadialProfile:
    """Inverse of to_dimension_m: u(r) = r^{-a} v(r^{1/q})."""
    if not params.subcritical:
        raise RellichBoundary("from_dimension_m requires beta < alpha - 2")
    q = params.q_pow
    grid = numerics.make_grid(v.grid.t_max * q, v.grid.t_min * q, v.grid.n)
    values = v.values[::-1] * np.exp(-params.a_shift * grid.ts)
    return RadialProfile(grid=grid, values=values)


def rayleigh_m(v: RadialProfile, M: float) -> float:
    """Rayleigh quotient of the radial biharmonic problem in dimension M:

        int_0^inf [v'' + (M-1)/s v']^2 s^{M-1} ds
        / ( int_0^inf |v|^{2M/(M-4)} s^{M-1} ds )^{(M-4)/M}.

    Evaluates to B(M) on v = (1+s^2)^{-(M-4)/2} and is invariant under
    scaling and dilation of v.
    """
    if not M > 4:
        raise MOutOfRange(f"need M > 4, got {M}")
    p_m = 2.0 * M / (M - 4.0)
    vv = numerics.with_derivatives(v)
    lap = vv.d2 + (M - 2.0) * vv.d1          # s^2 * (v'' + (M-1)/s v')
    num_samples = lap ** 2
    den_samples = np.abs(v.values) ** p_m
    require_tail(num_samples, v.grid, M - 5.0, "rayleigh_m numerator")
    require_tail(den_samples, v.grid, M - 1.0, "rayleigh_m denominator")
    num = integrate(num_samples, v.grid, M - 5.0)
    den = integrate(den_samples, v.grid, M - 1.0)
    return num / den ** ((M - 4.0) / M)
