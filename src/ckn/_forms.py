"""Internal weak-form assembly shared by the variational and spectral modules.

All quadratic forms are assembled in the scaled variable
phi(t) = r^{kappa1} f(r), t = ln r, where the second-order mode operator

    f'' + (N-1+alpha)/r f' - lambda_k/r^2 f        (per spherical mode k)

conjugates to the constant-coefficient operator

    B_k phi = phi'' - 2 nu phi' - (cal_B + lambda_k) phi,

and the energy weight r^{N+2 alpha - beta - 1} dr becomes plain dt.  This
removes the e^{+-T t} dynamic range from every matrix.

Form quadrature uses uniform (trapezoid) weights on purpose: the 4-2-4
alternation of composite Simpson weights lets a minimizer shave the value
of a quadratic form by a factor 8/9 with a grid-frequency modulation of
the operator image, which shows up as a spurious global 8/9 on the
spectrum.  Trapezoid weights cannot be gamed and are spectrally accurate
for the decaying integrands that appear here.

The two outermost nodes on each side are clamped (phi = 0); without the
clamp the discrete kernel of B_k admits truncated exponentials e^{kappa1 t},
e^{-kappa2 t} that are not limits of admissible functions and show up as
spurious near-zero energies.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .numerics import LogGrid, diff_matrix, trapezoid_weights
from .params import CknParams

N_CLAMP = 2


def mode_operator(params: CknParams, lambda_k: float, grid: LogGrid) -> sp.csr_matrix:
    """Matrix of B_k acting on scaled samples phi_i = r_i^{kappa1} f(r_i)."""
    n, h = grid.n, grid.h
    D1 = diff_matrix(n, h, 1)
    D2 = diff_matrix(n, h, 2)
    return (D2 - 2.0 * params.nu * D1
            - (params.cal_B + lambda_k) * sp.identity(n, format="csr")).tocsr()


def to_scaled(params: CknParams, grid: LogGrid, values: np.ndarray) -> np.ndarray:
    """phi samples r^{kappa1} f(r) from radial samples f(r)."""
    return values * np.exp(params.kappa1 * grid.ts)


def from_scaled(params: CknParams, grid: LogGrid, phi: np.ndarray) -> np.ndarray:
    return phi * np.exp(-params.kappa1 * grid.ts)


def keep_indices(n: int) -> np.ndarray:
    return np.arange(N_CLAMP, n - N_CLAMP)


def energy_matrix(params: CknParams, lambda_k: float, grid: LogGrid) -> sp.csc_matrix:
    """Quadratic form of int (B_k phi)^2 dt (trapezoid weights, clamped)."""
    B = mode_operator(params, lambda_k, grid)
    W = sp.diags(trapezoid_weights(grid.n, grid.h))
    keep = keep_indices(grid.n)
    return (B.T @ W @ B).tocsc()[np.ix_(keep, keep)].tocsc()


def extremal_scaled(params: CknParams, grid: LogGrid) -> np.ndarray:
    """phi_U = r^{kappa1} U(r): bounded, even in t, decaying at both ends."""
    from .closedform import ExtremalSpec, extremal_u

    return to_scaled(params, grid, extremal_u(ExtremalSpec(params), grid.nodes))


def mass_vector(params: CknParams, grid: LogGrid) -> np.ndarray:
    """Diagonal of the weighted mass form int U^{p-2} f^2 r^{gamma+N-1} dr,
    which in scaled variables is int phi_U^{p-2} phi^2 dt (clamped)."""
    d = trapezoid_weights(grid.n, grid.h) * extremal_scaled(params, grid) ** (params.p - 2.0)
    return d[keep_indices(grid.n)]
