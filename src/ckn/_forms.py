"""Internal form assembly shared by the variational and spectral modules.

All quadratic forms live in the scaled variable phi(t) = r^{kappa1} f(r), t = ln r, where the
mode operator f'' + (N-1+alpha)/r f' - lambda_k/r^2 f of spherical mode k conjugates to the
constant-coefficient B_k phi = phi'' - 2 nu phi' - (cal_B + lambda_k) phi and the energy weight
r^{N+2 alpha - beta - 1} dr becomes plain dt: no form carries the e^{+-T t} dynamic range.  The
mass form's weight in t, mass_weight = (Gamma_M nu^4/16) sech^4(nu t), needs no amplitude.

The spectrum uses no grid form: B_k is diagonal in Fourier space, so spectral.mode_eigenpairs
divides by its symbol on a domain derived from the decay of the eigenfunctions, with
mass_weight as the mass.  The radial minimizer works on the caller's grid:

- forms sum with trapezoid weights, the one rule of every integral in t: equal weights that a
  minimizer cannot game, spectrally accurate for the decaying integrands here;
- the two outermost nodes on each side are clamped (phi = 0): without the clamp the discrete
  kernel of B_k admits truncated exponentials e^{kappa1 t}, e^{-kappa2 t}, which are not limits
  of admissible functions and show up as spurious near-zero energies;
- B_k has one set of rows, _mode_rows: mode_applier applies them with numerics.apply_rows, the
  stencil kernel of d/dt too, and energy_band assembles E_k = B_k^T W B_k in LAPACK band
  storage for cholesky_solver.  The sparse mode_operator and energy_matrix (scipy imported on
  call) and mass_vector are test references that the benchmark tracer still wraps by name.
"""

from __future__ import annotations

import numpy as np

from .closedform import extremal_shape
from .errors import BadGridSpec, GridTooSmall, NoConvergence
from .numerics import (LogGrid, apply_rows, check_samples, diff_matrix, diff_rows, grid_exp,
                       trapezoid_weights)
from .params import CknParams

N_CLAMP = 2
#: Half-bandwidth of the clamped energy form: the clamp keeps 5 of the 7 end-row columns
BAND = 4


def mode_operator(params: CknParams, lambda_k: float, grid: LogGrid):
    """scipy.sparse CSR matrix of B_k acting on scaled samples phi_i = r_i^{kappa1} f(r_i)."""
    import scipy.sparse as sp
    n, h = grid.n, grid.h
    D1 = diff_matrix(n, h, 1)
    D2 = diff_matrix(n, h, 2)
    return (D2 - 2.0 * params.nu * D1
            - (params.cal_B + lambda_k) * sp.identity(n, format="csr")).tocsr()


def scale_rule(params: CknParams, grid: LogGrid, what: str = "r^-kappa1") -> None:
    """grid_exp's BadGridSpec where r^{+-kappa1} overflows: |kappa1| max(-t_min, t_max) > T_LIMIT"""
    grid_exp(None, what, abs(params.kappa1) * max(-grid.t_min, grid.t_max))


def to_scaled(params: CknParams, grid: LogGrid, values: np.ndarray) -> np.ndarray:
    """phi samples r^{kappa1} f(r) from radial samples f(r), under scale_rule and check_samples."""
    scale_rule(params, grid, "r^kappa1")
    return check_samples(values, grid) * np.exp(params.kappa1 * grid.ts)


def from_scaled(params: CknParams, grid: LogGrid, phi: np.ndarray) -> np.ndarray:
    scale_rule(params, grid)
    return phi * np.exp(-params.kappa1 * grid.ts)


def keep_indices(n: int) -> np.ndarray:
    return np.arange(N_CLAMP, n - N_CLAMP)


def energy_matrix(params: CknParams, lambda_k: float, grid: LogGrid):
    """Quadratic form of int (B_k phi)^2 dt (trapezoid weights, clamped), scipy.sparse CSC."""
    import scipy.sparse as sp
    B = mode_operator(params, lambda_k, grid)
    W = sp.diags(trapezoid_weights(grid.n, grid.h))
    keep = keep_indices(grid.n)
    return (B.T @ W @ B).tocsc()[np.ix_(keep, keep)].tocsc()


def _mode_rows(params: CknParams, lambda_k: float, grid: LogGrid):
    """mode_operator's entries, in its order of operations, in the row layout of
    numerics.apply_rows; GridTooSmall below 7 nodes."""
    if grid.n < 7:
        raise GridTooSmall(f"need at least 7 nodes, got {grid.n}")
    (i2, l2, r2), (i1, l1, r1) = (diff_rows(grid.h, o) for o in (2, 1))
    c1, c0 = 2.0 * params.nu, params.cal_B + lambda_k
    inner, left, right = i2 - c1 * i1, l2 - c1 * l1, r2 - c1 * r1
    inner[2] -= c0
    left[[0, 1, 2], [0, 1, 2]] -= c0
    right[[0, 1, 2], [6, 5, 4]] -= c0
    return inner, left, right


def mode_applier(params: CknParams, lambda_k: float, grid: LogGrid):
    """phi -> B_k phi: numerics.apply_rows on the rows of _mode_rows, built once, and
    bit for bit mode_operator(params, lambda_k, grid) @ phi."""
    rows = _mode_rows(params, lambda_k, grid)
    return lambda phi: apply_rows(rows, phi)


def energy_band(params: CknParams, lambda_k: float, grid: LogGrid) -> np.ndarray:
    """energy_matrix in upper LAPACK band storage, ab[BAND - d, j] = E[j - d, j].
    Each E[j, l] sums (B[i, j] w_i) B[i, l] over the rows i of B in rising
    order, as the sparse product (B^T W) B does, so the two agree bit for
    bit: interior rows as slice adds, the end rows as outer products.
    BadGridSpec where an entry is not finite: entries grow as h^-3, past float near h = 1e-103."""
    inner, left, right = _mode_rows(params, lambda_k, grid)
    n, h = grid.n, grid.h
    ab = np.zeros((BAND + 1, n))

    def add_rows(rows, weights, at):
        for row, w in zip(rows, weights):
            block = np.outer(row * w, row)
            for d in range(BAND + 1):
                ab[BAND - d, at + d:at + 7] += np.diagonal(block, d)

    with np.errstate(over="ignore", invalid="ignore"):      # judged whole, below
        add_rows(left, (h / 2.0, h, h), 0)
        for d in range(BAND + 1):
            for m in range(d - 2, 3):           # row i = j + m, ascending
                ab[BAND - d, 3 - m + d:n - 3 - m + d] += (inner[2 - m] * h) * inner[2 + d - m]
        add_rows(right[::-1], (h, h, h / 2.0), n - 7)
    ab = ab[:, N_CLAMP:n - N_CLAMP]
    for d in range(1, BAND + 1):            # couplings to clamped nodes
        ab[BAND - d, :d] = 0.0
    if not np.isfinite(ab).all():           # cholesky_solver's one finiteness scan
        raise BadGridSpec(f"the mode energy form overflows at grid step h = {h:.3g}; "
                          "widen the grid or take fewer nodes")
    return ab


def cholesky_solver(ab: np.ndarray, what: str):
    """rhs -> A^{-1} rhs for the finite band form A (energy_band), by one banded Cholesky
    factorization; NoConvergence if A, positive definite in exact arithmetic, has no factor."""
    import scipy.linalg as sla
    try:
        factor = sla.cholesky_banded(ab, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"{what} has no Cholesky factor ({exc})") from None
    return lambda rhs: sla.cho_solve_banded((factor, False), rhs, check_finite=False)


def mass_weight(params: CknParams, t) -> np.ndarray:
    """Weight of the mass form int U^{p-2} f^2 r^{gamma+N-1} dr = int phi_U^{p-2} phi^2 dt in t:
    (Gamma_M nu^4/16) sech^4(nu t), Gamma_M nu^4/16 = kappa1 kappa2 (kappa1^2 - nu^2), with
    sech^4 the extremal shape at m = -4."""
    coef = params.cal_B * (params.a_shift / 2.0) * (params.kappa1 + params.nu)
    return coef * extremal_shape(params, t, -4.0)


def mass_vector(params: CknParams, grid: LogGrid) -> np.ndarray:
    """Diagonal of the mass form on the grid: trapezoid weights times mass_weight (clamped)."""
    return (trapezoid_weights(grid.n, grid.h) * mass_weight(params, grid.ts))[keep_indices(grid.n)]
