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

import functools
import math
from dataclasses import dataclass

import numpy as np

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

#: Stopping tolerance and step cap of the one Lanczos run per mode, and the level at which
#: its periodic domain cuts the eigenfunctions (see mode_eigenpairs).
LANCZOS_TOL, LANCZOS_STEPS, DOMAIN_EPS = 1e-9, 100, 1e-14


@dataclass(frozen=True)
class SpectralResult:
    """Eigenpair: profile of unit weighted mass (int U^{p-2} f^2 r^{gamma+N-1} dr = 1, trapezoid
    sum on its grid), positive at its first sample of at least 1e-3 of its peak.  eigenvalue is
    the Rayleigh quotient of the Fourier pencil, within 1e-12 (measured 7e-14) of
    closedform.linearized_eigenvalue on any grid.  The profile carries the Lanczos stop to first
    order, the eigenvalue squared (at LANCZOS_TOL = 1e-9 the mode-0 scaling direction at
    (8, 3, -1.9) misses its closed form by 7.8e-12).  residual is that pencil's backward error
    ||A x - nu W x|| / ((||A|| + |nu| ||W||) ||x||), which ||A|| ~ xi_max^4 keeps small, so the
    accuracy rests on the derived domain and the closed-form tests, not on residual.  iters
    counts the steps, one matvec each, of the mode's one Lanczos run (_lanczos, at most
    LANCZOS_STEPS), which both mode-0 indices share."""

    eigenvalue: float
    profile: RadialProfile
    residual: float
    iters: int


class _Pencil:
    """Mode k's one discretization, where mode_eigenpairs solves and linearized_residual checks:
    the decay a = l_k + (M-4)/2 of its eigenfunctions, cosh(nu t)^{-a} times a polynomial in
    tanh(nu t); the nodes ts of their periodic domain [-L, L) (Boyd, Chebyshev and Fourier Spectral
    Methods, 2nd ed., 2001, ch. 17), L = arccosh(eps^{-1/a})/nu cutting them at eps = DOMAIN_EPS,
    n the least power of two >= 2 L xi_max/pi and >= 64, xi_max = 1.5 nu max(sqrt(2a ln 1/eps),
    2 ln(1/eps)/pi) for the poles of sech at nu t = +-i pi/2 and the core of width 1/(nu sqrt a);
    the rfft frequencies xi; and B_k^* B_k's symbol (xi^2 + cal_B + lambda_k)^2 + 4 nu^2 xi^2."""

    def __init__(self, params: CknParams, mode: ModeSpec):
        self.a = a = linearized_degree(params, mode.k) + (params.M_dim - 4.0) / 2.0
        log_eps = -math.log(DOMAIN_EPS)
        L = (log_eps / a + math.log1p(math.sqrt(-math.expm1(-2.0 * log_eps / a)))) / params.nu
        xi_max = 1.5 * params.nu * max(math.sqrt(2.0 * a * log_eps), 2.0 * log_eps / math.pi)
        n = max(64, 1 << math.ceil(math.log2(2.0 * L * xi_max / math.pi)))
        h = 2.0 * L / n
        self.L, self.ts = L, h * np.arange(n) - L
        self.xi = xi = np.fft.rfftfreq(n, h / (2.0 * np.pi))
        self.symbol = (xi * xi + params.cal_B + mode.lambda_k) ** 2 + (2.0 * params.nu * xi) ** 2
        self.w = _forms.mass_weight(params, self.ts)
        self.parts = np.full(n // 2 + 1, 2.0 / n)                # Parseval over rfft halves
        self.parts[0] = self.parts[-1] = 1.0 / n

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.fft.irfft(self.symbol * np.fft.rfft(x), len(self.ts))

    def sample(self, C: np.ndarray, grid: LogGrid) -> tuple[slice, np.ndarray]:
        lo, hi = np.searchsorted(grid.ts, (-self.L, self.L)).tolist()       # the nodes in [-L, L)
        shift = self.parts * np.exp(1j * self.xi * (grid.t_min + lo * grid.h + self.L))  # -L to lo
        return slice(lo, hi), _chirp_z(shift[:, None] * C, self.xi[1] * grid.h, hi - lo).real


def _chirp_z(b: np.ndarray, theta: float, m: int) -> np.ndarray:
    """sum_k b[k] e^{i theta j k} for j < m, per column of b, by Bluestein's chirp-z transform:
    jk = (j^2 + k^2 - (j-k)^2)/2 makes it one numpy.fft convolution with e^{-i theta j^2/2},
    padded to the least f 2^i >= K + m - 1 over a few small odd f, lengths that FFT fast."""
    K = len(b)
    size = min(f << (-(-(K + m - 1) // f) - 1).bit_length() for f in (1, 3, 5, 9, 15))
    j = np.arange(max(K, m))
    chirp = np.exp(0.5j * theta * (j * j))
    kernel = np.zeros(size, complex)
    kernel[:m], kernel[size - K + 1:] = chirp[:m].conj(), chirp[K - 1:0:-1].conj()
    conv = np.fft.ifft(np.fft.fft(b * chirp[:K, None], size, axis=0)
                       * np.fft.fft(kernel)[:, None], axis=0)
    return chirp[:m, None] * conv[:m]


def _lanczos(op, v0: np.ndarray, count: int, tol: float, k: int):
    """The count largest eigenvalues of the symmetric op, falling, their Ritz vectors and the
    step count (one matvec each): Lanczos from v0, only read (_mode_solve's is the cached
    _start_vector), with full reorthogonalization (J. Res. NBS 45, 1950; Parlett, The Symmetric
    Eigenvalue Problem, ch. 13), stopped from step 6 on once each Ritz residual beta_j |s_ji| is
    at most tol theta_i (tested on Python floats); NoConvergence past LANCZOS_STEPS."""
    V = np.empty((LANCZOS_STEPS + 1, len(v0)))
    T = np.zeros((LANCZOS_STEPS + 1,) * 2)     # tridiagonal, upper half; last beta in column cap
    V[0] = v0 / np.linalg.norm(v0)
    for j in range(LANCZOS_STEPS):
        basis, w = V[:j + 1], op(V[j])
        T[j, j] = V[j] @ w                      # before the reorthogonalization removes it
        for _ in range(2):                      # one pass lost orthogonality at M = 802
            w -= basis.T @ (basis @ w)
        T[j, j + 1] = beta = math.sqrt(w @ w)
        np.divide(w, beta, out=V[j + 1])
        if j >= 5:
            thetas, S = np.linalg.eigh(T[:j + 1, :j + 1], UPLO="U")
            if all(beta * abs(s) <= tol * theta
                   for s, theta in zip(S[-1, -count:].tolist(), thetas[-count:].tolist())):
                # Fortran-ordered, so numpy sums each vector pairwise (_mode_solve's mass)
                return thetas[:-count - 1:-1], (S[:, :-count - 1:-1].T @ basis).T, j + 1
    raise NoConvergence(f"Lanczos on mode {k}: no convergence in {LANCZOS_STEPS} steps")


@functools.cache
def _start_vector(n: int) -> np.ndarray:
    """_mode_solve's fixed Lanczos start on n nodes (a power of two), drawn once; read-only."""
    v0 = np.random.default_rng(1234).standard_normal(n)
    v0.flags.writeable = False
    return v0


def _mode_solve(params: CknParams, mode: ModeSpec):
    """Mode k's one Lanczos run, on its _Pencil: _lanczos from _start_vector(n) on
    W^{1/2} A^{-1} W^{1/2}, A by its symbol in Fourier space, W by the pencil's w, finds the
    largest theta = 1/nu to a Ritz residual of LANCZOS_TOL min(1, 8/(a+4)), twice the relative
    gap 1 - nu_{k,0}/nu_{k,1} = 4/(a+4).  nu is the Rayleigh quotient, by Parseval, of x =
    A^{-1} W^{1/2} y, one inverse iteration beyond the Ritz vector y.  Returns the nu, their
    backward errors, the matvec count, the pencil and x's rfft C, which pencil.sample samples."""
    pencil = _Pencil(params, mode)
    n, symbol, root_w, wy = len(pencil.w), pencil.symbol, np.sqrt(pencil.w), np.empty_like(pencil.w)

    def matvec(y):                          # root_w irfft(rfft(root_w y) / symbol), in place
        c = np.fft.rfft(np.multiply(root_w, y, out=wy))
        x = np.fft.irfft(np.divide(c, symbol, out=c), n)
        return np.multiply(x, root_w, out=x)
    _, Y, matvecs = _lanczos(matvec, _start_vector(n), 2 if mode.k == 0 else 1,
                             LANCZOS_TOL * min(1.0, 8.0 / (pencil.a + 4.0)), mode.k)
    Y = root_w[:, None] * Y                                    # W^{1/2} y, that is A x
    C = np.fft.rfft(Y, axis=0) / symbol[:, None]               # rfft of x
    X = np.fft.irfft(C, n, axis=0)
    nus = (pencil.parts * symbol) @ np.abs(C) ** 2 / ((root_w[:, None] * X) ** 2).sum(axis=0)
    residuals = (np.linalg.norm(Y - nus * root_w[:, None] ** 2 * X, axis=0)
                 / ((symbol.max() + nus * root_w.max() ** 2) * np.linalg.norm(X, axis=0)))
    return nus.tolist(), residuals.tolist(), matvecs, pencil, C


def mode_eigenpairs(params: CknParams, mode: ModeSpec, grid: LogGrid) -> list[SpectralResult]:
    """Eigenpairs of index 1 and 2 (k = 0) or index 1 (k >= 1) of the mode-k pencil
    int (B_k phi)^2 dt = nu int w phi^2 dt, w = _forms.mass_weight, in that order.

    B_k has constant coefficients, so one Lanczos run in Fourier space, _mode_solve (all that
    ckn spectrum runs), finds them on the mode's _Pencil; the grid only samples the profiles:
    pencil.sample gives x's trigonometric interpolants at its nodes, 0 outside [-L, L), mapped
    back by _forms.from_scaled, accurate to first order in the Lanczos stop (SpectralResult);
    BadGridSpec where the grid misses them or r^{-kappa1}, formed before the solve, overflows."""
    require_subcritical(params, "mode_eigenpairs")
    back = _forms.from_scaled(params, grid, 1.0)
    nus, residuals, matvecs, pencil, C = _mode_solve(params, mode)
    inside, vals = pencil.sample(C, grid)
    w = numerics.trapezoid_weights(grid.n, grid.h)[inside]
    mass = (w * _forms.mass_weight(params, grid.ts[inside])) @ vals ** 2
    if not mass.all():
        raise BadGridSpec(f"the grid misses the mode-{mode.k} profiles, on |t| < {pencil.L:.4g}")
    big = np.abs(vals) >= 1e-3 * np.abs(vals).max(axis=0)
    phi = np.zeros((grid.n, len(nus)))
    phi[inside] = vals / np.copysign(np.sqrt(mass), vals[big.argmax(axis=0), range(len(nus))])
    return [SpectralResult(eigenvalue=nu, profile=RadialProfile(grid, col * back),
                           residual=res, iters=matvecs)
            for nu, col, res in zip(nus, phi.T, residuals)]


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


def linearized_residual(params: CknParams, k: int, n: int) -> float:
    """sup|A X - nu w X| / sup|nu w X| on the nodes of the mode's _Pencil, where mode_eigenpairs
    solves, with A = B_k^* B_k by pencil.apply, w the pencil's mass weight and nu = nu_{k,n}, at
    X_{k,n} = cosh(nu t)^{-(M-4)/2-l_k} C_n^{l_k+(M-1)/2}(-tanh nu t) (in dimension M,
    s^{l_k}(1+s^2)^{-(M-4)/2-l_k} C_n^{l_k+(M-1)/2}((1-s^2)/(1+s^2))), exact at every subcritical
    point for any k, n >= 0 (check_index: ValueError before any work); (0, 1) is the scaling
    direction, (1, 0) the mode-1 one.  C_n^lam(c) by the recurrence from C_{-1} = 0, C_0 = 1,
    j C_j = 2c (j+lam-1) C_{j-1} - (j+2lam-2) C_{j-2}.  No grid from the caller; at most 1.5e-9
    measured over the admissible region.  Blind spots: a shape error slowly varying in nu t nearly
    commutes with A and w as nu -> 0 at k >= 1 and as M grows: X (1 + 0.01 tanh nu t) reads
    3.9e-10 in mode (2, 0) at (5, -2.998, -4.99804), nu = 2e-5, and 2.6e-10 in (0, 1) at M = 8e5.
    (0, 0) is U's Emden-Fowler ODE, verify ode: B_0^* B_0 = d^4 - K2 d^2 + K0, w = phi_U^{p-2}."""
    nu_kn, pencil = linearized_eigenvalue(params, k, n), _Pencil(params, make_mode(params, k))
    lam = linearized_degree(params, k) + (params.M_dim - 1.0) / 2.0
    c = -np.tanh(params.nu * pencil.ts)
    prev, x = 0.0, extremal_shape(params, pencil.ts, -pencil.a)   # C_{-1} and C_0, times the shape
    for j in range(1, n + 1):
        prev, x = x, (2.0 * c * (j + lam - 1.0) * x - (j + 2.0 * lam - 2.0) * prev) / j
    rhs = nu_kn * pencil.w * x
    return float(np.abs(pencil.apply(x) - rhs).max() / np.abs(rhs).max())


def spectral_gap(params: CknParams, grid: LogGrid) -> float:
    """Lowest nonradial eigenvalue nu_{1,0} on the critical lower boundary with alpha < 0,
    from the mode-1 pencil.  nu_{k,0} = Gamma_{M+2 l_k}/Gamma_M rises with l_k, and
    l_k with k, so mode 1 is the lowest nonradial mode.  It is not the third eigenvalue
    counted over all modes: the radial nu_{0,2} = (M+4)(M+6)/((M-4)(M-2)) lies below it at
    (5, -2), (6, -1.5) and (7, -3).  mode_eigenvalue's value bit for bit, by _mode_solve alone:
    the value reads no grid, so every grid, one that misses the profile too, gets it."""
    if params.region is not RegionClass.CRITICAL_UPPER_ALPHA_NEG:
        raise WrongRegion("spectral_gap is defined on the critical lower "
                          "boundary with 2 - N < alpha < 0")
    value = _mode_solve(params, make_mode(params, 1))[0][0]
    if value <= params.p - 1.0:
        raise NoConvergence(f"gap surrogate {value} does not exceed p-1 = {params.p - 1.0}")
    return value
