"""Shared numerical infrastructure: log grids, quadrature, stencils, Gamma.

All radial calculus is carried out in the log variable t = ln s, so that
power-law weights s^w become exponentials e^{(w+1)t} and the origin
singularity disappears from the stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import BadGridSpec, GridTooSmall, NonPositiveArgument

DEFAULT_T_MIN = -14.0
DEFAULT_T_MAX = 14.0
DEFAULT_N = 4001

#: Fraction of nodes (per end) counted as "tail" by the adequacy diagnostic.
TAIL_NODE_FRACTION = 0.025
#: Largest tail fraction accepted by energy/quadrature consumers.
TAIL_TOL = 1e-8
#: Nodes skipped at each end when taking sup norms of residuals that
#: involve stacked second-derivative stencils.
RESIDUAL_MARGIN = 8


@dataclass(frozen=True)
class LogGrid:
    """Uniform grid in t = ln s with node positions s_i = exp(t_i)."""

    t_min: float
    t_max: float
    n: int
    h: float
    nodes: np.ndarray

    @property
    def ts(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n)


@dataclass(frozen=True)
class RadialProfile:
    """Samples of a radial function on a LogGrid.

    ``d1`` and ``d2`` cache the first and second derivative with respect
    to t = ln s; callers recover d/ds via the chain rule ds = s dt.
    """

    grid: LogGrid
    values: np.ndarray
    d1: np.ndarray | None = None
    d2: np.ndarray | None = None


def make_grid(t_min: float = DEFAULT_T_MIN, t_max: float = DEFAULT_T_MAX,
              n: int = DEFAULT_N) -> LogGrid:
    """Build a uniform log grid; n must be odd (Simpson) and >= 3."""
    if not (t_min < t_max) or n < 3 or n % 2 == 0:
        raise BadGridSpec(f"need t_min < t_max and odd n >= 3, got ({t_min}, {t_max}, {n})")
    h = (t_max - t_min) / (n - 1)
    nodes = np.exp(np.linspace(t_min, t_max, n))
    return LogGrid(t_min=float(t_min), t_max=float(t_max), n=int(n), h=h, nodes=nodes)


def sample(grid: LogGrid, fn) -> RadialProfile:
    """Sample fn(s) at the grid nodes."""
    return RadialProfile(grid=grid, values=np.asarray(fn(grid.nodes), dtype=float))


def _fd_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights on integer offsets for the given derivative order."""
    k = len(offsets)
    A = np.array([[o ** i / math.factorial(i) for o in offsets] for i in range(k)], dtype=float)
    rhs = np.zeros(k)
    rhs[order] = 1.0
    return np.linalg.solve(A, rhs)


@lru_cache(maxsize=64)
def diff_matrix(n: int, h: float, order: int) -> sp.csr_matrix:
    """Differentiation matrix in t: 4th-order central stencils at interior
    nodes, one-sided stencils of at least 4th order at the 3 nodes nearest
    each boundary."""
    if n < 7:
        raise GridTooSmall(f"need at least 7 nodes, got {n}")
    interior = np.arange(3, n - 3)
    # blocks in the old row-by-row loop's order: the CSR arrays match it bit for bit
    blocks = [(np.repeat(interior, 5), (interior[:, None] + np.arange(-2, 3)).ravel(),
               np.tile(_fd_weights(np.arange(-2, 3), order) / h ** order, n - 6))]
    for i in range(3):
        for row, offsets in ((i, np.arange(0, 7) - i), (n - 1 - i, np.arange(-6, 1) + i)):
            w = _fd_weights(offsets, order) / h ** order
            blocks.append((np.full(7, row), row + offsets, w))
    rows, cols, vals = (np.concatenate(b) for b in zip(*blocks))
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def differentiate(profile: RadialProfile, order: int) -> RadialProfile:
    """Derivative of the samples with respect to t = ln s (order 1 or 2)."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    D = diff_matrix(profile.grid.n, profile.grid.h, order)
    return RadialProfile(grid=profile.grid, values=D @ profile.values)


def with_derivatives(profile: RadialProfile) -> RadialProfile:
    """Return the profile with d1/d2 caches filled (inputs never mutated)."""
    if profile.d1 is not None and profile.d2 is not None:
        return profile
    return replace(profile,
                   d1=differentiate(profile, 1).values,
                   d2=differentiate(profile, 2).values)


def simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def integrate(samples: np.ndarray, grid: LogGrid, weight_exp: float) -> float:
    """Composite Simpson value of  int_0^inf f(s) s^w ds  from samples of f.

    Computed as int f(e^t) e^{(w+1)t} dt; the caller guarantees that both
    tails are negligible on the grid (see tail_fraction).
    """
    t = grid.ts
    weighted = np.asarray(samples, dtype=float) * np.exp((weight_exp + 1.0) * t)
    return float(np.sum(simpson_weights(grid.n, grid.h) * weighted))


def tail_fraction(samples: np.ndarray, grid: LogGrid, weight_exp: float) -> float:
    """Fraction of the integral's absolute mass carried by the outermost
    nodes (2.5% of nodes at each end)."""
    t = grid.ts
    weighted = np.abs(np.asarray(samples, dtype=float)) * np.exp((weight_exp + 1.0) * t)
    weighted *= simpson_weights(grid.n, grid.h)
    m = max(2, round(TAIL_NODE_FRACTION * grid.n))
    total = float(np.sum(weighted))
    if total == 0.0:
        return 0.0
    return float(np.sum(weighted[:m]) + np.sum(weighted[-m:])) / total


def gamma_fn(x: float) -> float:
    """Gamma function for positive arguments.

    Exact to ~1e-15 relative for x <= 170; above that it is exponentiated
    log-Gamma and may overflow to inf, so large arguments should only ever
    appear inside log-Gamma differences (see log_gamma).
    """
    if not x > 0:
        raise NonPositiveArgument(f"gamma_fn requires x > 0, got {x}")
    if x <= 170.0:
        return math.gamma(x)
    try:
        return math.exp(math.lgamma(x))
    except OverflowError:
        return math.inf


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0; the building block for all constant formulas."""
    if not x > 0:
        raise NonPositiveArgument(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def require_tail(samples: np.ndarray, grid: LogGrid, weight_exp: float,
                 what: str, tol: float = TAIL_TOL) -> None:
    """Raise TailInadequate when the tail diagnostic exceeds tol."""
    from .errors import TailInadequate

    frac = tail_fraction(samples, grid, weight_exp)
    if frac > tol:
        raise TailInadequate(f"{what}: outermost nodes carry {frac:.3e} of the mass "
                             f"(allowed {tol:.1e}); widen the grid")
