"""Shared numerical infrastructure: log grids, quadrature, stencils, Gamma.

All radial calculus is carried out in the log variable t = ln s, so that
power-law weights s^w become exponentials e^{(w+1)t} and the origin
singularity disappears from the stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BadGridSpec, GridTooSmall, NonPositiveArgument, TailInadequate
from .params import check_index, is_index

DEFAULT_T_MIN = -14.0
DEFAULT_T_MAX = 14.0
DEFAULT_N = 4001
#: Largest |t| whose exp(t) is a finite float, ln(float max) = 709.78
T_LIMIT = math.log(np.finfo(float).max)

#: Width in t per end of the tail diagnostic: 2.5 % of the default 28-wide domain.
TAIL_WIDTH = 0.7
#: Largest tail fraction accepted by energy/quadrature consumers.
TAIL_TOL = 1e-8
#: Nodes skipped at each end when taking sup norms of residuals that
#: involve stacked second-derivative stencils.
RESIDUAL_MARGIN = 8


@dataclass(frozen=True)
class LogGrid:
    """Uniform grid in t = ln s, equal by its four scalars; ts (read-only) and nodes are lazy."""

    t_min: float
    t_max: float
    n: int
    h: float

    @cached_property
    def ts(self) -> np.ndarray:
        ts = np.linspace(self.t_min, self.t_max, self.n)
        ts.flags.writeable = False
        return ts

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.exp(self.ts)


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
    """Uniform log grid: -T_LIMIT <= t_min < t_max <= T_LIMIT, n odd >= 3 by is_index.  Odd n
    is the CLI's input contract, not a need of the quadrature: an even -n exits 2."""
    if not (-T_LIMIT <= t_min < t_max <= T_LIMIT) or not is_index(n) or n < 3 or n % 2 == 0:
        raise BadGridSpec(f"need -{T_LIMIT:.2f} <= t_min < t_max <= {T_LIMIT:.2f} and odd n >= 3,"
                          f" got ({t_min}, {t_max}, {n})")
    return LogGrid(t_min=float(t_min), t_max=float(t_max), n=int(n), h=(t_max - t_min) / (n - 1))


def grid_exp(x, what: str, top=None):
    """e^x for x that grows with the grid: the one overflow rule.  BadGridSpec
    before exp runs when top, max x unless the caller knows it, passes T_LIMIT;
    x = None tests top alone.  An exponent that only underflows is legal."""
    top = np.max(x) if top is None else top
    if top > T_LIMIT:
        raise BadGridSpec(f"{what} overflows: log {top:.4g} > {T_LIMIT:.2f}; narrow the grid")
    return None if x is None else np.exp(x)


def grid_power(c, grid: LogGrid, what: str) -> np.ndarray:
    """s^c = e^{ct} at the nodes, one row per entry of c.  ct is monotone in t, so
    grid_exp's test at the two ends of the grid is exact and costs O(len(c))."""
    x = np.multiply.outer(c, grid.ts)
    return grid_exp(x, what, np.max(x[..., ::grid.n - 1]))


def anchored_ts(grid: LogGrid) -> np.ndarray:
    """Nodes t_c + (i - c) h, c the node nearest t = 0, off by about eps |t_i| where linspace's
    are off by eps |t_min|: noise that a residual's stacked stencils amplify by 16/h^4."""
    c = int(np.argmin(np.abs(grid.ts)))
    return grid.ts[c] + (np.arange(grid.n) - c) * grid.h


def sample(grid: LogGrid, fn) -> RadialProfile:
    """Sample fn(s) at the grid nodes, under check_samples (BadGridSpec unless one per node)."""
    return RadialProfile(grid=grid, values=check_samples(fn(grid.nodes), grid))


def _fd_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights on integer offsets for the given derivative order."""
    k = len(offsets)
    A = np.array([[o ** i / math.factorial(i) for o in offsets] for i in range(k)], dtype=float)
    rhs = np.zeros(k)
    rhs[order] = 1.0
    return np.linalg.solve(A, rhs)


@lru_cache(maxsize=16)
def diff_rows(h: float, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of d^order/dt^order on nodes h apart, in apply_rows' layout: the interior stencil
    on offsets -2..2, rows 0, 1, 2 on columns 0..6 and rows n-1, n-2, n-3 on columns n-7..n-1.
    Cached and read-only, as every grid with this h shares them; the rows for h = 1, used on
    every miss, stay the most recently used entries."""
    rows = ((_fd_weights(np.arange(-2, 3), order),
             np.array([_fd_weights(np.arange(0, 7) - i, order) for i in range(3)]),
             np.array([_fd_weights(np.arange(-6, 1) + i, order) for i in range(3)]))
            if h == 1.0 else tuple(w / h ** order for w in diff_rows(1.0, order)))
    for w in rows:
        w.flags.writeable = False
    return rows


def apply_rows(rows, values: np.ndarray) -> np.ndarray:
    """The one stencil kernel: values under rows (inner, left, right) laid out as diff_rows'
    are; GridTooSmall below 7 nodes.  One correlate and six row sums, each summed from 0 in
    rising column order as a CSR product is: bit for bit (a matmul of the end rows is not)."""
    inner, left, right = rows
    if len(values) < 7:
        raise GridTooSmall(f"need at least 7 nodes, got {len(values)}")
    out = np.correlate(values, inner, "same")
    np.add.reduce(left * values[:7], 1, out=out[:3])    # into out: half the time of sum and copy
    np.add.reduce(right[::-1] * values[-7:], 1, out=out[-3:])
    return out


@lru_cache(maxsize=64)
def diff_matrix(n: int, h: float, order: int):
    """Differentiation matrix in t, scipy.sparse CSR: 4th-order central stencils inside, one-sided
    of at least 4th order at the 3 nodes nearest each end.  Only apply_rows' test reference, so
    scipy.sparse is imported when called; the benchmark tracer reads its cache."""
    import scipy.sparse as sp
    if n < 7:
        raise GridTooSmall(f"need at least 7 nodes, got {n}")
    inner, left, right = diff_rows(h, order)
    ends = np.tile(np.arange(7), 3)      # the CSR arrays: rows in order, columns rising
    cols = np.r_[ends, (np.arange(1, n - 5)[:, None] + np.arange(5)).ravel(), ends + n - 7]
    vals = np.r_[left.ravel(), np.tile(inner, n - 6), right[::-1].ravel()]
    indptr = np.cumsum(np.r_[0, 7, 7, 7, np.full(n - 6, 5), 7, 7, 7])
    return sp.csr_matrix((vals, cols, indptr), shape=(n, n))


def check_samples(values, grid: LogGrid) -> np.ndarray:
    """The samples rule: values, as a float array, of shape (grid.n,); BadGridSpec otherwise."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise BadGridSpec(f"need {grid.n} samples on the grid, got shape {values.shape}")
    return values


def differentiate(profile: RadialProfile, order: int) -> RadialProfile:
    """Derivative of the samples with respect to t = ln s by apply_rows: order 1 or 2 under
    check_index (ValueError otherwise), samples under check_samples (BadGridSpec otherwise)."""
    check_index(order, "order", (1, 2))
    grid = profile.grid
    return RadialProfile(grid=grid, values=apply_rows(diff_rows(grid.h, order),
                                                      check_samples(profile.values, grid)))


def even_residual(values: np.ndarray, grid: LogGrid, K2: float, K0: float, rhs) -> float:
    """Sup of |phi'''' - K2 phi'' + K0 phi - rhs| for samples phi in t, phi'''' the second-
    derivative rows applied twice by apply_rows, skipping RESIDUAL_MARGIN nodes at each end,
    where the stacked one-sided stencils lose accuracy; GridTooSmall where no node is left."""
    if grid.n <= 2 * RESIDUAL_MARGIN:
        raise GridTooSmall(f"need more than {2 * RESIDUAL_MARGIN} nodes, got {grid.n}")
    rows = diff_rows(grid.h, 2)
    d2 = apply_rows(rows, values)
    res = np.abs(apply_rows(rows, d2) - K2 * d2 + K0 * values - rhs)
    return float(res[RESIDUAL_MARGIN:-RESIDUAL_MARGIN].max())


def with_derivatives(profile: RadialProfile) -> RadialProfile:
    """The profile with d1/d2 filled: differentiate's orders 1, 2 bit for bit; inputs unchanged."""
    if profile.d1 is not None and profile.d2 is not None:
        return profile
    grid, values = profile.grid, check_samples(profile.values, profile.grid)
    return RadialProfile(grid, values, *(apply_rows(diff_rows(grid.h, k), values) for k in (1, 2)))


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def quadrature_terms(samples: np.ndarray, grid: LogGrid, weight_exp) -> np.ndarray:
    """Terms S_i e^{(w+1) t_i} h_i of the trapezoid sum for int_0^inf f(s) s^w ds,
    samples S in the last axis; weight_exp is one w or an array of them that
    broadcasts against samples.shape[:-1].  The sums are integrate's values."""
    terms = samples * grid_power(np.asarray(weight_exp, dtype=float) + 1.0, grid, "s^(w+1)")
    terms *= trapezoid_weights(grid.n, grid.h)
    return terms


def tail_share(total, tail) -> np.ndarray:
    """tail / total, the tail diagnostic: 0 for a zero total, NaN for one that is not finite."""
    return np.divide(tail, total, out=np.where(total == 0.0, 0.0, np.nan),
                     where=np.isfinite(total) & (total != 0.0))


def tail_nodes(n: int, h: float) -> int:
    """Nodes per end of the tail diagnostic: the outermost TAIL_WIDTH of t, 2 to n // 2."""
    return min(max(2, round(TAIL_WIDTH / h)), n // 2)


def mass_and_tail(terms: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Sums of quadrature terms on nodes h apart (the integrals) and their sums on the
    tail_nodes at each end (see tail_share)."""
    m = tail_nodes(terms.shape[-1], h)
    return terms.sum(axis=-1), terms[..., :m].sum(axis=-1) + terms[..., -m:].sum(axis=-1)


def integrate(samples: np.ndarray, grid: LogGrid, weight_exp: float) -> float:
    """Trapezoid value of  int_0^inf f(s) s^w ds  from samples of f.

    Computed as int f(e^t) e^{(w+1)t} dt with equal weights, spectrally accurate for integrands
    that decay at both ends (a Gaussian in t to rounding); the caller guarantees that both
    tails are negligible on the grid (see tail_fraction).  Samples under check_samples.
    """
    return float(quadrature_terms(check_samples(samples, grid), grid, weight_exp).sum())


def tail_fraction(samples: np.ndarray, grid: LogGrid, weight_exp: float) -> float:
    """Fraction of the integral's absolute mass carried by the outermost
    TAIL_WIDTH of t at each end; samples under check_samples."""
    terms = quadrature_terms(np.abs(check_samples(samples, grid)), grid, weight_exp)
    return float(tail_share(*mass_and_tail(terms, grid.h)))


def gamma_fn(x: float) -> float:
    """Gamma function for positive arguments.

    Exact to ~1e-15 relative for x <= 170; above that it is exponentiated
    log-Gamma and may overflow to inf, so large arguments should only ever
    appear inside log-Gamma differences.
    """
    if not x > 0:
        raise NonPositiveArgument(f"gamma_fn requires x > 0, got {x}")
    if x <= 170.0:
        return math.gamma(x)
    try:
        return math.exp(math.lgamma(x))
    except OverflowError:
        return math.inf


def require_tail(samples: np.ndarray, grid: LogGrid, weight_exp: float, what: str) -> None:
    """Raise TailInadequate when the tail diagnostic exceeds TAIL_TOL."""
    checked_integrals(quadrature_terms(np.abs(samples), grid, weight_exp), grid.h, (what,))


def checked_integrals(terms: np.ndarray, h: float, whats: tuple[str, ...]) -> np.ndarray:
    """Integrals of nonnegative trapezoid terms on nodes h apart (quadrature_terms, or the
    weights times samples in t), terms[c, ...] for the check named whats[c], after the one
    tail rule (checked_sums)."""
    total, tail = mass_and_tail(terms, h)
    list(checked_sums(total, tail, whats))
    return total


def checked_sums(total: np.ndarray, tail: np.ndarray, whats: tuple[str, ...]):
    """Per index in ..., the integrals total[c, ...] (sums tail[c, ...] on the tail nodes) over
    c, each after the one tail rule as it is drawn: TailInadequate unless the tail share of
    check whats[c] is <= TAIL_TOL, so a NaN share (a sum that is not finite) fails too."""
    for row, shares in zip(np.reshape(total, (len(whats), -1)).T.tolist(),
                           tail_share(total, tail).reshape(len(whats), -1).T.tolist()):
        for f, what in zip(shares, whats):
            if not f <= TAIL_TOL:
                raise TailInadequate(f"{what}: the integral is not finite" if math.isnan(f) else
                                     f"{what}: outermost nodes carry {f:.3e} of the mass "
                                     f"(allowed {TAIL_TOL:.1e}); widen the grid")
        yield row
