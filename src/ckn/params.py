"""Parameter algebra for the weighted second-order inequality.

A point (N, alpha, beta) with N >= 5, alpha > 2 - N and (N-4)/(N-2)*alpha - 4 <= beta <=
alpha - 2 fixes every scalar of the theory: the third weight gamma, the critical exponent p,
the Emden-Fowler constants, the effective dimension M, and the Felli-Schneider threshold
beta_fs separating stable from unstable radial extremals.  ``derive`` computes them all;
``classify`` places the point in the (alpha, beta) plane.  Each rule on raw inputs is stated
once, here: check_dimension, check_alpha, require_subcritical and is_index with check_index,
which every module calls in place of an inline guard; derive is the only beta check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (AlphaOutOfRange, BetaOutOfRange, InvalidDimension, RellichBoundary,
                     ScalarOverflow)


class RegionClass(enum.Enum):
    RELLICH_BOUNDARY = "RellichBoundary"
    CRITICAL_UPPER_ALPHA_POS = "CriticalUpperAlphaPos"
    CRITICAL_UPPER_ALPHA_NEG = "CriticalUpperAlphaNeg"
    CRITICAL_UPPER_ALPHA_ZERO = "CriticalUpperAlphaZero"
    SYMMETRY_BREAKING = "SymmetryBreaking"
    FS_CURVE = "FSCurve"
    CONJECTURED_SYMMETRY = "ConjecturedSymmetry"
    INVALID = "Invalid"


@dataclass(frozen=True)
class CknParams:
    """Validated parameter point with every derived scalar.

    On the p = 2 boundary (see on_rellich_line) the subcritical-only fields m_exp, q_pow, M_dim,
    C_amp and log_C_amp (ln C_amp, finite where C_amp is not) are NaN: the formulas divide by
    alpha - beta - 2 there and no operation on that boundary uses them.
    """

    N: int
    alpha: float
    beta: float
    gamma: float
    p: float
    kappa1: float
    kappa2: float
    cal_B: float
    K2: float
    K0: float
    m_exp: float
    nu: float
    C_amp: float
    log_C_amp: float
    a_shift: float
    q_pow: float
    M_dim: float
    beta_fs: float
    region: RegionClass

    @property
    def subcritical(self) -> bool:
        """True away from the p = 2 boundary, where U, M and q exist."""
        return not on_rellich_line(self.alpha, self.beta)


def check_dimension(N) -> int:
    """The dimension rule: is_index(N) and N >= 5, else InvalidDimension; returns int(N)."""
    if not (is_index(N) and N >= 5):
        raise InvalidDimension(f"need integer N >= 5, got {N!r}")
    return int(N)


def check_alpha(N: int, alpha, upper: float = math.inf) -> tuple[int, float]:
    """The alpha rule after check_dimension: (int(N), float(alpha)), 2 - N < alpha < upper."""
    N, alpha = check_dimension(N), float(alpha)
    if not 2 - N < alpha < upper:
        raise AlphaOutOfRange(f"need finite alpha with {2 - N} < alpha < {upper:g}, got {alpha}")
    return N, alpha


def require_subcritical(params, what: str) -> None:
    """The subcritical rule, where U, M and q exist: RellichBoundary unless params.subcritical."""
    if not params.subcritical:
        raise RellichBoundary(f"{what} requires beta < alpha - 2")


def is_index(k) -> bool:
    """The integer rule: k is an int or NumPy integer >= 0, not a bool (np.bool_ is neither)."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 0


def check_index(k, what: str, among=None):
    """The index and selector rule: is_index(k), and k in among when given; ValueError otherwise."""
    if not (is_index(k) and (among is None or k in among)):
        raise ValueError(f"need integer {what} {'>= 0' if among is None else f'in {among}'}, "
                         f"got {what} = {k!r}")
    return k


def beta_lower(N: int, alpha: float) -> float:
    """Lower end of the admissible beta interval."""
    return (N - 4) * alpha / (N - 2) - 4.0


@np.errstate(over="ignore", invalid="ignore")      # overflow: not finite, so ScalarOverflow
def felli_schneider(N: int, alpha):
    """Felli-Schneider threshold beta_fs(alpha) = N + 2a - 4 - sqrt((N-2+a)^2 + 4(N-1)).

    Radial extremals lose linearized stability below this curve (alpha > 0).
    At alpha = 0 it collapses to -4 for every N since (N-2)^2 + 4(N-1) = N^2.
    Array-capable: at an array of alpha one evaluation gives what one call per alpha gives, bit
    for bit (np.float_power is libm pow, as CPython's ** is), or raises its first error.
    """
    N = check_dimension(N)
    bfs = N + 2.0 * alpha - 4.0 - np.sqrt(np.float_power(N - 2.0 + alpha, 2) + 4.0 * (N - 1.0))
    if isinstance(bfs, np.ndarray):
        for a in alpha[~np.isfinite(bfs)][:1].tolist():
            felli_schneider(N, a)           # raises: a value that is not finite fails a check
        return bfs
    if not math.isfinite(alpha):      # alpha <= 2 - N is legal: region-map prints Invalid cells
        raise AlphaOutOfRange(f"beta_fs needs a finite alpha, got {alpha}")
    if not math.isfinite(bfs):
        raise ScalarOverflow(f"beta_fs overflows at N = {N}, alpha = {alpha}")
    return float(bfs)


def on_rellich_line(alpha, beta):
    """True on the p = 2 boundary beta = alpha - 2 (array-capable), and just below it, where
    alpha - beta - 2 or 2 + beta - alpha, the denominator of q and M, rounds to 0 (x - y is 0
    exactly where x == y), so that the subcritical fields do not exist."""
    return (beta == alpha - 2.0) | (alpha - beta == 2.0) | (2.0 + beta == alpha)


def exponents(N: int, alpha, beta):
    """(q, M) = (2/(2+beta-alpha), -(N+2alpha-beta-4) q), array-capable; defined off the
    Rellich line only.  2 + beta - alpha is exact near that line, where alpha - beta rounds
    near 2, so q, M and derive's nu share its one value (l_k/M then carries no rounding)."""
    q = 2.0 / (2.0 + beta - alpha)
    return q, -(N + 2.0 * alpha - beta - 4.0) * q


def second_variation_gap(N: int, q, M):
    """chi - (M-1) with chi = q^2 (N-1), array-capable: its sign is that of
    the second variation along Z1 (see spectral.second_variation_z1)."""
    # libm pow, as CPython's ** is: NumPy's q ** 2 is q * q, 1 ULP off on some q
    return np.float_power(q, 2) * (N - 1.0) - (M - 1.0)


def _region_rules(N: int, alpha, beta, lo, bfs):
    """(region, condition) pairs on floats or arrays, each evaluated when it is drawn, lo =
    beta_lower and bfs = felli_schneider at alpha.  The first that holds names the region,
    ConjecturedSymmetry the rest.  Ties are broken by exact comparison, so sweeps must
    quantize beta onto grid values first."""
    yield (RegionClass.INVALID,
           np.logical_not((alpha > 2 - N) & (lo <= beta) & (beta <= alpha - 2.0))
           | (N + beta == 0.0))
    yield RegionClass.RELLICH_BOUNDARY, on_rellich_line(alpha, beta)
    yield RegionClass.CRITICAL_UPPER_ALPHA_ZERO, (alpha == 0.0) & (beta == -4.0)
    yield RegionClass.CRITICAL_UPPER_ALPHA_POS, (on_lo := beta == lo) & (alpha > 0.0)
    yield RegionClass.CRITICAL_UPPER_ALPHA_NEG, on_lo
    yield RegionClass.FS_CURVE, (beta == bfs) & (alpha >= 0.0)
    yield RegionClass.SYMMETRY_BREAKING, (alpha > 0.0) & (lo < beta) & (beta < bfs)


def regions(N: int, alpha: np.ndarray, beta: np.ndarray, lo, bfs) -> tuple[np.ndarray, list]:
    """Index of the first rule of _region_rules that holds at every (alpha, beta) of broadcast
    arrays (len(rules) where none does), and the RegionClass value each index names."""
    rules = list(_region_rules(N, alpha, beta, lo, bfs))
    return (np.select([holds for _, holds in rules], list(range(len(rules))), len(rules)),
            [r.value for r, _ in rules] + [RegionClass.CONJECTURED_SYMMETRY.value])


def derive(N: int, alpha: float, beta: float) -> CknParams:
    """Validate (N, alpha, beta) and populate every derived scalar."""
    (N, alpha), beta = check_alpha(N, alpha), float(beta)
    lo, hi = beta_lower(N, alpha), alpha - 2.0
    # beta = -N, the excluded alpha -> 2 - N limit of lo, is reached only by rounding
    if not (lo <= beta <= hi) or N + beta == 0.0:
        raise BetaOutOfRange(f"need beta in [{lo}, {hi}] and beta > -{N}, got {beta}")

    T = N + 2.0 * alpha - beta - 4.0          # = 2 kappa1 > 0
    d = 2.0 + beta - alpha                    # = -2 nu, exact near the Rellich line
    gamma = T * T / (N + beta) - N
    p = 2.0 * T / (N + beta)
    kappa1 = T / 2.0
    kappa2 = (N + beta) / 2.0
    cal_B = kappa1 * kappa2
    # From |alpha| ~ 1e77 on the degree-4 products leave the float range (** raises, * gives
    # inf).  gamma, K0 and amp_base bound every scalar here, so a check on them turns any
    # overflow into ScalarOverflow and leaves each finite result as it was.
    try:
        K2 = ((N + alpha - 2.0) ** 2 + d ** 2) / 2.0
        K0 = cal_B ** 2
    except OverflowError:
        K2 = K0 = math.inf
    nu = -d / 2.0
    a_shift = N + alpha - 2.0
    amp_base = (N + beta) * (N + alpha - 2.0) * T * (N + 3.0 * alpha - 2.0 * beta - 6.0)
    if not all(map(math.isfinite, (gamma, K0, amp_base))):
        raise ScalarOverflow(f"derived scalars overflow at (N, alpha, beta) = "
                             f"({N}, {alpha}, {beta})")
    if not on_rellich_line(alpha, beta):
        m_exp = (N + beta) / d
        q_pow, M_dim = exponents(N, alpha, beta)
        log_C_amp = -(N + beta) / (4.0 * d) * math.log(amp_base)
        try:
            # the amplitude blows up as beta -> alpha - 2; inf is the honest value
            C_amp = math.exp(log_C_amp)
        except OverflowError:
            C_amp = math.inf
    else:
        m_exp = q_pow = M_dim = C_amp = log_C_amp = math.nan

    bfs = felli_schneider(N, alpha)
    region = next((r for r, holds in _region_rules(N, alpha, beta, lo, bfs) if holds),
                  RegionClass.CONJECTURED_SYMMETRY)
    return CknParams(N=N, alpha=alpha, beta=beta, gamma=gamma, p=p,
                     kappa1=kappa1, kappa2=kappa2, cal_B=cal_B,
                     K2=K2, K0=K0, m_exp=m_exp, nu=nu, C_amp=C_amp, log_C_amp=log_C_amp,
                     a_shift=a_shift, q_pow=q_pow, M_dim=M_dim,
                     beta_fs=bfs, region=region)


def classify(params: CknParams) -> RegionClass:
    """Region of the (alpha, beta) plane this parameter point belongs to."""
    return params.region


def region_of(N: int, alpha: float, beta: float) -> RegionClass:
    """classify() for raw tuples; returns Invalid instead of raising."""
    try:
        return derive(N, alpha, beta).region
    except (InvalidDimension, AlphaOutOfRange, BetaOutOfRange):
        return RegionClass.INVALID
