"""Exception hierarchy shared by all ckn modules."""


class CknError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimension(CknError):
    """Dimension N is below 5 or not an integer."""


class AlphaOutOfRange(CknError):
    """Weight exponent alpha is not finite or violates alpha > 2 - N (or a stricter bound)."""


class BetaOutOfRange(CknError):
    """Weight exponent beta lies outside the closed admissible interval."""


class RellichBoundary(CknError):
    """Operation requires beta < alpha - 2 but beta = alpha - 2 was given."""


class WrongRegion(CknError):
    """Operation is only defined on a different region of the (alpha, beta) plane."""


class ScalarOverflow(CknError):
    """A scalar derived from (N, alpha, beta) leaves the float range."""


class BadGridSpec(CknError):
    """Grid endpoints or node count are unusable, or a power of r overflows on the grid."""


class GridTooSmall(CknError):
    """Grid has too few nodes for the requested stencil."""


class NonPositiveArgument(CknError):
    """Gamma function argument must be positive."""


class NonPositiveRadius(CknError):
    """Radial coordinate must be positive."""


class MOutOfRange(CknError):
    """Effective dimension M must be finite and exceed 4 (below ~1000 where B(M/2, M/2) is used)."""


class EpsOutOfRange(CknError):
    """Test-sequence exponent eps must lie in (0, 1/2)."""


class WeightOutOfRange(CknError):
    """Hardy weight exponent violates a < (N-2)/2."""


class TailInadequate(CknError):
    """Quadrature tails contribute more than the allowed fraction."""


class AmplitudeTooLarge(CknError):
    """Perturbation amplitude exceeds the validity range of the local expansion."""


class MaxIters(CknError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class NoConvergence(CknError):
    """Eigen iteration did not converge, or a positive definite form had no Cholesky factor."""
