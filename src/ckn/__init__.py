"""Numerical toolkit for a second-order Caffarelli-Kohn-Nirenberg type
inequality with weights |x|^alpha, |x|^{-beta}, |x|^gamma: closed-form
extremals and best constants, Emden-Fowler and effective-dimension
transforms, per-mode linearized spectra, and the second-variation test
that separates the symmetry and symmetry-breaking regions of the
(alpha, beta) parameter plane."""

from .closedform import (ExtremalSpec, b_of_m, critical_constant, extremal_u,
                         linearized_degree, linearized_eigenvalue, linearized_mode, omega_sphere,
                         radial_constant_sr, rellich_constant, rellich_test_quotient, sobolev_s0)
from .numerics import (LogGrid, RadialProfile, differentiate, integrate, make_grid, sample,
                       tail_fraction)
from .params import (CknParams, RegionClass, beta_lower, classify, derive,
                     felli_schneider, region_of)
from .spectral import (SpectralResult, linearized_residual, mode_eigenpairs, mode_eigenvalue,
                       second_variation_z1, spectral_gap)
from .transforms import (EmdenFowlerProfile, cosh_ansatz_check, cosh_profile,
                         from_dimension_m, from_emden_fowler, ode_residual,
                         rayleigh_m, to_dimension_m, to_emden_fowler)
from .variational import (ModeSpec, make_mode, minimize_radial, mode_energy,
                          perturbed_quotient, radial_energy)

__version__ = "0.1.0"

__all__ = [
    "CknParams", "RegionClass", "derive", "felli_schneider", "classify",
    "region_of", "beta_lower",
    "LogGrid", "RadialProfile", "make_grid", "sample", "differentiate",
    "integrate", "tail_fraction",
    "ExtremalSpec", "extremal_u", "linearized_mode", "linearized_degree", "linearized_eigenvalue",
    "sobolev_s0", "b_of_m", "radial_constant_sr", "rellich_constant", "critical_constant",
    "omega_sphere", "rellich_test_quotient",
    "EmdenFowlerProfile", "to_emden_fowler", "from_emden_fowler",
    "cosh_profile", "cosh_ansatz_check", "ode_residual", "to_dimension_m",
    "from_dimension_m", "rayleigh_m",
    "ModeSpec", "make_mode", "radial_energy", "mode_energy",
    "minimize_radial", "perturbed_quotient",
    "SpectralResult", "mode_eigenpairs", "mode_eigenvalue", "second_variation_z1",
    "linearized_residual", "spectral_gap",
    "__version__",
]
