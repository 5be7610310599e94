import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ckn
from ckn import _forms, numerics
from ckn.closedform import ExtremalSpec, extremal_u
from ckn.cli import main
from ckn.errors import GridTooSmall

POINTS = [(5, 1.0, -3.0), (6, -3.0, -5.4), (7, 1.5, -2.0), (8, -2.0, -4.5), (5, -2.5, -4.6)]
# (lambda_k, n, half-width of the t domain)
GRIDS = [(0.0, 201, 10.0), (5.0, 4001, 14.0), (12.0, 4077, 14.3)]


@pytest.mark.parametrize("lam, n, width", GRIDS)
@pytest.mark.parametrize("point", POINTS)
def test_energy_band_matches_energy_matrix_bit_for_bit(point, lam, n, width):
    P, grid = ckn.derive(*point), ckn.make_grid(-width, width, n)
    E = _forms.energy_matrix(P, lam, grid).tocoo()
    ab = _forms.energy_band(P, lam, grid)
    band = _forms.BAND
    assert ab.shape == (band + 1, n - 2 * _forms.N_CLAMP)
    assert np.max(np.abs(E.col - E.row)) <= band
    for d in range(band + 1):
        assert np.array_equal(ab[band - d, d:], E.diagonal(d))
        assert not ab[band - d, :d].any()


def test_mode_image_matches_mode_operator():
    # each row is summed in the sparse product's column order: bit for bit
    rng = np.random.RandomState(0)
    for point in POINTS:
        for lam, n, width in GRIDS:
            P, grid = ckn.derive(*point), ckn.make_grid(-width, width, n)
            phi = rng.standard_normal(n)
            want = _forms.mode_operator(P, lam, grid) @ phi
            assert np.array_equal(_forms.mode_applier(P, lam, grid)(phi), want), (point, lam, n)


def test_energy_band_needs_seven_nodes():
    with pytest.raises(GridTooSmall):
        _forms.energy_band(ckn.derive(5, 1.0, -3.0), 0.0, ckn.make_grid(-1.0, 1.0, 5))


def test_mode_image_needs_seven_nodes():
    with pytest.raises(GridTooSmall):
        _forms.mode_applier(ckn.derive(5, 1.0, -3.0), 0.0, ckn.make_grid(-1.0, 1.0, 5))(np.ones(5))


def test_no_production_path_builds_sparse_forms(capsys, monkeypatch):
    # with the sparse builders raising at every binding in the package, the spectrum,
    # the minimizer, the certificate, the energies, the verify suites and d/dt still run
    def refuse(*args, **kwargs):
        raise AssertionError("sparse form built")

    for original in (_forms.mode_operator, _forms.energy_matrix, numerics.diff_matrix):
        for name, module in list(sys.modules.items()):
            if name == "ckn" or name.startswith("ckn."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
    assert main(["spectrum", "-N", "5", "-a", "1", "-b", "-3", "--kmax", "3"]) == 0
    assert main(["minimize", "-N", "5", "-a", "1", "-b", "-3", "--perturb", "0.05"]) == 0
    for suite, alpha, beta in (("identities", "1", "-2"), ("equivalence", "-1", "-3.5"),
                               ("ode", "1", "-2"), ("linearized", "1", "-2")):
        assert main(["verify", suite, "-N", "5", "-a", alpha, "-b", beta]) == 0, suite
    capsys.readouterr()
    P, grid = ckn.derive(5, 1.0, -3.0), ckn.make_grid()
    z1 = ckn.sample(grid, lambda r: ckn.linearized_mode(P, 1, r))
    u = ckn.sample(grid, lambda r: ckn.extremal_u(ckn.ExtremalSpec(P), r))
    assert ckn.radial_energy(u, P) > 0
    assert ckn.mode_energy(z1, P, ckn.make_mode(P, 1)) > 0
    assert ckn.perturbed_quotient(P, 0.05, ckn.make_mode(P, 1), z1) > 0
    assert np.isfinite(ckn.differentiate(u, 2).values).all()


def r_space_mass_vector(params, grid):
    """The mass vector as it was built before the closed form in t: trapezoid
    weights times (r^{kappa1} U)^{p-2}, U with its amplitude C_amp, clamped."""
    phi = _forms.to_scaled(params, grid, extremal_u(ExtremalSpec(params), grid.nodes))
    d = numerics.trapezoid_weights(grid.n, grid.h) * phi ** (params.p - 2.0)
    return d[_forms.keep_indices(grid.n)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(5, 8), st.floats(-1.5, 3.0), st.floats(0.02, 0.98))
def test_mass_vector_matches_r_space_expression(N, alpha, frac):
    lo = ckn.beta_lower(N, alpha)
    P, grid = ckn.derive(N, alpha, lo + frac * (alpha - 2.0 - lo)), ckn.make_grid()
    np.testing.assert_allclose(_forms.mass_vector(P, grid), r_space_mass_vector(P, grid),
                               rtol=1e-12, atol=0.0)


def test_mass_vector_finite_where_the_amplitude_overflows():
    # C_amp = inf at M = 8002; the weight phi_U^{p-2} = (Gamma_M nu^4/16) sech^4(nu t)
    P = ckn.derive(5, 1.0, -1.001)
    d = _forms.mass_vector(P, ckn.make_grid(-700.0, 700.0, 4001))
    assert np.isfinite(d).all() and d.min() > 0.0
