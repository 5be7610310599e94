import numpy as np
import pytest

import ckn
from ckn import _forms
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
    P, grid = ckn.derive(6, -3.0, -5.4), ckn.make_grid(-10.0, 10.0, 201)
    phi = np.random.RandomState(0).standard_normal(grid.n)
    want = _forms.mode_operator(P, 5.0, grid) @ phi
    got = _forms.mode_image(P, 5.0, grid, phi)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_energy_band_needs_seven_nodes():
    with pytest.raises(GridTooSmall):
        _forms.energy_band(ckn.derive(5, 1.0, -3.0), 0.0, ckn.make_grid(-1.0, 1.0, 5))
