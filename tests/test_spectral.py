import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import ckn
from ckn import _forms
from ckn.closedform import ExtremalSpec, extremal_u, omega_sphere, scaling_direction
from ckn.errors import RellichBoundary, WrongRegion
from ckn.spectral import (gamma_comparison, linearized_residual, mode_eigenvalue,
                          second_variation_bracket, second_variation_sign,
                          second_variation_z1, spectral_gap)
from ckn.variational import make_mode
from conftest import weighted_cosine

# (omega_4/5) nu^3 (chi - (M-1)) {2 I1 + (3M-9+chi) I2} at (5,1,-3), where
# I1 = int X1'^2 s^3 ds = 3/20 and I2 = int X1^2 s ds = 1/12 by Beta
# reduction (M = 6, chi = 4, nu = 1), so the bracket is 83/60
SV_513_ORACLE = -(2 * math.pi ** 2.5 / math.gamma(2.5)) / 5.0 * (83.0 / 60.0)


class TestModeEigenvalues:
    def test_mode0_first(self, p512, grid):
        r = mode_eigenvalue(p512, make_mode(p512, 0), 1, grid)
        assert r.eigenvalue == pytest.approx(1.0, abs=1e-3)
        assert r.residual < 1e-8 * abs(r.eigenvalue)
        assert r.iters < 500
        u = extremal_u(ExtremalSpec(p512), grid.nodes)
        assert weighted_cosine(p512, grid, r.profile.values, u) > 0.999

    def test_mode0_second(self, p512, grid):
        r = mode_eigenvalue(p512, make_mode(p512, 0), 2, grid)
        assert r.eigenvalue == pytest.approx(p512.p - 1.0, abs=1e-3)
        sd = scaling_direction(ExtremalSpec(p512), grid.nodes)
        assert weighted_cosine(p512, grid, r.profile.values, sd) > 0.999

    def test_mode1_on_fs_curve(self, grid):
        bfs = ckn.felli_schneider(5, 1.0)
        pf = ckn.derive(5, 1.0, bfs)
        r = mode_eigenvalue(pf, make_mode(pf, 1), 1, grid)
        assert r.eigenvalue == pytest.approx(pf.p - 1.0, abs=2e-3)
        z1 = ckn.linearized_mode(pf, 1, grid.nodes)
        assert weighted_cosine(pf, grid, r.profile.values, z1) > 0.999

    def test_mode1_sides_of_curve(self, p512, p513, grid):
        below = mode_eigenvalue(p513, make_mode(p513, 1), 1, grid)
        above = mode_eigenvalue(p512, make_mode(p512, 1), 1, grid)
        assert below.eigenvalue < p513.p - 1.0
        assert above.eigenvalue > p512.p - 1.0

    def test_refinement_stability(self, p512, grid, grid_fast):
        fine = mode_eigenvalue(p512, make_mode(p512, 0), 1, grid).eigenvalue
        coarse = mode_eigenvalue(p512, make_mode(p512, 0), 1, grid_fast).eigenvalue
        assert abs(fine - coarse) / abs(fine) < 1e-3

    def test_profile_sign_and_normalization(self, p512, grid):
        r = mode_eigenvalue(p512, make_mode(p512, 0), 1, grid)
        from ckn._forms import mass_vector, to_scaled
        d = mass_vector(p512, grid, clamp=False)
        phi = to_scaled(p512, grid, r.profile.values)
        assert float(np.sum(d * phi * phi)) == pytest.approx(1.0, rel=1e-12)
        assert phi[2] > 0

    def test_index2_only_mode0(self, p512, grid):
        with pytest.raises(ValueError):
            mode_eigenvalue(p512, make_mode(p512, 1), 2, grid)

    def test_rellich_boundary(self, grid):
        p = ckn.derive(5, 1.0, -1.0)
        with pytest.raises(RellichBoundary):
            mode_eigenvalue(p, make_mode(ckn.derive(5, 1.0, -2.0), 0), 1, grid)

    @pytest.mark.parametrize("index", [1, 2])
    def test_solves_and_iters_per_index(self, p513, grid_fast, monkeypatch, index):
        # either index costs one assembly, one factorization and one Lanczos
        # run; iters is that run's factor solves, the same for both indices
        assemblies, factors = [], []
        energy_matrix, splu = _forms.energy_matrix, spla.splu

        class CountedFactor:
            def __init__(self, lu):
                self.lu, self.solves = lu, 0

            def solve(self, y):
                self.solves += 1
                return self.lu.solve(y)

        def counted_energy(*args, **kwargs):
            assemblies.append(1)
            return energy_matrix(*args, **kwargs)

        def counted_splu(*args, **kwargs):
            factors.append(CountedFactor(splu(*args, **kwargs)))
            return factors[-1]

        monkeypatch.setattr(_forms, "energy_matrix", counted_energy)
        monkeypatch.setattr(spla, "splu", counted_splu)
        r = mode_eigenvalue(p513, make_mode(p513, 0), index, grid_fast)
        assert (len(assemblies), len(factors)) == (1, 1)
        assert r.iters == factors[0].solves > 0
        other = mode_eigenvalue(p513, make_mode(p513, 0), 3 - index, grid_fast)
        assert other.iters == r.iters

    def test_mode1_where_a_moving_shift_went_astray(self):
        # a shift that follows the Rayleigh quotient can settle on a higher
        # eigenvalue here (7.0306); a fixed shift below the spectrum cannot
        p = ckn.derive(6, 2.678, -2.319)
        grid = ckn.make_grid(-14.3, 14.3, 4077)
        r = mode_eigenvalue(p, make_mode(p, 1), 1, grid)
        assert r.eigenvalue == pytest.approx(2.0809807, abs=1e-6)

    def test_mode0_bottom_on_gate_grid(self, p513, grid):
        # the discretization error here is about 5e-8; a loose eigen stop
        # test shows up as an error of 1e-6 or more
        r = mode_eigenvalue(p513, make_mode(p513, 0), 1, grid)
        assert abs(r.eigenvalue - 1.0) < 2e-7


class TestSecondVariation:
    def test_zero_on_fs_curve(self):
        pf = ckn.derive(5, 1.0, ckn.felli_schneider(5, 1.0))
        val = second_variation_z1(pf)
        mag = (omega_sphere(5) / 5.0) * pf.nu ** 3 * second_variation_bracket(pf)
        assert abs(val) <= 1e-10 * mag

    def test_negative_below(self, p513):
        val = second_variation_z1(p513)
        assert val < 0
        assert val == pytest.approx(SV_513_ORACLE, rel=1e-9)

    def test_positive_above(self, p512):
        assert second_variation_z1(p512) > 0

    def test_sign_helper(self, p512, p513):
        assert second_variation_sign(p513) == -1
        assert second_variation_sign(p512) == +1
        pf = ckn.derive(6, 2.0, ckn.felli_schneider(6, 2.0))
        assert second_variation_sign(pf) == 0

    def test_sign_matches_eigenvalue_route(self, p512, p513, grid):
        for p in (p512, p513):
            eig = mode_eigenvalue(p, make_mode(p, 1), 1, grid).eigenvalue
            assert second_variation_sign(p) == int(np.sign(eig - (p.p - 1.0)))


class TestLinearizedResidual:
    def test_mode0_exact(self, p512, grid):
        assert linearized_residual(p512, 0, grid) < 1e-7

    def test_mode1_exact_on_curve(self, grid):
        pf = ckn.derive(5, 1.0, ckn.felli_schneider(5, 1.0))
        assert linearized_residual(pf, 1, grid) < 1e-7

    def test_mode1_off_curve(self, grid):
        p = ckn.derive(5, 1.0, ckn.felli_schneider(5, 1.0) + 0.3)
        assert linearized_residual(p, 1, grid) > 1e-3

    def test_mode0_other_params(self, grid):
        assert linearized_residual(ckn.derive(6, 0.5, -2.5), 0, grid) < 1e-7


class TestGammaComparison:
    def test_equality_at_k1(self):
        lhs, rhs, holds = gamma_comparison(10.0, 1)
        assert lhs == pytest.approx(13440.0, rel=1e-14)
        assert rhs == pytest.approx(13440.0, rel=1e-14)
        assert holds

    def test_strict_at_k2(self):
        lhs, rhs, holds = gamma_comparison(10.0, 2)
        assert rhs == pytest.approx(26880.0, rel=1e-14)
        assert holds and lhs < rhs

    def test_m5(self):
        lhs, rhs, holds = gamma_comparison(5.0, 1)
        assert holds
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_noninteger_m_strictness_sweep(self):
        for M in (4.7, 6.3, 9.1, 14.5):
            for k in (2, 3, 4):
                lhs, rhs, holds = gamma_comparison(M, k)
                assert holds and lhs < rhs


class TestSpectralGap:
    def test_gap_exceeds_p_minus_1(self, grid):
        p = ckn.derive(5, -1.0, ckn.beta_lower(5, -1.0))
        gap = spectral_gap(p, grid)
        assert gap > p.p - 1.0
        assert p.p - 1.0 == pytest.approx(9.0, rel=1e-12)

    def test_second_point(self, grid):
        p = ckn.derive(5, -2.0, ckn.beta_lower(5, -2.0))
        assert spectral_gap(p, grid) > p.p - 1.0

    def test_mode_monotonicity(self, grid):
        p = ckn.derive(5, -1.0, ckn.beta_lower(5, -1.0))
        eigs = [mode_eigenvalue(p, make_mode(p, k), 1, grid).eigenvalue
                for k in (1, 2, 3)]
        assert eigs[0] <= eigs[1] <= eigs[2]

    def test_wrong_region(self, p512, grid):
        with pytest.raises(WrongRegion):
            spectral_gap(p512, grid)


class TestDiscretizationQuality:
    def test_eigenvalue_refinement_order(self, p512):
        # nu1 = 1 exactly, so the discrete error itself is observable
        errs = []
        for n in (1001, 2001):
            g = ckn.make_grid(-14.0, 14.0, n)
            errs.append(abs(mode_eigenvalue(p512, make_mode(p512, 0), 1, g).eigenvalue - 1.0))
        assert math.log2(errs[0] / errs[1]) >= 2.0

    def test_clamping_insensitive_to_domain_extension(self, p512):
        vals = []
        for span in (14.0, 17.0):
            g = ckn.make_grid(-span, span, 4001)
            vals.append(mode_eigenvalue(p512, make_mode(p512, 0), 2, g).eigenvalue)
        assert abs(vals[1] - vals[0]) / abs(vals[0]) < 1e-5


def test_extremal_solves_euler_lagrange():
    # strong-form residual of the chained radial operators against
    # |x|^gamma U^{p-1}, in the scaled variable where both sides are bounded;
    # n = 2001 keeps the stacked-stencil rounding floor below the tolerance
    import scipy.sparse as sp
    from ckn import _forms
    from ckn.numerics import diff_matrix

    g = ckn.make_grid(-14.0, 14.0, 2001)
    for N, a, b in ((5, 1.0, -2.0), (6, 0.5, -2.5), (5, -1.0, -3.5)):
        P = ckn.derive(N, a, b)
        phi = _forms.extremal_scaled(P, g)
        B = _forms.mode_operator(P, 0.0, g)
        B_adj = (diff_matrix(g.n, g.h, 2) + 2.0 * P.nu * diff_matrix(g.n, g.h, 1)
                 - P.cal_B * sp.identity(g.n))
        lhs = B_adj @ (B @ phi)
        rhs = phi ** (P.p - 1.0)
        m = g.n // 20          # interior 90% of the grid
        assert np.abs(lhs - rhs)[m:-m].max() / rhs.max() < 1e-6


def test_mode1_eigencurve_crosses_reference_once(grid_fast):
    # the gap nu_1(k=1) - (p-1) changes sign exactly once across the
    # admissible beta interval: all negatives precede all positives
    signs = []
    lo = ckn.beta_lower(5, 1.0)
    for beta in np.linspace(lo + 0.05, -1.05, 8):
        P = ckn.derive(5, 1.0, float(beta))
        eig = mode_eigenvalue(P, make_mode(P, 1), 1, grid_fast).eigenvalue
        signs.append(eig - (P.p - 1.0) > 0)
    assert signs == sorted(signs)
    assert signs[0] is False and signs[-1] is True
