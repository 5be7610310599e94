import math

import numpy as np
import pytest

import ckn
from ckn import transforms
from ckn.closedform import ExtremalSpec, b_of_m, extremal_u, omega_sphere
from ckn.errors import (CknError, GridTooSmall, MOutOfRange, RellichBoundary, ScalarOverflow,
                        TailInadequate)
from ckn.numerics import RadialProfile
from ckn.transforms import (EmdenFowlerProfile, cosh_ansatz_check, cosh_constants, cosh_profile,
                            from_dimension_m, from_emden_fowler, ode_residual,
                            rayleigh_m, to_dimension_m, to_emden_fowler)
from ckn.variational import radial_energy
from conftest import ORACLE, gaussian_profile

COSH_SETS = [(5, 1.0, -2.0), (5, 1.0, -3.0), (6, 0.5, -2.5), (7, 2.0, -1.0),
             (5, -1.0, -3.5)]


class TestEmdenFowler:
    def test_extremal_maps_to_cosh(self, p512, grid):
        u = ckn.sample(grid, lambda r: extremal_u(ExtremalSpec(p512), r))
        ef = to_emden_fowler(u, p512)
        exact = cosh_profile(p512, ef.grid)
        err = np.abs(ef.phi - exact.phi) / np.abs(exact.phi).max()
        assert err.max() < 1e-10

    def test_pure_power_maps_to_one(self, p512, grid):
        u = ckn.sample(grid, lambda r: r ** (-p512.kappa1))
        ef = to_emden_fowler(u, p512)
        np.testing.assert_allclose(ef.phi, 1.0, rtol=1e-12)

    def test_round_trip(self, p512, grid):
        u = gaussian_profile(grid)
        back = from_emden_fowler(to_emden_fowler(u, p512))
        np.testing.assert_allclose(back.values, u.values, rtol=1e-12, atol=1e-300)


class TestOdeResidual:
    def test_exact_solution(self, p512):
        lo, hi, n = transforms.ODE_CHECK_GRID
        ef = cosh_profile(p512, ckn.make_grid(lo, hi, n))
        assert ode_residual(ef) < 1e-7

    def test_zero_profile(self, p512):
        g = ckn.make_grid(-10.0, 10.0, 401)
        assert ode_residual(EmdenFowlerProfile(grid=g, phi=np.zeros(g.n),
                                               params=p512)) == 0.0

    def test_scaled_profile_off_balance(self, p512):
        # 1.01 * solution breaks the nonlinear amplitude balance
        lo, hi, n = transforms.ODE_CHECK_GRID
        exact = cosh_profile(p512, ckn.make_grid(lo, hi, n))
        scaled = EmdenFowlerProfile(grid=exact.grid, phi=1.01 * exact.phi,
                                    params=p512)
        assert ode_residual(scaled) > 1e-2

    def test_refinement_order(self, p512):
        res = []
        for n in (251, 501, 1001):
            ef = cosh_profile(p512, ckn.make_grid(-10.0, 10.0, n))
            res.append(ode_residual(ef))
        orders = [math.log2(a / b) for a, b in zip(res, res[1:])]
        assert min(orders) >= 3.0

    def test_grid_too_small(self, p512):
        g = ckn.make_grid(-5.0, 5.0, 101)
        with pytest.raises(GridTooSmall):
            ode_residual(EmdenFowlerProfile(grid=g, phi=np.ones(g.n), params=p512))


class TestCoshAnsatz:
    @pytest.mark.parametrize("N,alpha,beta", COSH_SETS)
    def test_relations_hold(self, N, alpha, beta):
        r1, r2, r3 = cosh_ansatz_check(ckn.derive(N, alpha, beta))
        assert r1 < 1e-10 and r2 < 1e-10 and r3 < 1e-10

    def test_perturbed_nu_breaks_quartic(self, p512):
        # nu is the unique positive root: scaling it by 1.1 leaves a
        # residual in m^4 nu^4 - K2 m^2 nu^2 + K0 of order K0
        m, nu = p512.m_exp, 1.1 * p512.nu
        bad = abs(m ** 4 * nu ** 4 - p512.K2 * m ** 2 * nu ** 2 + p512.K0)
        assert bad > 0.01 * p512.K0

    def test_rellich_boundary(self):
        with pytest.raises(RellichBoundary):
            cosh_ansatz_check(ckn.derive(5, 1.0, -1.0))

    def test_overflowing_amplitude(self):
        with pytest.raises(ScalarOverflow, match="M = 8002"):
            cosh_constants(ckn.derive(5, 1.0, -1.001))

    @pytest.mark.parametrize("point, M", [((5, 1.0, -1.001), "8002"), ((5, -2.9, -4.9001), "2002")])
    def test_relations_hold_where_the_amplitude_leaves_the_float_range(self, point, M):
        # C_cosh overflows at M = 8002 and underflows to 0 at M = 2002, so relation 3 raised
        # ScalarOverflow; in logs it reads 1.3e-13 and 3.2e-13, relations 1 and 2 below 3e-15
        P = ckn.derive(*point)
        with pytest.raises(ScalarOverflow, match=f"M = {M}"):
            cosh_constants(P)
        r1, r2, r3 = cosh_ansatz_check(P)
        assert r1 < 3e-15 and r2 < 3e-15 and r3 < 1e-12


class TestDimensionM:
    def test_extremal_maps_to_standard_bubble(self, p512, grid):
        u = ckn.sample(grid, lambda r: extremal_u(ExtremalSpec(p512), r))
        v = to_dimension_m(u, p512)
        expected = p512.C_amp * (1.0 + v.grid.nodes ** 2) ** (-(p512.M_dim - 4.0) / 2.0)
        np.testing.assert_allclose(v.values, expected, rtol=1e-10)

    def test_pure_power_maps_to_one(self, p512, grid):
        u = ckn.sample(grid, lambda r: r ** (-p512.a_shift))
        v = to_dimension_m(u, p512)
        np.testing.assert_allclose(v.values, 1.0, rtol=1e-12)

    def test_round_trip(self, p512, grid):
        u = gaussian_profile(grid)
        back = from_dimension_m(to_dimension_m(u, p512), p512)
        np.testing.assert_allclose(back.values, u.values, rtol=1e-12, atol=1e-300)

    def test_grid_reversed_and_sorted(self, p512, grid):
        v = to_dimension_m(gaussian_profile(grid), p512)
        assert np.all(np.diff(v.grid.nodes) > 0)

    def test_rellich_boundary(self, grid):
        with pytest.raises(RellichBoundary):
            to_dimension_m(gaussian_profile(grid), ckn.derive(5, 1.0, -1.0))


class TestRayleighM:
    @pytest.mark.parametrize("M", [6.0, 8.0, 10.0, 13.5])
    def test_minimizer_attains_b(self, M, grid):
        v = ckn.sample(grid, lambda s: (1.0 + s ** 2) ** (-(M - 4.0) / 2.0))
        assert rayleigh_m(v, M) == pytest.approx(b_of_m(M), rel=1e-6)

    def test_scale_invariance(self, grid):
        v = ckn.sample(grid, lambda s: (1.0 + s ** 2) ** -3.0)
        v2 = RadialProfile(grid=grid, values=2.0 * v.values)
        assert rayleigh_m(v2, 10.0) == pytest.approx(rayleigh_m(v, 10.0), rel=1e-12)

    def test_dilation_invariance(self, grid):
        v = ckn.sample(grid, lambda s: (1.0 + s ** 2) ** -3.0)
        v2 = ckn.sample(grid, lambda s: (1.0 + (2.0 * s) ** 2) ** -3.0)
        assert rayleigh_m(v2, 10.0) == pytest.approx(rayleigh_m(v, 10.0), rel=1e-8)

    def test_tail_inadequate(self, grid):
        slow = ckn.sample(grid, lambda s: (1.0 + s ** 2) ** -0.6)
        with pytest.raises(TailInadequate):
            rayleigh_m(slow, 10.0)

    def test_zero_denominator(self, grid):
        # a zero profile, or one whose p_M-norm underflows, is a typed error
        with pytest.raises(CknError, match="zero denominator"):
            rayleigh_m(RadialProfile(grid=grid, values=np.zeros(grid.n)), 10.0)

    def test_m_out_of_range(self, grid):
        v = ckn.sample(grid, lambda s: (1.0 + s ** 2) ** -3.0)
        with pytest.raises(MOutOfRange):
            rayleigh_m(v, 4.0)


class TestQuotientChain:
    @pytest.mark.parametrize("N,alpha,beta", [(5, 1.0, -2.0), (6, 0.5, -2.5)])
    def test_radial_quotient_equals_transformed(self, N, alpha, beta, grid):
        # for any radial u the weighted quotient factors through the
        # effective-dimension Rayleigh quotient
        P = ckn.derive(N, alpha, beta)
        for u in (ckn.sample(grid, lambda r: extremal_u(ExtremalSpec(P), r)),
                  gaussian_profile(grid, center=0.3, width=1.2)):
            num = radial_energy(u, P)
            den = omega_sphere(N) * ckn.integrate(
                np.abs(u.values) ** P.p, grid, P.gamma + N - 1.0)
            quotient = num / den ** (2.0 / P.p)
            v = to_dimension_m(u, P)
            chain = ((-P.q_pow) ** (4.0 / P.M_dim - 4.0)
                     * omega_sphere(N) ** (1.0 - 2.0 / P.p)
                     * rayleigh_m(v, P.M_dim))
            assert quotient == pytest.approx(chain, rel=1e-8)
