import math

import numpy as np
import pytest

import ckn
from ckn import variational
from ckn.closedform import ExtremalSpec, extremal_u, omega_sphere, radial_constant_sr
from ckn.errors import AmplitudeTooLarge, RellichBoundary, TailInadequate
from ckn.numerics import RadialProfile
from ckn.variational import (make_mode, minimize_radial, mode_energy,
                             perturbed_quotient, radial_energy)
from conftest import ORACLE, gaussian_profile, weighted_cosine


def extremal_profile(params, grid):
    return ckn.sample(grid, lambda r: extremal_u(ExtremalSpec(params), r))


def star_norm_sq(u, params):
    val = omega_sphere(params.N) * ckn.integrate(
        np.abs(u.values) ** params.p, u.grid, params.gamma + params.N - 1.0)
    return val ** (2.0 / params.p)


def quotient(u, params):
    return radial_energy(u, params) / star_norm_sq(u, params)


class TestModeSpec:
    def test_sphere_eigenvalues(self, p512):
        assert make_mode(p512, 0).lambda_k == 0.0
        assert make_mode(p512, 1).lambda_k == p512.N - 1.0
        assert make_mode(p512, 2).lambda_k == 2.0 * p512.N

    def test_multiplicities(self, p512):
        assert make_mode(p512, 0).multiplicity == 1
        assert make_mode(p512, 1).multiplicity == p512.N
        N = p512.N
        assert make_mode(p512, 2).multiplicity == (N + 2) * (N - 1) // 2

    def test_mode_comparison_inequality(self):
        # q^2 lambda_k >= varpi_k for k >= 1, equality at k = 1 exactly on
        # the Felli-Schneider curve
        bfs = ckn.felli_schneider(5, 1.0)
        pf = ckn.derive(5, 1.0, bfs)
        m1 = make_mode(pf, 1)
        assert m1.q2lambda_k == pytest.approx(m1.varpi_k, rel=1e-12)
        for k in (2, 3):
            mk = make_mode(pf, k)
            assert mk.q2lambda_k > mk.varpi_k
        above = ckn.derive(5, 1.0, -2.0)
        below = ckn.derive(5, 1.0, -3.0)
        assert make_mode(above, 1).q2lambda_k > make_mode(above, 1).varpi_k
        assert make_mode(below, 1).q2lambda_k < make_mode(below, 1).varpi_k

    def test_rellich_boundary(self):
        with pytest.raises(RellichBoundary):
            make_mode(ckn.derive(5, 1.0, -1.0), 1)


class TestEnergies:
    def test_nehari_identity(self, p512, grid):
        u = extremal_profile(p512, grid)
        lhs = radial_energy(u, p512)
        rhs = omega_sphere(p512.N) * ckn.integrate(
            u.values ** p512.p, grid, p512.gamma + p512.N - 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_zero_profile(self, p512, grid):
        assert radial_energy(RadialProfile(grid=grid, values=np.zeros(grid.n)),
                             p512) == 0.0

    def test_quotient_scale_invariance(self, p512, grid):
        u = extremal_profile(p512, grid)
        base = quotient(u, p512)
        for c in (-2.0, 0.3):
            scaled = RadialProfile(grid=grid, values=c * u.values)
            assert abs(quotient(scaled, p512) - base) < 1e-12 * base

    def test_quotient_dilation_invariance(self, p512, grid):
        base = quotient(extremal_profile(p512, grid), p512)
        for lam in (0.5, 2.0):
            u = ckn.sample(grid, lambda r: extremal_u(ExtremalSpec(p512, lam=lam), r))
            assert quotient(u, p512) == pytest.approx(base, rel=1e-8)

    def test_mode0_energy_matches_radial(self, p512, grid):
        u = extremal_profile(p512, grid)
        assert mode_energy(u, p512, make_mode(p512, 0)) \
            == pytest.approx(radial_energy(u, p512) / omega_sphere(p512.N), rel=1e-13)

    def test_mode1_energy_of_z1(self, p512, grid):
        z1 = ckn.sample(grid, lambda r: ckn.linearized_mode(p512, 1, r))
        e = mode_energy(z1, p512, make_mode(p512, 1))
        assert math.isfinite(e) and e > 0


class TestMinimizeRadial:
    TARGETS = [((5, 1.0, -2.0), "S_r_5_1_-2"), ((5, 1.0, -3.0), "S_r_5_1_-3"),
               ((6, 0.5, -2.5), "S_r_6_05_-25")]

    @pytest.mark.parametrize("point,key", TARGETS)
    def test_gaussian_seed_converges(self, point, key, grid):
        N, alpha, beta = point
        P = ckn.derive(N, alpha, beta)
        init = RadialProfile(grid=grid,
                             values=np.exp(-grid.ts ** 2 - P.kappa1 * grid.ts))
        value, profile = minimize_radial(P, init, max_iters=2000)
        target = ORACLE[key]
        assert abs(value - target) / target < 5e-3
        # discrete optimum never undershoots the closed form beyond tolerance
        assert value >= target * (1.0 - 5e-3)
        # returned profile reproduces the value through the public quotient
        # (trapezoid forms inside the minimizer vs Simpson quadrature here)
        assert quotient(profile, P) == pytest.approx(value, rel=1e-6)

    def test_extremal_is_stationary(self, p512, grid):
        u = extremal_profile(p512, grid)
        value, _ = minimize_radial(p512, u)
        assert value == pytest.approx(ORACLE["S_r_5_1_-2"], rel=1e-6)

    def test_sign_invariance(self, p512, grid):
        u = extremal_profile(p512, grid)
        flipped = RadialProfile(grid=grid, values=-u.values)
        v1, _ = minimize_radial(p512, u)
        v2, _ = minimize_radial(p512, flipped)
        assert v1 == pytest.approx(v2, rel=1e-10)

    def test_rellich_boundary(self, grid):
        with pytest.raises(RellichBoundary):
            minimize_radial(ckn.derive(5, 1.0, -1.0), gaussian_profile(grid))


class TestPerturbedQuotient:
    def test_zero_amplitude_gives_radial_constant(self, p513, grid):
        z1 = ckn.sample(grid, lambda r: ckn.linearized_mode(p513, 1, r))
        val = perturbed_quotient(p513, 0.0, make_mode(p513, 1), z1)
        assert val == pytest.approx(radial_constant_sr(p513), rel=1e-9)

    def test_drop_in_breaking_region(self, p513, grid):
        z1 = ckn.sample(grid, lambda r: ckn.linearized_mode(p513, 1, r))
        s_r = radial_constant_sr(p513)
        plus = perturbed_quotient(p513, 0.05, make_mode(p513, 1), z1)
        minus = perturbed_quotient(p513, -0.05, make_mode(p513, 1), z1)
        assert plus < s_r - 1e-4 * s_r
        assert minus < s_r - 1e-4 * s_r
        assert abs(plus - minus) < 1e-8 * s_r

    def test_rise_in_stable_region(self, p512, grid):
        z1 = ckn.sample(grid, lambda r: ckn.linearized_mode(p512, 1, r))
        s_r = radial_constant_sr(p512)
        for t in (0.05, -0.05):
            assert perturbed_quotient(p512, t, make_mode(p512, 1), z1) > s_r

    def test_mode0_along_extremal(self, p512, grid):
        # perturbing U along itself rescales it: the quotient stays put
        u = extremal_profile(p512, grid)
        val = perturbed_quotient(p512, 0.1, make_mode(p512, 0), u)
        assert val == pytest.approx(radial_constant_sr(p512), rel=1e-6)

    def test_amplitude_cap(self, p512, grid):
        z1 = ckn.sample(grid, lambda r: ckn.linearized_mode(p512, 1, r))
        with pytest.raises(AmplitudeTooLarge):
            perturbed_quotient(p512, 0.3, make_mode(p512, 1), z1)

    def test_mode_cap(self, p512, grid):
        z1 = ckn.sample(grid, lambda r: ckn.linearized_mode(p512, 1, r))
        with pytest.raises(ValueError):
            perturbed_quotient(p512, 0.05, make_mode(p512, 2), z1)


class TestTailAdequacy:
    @pytest.mark.parametrize("center", [-13.8, 13.8])
    def test_energy_at_grid_ends(self, p512, grid, center):
        f = gaussian_profile(grid, center=center, width=0.3)
        with pytest.raises(TailInadequate):
            mode_energy(f, p512, make_mode(p512, 1))
        with pytest.raises(TailInadequate):
            perturbed_quotient(p512, 0.05, make_mode(p512, 1), f)


def test_extremal_integrand_tails_negligible(p512, grid):
    # the energy and p-norm integrands of U carry < 1e-8 of their mass in
    # the outermost nodes of the default grid
    u = extremal_profile(p512, grid)
    assert ckn.tail_fraction(np.abs(u.values) ** p512.p, grid,
                             p512.gamma + p512.N - 1.0) < 1e-8
