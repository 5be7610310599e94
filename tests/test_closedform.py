import decimal
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import ckn
from ckn import _forms, closedform, transforms
from ckn.closedform import (RAMP_NODES, RAMP_WIDTH, ExtremalSpec, b_of_m, critical_constant,
                            extremal_shape, extremal_u, linearized_eigenvalue, linearized_mode,
                            omega_sphere, radial_constant_sr, rellich_constant,
                            rellich_constant_alt, rellich_limit_grid, rellich_test_quotient,
                            sobolev_s0)
from ckn.errors import (AlphaOutOfRange, EpsOutOfRange, GridTooSmall, MOutOfRange,
                        NonPositiveRadius, RellichBoundary, ScalarOverflow)
from ckn.params import beta_lower
from ckn.spectral import second_variation_sign
from conftest import ORACLE


class TestExtremal:
    def test_value_at_one(self, p512):
        u = extremal_u(ExtremalSpec(p512), 1.0)
        assert u == pytest.approx(ORACLE["U_at_1_5_1_-2"], rel=1e-13)
        assert u == pytest.approx(ORACLE["C_5_1_-2"] / 8.0, rel=1e-13)

    def test_scaling_relation(self, p512):
        r = np.array([0.01, 0.3, 1.0, 7.0, 40.0])
        lhs = extremal_u(ExtremalSpec(p512, lam=2.0), r)
        rhs = 2.0 ** p512.kappa1 * extremal_u(ExtremalSpec(p512), 2.0 * r)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13)

    def test_origin_asymptotics(self, p512):
        for r in (1e-4, 1e-6, 1e-8):
            val = r ** (p512.alpha - p512.beta - 2.0) * extremal_u(ExtremalSpec(p512), r)
            assert val == pytest.approx(p512.C_amp, rel=10.0 * r)

    def test_nonpositive_radius(self, p512):
        with pytest.raises(NonPositiveRadius):
            extremal_u(ExtremalSpec(p512), 0.0)

    def test_rellich_boundary_rejected(self):
        with pytest.raises(RellichBoundary):
            ExtremalSpec(ckn.derive(5, 1.0, -1.0))

    def test_overflowing_amplitude_names_m(self):
        # C_amp is inf at M = 8002, below the Rellich boundary: the error used to
        # say "amplitude undefined at beta = alpha - 2"
        with pytest.raises(ScalarOverflow, match="M = 8002"):
            ExtremalSpec(ckn.derive(5, 1.0, -1.001))

    def test_underflowing_amplitude_names_m(self):
        # C_amp underflows to 0 at M = 2002: extremal_u used to fail with a bare
        # ValueError from log(0)
        P = ckn.derive(5, -2.9, -4.9001)
        assert P.C_amp == 0.0
        with pytest.raises(ScalarOverflow, match="M = 2002"):
            ExtremalSpec(P)

    @pytest.mark.parametrize("amp", [0.0, -1.0, math.nan, math.inf])
    def test_amplitude_must_be_positive_and_finite(self, p512, amp):
        with pytest.raises(ScalarOverflow):
            ExtremalSpec(p512, amplitude=amp)


class TestExtremalShape:
    @pytest.mark.parametrize("point", [(5, 1.0, -2.0), (5, 1.0, -3.0), (6, 0.5, -2.5),
                                       (5, -1.0, -3.5), (8, -2.0, -4.5), (7, 1.5, -2.0),
                                       (6, -3.0, -5.4), (5, -2.5, -4.6)])
    def test_is_scaled_extremal_over_c_cosh(self, point, grid):
        P = ckn.derive(*point)
        phi = _forms.to_scaled(P, grid, extremal_u(ExtremalSpec(P), grid.nodes))
        want = phi / transforms.cosh_constants(P)[0]
        np.testing.assert_allclose(extremal_shape(P, grid.ts), want, rtol=1e-13, atol=0.0)

    def test_bounded_where_the_amplitude_overflows(self):
        P = ckn.derive(5, 1.0, -1.001)
        assert P.M_dim == pytest.approx(8002.0) and math.isinf(P.C_amp)
        t = np.linspace(0.0, 700.0, 7001)
        shape = extremal_shape(P, t)
        assert np.isfinite(shape).all() and shape.max() == 1.0 and shape.min() > 0.0
        assert np.array_equal(extremal_shape(P, -t), shape)
        assert np.all(np.diff(shape) < 0.0)

    def test_rellich_boundary(self):
        with pytest.raises(RellichBoundary):
            extremal_shape(ckn.derive(5, 1.0, -1.0), 0.0)

    @pytest.mark.parametrize("z", [1e-6, 1e-4, 0.01, 0.1, -0.3, 0.49])
    def test_small_argument_is_the_series(self, p513, z):
        # ln cosh z = z^2/2 - z^4/12 + z^6/45 - 17 z^8/2520 + ...; formed as
        # z + log1p(e^{-2z}) - ln 2, from terms of size ln 2, it was off by 2e-8 relative
        # at z = 1e-4.  m puts cosh^m near 1/e, where the log recovers m ln cosh z.
        # nu = 1 at p513, so z = t.
        m = -2.0 / (z * z)
        series = z ** 2 / 2.0 - z ** 4 / 12.0 + z ** 6 / 45.0
        got = math.log(extremal_shape(p513, z, m)) / m
        assert abs(got - series) <= 1e-15 * series + 17.0 / 2520.0 * z ** 8

    @pytest.mark.parametrize("point", [(5, 1.0, -3.0), (7, 1.5, -2.0), (6, -3.0, -5.4)])
    def test_exponent_gives_scaled_z1(self, point, grid):
        # r^{kappa1} Z1 = (2 cosh nu t)^{-(M-2)/2}
        P = ckn.derive(*point)
        phi = _forms.to_scaled(P, grid, linearized_mode(P, 1, grid.nodes))
        want = phi * 2.0 ** ((P.M_dim - 2.0) / 2.0)
        np.testing.assert_allclose(extremal_shape(P, grid.ts, 1.0 - P.M_dim / 2.0), want,
                                   rtol=1e-13, atol=0.0)


_DEC = decimal.Context(prec=50, Emin=-10 ** 6, Emax=10 ** 6)


def _shape_units(P, t) -> list[tuple[float, float]]:
    """(|nu t|, error) per sample of extremal_shape(P, t): its relative error against cosh(nu t)^m
    in 50-digit decimal (nu, t and m the floats as given), in units of 4 eps (1 + |m ln cosh nu t|),
    the conditioning of exp; samples whose value is below 1e-300 (or subnormal) are left out."""
    out = []
    for tt, got in zip(t.tolist(), extremal_shape(P, t).tolist()):
        x = _DEC.multiply(decimal.Decimal(P.nu), decimal.Decimal(tt))
        y = _DEC.multiply(decimal.Decimal(P.m_exp),
                          _DEC.ln(_DEC.divide(_DEC.exp(x) + _DEC.exp(-x), 2)))
        if y > -690:
            want = _DEC.exp(y)
            err = float(abs(decimal.Decimal(got) - want) / want)
            out.append((abs(P.nu * tt), err / (4.0 * sys.float_info.epsilon * (1.0 - float(y)))))
    return out


class TestExtremalShapeSweep:
    """extremal_shape over the whole admissible region against a 50-digit stdlib decimal
    reference (ROADMAP item 6): within 4 eps (1 + |m ln cosh nu t|), the conditioning of exp."""

    @staticmethod
    def points():
        # N = 5..8, alpha uniform in (2.05 - N, 4); a third of the points take beta uniform in
        # [beta_lower, alpha - 2), the rest sit 1 - gap of the way to alpha - 2 with the gap
        # (N - 2)/M_target for M_target = 10 .. 8e9, so M reaches 8e9 and beta 1 - 4e-10
        rng = np.random.default_rng(3107)
        targets = iter(np.geomspace(10.0, 8e9, 40).tolist())
        for i in range(60):
            N = int(rng.integers(5, 9))
            a = float(rng.uniform(2.05 - N, 4.0))
            lo = beta_lower(N, a)
            f = float(rng.uniform()) if i % 3 == 0 else 1.0 - (N - 2.0) / next(targets)
            yield ckn.derive(N, a, lo + f * (a - 2.0 - lo)), rng

    def test_whole_region(self):
        # per point 31 samples with |m ln cosh nu t| from 1e-12 to 690 and 30 with nu t in
        # [0.45, 1], across the switch between the two forms of ln cosh at 0.5; t of either sign
        units, biggest_m = [], 0.0
        for P, rng in self.points():
            s = np.geomspace(1e-12, 690.0, 31) / abs(P.m_exp)                  # ln cosh z
            z = np.where(s < 30.0, np.arccosh(np.exp(np.minimum(s, 30.0))), s + math.log(2.0))
            z = np.r_[z, np.linspace(0.45, 1.0, 30)]
            units += _shape_units(P, z / P.nu * rng.choice([-1.0, 1.0], z.size))
            biggest_m = max(biggest_m, P.M_dim)
        assert len(units) > 2700 and biggest_m > 7e9
        assert max(u for _, u in units) <= 1.0

    @pytest.mark.xfail(reason="z + log1p(e^-2z) - ln 2 cancels just above the switch at z = 0.5: "
                       "up to 4.4 eps relative on ln cosh z (CHANGES.md FOUND line); not "
                       "strict, as NumPy's exp and log1p may round otherwise on other CPUs")
    def test_just_above_the_switch(self):
        # 8 of these 3000 samples, at M = 800 to 5000 where m ln cosh nu t is -60 to -690, read
        # 1.01 to 1.17 units
        units = []
        for N, a in [(5, 1.0), (6, -2.0), (7, 2.0), (8, -4.582165067738527), (5, 3.0)]:
            lo = beta_lower(N, a)
            for M in (800.0, 2000.0, 5000.0):
                P = ckn.derive(N, a, lo + (1.0 - (N - 2.0) / M) * (a - 2.0 - lo))
                units += _shape_units(P, np.linspace(0.5, 0.7, 201)[1:] / P.nu)
        assert max(u for _, u in units) <= 1.0


class TestSobolevS0:
    @pytest.mark.parametrize("N", [5, 6, 7, 8, 9, 10])
    def test_oracle(self, N):
        assert sobolev_s0(N) == pytest.approx(ORACLE["S0"][N], rel=1e-12)

    def test_direct_formula_n6(self):
        expected = math.pi ** 2 * 6 * 2 * 32 * (2.0 / 120.0) ** (2.0 / 3.0)
        assert sobolev_s0(6) == pytest.approx(expected, rel=1e-13)


class TestBOfM:
    @pytest.mark.parametrize("M", [6, 8, 10, 13.5])
    def test_oracle(self, M):
        assert b_of_m(M) == pytest.approx(ORACLE["B"][M], rel=1e-12)

    @pytest.mark.parametrize("N", [5, 6, 7, 8, 9, 10])
    def test_integer_dimension_reduction(self, N):
        # omega_{N-1}^{4/N} B(N) collapses to S0(N)
        assert omega_sphere(N) ** (4.0 / N) * b_of_m(float(N)) \
            == pytest.approx(sobolev_s0(N), rel=1e-10)

    def test_vanishes_at_four(self):
        assert b_of_m(4.0 + 1e-9) < 1e-6

    def test_out_of_range(self):
        with pytest.raises(MOutOfRange):
            b_of_m(4.0)


class TestRadialConstant:
    def test_oracle_values(self, p512, p513):
        assert radial_constant_sr(p512) == pytest.approx(ORACLE["S_r_5_1_-2"], rel=1e-12)
        assert radial_constant_sr(p513) == pytest.approx(ORACLE["S_r_5_1_-3"], rel=1e-12)
        p = ckn.derive(6, 0.5, -2.5)
        assert radial_constant_sr(p) == pytest.approx(ORACLE["S_r_6_05_-25"], rel=1e-12)

    @pytest.mark.parametrize("N", [5, 6, 7, 8, 9, 10])
    def test_collapses_to_s0(self, N):
        p = ckn.derive(N, 0.0, -4.0)
        assert radial_constant_sr(p) == pytest.approx(sobolev_s0(N), rel=1e-10)

    def test_positive_on_beta_sweep(self):
        lo = ckn.beta_lower(5, 1.0)
        for beta in np.linspace(lo + 1e-6, -1.0 - 1e-6, 20):
            val = radial_constant_sr(ckn.derive(5, 1.0, beta))
            assert math.isfinite(val) and val > 0

    def test_near_the_rellich_line(self):
        # M = 5.19e12, where alpha - beta rounds near 2: the power of 2/(alpha - beta - 2)
        # and B(M) must share derive's one difference (mixed, they read 3.3e-4 off).
        # 50-digit value at the float alpha and beta.
        P = ckn.derive(7, 0.053, (0.053 - 2.0) - 1.947e-12)
        assert radial_constant_sr(P) == pytest.approx(40.745270964984014, rel=1e-13)

    def test_rellich_boundary(self):
        with pytest.raises(RellichBoundary):
            radial_constant_sr(ckn.derive(5, 1.0, -1.0))


class TestRellichConstant:
    @pytest.mark.parametrize("N", [5, 6, 7, 8, 9, 10])
    def test_alpha_minus_two_exact(self, N):
        assert rellich_constant(N, -2.0) == ((N - 4.0) / 2.0) ** 4

    def test_limit_at_alpha_floor(self):
        # the quadratic-in-Q expression reaches its minimum 0 exactly at
        # alpha = 2 - N (approached but excluded)
        vals = [rellich_constant(5, -3.0 + d) for d in (1e-1, 1e-2, 1e-3)]
        assert vals[0] > vals[1] > vals[2] > 0
        assert vals[2] < 1e-4

    def test_two_closed_forms_agree(self):
        for alpha in np.linspace(-2.9, 4.0, 50):
            s1 = rellich_constant(5, float(alpha))
            s2 = rellich_constant_alt(5, float(alpha))
            assert s2 == pytest.approx(s1, rel=1e-10, abs=1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(AlphaOutOfRange):
            rellich_constant(5, -3.0)

    @pytest.mark.parametrize("alpha", [1e100, 1e200])
    def test_overflow_is_typed(self, alpha):
        # ** 4 ended in a bare OverflowError, and the product of squares returned inf
        for fn in (rellich_constant, rellich_constant_alt):
            with pytest.raises(ScalarOverflow):
                fn(5, alpha)

    @pytest.mark.parametrize("alpha", [1e76, 3e76, 1e77, -2.5, 1.0])
    def test_finite_values_keep_their_formulas(self, alpha):
        assert rellich_constant(5, alpha) == ((3.0 + alpha) / 2.0) ** 4
        half = 1.5 + alpha / 2.0
        assert rellich_constant_alt(5, alpha) == (half * half) * (half * half)

    @pytest.mark.parametrize("N", range(5, 12))
    def test_closed_forms_at_suite_alphas(self, N):
        # the alpha values of verify identities' rellich_closed_forms_agree
        for alpha in np.linspace(2 - N + 0.1, 4.0, 50):
            exact = ((N - 2 + Fraction(float(alpha))) / 2) ** 4
            for s in (rellich_constant(N, float(alpha)), rellich_constant_alt(N, float(alpha))):
                assert abs(Fraction(s) - exact) <= 1e-15 * exact


class TestCriticalConstant:
    def test_alpha_to_zero_limit(self):
        assert critical_constant(5, -1e-9) == pytest.approx(sobolev_s0(5), rel=1e-7)

    def test_oracle(self):
        assert critical_constant(5, -1.0) == pytest.approx(ORACLE["critical_5_-1"], rel=1e-12)
        assert critical_constant(5, -1.0) \
            == pytest.approx((2.0 / 3.0) ** (16.0 / 5.0) * sobolev_s0(5), rel=1e-13)

    def test_below_s0_sweep(self):
        for alpha in np.linspace(-2.99, -0.01, 25):
            assert critical_constant(5, float(alpha)) < sobolev_s0(5)

    def test_range(self):
        with pytest.raises(AlphaOutOfRange):
            critical_constant(5, 0.5)


class TestLinearizedMode:
    @pytest.mark.parametrize("N,alpha,beta", [(5, 1.0, -2.0), (6, 0.5, -2.5),
                                              (5, -1.0, -3.5)])
    def test_z0_vanishes_at_one(self, N, alpha, beta):
        p = ckn.derive(N, alpha, beta)
        assert linearized_mode(p, 0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_dimension_m_avatars(self, p512):
        # r^a Z_k(r) at r = s^q equals X_k(s) exactly
        s = np.geomspace(0.05, 20.0, 50)
        r = s ** p512.q_pow
        M = p512.M_dim
        x0 = (1.0 - s ** 2) * (1.0 + s ** 2) ** (-(M - 2.0) / 2.0)
        x1 = s * (1.0 + s ** 2) ** (-(M - 2.0) / 2.0)
        np.testing.assert_allclose(r ** p512.a_shift * linearized_mode(p512, 0, r),
                                   x0, rtol=1e-12)
        np.testing.assert_allclose(r ** p512.a_shift * linearized_mode(p512, 1, r),
                                   x1, rtol=1e-12)

    def test_z0_proportional_to_scaling_direction(self, p512, grid):
        # kappa1 U + r U' computed by finite differences, compared pointwise
        # away from the zero crossing of Z0 where the ratio is ill-defined
        u = ckn.sample(grid, lambda r: extremal_u(ExtremalSpec(p512), r))
        du = ckn.differentiate(u, 1)          # = r U'(r) in the log variable
        direction = p512.kappa1 * u.values + du.values
        z0 = linearized_mode(p512, 0, grid.nodes)
        mask = np.abs(z0) > 1e-3 * np.abs(z0).max()
        ratio = direction[mask] / z0[mask]
        assert np.abs(ratio / ratio[len(ratio) // 2] - 1.0).max() < 1e-8

    def test_nonpositive_radius(self, p512):
        with pytest.raises(NonPositiveRadius):
            linearized_mode(p512, 0, -1.0)


class TestLinearizedEigenvalue:
    POINTS = [(5, 1.0, -2.0), (5, 1.0, -3.0), (6, 0.5, -2.5), (5, -1.0, -3.5),
              (6, -3.0, -5.4), (7, 2.0, -1.0), (5, 1.0, -1.01)]

    @pytest.mark.parametrize("N,alpha,beta", POINTS)
    def test_mode0_is_one_and_p_minus_1(self, N, alpha, beta):
        P = ckn.derive(N, alpha, beta)
        assert linearized_eigenvalue(P, 0, 0) == 1.0
        assert linearized_eigenvalue(P, 0, 1) == pytest.approx(P.p - 1.0, rel=1e-13)

    @pytest.mark.parametrize("N,alpha", [(5, 1.0), (6, 2.0), (8, 0.3)])
    def test_mode1_is_p_minus_1_on_the_curve(self, N, alpha):
        P = ckn.derive(N, alpha, ckn.felli_schneider(N, alpha))
        assert linearized_eigenvalue(P, 1, 0) == pytest.approx(P.p - 1.0, rel=1e-12)

    @pytest.mark.parametrize("N,alpha,beta", POINTS)
    def test_mode1_gap_has_the_second_variation_sign(self, N, alpha, beta):
        P = ckn.derive(N, alpha, beta)
        gap = linearized_eigenvalue(P, 1, 0) - (P.p - 1.0)
        assert np.sign(gap) == second_variation_sign(P)
        # higher modes and higher n lie above: TestGammaComparison's k >= 2 statement
        assert linearized_eigenvalue(P, 2, 0) > P.p - 1.0
        assert linearized_eigenvalue(P, 1, 0) < linearized_eigenvalue(P, 1, 1)

    def test_integer_degree_at_alpha_zero(self):
        # at (alpha, beta) = (0, -4), q^2 = 1 and M = N: l_k = k, the degree of a harmonic
        P = ckn.derive(6, 0.0, -4.0)
        for k in range(4):
            x = P.M_dim + 2.0 * k
            gamma = (x - 4.0) * (x - 2.0) * x * (x + 2.0)
            assert linearized_eigenvalue(P, k, 0) == pytest.approx(
                gamma / (2.0 * 4.0 * 6.0 * 8.0), rel=1e-14)

    def test_domain(self, p512):
        with pytest.raises(RellichBoundary):
            linearized_eigenvalue(ckn.derive(5, 1.0, -1.0), 0, 0)
        with pytest.raises(ValueError):
            linearized_eigenvalue(p512, -1, 0)


def gamma_x(x):
    """Gamma_X = (X-4)(X-2)X(X+2): nu_{k,n} = Gamma_{M+2(l_k+n)}/Gamma_M."""
    return (x - 4.0) * (x - 2.0) * x * (x + 2.0)


class TestGammaComparison:
    """The mode-exclusion comparison (p_M - 1) Gamma_M against Gamma_{M+2l} at integer
    degree l, p_M = 2M/(M-4): equal at l = 1, the right side strictly larger from l = 2 on,
    which rules out nontrivial higher-mode solutions."""

    @staticmethod
    def sides(M, l):
        return (2.0 * M / (M - 4.0) - 1.0) * gamma_x(M), gamma_x(M + 2.0 * l)

    def test_equality_at_k1(self):
        lhs, rhs = self.sides(10.0, 1)
        assert lhs == pytest.approx(13440.0, rel=1e-14)
        assert rhs == pytest.approx(13440.0, rel=1e-14)
        assert lhs <= rhs * (1.0 + 1e-12)

    def test_strict_at_k2(self):
        lhs, rhs = self.sides(10.0, 2)
        assert rhs == pytest.approx(26880.0, rel=1e-14)
        assert lhs < rhs

    def test_m5(self):
        lhs, rhs = self.sides(5.0, 1)
        assert lhs <= rhs * (1.0 + 1e-12)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_noninteger_m_strictness_sweep(self):
        for M in (4.7, 6.3, 9.1, 14.5):
            for k in (2, 3, 4):
                lhs, rhs = self.sides(M, k)
                assert lhs < rhs

    @pytest.mark.parametrize("N", [5, 10])
    def test_is_the_linearized_eigenvalue(self, N):
        # at (alpha, beta) = (0, -4), M = N and l_k = k: the two sides are
        # nu_{0,1} Gamma_M = (p - 1) Gamma_M and nu_{k,0} Gamma_M
        P = ckn.derive(N, 0.0, -4.0)
        for k in (1, 2, 3):
            lhs, rhs = self.sides(float(N), k)
            assert linearized_eigenvalue(P, 0, 1) * gamma_x(N) == pytest.approx(lhs, rel=1e-14)
            assert linearized_eigenvalue(P, k, 0) * gamma_x(N) == pytest.approx(rhs, rel=1e-14)


class TestRellichTestQuotient:
    def test_monotone_and_limit_n5(self):
        g = rellich_limit_grid(4001)
        qs = [rellich_test_quotient(5, e, g) for e in (0.3, 0.1, 0.01)]
        assert qs[0] > qs[1] > qs[2] > 1.0 / 16.0
        assert abs(qs[2] - 0.0625) / 0.0625 < 0.05

    def test_n6_limit(self):
        g = rellich_limit_grid(4001)
        qs = [rellich_test_quotient(6, e, g) for e in (0.1, 0.03, 0.01)]
        assert qs[0] > qs[1] > qs[2] > 1.0
        assert qs[2] == pytest.approx(1.0, rel=0.02)

    def test_eps_range(self):
        with pytest.raises(EpsOutOfRange):
            rellich_test_quotient(5, 0.7, rellich_limit_grid(831))

    @pytest.mark.parametrize("N", range(5, 13))
    def test_coarse_ramp_is_grid_too_small(self, N):
        # RAMP_WIDTH / h >= RAMP_NODES, n >= 831 on rellich_limit_grid: below 3 steps per ramp the
        # quotients fell below ((N-4)/2)^4 or stopped decreasing, -n 5 to 79 at N = 5
        assert RAMP_WIDTH / rellich_limit_grid(831).h == RAMP_NODES
        assert rellich_test_quotient(N, 0.1, rellich_limit_grid(831)) > ((N - 4) / 2) ** 4
        for n in (5, 79, 87, 829):
            with pytest.raises(GridTooSmall, match="cutoff ramp spans"):
                rellich_test_quotient(N, 0.1, rellich_limit_grid(n))

    @pytest.mark.parametrize("n", [831, 2001, 4001])
    def test_sequence_equals_scalar_calls_bit_for_bit(self, n):
        # one Simpson sum for every eps, each row summed on its own
        g = rellich_limit_grid(n)
        eps = (0.3, 0.1, 0.03, 0.01, 0.45, 0.2, 1e-3)
        for N in range(5, 11):
            want = [rellich_test_quotient(N, e, g) for e in eps]
            assert all(type(q) is float for q in want)
            for seq in (eps, list(eps), np.array(eps)):
                assert rellich_test_quotient(N, seq, g) == want
            assert rellich_test_quotient(N, eps[:1], g) == want[:1]
        assert rellich_test_quotient(5, [], g) == []

    def test_every_eps_checked_before_evaluation(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the cutoff was built before every eps was checked")

        monkeypatch.setattr(closedform, "_cutoff", unreachable)
        with pytest.raises(EpsOutOfRange):
            rellich_test_quotient(5, [0.3, 0.1, 0.5], rellich_limit_grid(831))
        with pytest.raises(EpsOutOfRange):
            rellich_test_quotient(5, [[0.3, 0.1]], rellich_limit_grid(831))


def _cutoff_monomial(t, L):
    """The ramp in monomials and pow: the reference for _cutoff's products."""
    u = np.clip(t / L, 0.0, 1.0)
    inside = (t > 0) & (t < L)
    g = np.where(t <= 0, 1.0, 1.0 - (6 * u ** 5 - 15 * u ** 4 + 10 * u ** 3))
    g1 = np.where(inside, -(30 * u ** 4 - 60 * u ** 3 + 30 * u ** 2) / L, 0.0)
    g2 = np.where(inside, -(120 * u ** 3 - 180 * u ** 2 + 60 * u) / L ** 2, 0.0)
    return g, g1, g2


class TestCutoff:
    @pytest.mark.parametrize("L", [closedform.RAMP_WIDTH, 1.0, 7.3])
    def test_products_match_the_monomial_form(self, L):
        # a few ulp of the monomials' largest sum of terms, 31, 120 / L and 360 / L^2
        t = np.linspace(-0.5 * L, 1.5 * L, 100001)
        scale = (31.0, 120.0 / L, 360.0 / L ** 2)
        for got, want, s in zip(closedform._cutoff(t, L), _cutoff_monomial(t, L), scale):
            assert np.max(np.abs(got - want)) <= 2.0 * np.finfo(float).eps * s

    def test_end_conditions_exact(self):
        L = closedform.RAMP_WIDTH
        t = np.array([-400.0, -1.0, -1e-300, 0.0, L, L + 1e-12, 13.0, 15.0])
        g, g1, g2 = closedform._cutoff(t, L)
        assert g.tolist() == [1.0] * 4 + [0.0] * 4
        assert g1.tolist() == [0.0] * 8 and g2.tolist() == [0.0] * 8
        inside = closedform._cutoff(np.array([1e-3, L / 2, L - 1e-3]), L)[0]
        assert np.all((0.0 < inside) & (inside < 1.0))


def test_scaling_direction_matches_finite_difference(p512, grid):
    spec = ExtremalSpec(p512)
    u = ckn.sample(grid, lambda r: extremal_u(spec, r))
    du = ckn.differentiate(u, 1)
    fd = p512.kappa1 * u.values + du.values
    closed = closedform.scaling_direction(spec, grid.nodes)
    sl = slice(10, -10)
    mask = np.abs(closed[sl]) > 1e-6 * np.abs(closed).max()
    rel = np.abs(fd[sl][mask] - closed[sl][mask]) / np.abs(closed[sl][mask])
    assert rel.max() < 1e-8


#: (form, point, lam, t, value at r = e^t): the r-space closed forms in 50-digit arithmetic
#: (mpmath) at the float radius and at derive's float nu, M_dim, kappa1 and C_amp, so that
#: they measure the evaluation, not the rounding of derive.  M = 802 at (5, 1, -1.01).
FAMILY_REFERENCES = [
    ("extremal_u", (5, 1.0, -3.0), 1.0, -100.0, 3.1987418085654283222e+87),
    ("scaling_direction", (5, 1.0, -3.0), 1.0, -100.0, 3.1987418085654283222e+87),
    ("Z0", (5, 1.0, -3.0), 1.0, -100.0, -7.2259737681257486481e+86),
    ("Z1", (5, 1.0, -3.0), 1.0, -100.0, 2.6881171418161353349e+43),
    ("extremal_u", (5, 1.0, -3.0), 1.0, 0.7, 2.1593954995810612715e-1),
    ("scaling_direction", (5, 1.0, -3.0), 1.0, 0.7, -1.3050690579986128343e-1),
    ("Z0", (5, 1.0, -3.0), 1.0, 0.7, 2.9481575391418980757e-2),
    ("Z1", (5, 1.0, -3.0), 1.0, 0.7, 1.9431985765003519294e-2),
    ("extremal_u", (5, 1.0, -3.0), 1.0, 125.0, 3.1538559579456262345e-217),
    # the two-factor product returned -0.0 here: (1 + e^z)^{-(M-2)/2} underflowed alone
    ("scaling_direction", (5, 1.0, -3.0), 1.0, 125.0, -3.1538559579456262345e-217),
    ("Z0", (5, 1.0, -3.0), 1.0, 125.0, 7.1245764067412852533e-218),
    ("Z1", (5, 1.0, -3.0), 1.0, 125.0, 3.6808558548018004232e-272),
    ("extremal_u", (5, 1.0, -3.0), 5.0, -60.0, 2.8866267962742337648e+53),
    ("scaling_direction", (5, 1.0, -3.0), 5.0, -60.0, 5.7732535925484675297e+52),
    ("extremal_u", (5, 1.0, -3.0), 5.0, 125.0, 6.307711915891252469e-218),
    ("scaling_direction", (5, 1.0, -3.0), 5.0, 125.0, -1.2615423831782504938e-218),
    ("extremal_u", (6, 0.5, -2.5), 0.2, -150.0, 2.1267273031678992949e+66),
    ("scaling_direction", (6, 0.5, -2.5), 0.2, -150.0, 1.8608863902719117797e+67),
    ("extremal_u", (6, 0.5, -2.5), 0.2, 140.0, 1.057817962244374966e-270),
    ("scaling_direction", (6, 0.5, -2.5), 0.2, 140.0, -9.2559071696382804389e-270),
    # derive's nu at (5, 1, -1.01) moved from 0.004999999999999893 to 0.0050000000000000044
    # when it came from 2 + beta - alpha; the values follow it, the ids keep the old ones
    pytest.param("extremal_u", (5, 1.0, -1.01), 0.2, -300.0, 1.1429811192246864979e+232,
                 id="extremal_u-point20-0.2--300.0-1.1429811192367324e+232"),
    pytest.param("scaling_direction", (5, 1.0, -1.01), 0.2, -300.0, 1.0336268670433469087e+233,
                 id="scaling_direction-point21-0.2--300.0-1.0336268670542335e+233"),
    pytest.param("extremal_u", (5, 1.0, -1.01), 0.2, 300.0, 1.3369854478447086541e-288,
                 id="extremal_u-point22-0.2-300.0-1.3369854478588937e-288"),
    pytest.param("scaling_direction", (5, 1.0, -1.01), 0.2, 300.0, -1.2051910731737567761e-287,
                 id="scaling_direction-point23-0.2-300.0--1.2051910731865356e-287"),
    pytest.param("Z0", (5, 1.0, -1.01), 1.0, -300.0, -6.9217659593676016848e-8,
                 id="Z0-point24-1.0--300.0--6.921765959355388e-08"),
    pytest.param("Z1", (5, 1.0, -1.01), 1.0, -300.0, 1.6253775291931708976e-8,
                 id="Z1-point25-1.0--300.0-1.6253775291903626e-08"),
    pytest.param("Z0", (5, 1.0, -1.01), 1.0, 150.0, 2.1114900312506708703e-296,
                 id="Z0-point26-1.0-150.0-2.1114900312417928e-296"),
    pytest.param("Z1", (5, 1.0, -1.01), 1.0, 150.0, 1.2838666351102777691e-296,
                 id="Z1-point27-1.0-150.0-1.283866635104913e-296"),
]


@pytest.mark.parametrize("form,point,lam,t,want", FAMILY_REFERENCES)
def test_family_matches_50_digit_references(form, point, lam, t, want):
    # U, kappa1 U + r U', Z0 and Z1 share one kernel: one exponential per sample
    P = ckn.derive(*point)
    spec = ExtremalSpec(P, lam=lam)
    forms = {"extremal_u": lambda r: extremal_u(spec, r),
             "scaling_direction": lambda r: closedform.scaling_direction(spec, r),
             "Z0": lambda r: linearized_mode(P, 0, r),
             "Z1": lambda r: linearized_mode(P, 1, r)}
    assert forms[form](math.exp(t)) == pytest.approx(want, rel=1e-12, abs=0.0)
