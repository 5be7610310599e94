import math
from fractions import Fraction

import numpy as np
import pytest

import ckn
from ckn.errors import (AlphaOutOfRange, BetaOutOfRange, InvalidDimension,
                        RellichBoundary, ScalarOverflow)
from ckn.params import (RegionClass, beta_lower, classify, derive, felli_schneider,
                        on_rellich_line, region_of, regions, second_variation_gap)
from ckn.spectral import second_variation_sign
from conftest import ORACLE, overflow_start

# admissible sample points used by the invariant sweeps
SAMPLES = [(5, 1.0, -2.0), (5, 1.0, -3.0), (5, 1.0, -11 / 3), (6, 0.5, -2.5),
           (7, 2.0, -1.0), (5, -1.0, -3.5), (5, -1.0, -13 / 3), (6, -2.0, -4.5),
           (9, 0.0, -3.0), (5, 0.0, -4.0), (10, 3.0, -0.5)]


class TestDerive:
    def test_hand_checked_point(self):
        p = derive(5, 1.0, -2.0)
        assert p.gamma == pytest.approx(10 / 3, rel=1e-14)
        assert p.p == pytest.approx(10 / 3, rel=1e-14)
        assert p.M_dim == pytest.approx(10.0, rel=1e-14)
        assert p.m_exp == pytest.approx(-3.0, rel=1e-14)
        assert p.nu == pytest.approx(0.5, rel=1e-14)
        assert p.q_pow == pytest.approx(-2.0, rel=1e-14)
        assert p.a_shift == pytest.approx(4.0, rel=1e-14)
        assert p.C_amp == pytest.approx(ORACLE["C_5_1_-2"], rel=1e-13)

    @pytest.mark.parametrize("N", [5, 6, 7, 8])
    def test_critical_lower_alpha_zero(self, N):
        p = derive(N, 0.0, -4.0)
        assert p.gamma == pytest.approx(4 * N / (N - 4), rel=1e-13)
        assert p.p == pytest.approx(2 * N / (N - 4), rel=1e-13)
        assert p.region is RegionClass.CRITICAL_UPPER_ALPHA_ZERO

    def test_rellich_boundary(self):
        p = derive(5, 1.0, -1.0)
        assert p.p == pytest.approx(2.0, rel=1e-14)
        assert p.region is RegionClass.RELLICH_BOUNDARY
        assert math.isnan(p.M_dim) and math.isnan(p.q_pow) and math.isnan(p.m_exp)
        assert p.nu == 0.0
        assert not p.subcritical

    def test_validation(self):
        with pytest.raises(InvalidDimension):
            derive(4, 0.0, -4.0)
        with pytest.raises(AlphaOutOfRange):
            derive(5, -3.0, -4.0)
        with pytest.raises(BetaOutOfRange):
            derive(5, 1.0, -0.5)          # above alpha - 2
        with pytest.raises(BetaOutOfRange):
            derive(5, 1.0, -4.0)          # below (N-4)alpha/(N-2) - 4

    @pytest.mark.parametrize("N", [5, 6, 8])
    def test_beta_lower_rounds_to_minus_n(self, N):
        # beta = -N is the alpha -> 2 - N limit of beta_lower, reached here by rounding
        alpha = math.nextafter(2.0 - N, math.inf)
        with pytest.raises(BetaOutOfRange):
            derive(N, alpha, -float(N))
        assert region_of(N, alpha, -float(N)) is RegionClass.INVALID
        codes, names = regions(N, np.array([alpha]), np.array([-float(N)]),
                               beta_lower(N, alpha), felli_schneider(N, alpha))
        assert [names[c] for c in codes] == [RegionClass.INVALID.value]


    @pytest.mark.parametrize("alpha,beta", [
        (1e200, 5e199), (1.4e154, 5e153), (1e100, 5e99),
        # C_amp's base product overflows first: HEAD reported C_amp = inf here,
        # where the amplitude is about 1e38
        (1.5e77, 5e76)])
    def test_overflowing_scalars_raise(self, alpha, beta):
        with pytest.raises(ScalarOverflow):
            derive(5, alpha, beta)

    def test_scalars_below_overflow_kept(self):
        P = derive(5, 1e76, 1e76 / 3.0)
        assert all(math.isfinite(x) for x in (P.gamma, P.K2, P.K0, P.C_amp, P.beta_fs))

    def test_felli_schneider_overflow_and_infinite_alpha(self):
        with pytest.raises(ScalarOverflow):
            felli_schneider(5, 1e200)
        with pytest.raises(AlphaOutOfRange):
            derive(5, math.inf, math.inf)


def exact_p_gamma(N, alpha, beta):
    """p and gamma of derive's formulas in exact rational arithmetic on the
    float inputs."""
    a, b = Fraction(alpha), Fraction(beta)
    T = N + 2 * a - b - 4
    return 2 * T / (N + b), T * T / (N + b) - N


class TestDeriveExactArithmetic:
    # Near alpha -> 2 - N, p moves away from 2N/(N-4) because fl(beta_lower)
    # sits a few 1e-16 off the boundary, where p is steep in beta; derive
    # itself loses nothing against exact arithmetic on its inputs.
    CORNERS = [(5, -2.9999999999989995), (5, -3.0 + 1e-12), (6, -4.0 + 1e-12),
               (8, -6.0 + 1e-12)]

    @pytest.mark.parametrize("N,alpha", CORNERS)
    def test_corners(self, N, alpha):
        beta = beta_lower(N, alpha)
        P = derive(N, alpha, beta)
        p, gamma = exact_p_gamma(N, alpha, beta)
        assert P.p == pytest.approx(float(p), rel=1e-14)
        assert P.gamma == pytest.approx(float(gamma), rel=1e-14)
        # on the exact boundary the same arithmetic gives 2N/(N-4)
        lo = Fraction(N - 4) * Fraction(alpha) / (N - 2) - 4
        assert exact_p_gamma(N, alpha, lo)[0] == Fraction(2 * N, N - 4)

    def test_random_admissible_points(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            N = int(rng.integers(5, 11))
            alpha = float(rng.uniform(2 - N, 6.0))
            beta = float(rng.uniform(beta_lower(N, alpha), alpha - 2.0))
            P = derive(N, alpha, beta)
            p, gamma = exact_p_gamma(N, alpha, beta)
            assert P.p == pytest.approx(float(p), rel=1e-14)
            # gamma = T^2/(N+beta) - N cancels near gamma = 0, so its error
            # is measured against the size N of the cancelling terms
            assert abs(P.gamma - float(gamma)) <= 1e-14 * max(abs(float(gamma)), N)


class TestFelliSchneider:
    @pytest.mark.parametrize("N", [5, 6, 7, 8, 9, 10])
    def test_alpha_zero_collapses(self, N):
        assert felli_schneider(N, 0.0) == -4.0

    def test_oracle_values(self):
        assert felli_schneider(5, 1.0) == pytest.approx(ORACLE["beta_fs_5_1"], rel=1e-15)
        assert felli_schneider(6, 2.0) == pytest.approx(6.0 - math.sqrt(56.0), rel=1e-15)
        assert felli_schneider(6, 2.0) == pytest.approx(ORACLE["beta_fs_6_2"], rel=1e-15)

    def test_inside_admissible_interval_for_positive_alpha(self):
        for alpha in (0.5, 1.0, 2.0, 3.0):
            bfs = felli_schneider(5, alpha)
            assert beta_lower(5, alpha) < bfs < alpha - 2.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("N", [5, 6, 9])
    def test_array_matches_scalar(self, N):
        # one evaluation over an array gives each scalar value bit for bit, on both sides of
        # alpha = 2 - N and up to the last |alpha| before ScalarOverflow, and beyond it raises
        # the scalar's error at the first alpha that overflows.  The 20000 seeded alphas catch
        # a square taken as x * x, 1 ulp off libm pow at some of them
        start = overflow_start(lambda a: felli_schneider(N, a), ScalarOverflow)
        last = math.nextafter(start, 0.0)
        alphas = np.array([0.0, -0.0, math.nextafter(2.0 - N, math.inf), 2.0 - N, last, -last,
                           *np.linspace(-12.0, 4.0, 301), *np.geomspace(1e-300, last, 60),
                           *np.random.default_rng(N).uniform(-12.0, 4.0, 20000)])
        got = felli_schneider(N, alphas)
        assert [x.hex() for x in got.tolist()] == [felli_schneider(N, a).hex()
                                                   for a in alphas.tolist()]
        for bad in (start, -start, 1e300):
            with pytest.raises(ScalarOverflow) as scalar:
                felli_schneider(N, bad)
            with pytest.raises(ScalarOverflow) as array:
                felli_schneider(N, np.append(alphas, [bad, start]))
            assert str(array.value) == str(scalar.value)


class TestClassify:
    def test_symmetry_breaking(self):
        assert derive(5, 1.0, -3.0).region is RegionClass.SYMMETRY_BREAKING

    def test_critical_neg(self):
        assert derive(5, -1.0, beta_lower(5, -1.0)).region \
            is RegionClass.CRITICAL_UPPER_ALPHA_NEG

    def test_critical_pos(self):
        assert derive(5, 1.0, beta_lower(5, 1.0)).region \
            is RegionClass.CRITICAL_UPPER_ALPHA_POS

    def test_named_zero_case(self):
        assert derive(5, 0.0, -4.0).region is RegionClass.CRITICAL_UPPER_ALPHA_ZERO

    def test_fs_curve_exact_tie(self):
        bfs = felli_schneider(5, 1.0)
        assert derive(5, 1.0, bfs).region is RegionClass.FS_CURVE
        # no tolerance band: a nudged value falls on either side
        assert derive(5, 1.0, np.nextafter(bfs, 0)).region \
            is RegionClass.CONJECTURED_SYMMETRY
        assert derive(5, 1.0, np.nextafter(bfs, -4)).region \
            is RegionClass.SYMMETRY_BREAKING

    def test_rellich_tie_wins(self):
        assert derive(5, 1.0, -1.0).region is RegionClass.RELLICH_BOUNDARY

    def test_region_of_invalid(self):
        assert region_of(4, 0.0, -4.0) is RegionClass.INVALID
        assert region_of(5, 1.0, 5.0) is RegionClass.INVALID

    def test_conjectured_region_negative_alpha(self):
        assert derive(5, -1.0, -3.5).region is RegionClass.CONJECTURED_SYMMETRY

    def test_classify_reads_the_derived_region(self):
        assert classify(derive(5, 1.0, -3.0)) is RegionClass.SYMMETRY_BREAKING
        for point in SAMPLES:
            assert classify(derive(*point)) is region_of(*point), point



class TestRellichRounding:
    """Just below beta = alpha - 2 the denominators of M and q can round to 0.
    Such points belong to the Rellich boundary; before, derive divided by
    zero there."""

    @pytest.mark.parametrize("N,alpha", [(6, 0.11055276381909548), (5, 0.5275249163611448),
                                         (5, 3.543507865762125), (5, 4.4318055139293655),
                                         (7, -2.8863034913502004), (8, 1.0)])
    def test_nextafter_sweep_below_line(self, N, alpha):
        beta = alpha - 2.0
        for _ in range(8):
            p = derive(N, alpha, beta)
            rellich = alpha - beta - 2.0 == 0.0 or 2.0 + beta - alpha == 0.0 \
                or beta == alpha - 2.0
            assert on_rellich_line(alpha, beta) == rellich
            assert p.subcritical is not rellich
            assert (p.region is RegionClass.RELLICH_BOUNDARY) == rellich
            if rellich:
                assert all(map(math.isnan, (p.m_exp, p.q_pow, p.M_dim, p.C_amp)))
                with pytest.raises(RellichBoundary):
                    second_variation_sign(p)
            else:
                assert all(map(math.isfinite, (p.m_exp, p.q_pow, p.M_dim)))
                assert second_variation_sign(p) in (-1, 0, 1)
            beta = float(np.nextafter(beta, -np.inf))

    def test_both_denominators_reach_zero(self):
        # alpha - beta - 2 rounds to 0 at the first point, 2 + beta - alpha
        # at the second; either one puts the point on the line
        a1, b1 = 0.11055276381909548, -1.8894472361809047
        a2, b2 = 4.4318055139293655, 2.431805513929365
        assert b1 < a1 - 2.0 and a1 - b1 - 2.0 == 0.0
        assert b2 < a2 - 2.0 and a2 - b2 - 2.0 != 0.0 and 2.0 + b2 - a2 == 0.0
        for N, a, b in ((6, a1, b1), (5, a2, b2)):
            assert derive(N, a, b).region is RegionClass.RELLICH_BOUNDARY
            assert region_of(N, a, b) is RegionClass.RELLICH_BOUNDARY



class TestSecondVariationGap:
    def test_arrays_match_python_floats(self):
        # NumPy's q ** 2 is q * q, which differs from CPython's pow by one ULP
        # on about 0.1 % of inputs; the array path must round like derive().
        rng = np.random.default_rng(1)
        q, M = rng.uniform(-50.0, 50.0, 20000), rng.uniform(4.0, 60.0, 20000)
        want = [x ** 2 * (7 - 1.0) - (m - 1.0) for x, m in zip(q.tolist(), M.tolist())]
        assert second_variation_gap(7, q, M).tolist() == want


class TestInvariants:
    @pytest.mark.parametrize("N,alpha,beta", SAMPLES)
    def test_kappa_relations(self, N, alpha, beta):
        p = derive(N, alpha, beta)
        assert p.p * p.kappa1 == pytest.approx(N + p.gamma, rel=1e-12)
        assert p.kappa1 + p.kappa2 == pytest.approx(N + alpha - 2.0, rel=1e-12)

    @pytest.mark.parametrize("N,alpha,beta", SAMPLES)
    def test_m_two_formulas(self, N, alpha, beta):
        p = derive(N, alpha, beta)
        if p.subcritical:
            assert p.m_exp == pytest.approx(-4.0 / (p.p - 2.0), rel=1e-12)

    @pytest.mark.parametrize("N,alpha,beta", SAMPLES)
    def test_effective_dimension(self, N, alpha, beta):
        p = derive(N, alpha, beta)
        if p.subcritical:
            assert p.M_dim > 4.0
            assert p.p == pytest.approx(2.0 * p.M_dim / (p.M_dim - 4.0), rel=1e-12)

    @pytest.mark.parametrize("N,alpha,beta", SAMPLES)
    def test_nu_from_quartic(self, N, alpha, beta):
        p = derive(N, alpha, beta)
        assert p.K2 ** 2 >= 4.0 * p.K0 * (1.0 - 1e-14)
        if p.subcritical:
            disc = math.sqrt(max(p.K2 ** 2 - 4.0 * p.K0, 0.0))
            assert p.nu ** 2 == pytest.approx((p.K2 - disc) / (2.0 * p.m_exp ** 2),
                                              rel=1e-11)

    @pytest.mark.parametrize("N,alpha,beta", SAMPLES)
    def test_constraints_positive(self, N, alpha, beta):
        p = derive(N, alpha, beta)
        assert N + beta > 0
        assert 2.0 * p.kappa1 > 0
        assert 2.0 - 1e-14 <= p.p <= 2.0 * N / (N - 4.0) + 1e-14
