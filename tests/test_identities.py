import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

import ckn
from ckn import identities, numerics
from ckn.cli import _random_profiles
from ckn.closedform import rellich_constant, rellich_constant_alt
from ckn.errors import (AlphaOutOfRange, BadGridSpec, CknError, MaxIters, ScalarOverflow,
                        TailInadequate, WeightOutOfRange)
from ckn.identities import (equivalence_bounds, equivalence_bracket, equivalence_ratio,
                            rellich_coeff_identities, verify_hardy_identity,
                            verify_iid, weighted_hardy_check, xi_sign)
from ckn.numerics import RadialProfile, trapezoid_weights, with_derivatives
from conftest import gaussian_profile, overflow_start, random_profiles


class TestWeightShiftIdentity:
    def test_gaussian_mode0(self, grid):
        lhs, rhs, rel = verify_iid(gaussian_profile(grid), 0, 5)
        assert rel < 1e-6

    def test_mode1_profile(self, grid):
        # r e^{-r^2}-type profile vanishing at the origin
        v = ckn.sample(grid, lambda r: r * np.exp(-r ** 2))
        lhs, rhs, rel = verify_iid(v, 1, 5)
        assert rel < 1e-6

    def test_zero_profile(self, grid):
        lhs, rhs, rel = verify_iid(RadialProfile(grid=grid, values=np.zeros(grid.n)), 0, 5)
        assert lhs == 0.0 and rhs == 0.0

    def test_randomized_family(self, grid):
        worst = 0.0
        for prof in random_profiles(grid, seed=42, count=20):
            for k in range(4):
                worst = max(worst, verify_iid(prof, k, 5)[2])
        assert worst < 1e-5


class TestHardyIdentity:
    def test_gaussian_mode0(self, grid):
        lhs, rhs, rel = verify_hardy_identity(gaussian_profile(grid), 0, 5)
        assert rel < 1e-6

    def test_mode2(self, grid):
        lhs, rhs, rel = verify_hardy_identity(gaussian_profile(grid, center=0.5), 2, 5)
        assert rel < 1e-6

    def test_zero_profile(self, grid):
        lhs, rhs, _ = verify_hardy_identity(
            RadialProfile(grid=grid, values=np.zeros(grid.n)), 0, 5)
        assert lhs == 0.0 and rhs == 0.0

    def test_randomized_family(self, grid):
        worst = 0.0
        for prof in random_profiles(grid, seed=7, count=20):
            for k in range(4):
                worst = max(worst, verify_hardy_identity(prof, k, 6)[2])
        assert worst < 1e-5


class TestXiSign:
    def test_zero_at_alpha_zero(self):
        xi, sign = xi_sign(5, 0.0)
        assert xi == 0.0 and sign == 0

    def test_positive_case_factorization(self):
        xi, sign = xi_sign(5, 1.0)
        assert sign == 1
        # quartic factorization valid for alpha > 0
        alpha, N = 1.0, 5
        factor = alpha * (alpha ** 3 + 4 * (N - 2) * alpha ** 2
                          + 6 * (N - 2) ** 2 * alpha + 4 * (N - 2) ** 3)
        assert factor > 0

    def test_negative_case_factorization(self):
        xi, sign = xi_sign(5, -1.0)
        assert sign == -1
        alpha, N = -1.0, 5
        factor = alpha * (alpha + N - 2) * ((alpha + N - 2) ** 2
                                            + (N - 2) * (alpha + 2 * (N - 2)))
        assert factor < 0

    def test_sweep(self):
        for alpha in np.linspace(-2.99, 3.0, 200):
            _, sign = xi_sign(5, float(alpha))
            assert sign == int(alpha > 0) - int(alpha < 0)

    def test_range(self):
        with pytest.raises(AlphaOutOfRange):
            xi_sign(5, -3.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("N", [5, 6, 9])
    def test_array_core_matches_scalar(self, N):
        # verify identities sweeps the signs in one evaluation of _xi: bit for bit xi_sign's xi,
        # from just above 2 - N, through 0, to the last alpha before ScalarOverflow, and not
        # finite (with no warning) where xi_sign raises it.  The 20000 seeded alphas catch a
        # square taken as B * B, 1 ulp off libm pow at some of them
        start = overflow_start(lambda a: xi_sign(N, a), ScalarOverflow)
        alphas = np.array([0.0, math.nextafter(2.0 - N, math.inf), *np.linspace(2 - N, 4, 301)[1:],
                           *np.geomspace(1e-300, start, 60), math.nextafter(start, 0.0), 1e300,
                           *np.random.default_rng(N).uniform(2 - N, 4, 20000)])
        for a, xi in zip(alphas.tolist(), identities._xi(N, alphas).tolist()):
            try:
                want = xi_sign(N, a)[0]
            except ScalarOverflow:
                assert a >= start and not math.isfinite(xi)
            else:
                assert a < start and xi.hex() == want.hex()


class TestRellichCoeffIdentities:
    @pytest.mark.parametrize("N,alpha", [(5, -1.0), (6, -2.0), (5, -2.0),
                                         (5, -2.5), (6, -1.0)])
    def test_both_identities(self, N, alpha):
        lhs1, rhs1, lhs2, rhs2 = rellich_coeff_identities(N, alpha)
        assert lhs1 == pytest.approx(rhs1, rel=1e-10)
        assert lhs2 == pytest.approx(rhs2, rel=1e-10)

    def test_vanish_as_alpha_to_zero(self):
        vals = rellich_coeff_identities(5, -1e-8)
        assert max(abs(v) for v in vals) < 1e-6

    def test_mu_value(self):
        # alpha = -1 at N = 5 corresponds to mu = 1/3
        N, alpha = 5, -1.0
        assert -(N - 4.0) * alpha / (N - 2.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_range(self):
        with pytest.raises(AlphaOutOfRange):
            rellich_coeff_identities(5, 0.5)


class TestTwoClosedFormsAgree:
    @pytest.mark.parametrize("N", [5, 6])
    def test_sweep(self, N):
        # S1 = S2 because N^2 + (N-4)^2 = 2(N^2 - 4N + 8)
        assert N ** 2 + (N - 4) ** 2 == 2 * (N ** 2 - 4 * N + 8)
        for alpha in np.linspace(2 - N + 1e-3, 4.0, 50):
            s1 = rellich_constant(N, float(alpha))
            s2 = rellich_constant_alt(N, float(alpha))
            assert s2 == pytest.approx(s1, rel=1e-10, abs=1e-12)


class TestModeBatch:
    """A sequence of modes gives the list of the one-mode results, bit for bit."""

    KS = (0, 1, 2, 3)

    @pytest.mark.parametrize("N", [5, 6, 7, 8])
    def test_iid_and_hardy(self, grid, N):
        for prof in random_profiles(grid, seed=N, count=4):
            assert verify_iid(prof, self.KS, N) == [verify_iid(prof, k, N) for k in self.KS]
            assert (verify_hardy_identity(prof, self.KS, N)
                    == [verify_hardy_identity(prof, k, N) for k in self.KS])

    @pytest.mark.parametrize("N,alpha,beta", [(5, -1.0, -3.5), (6, 1.0, -2.5),
                                              (7, -2.0, -5.0), (8, -3.0, -5.5)])
    def test_equivalence(self, grid, N, alpha, beta):
        p = ckn.derive(N, alpha, beta)
        for prof in random_profiles(grid, seed=N, count=4):
            assert (equivalence_ratio(prof, self.KS, p)
                    == [equivalence_ratio(prof, k, p) for k in self.KS])

    @pytest.mark.parametrize("N", [5, 6, 7, 8])
    def test_one_mode_matches_per_mode_formulas(self, monkeypatch, N):
        # each identity written out for one mode with plain trapezoid sums; the library sums
        # each bracket square as three weighted sums, so each integral may differ by rounding
        # (1.8e-15 relative at worst, measured), and the Hardy rhs relative to int |integrand|.
        # Only the sums are compared: the tail rule is off, as the +-8 grid cuts the profiles
        monkeypatch.setattr(numerics, "TAIL_TOL", math.inf)
        for spec in ((-14.0, 14.0, 4001), (-30.0, 30.0, 8001), (-8.0, 8.0, 2001)):
            self.one_mode_matches_per_mode_formulas(ckn.make_grid(*spec), N)

    @staticmethod
    def one_mode_matches_per_mode_formulas(grid, N):
        def trapezoid(samples, w):
            return float(np.sum(trapezoid_weights(grid.n, grid.h)
                                * (samples * np.exp((w + 1.0) * grid.ts))))

        def bracket(prof, coeff, lam):
            p = with_derivatives(prof)
            return p.d2 + coeff * p.d1 - lam * p.values

        def close(got, want, scale=None):
            return abs(got - want) <= 1e-14 * abs(want if scale is None else scale)

        p = ckn.derive(N, -1.0, -3.5 - (N - 5) / 4.0)
        r2 = np.exp(-2.0 * grid.ts)
        for prof in random_profiles(grid, seed=N, count=3):
            d = with_derivatives(prof)
            v, v1, v2 = d.values, d.d1, d.d2      # u = r^-2 v: u' and u'' by the product rule
            u = RadialProfile(grid, r2 * v, r2 * (v1 - 2.0 * v), r2 * (v2 - 4.0 * v1 + 4.0 * v))
            for k in range(12):
                lam = float(k * (N - 2 + k))
                lhs, rhs, rel = verify_iid(prof, k, N)
                want_l = trapezoid(bracket(u, N - 2.0, lam) ** 2, N - 1.0)
                want_r = trapezoid(bracket(prof, N - 2.0, lam) ** 2, N - 5.0)
                assert close(lhs, want_l) and close(rhs, want_r)
                assert abs(rel - abs(want_l - want_r) / max(want_l, want_r)) <= 2e-14
                lhs, rhs, rel = verify_hardy_identity(prof, k, N)
                cross = bracket(prof, N - 2.0, lam) * d.d1
                assert close(lhs, (N - 2.0) * trapezoid(d.d1 ** 2 + lam * d.values ** 2, N - 3.0))
                assert close(rhs, 2.0 * trapezoid(cross, N - 3.0),
                             2.0 * trapezoid(abs(cross), N - 3.0))
                w = 2.0 * p.kappa1 - 1.0
                want = (trapezoid(bracket(prof, N - 2.0, lam) ** 2, w)
                        / trapezoid(bracket(prof, N + p.alpha - 2.0, lam) ** 2, w))
                assert abs(equivalence_ratio(prof, k, p) - want) <= 2e-14 * want

    @pytest.mark.parametrize("k", [KS, 2])
    def test_profile_sequence(self, grid, k):
        # a sequence of profiles gives the one-profile results in turn, bit for bit
        profs = list(random_profiles(grid, seed=11, count=5))
        p = ckn.derive(6, -1.0, -4.0)
        for fn, arg in ((verify_iid, 6), (verify_hardy_identity, 6), (equivalence_ratio, p)):
            want = [fn(prof, k, arg) for prof in profs]
            assert list(fn(profs, k, arg)) == (want if k == 2 else [r for w in want for r in w])
            assert list(fn(iter(profs), k, arg)) == list(fn(profs, k, arg))
        assert list(verify_iid([], self.KS, 5)) == []

    def test_profile_sequence_on_two_grids(self, grid):
        other = ckn.make_grid(-12.0, 12.0, grid.n)
        with pytest.raises(BadGridSpec, match="one grid"):
            verify_iid([gaussian_profile(grid), gaussian_profile(other)], 0, 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300])
    def test_non_finite_profile(self, grid, bad):
        # 1e300 is finite, but its squares overflow
        prof = gaussian_profile(grid)
        prof.values[grid.n // 2] = bad
        p = ckn.derive(5, -1.0, -3.5)
        for call, what in ((lambda: verify_iid(prof, self.KS, 5), "verify_iid lhs"),
                           (lambda: verify_hardy_identity(prof, 1, 5), "verify_hardy lhs"),
                           (lambda: list(verify_hardy_identity([prof], 1, 5)), "verify_hardy lhs"),
                           (lambda: equivalence_ratio(prof, self.KS, p),
                            "equivalence_ratio numerator"),
                           (lambda: weighted_hardy_check(prof, 0, 5, 0.0), "weighted_hardy lhs")):
            # inf - inf (NaN) or an overflow in the brackets and sums: the tail rule's typed
            # error, and no RuntimeWarning (an error under this suite's warning filter)
            with pytest.raises(TailInadequate, match=f"^{what}: the integral is not finite"):
                call()

    def test_grid_powers_per_call_not_per_profile(self, grid, monkeypatch):
        calls = []

        def counted(*args, _fn=numerics.grid_power):
            calls.append(args[2])
            return _fn(*args)
        monkeypatch.setattr(numerics, "grid_power", counted)
        p = ckn.derive(5, -1.0, -3.5)
        counts = []
        for count in (1, 20):
            profs = list(random_profiles(grid, seed=3, count=count))
            calls.clear()
            list(zip(verify_iid(profs, self.KS, 5), verify_hardy_identity(profs, self.KS, 5)))
            list(equivalence_ratio(profs, self.KS, p))
            counts.append(len(calls))
        assert counts == [3, 3]

    def test_one_mode_shapes(self, grid):
        prof = gaussian_profile(grid)
        assert isinstance(verify_iid(prof, 1, 5), tuple)
        assert verify_iid(prof, [1], 5) == [verify_iid(prof, 1, 5)]
        assert verify_hardy_identity(prof, (), 5) == []
        assert isinstance(equivalence_ratio(prof, 2, ckn.derive(5, -1.0, -3.5)), float)


class TestEquivalenceRatio:
    def test_zero_profile_has_no_energy(self, grid):
        zero = RadialProfile(grid=grid, values=np.zeros(grid.n))
        with pytest.raises(CknError, match="zero denominator: profile has no energy"):
            equivalence_ratio(zero, 1, ckn.derive(5, -1.0, -3.5))

    def test_identity_at_alpha_zero(self, grid):
        p = ckn.derive(5, 0.0, -3.0)
        for prof in random_profiles(grid, seed=3, count=5):
            assert equivalence_ratio(prof, 0, p) == 1.0

    @pytest.mark.parametrize("N,alpha,beta", [(5, 1.0, -2.0), (5, -1.0, -4.0)])
    def test_family_inside_bracket(self, N, alpha, beta, grid):
        p = ckn.derive(N, alpha, beta)
        c = equivalence_bracket(p)
        assert c > 1.0
        for prof in random_profiles(grid, seed=42, count=20):
            for k in range(4):
                ratio = equivalence_ratio(prof, k, p)
                assert 1.0 / c <= ratio <= c

    def test_invariance_under_scaling_and_shift(self, p512, grid):
        base = gaussian_profile(grid, center=0.0, width=1.0)
        r0 = equivalence_ratio(base, 0, p512)
        scaled = RadialProfile(grid=grid, values=3.7 * base.values)
        assert equivalence_ratio(scaled, 0, p512) == pytest.approx(r0, rel=1e-12)
        # dilation by a whole number of grid cells is an exact sample shift
        shift = 50
        rolled = RadialProfile(grid=grid, values=np.roll(base.values, shift))
        assert equivalence_ratio(rolled, 0, p512) == pytest.approx(r0, rel=1e-9)


def symbol_coeffs(P, k):
    """[p1, q1, p2, q2]: |P_c(i xi - kappa1)|^2 = y^2 + p_c y + q_c in y = xi^2, for
    P_c(z) = z^2 + c z - lambda_k with c = N - 2 (1) and c = N + alpha - 2 (2)."""
    out = []
    for c in (P.N - 2.0, P.N + P.alpha - 2.0):
        a = P.kappa1 ** 2 - c * P.kappa1 - k * (P.N - 2 + k)
        out += [(c - 2.0 * P.kappa1) ** 2 - 2.0 * a, a * a]
    return out


def dense_scan_bounds(P, kmax=60):
    """(lo, hi) of the symbol ratio by a dense y-scan over the modes k < kmax (and the
    limit 1 at y -> inf), each extreme refined by a bounded Brent search between the
    neighbours of its best node."""
    y = np.concatenate([[0.0], np.logspace(-8.0, 12.0, 20001)])
    p1, q1, p2, q2 = np.array([symbol_coeffs(P, k) for k in range(kmax)]).T[:, :, None]
    ratios = (y * y + p1 * y + q1) / (y * y + p2 * y + q2)
    ends = []
    for sign in (1.0, -1.0):
        k, i = np.unravel_index(np.argmin(sign * ratios), ratios.shape)

        def f(v, k=k):
            return sign * (v * v + p1[k, 0] * v + q1[k, 0]) / (v * v + p2[k, 0] * v + q2[k, 0])
        best = f(y[i])
        if 0 < i < len(y) - 1:
            best = min(best, minimize_scalar(f, bounds=(y[i - 1], y[i + 1]), method="bounded").fun)
        ends.append(sign * best)
    return min(ends[0], 1.0), max(ends[1], 1.0)


def mode_scan_bounds(P, kmax=600):
    """(lo, hi) from the stationary points of every mode k < kmax, with no stop rule:
    y = 0 and the real roots y > 0 of (p2-p1) y^2 + 2 (q2-q1) y + p1 q2 - p2 q1."""
    lo = hi = 1.0
    for k in range(kmax):
        p1, q1, p2, q2 = symbol_coeffs(P, k)
        roots = np.roots([p2 - p1, 2.0 * (q2 - q1), p1 * q2 - p2 * q1])
        ys = [0.0] + [r.real for r in roots if r.imag == 0.0 and r.real > 0.0]
        rs = [(v * v + p1 * v + q1) / (v * v + p2 * v + q2) for v in ys]
        lo, hi = min(lo, *rs), max(hi, *rs)
    return lo, hi


def sweep_point(N, kind, u, frac):
    """An admissible point: alpha < 0, 0 < alpha <= 5 or |alpha| <= 1e-3 by kind, beta a
    fraction frac of the way from beta_lower to the Rellich line (both ends included)."""
    alpha = {"neg": -(N - 2.0) * 0.999 * u, "pos": 5.0 * u, "tiny": 1e-3 * (2.0 * u - 1.0)}[kind]
    lo = ckn.beta_lower(N, alpha)
    return ckn.derive(N, alpha, alpha - 2.0 if frac == 1.0 else lo + frac * (alpha - 2.0 - lo))


SWEEP = (st.integers(5, 10), st.sampled_from(("neg", "pos", "tiny")), st.floats(0.001, 1.0),
         st.floats(0.0, 1.0))


class TestEquivalenceBounds:
    # (point, bracket of the two proof branches it replaces, sharp bracket max(hi, 1/lo))
    BRACKETS = [((5, 1.0, -2.0), 10.0, 9.0), ((6, 2.0, -2.5), 99.0, 49.0),
                ((8, 3.0, -1.9), 4804.000000000035, 3721.0),
                ((5, -1.0, -3.5), 5.555555555555555, 49.0 / 9.0), ((7, -2.0, -5.0), 9.0, 9.0),
                ((5, -1.0, -4.0), 10.0, 9.0), ((6, -1.0, -4.0), 4.0, 4.0)]

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(*SWEEP)
    def test_meets_the_dense_scan(self, N, kind, u, frac):
        P = sweep_point(N, kind, u, frac)
        lo, hi = equivalence_bounds(P)
        ref_lo, ref_hi = dense_scan_bounds(P)
        assert lo == pytest.approx(ref_lo, rel=1e-12)
        assert hi == pytest.approx(ref_hi, rel=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(*SWEEP)
    def test_stop_rule_matches_a_600_mode_scan(self, N, kind, u, frac):
        P = sweep_point(N, kind, u, frac)
        assert equivalence_bounds(P) == pytest.approx(mode_scan_bounds(P), rel=1e-12)

    @pytest.mark.parametrize("point", [(7, 3.0, -1.95), (11, 7.0, 2.0)])
    def test_no_stop_while_minus_a2_is_below_kappa1_squared(self, point):
        # the d-bound falls inside [lo, hi] at a mode with -A_2 < kappa1^2, where it bounds
        # nothing, and the least ratio sits at a later mode
        P = ckn.derive(*point)
        assert equivalence_bounds(P) == pytest.approx(mode_scan_bounds(P), rel=1e-12)

    @pytest.mark.parametrize("N,alpha,beta", [(5, 2.0, -3.0), (5, 1.5, -3.5), (6, 5.0, -1.0)])
    def test_linear_case(self, N, alpha, beta):
        # N - alpha + beta = 0: p1 = p2, and the stationary points solve a linear equation
        P = ckn.derive(N, alpha, beta)
        assert equivalence_bounds(P) == pytest.approx(dense_scan_bounds(P), rel=1e-12)

    @pytest.mark.parametrize("point,before,sharp", BRACKETS)
    def test_pinned_brackets(self, point, before, sharp):
        c = equivalence_bracket(ckn.derive(*point))
        assert c <= before
        assert c == pytest.approx(sharp, rel=1e-12)

    def test_degenerate_numerator(self):
        # kappa1 = N - 2 + k at k = 5: r^{-kappa1} Psi_5 is harmonic, so lo = 0
        P = ckn.derive(5, 10.0, 5.0)
        assert equivalence_bounds(P)[0] == 0.0
        assert equivalence_bracket(P) == math.inf

    @pytest.mark.parametrize("N,alpha,beta", [(5, 1.0, -2.0), (5, -1.0, -4.0), (5, 0.5, -3.0)])
    def test_cli_profiles_inside(self, grid, N, alpha, beta):
        P = ckn.derive(N, alpha, beta)
        lo, hi = equivalence_bounds(P)
        for prof in _random_profiles(grid, 42, 20, P.kappa1):
            for r in equivalence_ratio(prof, range(4), P):
                assert lo <= r <= hi

    def test_alpha_zero(self):
        for N, beta in ((5, -3.0), (7, -4.0)):
            assert equivalence_bounds(ckn.derive(N, 0.0, beta)) == (1.0, 1.0)

    def test_mode_budget(self):
        # the scan ends near k = |alpha|: alpha = 1e6 would need about 9e5 modes
        with pytest.raises(MaxIters):
            equivalence_bounds(ckn.derive(5, 1e6, 5e5))


class TestWeightedHardy:
    def test_classical_profile(self, grid):
        u = ckn.sample(grid, lambda r: (1.0 + r ** 2) ** (-(5 - 2) / 2.0))
        lhs, rhs = weighted_hardy_check(u, 0, 5, 0.0)
        assert 0 < lhs < rhs

    def test_near_extremal_ratio(self):
        # u = r^{-(N-2a-2)/2 + delta} with a wide smooth cutoff pushes the
        # ratio toward 1 from below as delta -> 0
        from ckn.closedform import _cutoff

        # deep enough for the eps-weighted mass, shallow enough that the
        # r^{sigma} samples stay inside float range, and with headroom above
        # the cutoff ramp so the tail diagnostic window is empty
        g = ckn.make_grid(-230.0, 20.0, 4001)
        N, a_w = 5, 0.0
        ratios = []
        for delta in (0.2, 0.1, 0.05):
            sigma = -(N - 2 * a_w - 2) / 2.0 + delta
            cut, _, _ = _cutoff(g.ts)
            u = RadialProfile(grid=g, values=np.exp(sigma * g.ts) * cut)
            lhs, rhs = weighted_hardy_check(u, 0, N, a_w)
            ratios.append(lhs / rhs)
        assert all(r < 1.0 for r in ratios)
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] > 0.9

    def test_zero(self, grid):
        lhs, rhs = weighted_hardy_check(
            RadialProfile(grid=grid, values=np.zeros(grid.n)), 0, 5, 0.0)
        assert lhs == 0.0 and rhs == 0.0

    def test_weight_range(self, grid):
        with pytest.raises(WeightOutOfRange):
            weighted_hardy_check(gaussian_profile(grid), 0, 5, 1.5)
