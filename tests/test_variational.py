import itertools
import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ckn
from ckn import _forms, variational
from ckn.closedform import (ExtremalSpec, extremal_u, linearized_degree, omega_sphere,
                            radial_constant_sr)
from ckn.errors import (AmplitudeTooLarge, BadGridSpec, CknError, MaxIters, RellichBoundary,
                        TailInadequate)
from ckn.numerics import RadialProfile, trapezoid_weights
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

    @pytest.mark.parametrize("N", range(5, 41))
    def test_multiplicity_is_the_factorial_formula(self, N):
        # (N + 2k - 2) (N + k - 3)! / ((N - 2)! k!), the formula the binomial one replaced
        P = ckn.derive(N, 1.0, -3.0)
        for k in range(7):
            want = (N + 2 * k - 2) * math.factorial(N + k - 3) // (
                math.factorial(N - 2) * math.factorial(k))
            assert make_mode(P, k).multiplicity == want

    def test_multiplicity_at_a_billion_dimensions(self):
        # dim H_k = C(N+k-1, k) - C(N+k-3, k-2), exact in integers; the factorials of N + k - 3
        # took 17 s at N = 10^6
        N = 10 ** 9
        P = ckn.derive(N, 1.0, -3.0)
        for k in range(7):
            want = math.comb(N + k - 1, k) - (math.comb(N + k - 3, k - 2) if k >= 2 else 0)
            assert make_mode(P, k).multiplicity == want

    def test_mode_comparison_inequality(self):
        # q^2 lambda_k = l_k (l_k + M - 2) against the integer degree's k (k + M - 2): l_1 = 1
        # exactly on the Felli-Schneider curve, above 1 over it and below 1 under it
        bfs = ckn.felli_schneider(5, 1.0)
        pf = ckn.derive(5, 1.0, bfs)
        l1 = linearized_degree(pf, 1)
        assert make_mode(pf, 1).q2lambda_k == pytest.approx(l1 * (l1 + pf.M_dim - 2.0), rel=1e-14)
        assert l1 == pytest.approx(1.0, abs=1e-12)
        for k in (2, 3):
            assert linearized_degree(pf, k) > k
        assert linearized_degree(ckn.derive(5, 1.0, -2.0), 1) > 1.0
        assert linearized_degree(ckn.derive(5, 1.0, -3.0), 1) < 1.0

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


def scaled_gaussian(params, grid):
    """The README's initial profile, e^{-t^2 - kappa1 t}."""
    return RadialProfile(grid=grid, values=np.exp(-grid.ts ** 2 - params.kappa1 * grid.ts))


def count_solves(monkeypatch) -> list:
    """Count the Cholesky solves of every solver built from now on; returns the tally."""
    solves, cholesky_solver = [], _forms.cholesky_solver

    def counted_solver(*args):
        solve = cholesky_solver(*args)
        return lambda rhs: solves.append(1) or solve(rhs)

    monkeypatch.setattr(_forms, "cholesky_solver", counted_solver)
    return solves


def plain_minimize(params, init, tol=1e-10, max_iters=2000):
    """Reference: minimize_radial's loop without the Anderson(1) step, the plain nonlinear
    inverse power iteration (Hein & Buehler, NIPS 2010) it ran before.  (value, solves)."""
    grid, keep = init.grid, _forms.keep_indices(init.grid.n)
    w_full = trapezoid_weights(grid.n, grid.h)
    w, p = w_full[keep], params.p
    solve = _forms.cholesky_solver(_forms.energy_band(params, 0.0, grid), "reference")
    apply_b0 = _forms.mode_applier(params, 0.0, grid)

    def normalized(x):
        x = x / float(np.sum(w * np.abs(x) ** p)) ** (1.0 / p)
        return x, float(w_full @ apply_b0(np.pad(x, _forms.N_CLAMP)) ** 2)

    phi, value = normalized(_forms.to_scaled(params, grid, init.values)[keep])
    for solves in range(1, max_iters + 1):
        trial, trial_value = normalized(solve(w * np.abs(phi) ** (p - 2.0) * phi))
        drop = value - trial_value
        if drop > 0:
            phi, value = trial, trial_value
        if drop <= tol * value:
            return omega_sphere(params.N) ** (1.0 - 2.0 / p) * value, solves
    raise MaxIters(f"reference: no stationary point within {max_iters} solves")


README_POINTS = [(5, 1.0, -3.0), (5, 1.0, -2.0), (7, 2.0, -2.5), (8, 3.0, -1.9), (6, -1.0, -4.0)]
TARGETS = [((5, 1.0, -2.0), "S_r_5_1_-2"), ((5, 1.0, -3.0), "S_r_5_1_-3"),
           ((6, 0.5, -2.5), "S_r_6_05_-25")]
# the default grid (n = 4001) keeps the ids these cases had before n was a
# parameter
GAUSSIAN_SEEDS = [pytest.param(point, key, n, id=f"point{i}-{key}" + (f"-{n}" if n != 4001 else ""))
                  for n in (4001, 8001) for i, (point, key) in enumerate(TARGETS)]


class TestMinimizeRadial:
    @pytest.mark.parametrize("point,key,n", GAUSSIAN_SEEDS)
    def test_gaussian_seed_converges(self, point, key, n):
        N, alpha, beta = point
        P = ckn.derive(N, alpha, beta)
        grid = ckn.make_grid(n=n)
        init = RadialProfile(grid=grid,
                             values=np.exp(-grid.ts ** 2 - P.kappa1 * grid.ts))
        value, profile = minimize_radial(P, init, max_iters=2000)
        target = ORACLE[key]
        assert abs(value - target) / target < 1e-9
        # returned profile reproduces the value through the public quotient
        # (the clamped forms inside the minimizer vs radial_energy and integrate here)
        assert quotient(profile, P) == pytest.approx(value, rel=1e-6)

    def test_far_apart_bumps(self, grid):
        # two bumps of phi six apart in t: each step is one solve, so the
        # value reaches S_r well within 50 of them
        P = ckn.derive(7, 1.5, -2.0)
        t = grid.ts
        phi = np.exp(-(t - 3.0) ** 2) + np.exp(-(t + 3.0) ** 2)
        init = RadialProfile(grid=grid, values=phi * np.exp(-P.kappa1 * t))
        value, _ = minimize_radial(P, init, max_iters=50)
        target = radial_constant_sr(P)
        assert abs(value - target) / target < 1e-8

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

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_bad_init_raises(self, p512, grid, bad):
        # all zero, or one NaN or inf sample: a typed error before any solve
        values = np.zeros(grid.n) if bad == 0.0 else gaussian_profile(grid).values.copy()
        values[grid.n // 2] = bad
        with pytest.raises(CknError, match="finite and nonzero"):
            minimize_radial(p512, RadialProfile(grid=grid, values=values))

    def test_value_pinned_bit_for_bit(self, p513, grid):
        # x86-64, numpy 2.4.  The plain inverse power iteration returned
        # 0x1.bb60649572d9fp+7, 1.6e-12 above the tol=0 minimum 0x1.bb6064956fb8ep+7;
        # with the Anderson(1) step the value sits 1.5e-13 above it.  The reference
        # plain_minimize reproduces the old value
        init = scaled_gaussian(p513, grid)
        value, _ = minimize_radial(p513, init)
        assert value == float.fromhex("0x1.bb60649570000p+7")
        assert plain_minimize(p513, init)[0] == float.fromhex("0x1.bb60649572d9fp+7")

    def test_mode_rows_not_rebuilt_per_solve(self, p513, grid, monkeypatch):
        # B_0's rows are built once for the energy form's band and once for
        # the applier that every solve reuses, not once per solve
        rows, mode_rows = [], _forms._mode_rows
        monkeypatch.setattr(_forms, "_mode_rows",
                            lambda *args: rows.append(1) or mode_rows(*args))
        solves = count_solves(monkeypatch)
        minimize_radial(p513, gaussian_profile(grid))
        assert len(solves) >= 5
        assert len(rows) == 2

    @pytest.mark.parametrize("half,n", [(1e-100, 4001), (1e-150, 4001), (1e-150, 9)])
    def test_narrow_grid_raises_before_any_solve(self, p513, half, n, monkeypatch):
        # the energy form grows as h^-3 and overflows below h = 1e-103: BadGridSpec with no
        # warning, where scipy's finiteness scan raised a ValueError after an overflow
        factored = []
        monkeypatch.setattr(_forms, "cholesky_solver", lambda *args: factored.append(1))
        grid = ckn.make_grid(-half, half, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadGridSpec, match="energy form overflows"):
                minimize_radial(p513, scaled_gaussian(p513, grid))
        assert not factored

    def test_underflowing_step_raises_before_any_solve(self, p513, monkeypatch):
        # h = 2.5e-301, where h**2 underflows to 0: the difference weights went inf and nan
        # with a divide-by-zero RuntimeWarning, a traceback under the warning filter
        factored = []
        monkeypatch.setattr(_forms, "cholesky_solver", lambda *args: factored.append(1))
        grid = ckn.make_grid(-1e-300, 1e-300, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadGridSpec, match="stencil weights overflow"):
                minimize_radial(p513, scaled_gaussian(p513, grid))
        assert not factored

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_max_iters_below_one(self, p513, grid, monkeypatch, max_iters):
        # a typed error before the energy form is factored
        factored = []
        monkeypatch.setattr(_forms, "cholesky_solver", lambda *args: factored.append(1))
        with pytest.raises(CknError, match="max_iters") as info:
            minimize_radial(p513, gaussian_profile(grid), max_iters=max_iters)
        assert not isinstance(info.value, MaxIters)
        assert not factored

    def test_max_iters_counts_solves(self, p513, grid, monkeypatch):
        solves = count_solves(monkeypatch)
        with pytest.raises(MaxIters):
            minimize_radial(p513, scaled_gaussian(p513, grid), max_iters=3)
        assert len(solves) == 3

    @pytest.mark.parametrize("point", README_POINTS)
    def test_closer_to_converged_minimum_than_plain(self, grid, point):
        # the fully converged discrete minimum (tol=0) is the reference: the value
        # lies no farther from it than the plain iteration's (measured: gaps of
        # 9e-12 or less, against 1.6e-12 to 1.2e-11 for the plain iteration)
        P = ckn.derive(*point)
        init = scaled_gaussian(P, grid)
        converged, _ = minimize_radial(P, init, tol=0.0)
        value, _ = minimize_radial(P, init)
        plain, _ = plain_minimize(P, init)
        assert abs(value - converged) <= abs(plain - converged)
        assert abs(value - converged) <= 1e-10 * converged

    def test_fewer_solves_than_plain(self, grid, monkeypatch):
        # measured: 7, 5 and 7 solves against the plain iteration's 11, 12 and 14
        params = [ckn.derive(5, 1.0, -3.0), ckn.derive(7, 2.0, -2.5), ckn.derive(8, 3.0, -1.9)]
        inits = [(P, scaled_gaussian(P, grid)) for P in params]
        plain = [plain_minimize(P, init)[1] for P, init in inits]
        solves = count_solves(monkeypatch)
        counts = []
        for P, init in inits:
            solves.clear()
            minimize_radial(P, init)
            counts.append(len(solves))
        assert all(c < b for c, b in zip(counts, plain)), (counts, plain)
        assert sum(counts) <= 0.6 * sum(plain), (counts, plain)

    def test_largest_tol_meets_the_stated_accuracy(self, grid):
        # tol = 1e-6, the largest allowed, lands within 0.5 % of S_r from two bumps at
        # (6, 1.2, -3.1) (measured: 2.4e-10), where tol = 1e-2 stopped 51 % above it
        P = ckn.derive(6, 1.2, -3.1)
        phi = np.exp(-(grid.ts + 2.0) ** 2) + np.exp(-(grid.ts - 2.0) ** 2)
        init = RadialProfile(grid=grid, values=phi * np.exp(-P.kappa1 * grid.ts))
        value, _ = minimize_radial(P, init, tol=1e-6)
        assert value == pytest.approx(radial_constant_sr(P), rel=1e-9)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.integers(6, 8), st.floats(0.5, 3.0), st.sampled_from(("sb", "cs")),
           st.floats(0.15, 0.85),
           st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 2.0), st.floats(0.3, 2.0)),
                    min_size=2, max_size=4))
    def test_certify_class_starts(self, grid, N, alpha, cls, frac, bumps):
        # the benchmark's certify inputs: sums of 2-4 Gaussian bumps in t at symmetry-breaking
        # and conjectured-symmetry points.  Never more solves than the plain iteration, and
        # within tol = 1e-10 of the tol=0 minimum (measured worst: 4.3e-11, plain 7.3e-11).
        # The value may end above the plain iteration's (14 of 480 measured starts).
        lo, fs = ckn.beta_lower(N, alpha), ckn.felli_schneider(N, alpha)
        top = min(alpha - 2.1, (N + 4.0 * alpha - 8.0 - 1.5 * N) / 4.5)    # p - 1 >= 1.5
        P = ckn.derive(N, alpha, lo + frac * (fs - lo) if cls == "sb" else fs + frac * (top - fs))
        t = grid.ts
        phi = sum(amp * np.exp(-((t - c) / w) ** 2) for c, w, amp in bumps)
        init = RadialProfile(grid=grid, values=phi * np.exp(-P.kappa1 * t))
        converged, _ = minimize_radial(P, init, tol=0.0)
        _, plain_solves = plain_minimize(P, init)
        with pytest.MonkeyPatch.context() as m:
            solves = count_solves(m)
            value, _ = minimize_radial(P, init)
        assert len(solves) <= plain_solves
        assert abs(value - converged) <= 1e-10 * converged


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

    def test_one_extremal_evaluation_per_call(self, p513, grid, monkeypatch):
        # the shape of U is evaluated once and its energy taken from it.  The pin
        # (x86-64, numpy 2.4) moved from 0x1.bb1984bedfcc5p+7, the value of the
        # quotient in r with the amplitude C_amp, by 4.2e-13 relative when the
        # quotient moved to t = ln r and the amplitude-free extremal_shape, then from
        # 0x1.bb1984bedf01ap+7 by 6.4e-16 relative when the sphere integral moved from
        # 64 Gauss-Legendre nodes in theta to 16 Gauss-Gegenbauer nodes in cos theta, then
        # from 0x1.bb1984bedf01fp+7 by 2 ulp (2.6e-16 relative) when Z1 moved to the one
        # exponential per sample of closedform's family kernel, which moves its samples on
        # this grid by up to 1e-14 relative, then from 0x1.bb1984bedf01dp+7 by 6.5e-14
        # relative, towards the r-space value, when extremal_shape took ln cosh z as
        # log1p(sinh^2 z)/2 below z = 0.5, where the sum of terms of size ln 2 cancelled,
        # then from 0x1.bb1984bedf219p+7 by 7.4e-15 relative, again towards it, when ln cosh
        # became that one expression up to z = 20 (7.3e-15) and the denominator a trapezoid
        # sum in place of Simpson's (1 ulp)
        calls, shape = [], variational.extremal_shape
        monkeypatch.setattr(variational, "extremal_shape",
                            lambda *args: calls.append(1) or shape(*args))
        z1 = ckn.sample(grid, lambda r: ckn.linearized_mode(p513, 1, r))
        val = perturbed_quotient(p513, 0.05, make_mode(p513, 1), z1)
        assert len(calls) == 1
        assert val == float.fromhex("0x1.bb1984bedf253p+7")
        assert val == pytest.approx(float.fromhex("0x1.bb1984bedfcc5p+7"), rel=1e-12)

    def test_gauss_rule_computed_once(self, p513, grid):
        # along Z1 the sphere mean is the series and builds no Gauss rule; a kinked direction
        # builds the 64-point one once, then reads it from the cache
        variational._gauss_sphere.cache_clear()
        z1 = ckn.sample(grid, lambda r: ckn.linearized_mode(p513, 1, r))
        kinked = gaussian_profile(grid, center=1.0, width=0.8)
        for direction in (z1, z1, kinked, kinked):
            perturbed_quotient(p513, 0.2, make_mode(p513, 1), direction)
        info = variational._gauss_sphere.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        nodes, weights = variational._gauss_sphere(p513.N, 64)
        assert variational._gauss_sphere.cache_info()[:2] == (2, 1)
        assert not (nodes.flags.writeable or weights.flags.writeable)

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

    @pytest.mark.parametrize("t_amp", [math.nan, -math.nan, math.inf])
    def test_non_finite_amplitude_raises(self, p512, grid, t_amp):
        z1 = ckn.sample(grid, lambda r: ckn.linearized_mode(p512, 1, r))
        with pytest.raises(AmplitudeTooLarge):
            perturbed_quotient(p512, t_amp, make_mode(p512, 1), z1)

    @pytest.mark.parametrize("k", [0, 1])
    def test_sphere_integrand_built_in_place(self, p513, grid, k):
        # the sphere mean along Z1 is one row of n: the peak is that of the energy forms,
        # about 7 arrays of n floats (measured: 7.05), where 16 Gauss rows took 19
        z1 = ckn.sample(grid, lambda r: ckn.linearized_mode(p513, 1, r))
        perturbed_quotient(p513, 0.05, make_mode(p513, k), z1)    # warm the caches
        tracemalloc.start()
        try:
            perturbed_quotient(p513, 0.05, make_mode(p513, k), z1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * grid.n * 8

    @pytest.mark.parametrize("fill", [0.0, math.nan, math.inf])
    def test_zero_or_non_finite_direction(self, p513, grid, fill):
        # a zero direction used to raise ValueError, a non-finite one RuntimeWarnings
        # and then TailInadequate
        direction = RadialProfile(grid=grid, values=np.full(grid.n, fill))
        with pytest.raises(CknError, match="finite and nonzero"):
            perturbed_quotient(p513, 0.05, make_mode(p513, 1), direction)

    def test_mode_cap(self, p512, grid):
        z1 = ckn.sample(grid, lambda r: ckn.linearized_mode(p512, 1, r))
        with pytest.raises(ValueError):
            perturbed_quotient(p512, 0.05, make_mode(p512, 2), z1)


class TestGaussSphere:
    @staticmethod
    def reference(N, count):
        from scipy.special import roots_gegenbauer     # test-only: slow to import
        return roots_gegenbauer(count, (N - 2) / 2.0)

    @pytest.mark.parametrize("count", [16, 64])
    @pytest.mark.parametrize("N", [5, 6, 7, 8])
    def test_matches_scipy(self, N, count):
        nodes, weights = variational._gauss_sphere(N, count)
        want_nodes, want_weights = self.reference(N, count)
        np.testing.assert_allclose(nodes, want_nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(weights, want_weights, rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize("N", [5, 6, 7, 8])
    def test_even_moments(self, N):
        # int_0^pi cos^{2j} sin^{N-2} = B(j + 1/2, (N-1)/2), exact up to degree 31
        nodes, weights = variational._gauss_sphere(N, 16)
        for j in range(16):
            b = math.exp(math.lgamma(j + 0.5) + math.lgamma((N - 1) / 2.0)
                         - math.lgamma(j + N / 2.0))
            assert float(weights @ nodes ** (2 * j)) == pytest.approx(b, rel=1e-13, abs=0.0)

    @staticmethod
    def points(seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            N, a = int(rng.integers(5, 9)), rng.uniform(0.3, 3.0)
            lower = float(ckn.beta_lower(N, a))
            yield ckn.derive(N, a, lower + (a - 2.0 - lower) * rng.uniform(0.05, 0.95)), rng

    @classmethod
    def gegenbauer_mean(cls, u, tf, N, p):
        """The sphere mean of |u + t f c|^p as an explicit 512-node Gegenbauer sum."""
        nodes, weights = cls.reference(N, 512)
        return weights @ np.abs(u + np.multiply.outer(nodes, tf)) ** p / weights.sum()

    def errors(self, P, grid, direction, monkeypatch, ts=(0.05, -0.05, 0.2, -0.2)):
        """Largest relative error of perturbed_quotient at each t in ts against the quotient
        whose sphere integral is a 512-node sum, for both the series and the kink rule."""
        mode, out = make_mode(P, 1), []
        for t in ts:
            val = perturbed_quotient(P, t, mode, direction)
            with monkeypatch.context() as m:
                m.setattr(variational, "_gauss_sphere", lambda N, count: self.reference(N, 512))
                m.setattr(variational, "_sphere_mean", self.gegenbauer_mean)
                ref = perturbed_quotient(P, t, mode, direction)
            out.append(abs(val - ref) / ref)
        return max(out)

    @staticmethod
    def node_counts(monkeypatch):
        counts, rule = [], variational._gauss_sphere
        monkeypatch.setattr(variational, "_gauss_sphere",
                            lambda N, count: counts.append(count) or rule(N, count))
        return counts

    def test_z1_directions(self, grid, monkeypatch):
        # along Z1, N = 5..12 and p from 2.08 to 8, the sphere mean is the hypergeometric
        # series at |t| = 0.05 and 0.2, with no Gauss rule: |t f| stays within 3U/4, where at
        # three points (N = 11, 12) it passed U/2 and 64 nodes took over.  The quotient matches
        # 512 nodes (measured: 4.1e-16, and 5.8e-16 by 64 nodes at those three points)
        counts = self.node_counts(monkeypatch)
        for N, (alpha, frac) in itertools.product(range(5, 13), ((0.5, 0.1), (2.0, 0.9))):
            lower = ckn.beta_lower(N, alpha)
            P = ckn.derive(N, alpha, lower + frac * (alpha - 2.0 - lower))
            z1 = ckn.sample(grid, lambda r: ckn.linearized_mode(P, 1, r))
            before = len(counts)
            assert self.errors(P, grid, z1, monkeypatch, ts=(0.05, -0.05)) <= 2e-15
            assert len(counts) == before
            assert self.errors(P, grid, z1, monkeypatch, ts=(0.2, -0.2)) <= 2e-15
        assert counts == []

    def test_kinked_directions(self, grid, monkeypatch):
        # Gaussians in t = ln r, normalized like Z1, reach |t f| > U where U decays:
        # |u + t f c|^p has a kink in c, and the quotient takes 64 nodes there
        # (measured: 4.7e-8; 64 Gauss-Legendre nodes in theta erred by up to 2.4e-7)
        counts = self.node_counts(monkeypatch)
        for P, rng in self.points(20262, 8):
            f = gaussian_profile(grid, center=rng.uniform(-2.0, 2.0), width=rng.uniform(0.6, 2.0))
            assert self.errors(P, grid, f, monkeypatch) <= 1e-7
        assert 64 in counts


def decimal_2f1(p, N, y):
    """2F1(-p/2, (1-p)/2; N/2; y^2) summed in 40-digit decimal arithmetic, to terms below 1e-40."""
    with localcontext(prec=40):
        a, b, c, z = -Decimal(p) / 2, (1 - Decimal(p)) / 2, Decimal(N) / 2, Decimal(y) ** 2
        term = total = Decimal(1)
        j = 0
        while j < p / 2 or abs(term) > Decimal("1e-40"):
            term *= (a + j) * (b + j) / ((j + 1) * (c + j)) * z
            total += term
            j += 1
        return float(total)


class TestSphereMean:
    """The k = 1 sphere mean where |t f| <= 3U/4: u^p times a hypergeometric series in y^2."""

    #: p from near 2 to 10, the largest p of the region, with integers and near-integers
    EXPONENTS = (2.0 + 1e-9, 2.5, 3.0 - 1e-12, 4.0, 4.0 + 1e-10, 5.3, 7.77, 9.0 - 1e-8, 10.0)

    @pytest.mark.parametrize("N", range(5, 13))
    def test_series_to_the_last_bit(self, N):
        # u = 1 leaves the series alone: within 2.2e-16 of 40 digits (measured) for |y| <= 3/4,
        # so the remainder bound stops late enough
        y = np.linspace(-0.75, 0.75, 31)
        for p in self.EXPONENTS:
            got = variational._sphere_mean(np.ones_like(y), y, N, p)
            want = np.array([decimal_2f1(p, N, v) for v in y.tolist()])
            np.testing.assert_allclose(got, want, rtol=4e-16, atol=0.0)

    @pytest.mark.parametrize("N", range(5, 13))
    def test_matches_gegenbauer_sum(self, grid_fast, N):
        # synthetic |t f/u| up to 3/4 on a decaying u: the trapezoid sum of the mean matches
        # that of an explicit 512-node Gegenbauer sum (measured: 1.6e-15 up to 1/2, 2.7e-15 at
        # 3/4, where each node of the series is within 2.2e-16 of 40 digits)
        rng = np.random.default_rng(N)
        t = grid_fast.ts
        u, w = np.cosh(0.8 * t) ** -2.0, trapezoid_weights(grid_fast.n, grid_fast.h)
        for p in self.EXPONENTS:
            for y_max, bound in ((0.2, 2e-15), (0.5, 2e-15), (0.75, 4e-15)):
                tf = y_max * np.sin(rng.uniform(0.3, 3.0) * t + rng.uniform(0.0, 6.0)) * u
                got = w @ variational._sphere_mean(u, tf, N, p)
                want = w @ TestGaussSphere.gegenbauer_mean(u, tf, N, p)
                assert abs(got / want - 1.0) <= bound, (p, y_max)

    def test_symmetric_in_t(self, grid):
        # the series sees t only through y^2, so Q(t) = Q(-t) bit for bit; 16 Gauss nodes,
        # symmetric only to rounding, gave values 1.3e-16 apart at (5, 1, -3), t = 0.2
        for point in ((5, 1.0, -3.0), (6, 2.0, -2.5), (8, 3.0, -1.9), (10, 1.0, -2.5)):
            P = ckn.derive(*point)
            z1, mode = ckn.sample(grid, lambda r: ckn.linearized_mode(P, 1, r)), make_mode(P, 1)
            for t in (0.01, 0.05, 0.2):
                assert perturbed_quotient(P, t, mode, z1) == perturbed_quotient(P, -t, mode, z1)

    @pytest.mark.parametrize("point", [(12, 1.0, -3.0), (12, 0.5, -3.2)])
    def test_symmetric_past_half(self, grid, point, monkeypatch):
        # max |t f/u| is 0.535 and 0.52 here at t = 0.2: the 64-node rule took these points,
        # and Q(0.2) and Q(-0.2) differed in the last bits; the series reaches them
        P = ckn.derive(*point)
        z1, mode = ckn.sample(grid, lambda r: ckn.linearized_mode(P, 1, r)), make_mode(P, 1)
        counts = TestGaussSphere.node_counts(monkeypatch)
        assert perturbed_quotient(P, 0.2, mode, z1) == perturbed_quotient(P, -0.2, mode, z1)
        assert counts == []

    @pytest.mark.parametrize("point,pins", [
        ((5, 1.0, -2.0), ("0x1.94566c5ec5f12p+6", "0x1.9496d02579103p+6")),
        ((5, 1.0, -3.0), ("0x1.bb7c3dafc5c27p+7", "0x1.be1e77ae49a26p+7")),
        ((8, 3.0, -1.9), ("0x1.46e2b5fe90ca0p+11", "0x1.475974cc13ab8p+11"))])
    def test_mode0_one_row(self, grid, point, pins):
        # k = 0 takes |u + t f|^p once; the pins (x86-64, numpy 2.4) are the values at t = 0.05
        # and -0.2 along Z1 with 16 identical Gauss-Gegenbauer rows (measured: 1 ulp apart)
        P = ckn.derive(*point)
        z1 = ckn.sample(grid, lambda r: ckn.linearized_mode(P, 1, r))
        for t, pin in zip((0.05, -0.2), pins):
            val = perturbed_quotient(P, t, make_mode(P, 0), z1)
            assert val == pytest.approx(float.fromhex(pin), rel=1e-15, abs=0.0)

    def test_underflowing_u(self):
        # y = t f/u is formed only where u > 0: a zero u (so t f = 0) gives a zero mean and no
        # RuntimeWarning (tier-1 turns those into errors), a subnormal u a finite mean
        u = np.array([0.0, 5e-324, 1e-310, 1e-200, 1.0])
        tf = np.array([0.0, 0.0, -4e-311, 5e-201, 0.5])
        mean = variational._sphere_mean(u, tf, 6, 3.7)
        assert mean[0] == 0.0 and np.all(np.isfinite(mean))
        assert mean[-1] == pytest.approx(decimal_2f1(3.7, 6, 0.5), rel=4e-16)


class TestTailAdequacy:
    @pytest.mark.parametrize("center", [-13.8, 13.8])
    def test_energy_at_grid_ends(self, p512, grid, center):
        f = gaussian_profile(grid, center=center, width=0.3)
        with pytest.raises(TailInadequate):
            mode_energy(f, p512, make_mode(p512, 1))
        with pytest.raises(TailInadequate):
            perturbed_quotient(p512, 0.05, make_mode(p512, 1), f)

    def test_minimizer_near_rellich_boundary(self, grid):
        # at beta = -1.001 the extremal is wider than t in [-14, 14]: the
        # value would miss S_r by 0.56%, so the minimizer must raise
        P = ckn.derive(5, 1.0, -1.001)
        init = RadialProfile(grid=grid, values=np.exp(-grid.ts ** 2 - P.kappa1 * grid.ts))
        with pytest.raises(TailInadequate):
            minimize_radial(P, init)


def test_extremal_integrand_tails_negligible(p512, grid):
    # the energy and p-norm integrands of U carry < 1e-8 of their mass in
    # the outermost nodes of the default grid
    u = extremal_profile(p512, grid)
    assert ckn.tail_fraction(np.abs(u.values) ** p512.p, grid,
                             p512.gamma + p512.N - 1.0) < 1e-8
