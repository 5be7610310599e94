import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import ckn
from ckn import _forms, numerics, spectral, transforms
from ckn.closedform import (ExtremalSpec, extremal_shape, extremal_u, linearized_degree,
                            linearized_eigenvalue, omega_sphere, scaling_direction)
from ckn.errors import (BadGridSpec, GridTooSmall, MOutOfRange, NoConvergence, RellichBoundary,
                        WrongRegion)
from ckn.spectral import (linearized_residual, mode_eigenvalue,
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
        from ckn._forms import N_CLAMP, mass_vector, to_scaled
        d = np.pad(mass_vector(p512, grid), N_CLAMP)
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
        # run; iters is that run's solves (one right-hand side each), the
        # same for both indices, and one more solve recovers the vectors
        assemblies, factors, solves = [], [], []
        energy_band, cholesky_banded, cho_solve_banded = (
            _forms.energy_band, sla.cholesky_banded, sla.cho_solve_banded)

        def counted_energy(*args, **kwargs):
            assemblies.append(1)
            return energy_band(*args, **kwargs)

        def counted_cholesky(*args, **kwargs):
            factors.append(1)
            return cholesky_banded(*args, **kwargs)

        def counted_solve(factor, b, **kwargs):
            solves.append(np.ndim(b))
            return cho_solve_banded(factor, b, **kwargs)

        monkeypatch.setattr(_forms, "energy_band", counted_energy)
        monkeypatch.setattr(sla, "cholesky_banded", counted_cholesky)
        monkeypatch.setattr(sla, "cho_solve_banded", counted_solve)
        r = mode_eigenvalue(p513, make_mode(p513, 0), index, grid_fast)
        assert (len(assemblies), len(factors)) == (1, 1)
        assert r.iters == solves.count(1) > 0
        assert solves.count(2) == 1
        other = mode_eigenvalue(p513, make_mode(p513, 0), 3 - index, grid_fast)
        assert other.iters == r.iters

    def test_failed_cholesky_raises_no_convergence(self, p513, grid_fast, monkeypatch):
        # with the mass form tripled the pencil's eigenvalues fall to about
        # 1/3, below the shift 0.9, so E - 0.9 D is indefinite
        mass_vector = _forms.mass_vector
        monkeypatch.setattr(_forms, "mass_vector", lambda *args: 3.0 * mass_vector(*args))
        with pytest.raises(NoConvergence):
            mode_eigenvalue(p513, make_mode(p513, 0), 1, grid_fast)

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

    def test_mode0_on_fine_grid(self, p513):
        # the Ritz value carries the eps h^-4 rounding of E = B^T W B (1.5e-4
        # here); the Rayleigh quotient summed as squares does not
        grid = ckn.make_grid(-14.0, 14.0, 32001)
        r0, r1 = ckn.mode_eigenpairs(p513, make_mode(p513, 0), grid)
        assert abs(r0.eigenvalue - 1.0) < 1e-8
        assert abs(r1.eigenvalue - (p513.p - 1.0)) < 1e-8 * (p513.p - 1.0)

    def test_mode_eigenpairs_one_solve_for_both_pairs(self, p513, grid_fast, monkeypatch):
        # both mode-0 pairs come from one assembly and one factorization, and
        # mode_eigenvalue(..., i) is entry i - 1, field for field
        calls = {"energy_band": 0, "cholesky_banded": 0}
        for module, name in ((_forms, "energy_band"), (sla, "cholesky_banded")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        pairs = ckn.mode_eigenpairs(p513, make_mode(p513, 0), grid_fast)
        assert calls == {"energy_band": 1, "cholesky_banded": 1}
        assert len(pairs) == 2
        for index, pair in enumerate(pairs, 1):
            r = mode_eigenvalue(p513, make_mode(p513, 0), index, grid_fast)
            assert (r.eigenvalue, r.residual, r.iters) == (pair.eigenvalue, pair.residual,
                                                           pair.iters)
            assert r.profile.grid == pair.profile.grid
            assert np.array_equal(r.profile.values, pair.profile.values)
        assert len(ckn.mode_eigenpairs(p513, make_mode(p513, 1), grid_fast)) == 1


#: Rows of the ROADMAP Baseline table whose t-domain holds the eigenfunctions:
#: (N, alpha, beta), half-width of the t-domain, n.  Their errors against
#: nu_{k,n} are 3.6e-9 at worst (mode 0 at n = 32001, the eps/h^4 floor).
BASELINE_ROWS = [((5, 1.0, -3.0), 14.0, 4001), ((5, 1.0, -3.0), 14.0, 32001),
                 ((6, -1.0, -4.0), 40.0, 16001), ((6, -3.0, -5.4), 60.0, 16001),
                 ((5, -2.5, -4.8), 150.0, 16001), ((5, -2.5, -4.6), 120.0, 16001),
                 ((5, 1.0, -1.01), 200.0, 16001)]
#: The point where a moving shift went astray (test_mode1_where_a_moving_shift_went_astray)
ASTRAY_ROW = ((6, 2.678, -2.319), 14.3, 4077)


def _spectra(rows, kmax=2):
    """[[eigenpairs of mode k for k <= kmax] per row] with the current Lanczos settings."""
    out = []
    for (N, a, b), half, n in rows:
        P, grid = ckn.derive(N, a, b), ckn.make_grid(-half, half, n)
        out.append([ckn.mode_eigenpairs(P, make_mode(P, k), grid) for k in range(kmax + 1)])
    return out


@pytest.fixture(scope="module")
def baseline_spectra():
    return _spectra(BASELINE_ROWS + [ASTRAY_ROW])


class TestClosedFormSpectrum:
    """mode_eigenpairs against closedform.linearized_eigenvalue."""

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.integers(5, 8), st.floats(0.5, 3.0), st.sampled_from(("sb", "cs", "fs")),
           st.floats(0.15, 0.85))
    def test_default_grid_sweep(self, N, alpha, cls, frac):
        # beta keeps 15 % of its class range away from either end, as the
        # benchmark's point classes do: the +-14 grid cuts off the profiles
        # of points closer to beta_lower or to the Rellich boundary
        lo, fs = ckn.beta_lower(N, alpha), ckn.felli_schneider(N, alpha)
        top = min(alpha - 2.1, (N + 4.0 * alpha - 8.0 - 1.5 * N) / 4.5)    # p - 1 >= 1.5
        beta = {"sb": lo + frac * (fs - lo), "cs": fs + frac * (top - fs), "fs": fs}[cls]
        P = ckn.derive(N, alpha, beta)
        # The default grid, widened where the tail of phi_U^2 ~ e^{-(M-4) nu |t|} at
        # t = 14 exceeds e^{-25}: at N = 5, alpha = 0.5, 15 % above beta_lower the
        # +-14 cut-off alone errs by 1.4e-7 in mode 0 (ROADMAP item 4).
        half = max(-numerics.DEFAULT_T_MIN, 25.0 / ((P.M_dim - 4.0) * P.nu))
        grid = ckn.make_grid(-half, half, numerics.DEFAULT_N)
        for k in range(4):
            pairs = ckn.mode_eigenpairs(P, make_mode(P, k), grid)
            for n, pair in enumerate(pairs):
                exact = linearized_eigenvalue(P, k, n)
                assert abs(pair.eigenvalue - exact) < 1e-7 * exact, (k, n)

    @pytest.mark.parametrize("row", range(len(BASELINE_ROWS)))
    def test_baseline_rows_on_wide_grids(self, baseline_spectra, row):
        P = ckn.derive(*BASELINE_ROWS[row][0])
        for k, pairs in enumerate(baseline_spectra[row]):
            for n, pair in enumerate(pairs):
                exact = linearized_eigenvalue(P, k, n)
                assert abs(pair.eigenvalue - exact) < 1e-8 * exact, (k, n)


class TestRightSizedLanczos:
    """The run stops at LANCZOS_TOL with LANCZOS_NCV vectors, not at machine precision."""

    def test_matches_full_precision_run(self, baseline_spectra, monkeypatch):
        # scipy's defaults (20 vectors, tolerance 0) are the reference; the reported
        # Rayleigh quotients agree to the eps/h^4 floor (2.0e-12 at worst measured)
        monkeypatch.setattr(spectral, "LANCZOS_NCV", 20)
        monkeypatch.setattr(spectral, "LANCZOS_TOL", 0.0)
        full = _spectra(BASELINE_ROWS + [ASTRAY_ROW])
        for loose_row, full_row in zip(baseline_spectra, full):
            for loose, ref in zip(loose_row, full_row):
                assert len(loose) == len(ref)
                for a, b in zip(loose, ref):
                    assert abs(a.eigenvalue - b.eigenvalue) < 1e-11 * b.eigenvalue

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_solves_per_mode(self, p513, grid, k):
        # 21 solves with scipy's defaults; a run sized to LANCZOS_TOL needs 11
        assert ckn.mode_eigenpairs(p513, make_mode(p513, k), grid)[0].iters <= 12

    @pytest.mark.parametrize("lo,hi,n", [(-1.0, 1.0, 9), (-2.0, 2.0, 11)])
    def test_narrow_grids_return_pairs(self, p513, lo, hi, n):
        # m = n - 4 unknowns, fewer than LANCZOS_NCV: eigsh gets ncv = m
        grid = ckn.make_grid(lo, hi, n)
        for k, count in ((0, 2), (1, 1)):
            pairs = ckn.mode_eigenpairs(p513, make_mode(p513, k), grid)
            assert len(pairs) == count
            assert all(math.isfinite(p.eigenvalue) and p.eigenvalue > 1.0 for p in pairs)


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

    @pytest.mark.parametrize("M", [4.5, 6.0, 10.0, 13.5, 30.0])
    def test_bracket_matches_quadrature(self, M, grid):
        # the Beta-function closed forms against the quadrature they replaced;
        # the bracket reads only these fields, and M = 4.5 is below every N
        P = SimpleNamespace(subcritical=True, N=5, q_pow=0.8, M_dim=M)
        s = grid.nodes
        x1 = s * (1.0 + s ** 2) ** (-(M - 2.0) / 2.0)
        x1p = (1.0 - (M - 3.0) * s ** 2) * (1.0 + s ** 2) ** (-M / 2.0)
        chi = 0.8 ** 2 * 4.0
        want = (2.0 * ckn.integrate(x1p ** 2, grid, M - 3.0)
                + (3.0 * M - 9.0 + chi) * ckn.integrate(x1 ** 2, grid, M - 5.0))
        assert second_variation_bracket(P) == pytest.approx(want, rel=1e-12)

    def test_finite_at_large_m(self):
        # M = 82: the quadrature overflowed here
        p = ckn.derive(5, 1.0, -1.1)
        val = second_variation_z1(p)
        assert math.isfinite(val)
        assert int(np.sign(val)) == second_variation_sign(p) == 1

    def test_underflow_raises(self):
        # M = 1202: B(M/2, M/2) is below the normal floats
        p = ckn.derive(5, 3.0, 0.99)
        assert p.M_dim > 1000
        with pytest.raises(MOutOfRange):
            second_variation_z1(p)

    def test_sign_matches_eigenvalue_route(self, p512, p513, grid):
        for p in (p512, p513):
            eig = mode_eigenvalue(p, make_mode(p, 1), 1, grid).eigenvalue
            assert second_variation_sign(p) == int(np.sign(eig - (p.p - 1.0)))


# off the Felli-Schneider curve, alpha < 0 among them
OFF_CURVE = [(5, 1.0, -2.0), (5, 1.0, -3.0), (6, 0.5, -2.5), (6, -1.0, -4.0), (5, -2.5, -4.6),
             (8, 3.0, -1.9)]


# the two modes of verify linearized, (k, n) = (0, 1) and (1, 0), named by k as its rows are
CLI_MODES = [pytest.param(0, 1, id="0"), pytest.param(1, 0, id="1")]


class TestLinearizedResidual:
    def test_mode0_exact(self, p512, grid):
        assert linearized_residual(p512, 0, 1, grid) < 1e-7

    @pytest.mark.parametrize("k,n", CLI_MODES)
    def test_grid_without_residual_nodes(self, p512, k, n):
        # at n <= 2 RESIDUAL_MARGIN no node is left to take the max over
        with pytest.raises(GridTooSmall, match="16 nodes"):
            linearized_residual(p512, k, n, ckn.make_grid(n=2 * numerics.RESIDUAL_MARGIN - 1))
        assert math.isfinite(linearized_residual(p512, k, n, ckn.make_grid(n=17)))

    def test_mode1_exact_on_curve(self, grid):
        pf = ckn.derive(5, 1.0, ckn.felli_schneider(5, 1.0))
        assert linearized_residual(pf, 1, 0, grid) < 1e-7

    def test_mode1_off_curve(self, grid):
        # X1 = s^{l_1}(1+s^2)^{-(M-4)/2-l_1} at nu_{1,0} solves the mode-1 equation at every
        # point; s(1+s^2)^{-(M-2)/2} at p - 1 left residuals of 0.17 to 3.9e3 here
        for point in OFF_CURVE:
            assert linearized_residual(ckn.derive(*point), 1, 0, grid) < 1e-7, point

    def test_mode1_degree_is_one_on_the_curve_only(self):
        for N, a in ((5, 1.0), (6, 2.0), (8, 0.3), (7, 0.5)):
            on = ckn.derive(N, a, ckn.felli_schneider(N, a))
            assert abs(linearized_degree(on, 1) - 1.0) < 1e-12
        for point in OFF_CURVE:
            assert abs(linearized_degree(ckn.derive(*point), 1) - 1.0) > 1e-2, point

    def test_mode1_narrow_profile_near_the_rellich_boundary(self):
        # l_1 = 16.6 (M = 82) and l_1 = 1657 (M = 8002): X1 narrows, and its sigma-form
        # cosh(sigma)^{-(M-4)/2-l_1} is representable where s (1+s^2)^{-(M-2)/2} underflows
        for beta, n in ((-1.1, 8001), (-1.001, 32001)):
            assert linearized_residual(ckn.derive(5, 1.0, beta), 1, 0, ckn.make_grid(n=n)) < 1e-7

    @pytest.mark.parametrize("nodes,k,n", [(16001, 0, 1), (16001, 1, 0), (32001, 0, 1)],
                             ids=["16001-0", "16001-1", "32001-0"])
    def test_both_modes_at_m_8002(self, nodes, k, n):
        # (5, 1, -1.001): the s-space route read 1.3e-7, 7.7e-7 and 6.5e-7 here (mode 1 at
        # n = 32001 is above); in sigma = ln s the profiles stay bounded and resolved
        P = ckn.derive(5, 1.0, -1.001)
        assert linearized_residual(P, k, n, ckn.make_grid(n=nodes)) < 1e-7

    @pytest.mark.parametrize("k,n", CLI_MODES)
    def test_grid_that_misses_the_profile(self, k, n):
        # at M = 8002 both profiles underflow at every node of sigma in [5, 14], where the
        # normalization by max|rhs| would divide by zero
        with pytest.raises(BadGridSpec, match="underflows at every node"):
            linearized_residual(ckn.derive(5, 1.0, -1.001), k, n, ckn.make_grid(5.0, 14.0, 201))

    def test_small_nu_on_the_default_grid(self, grid):
        # nu = 0.15: mode 0 read 1.09e-7 through s and s^2 (mode 1 passed; both: test_cli.py)
        assert linearized_residual(ckn.derive(5, -2.5, -4.8), 0, 1, grid) < 1e-7

    @pytest.mark.parametrize("point", [(5, 1.0, -3.0), (6, -1.0, -4.0), (5, 1.0, -2.0),
                                       (8, 3.0, -1.9)])
    def test_gegenbauer_eigenfunctions(self, grid, point):
        # X_{k,n} = s^{l_k}(1+s^2)^{-(M-4)/2-l_k} C_n^{l_k+(M-1)/2}((1-s^2)/(1+s^2)) at nu_{k,n},
        # also for n >= 2, which mode_eigenpairs never returns (worst 2.3e-7: k = n = 3 at
        # (6, -1, -4), the eps/h^4 floor of the stacked stencils)
        P = ckn.derive(*point)
        for k in range(4):
            for n in range(4):
                assert linearized_residual(P, k, n, grid) < 3e-7, (k, n)

    def test_mode0_other_params(self, grid):
        assert linearized_residual(ckn.derive(6, 0.5, -2.5), 0, 1, grid) < 1e-7


class TestSpectralGap:
    def test_gap_exceeds_p_minus_1(self, grid):
        p = ckn.derive(5, -1.0, ckn.beta_lower(5, -1.0))
        gap = spectral_gap(p, grid)
        assert gap > p.p - 1.0
        assert p.p - 1.0 == pytest.approx(9.0, rel=1e-12)

    def test_second_point(self, grid):
        p = ckn.derive(5, -2.0, ckn.beta_lower(5, -2.0))
        assert spectral_gap(p, grid) > p.p - 1.0

    @pytest.mark.parametrize("N, alpha", [(5, -1.0), (5, -2.0), (6, -1.5), (7, -3.0)])
    def test_is_the_mode1_closed_form(self, grid, N, alpha):
        # the bottom of mode 1 is the gap; measured 6e-12 to 5.5e-11 on the default grid
        p = ckn.derive(N, alpha, ckn.beta_lower(N, alpha))
        assert spectral_gap(p, grid) == pytest.approx(linearized_eigenvalue(p, 1, 0), rel=1e-8)

    def test_one_mode_solve(self, grid, monkeypatch):
        # one Lanczos run, on mode 1: nu_{k,0} rises with k
        solve, calls = spectral.mode_eigenpairs, []

        def counted(P, mode, g):
            calls.append(mode.k)
            return solve(P, mode, g)
        monkeypatch.setattr(spectral, "mode_eigenpairs", counted)
        spectral_gap(ckn.derive(5, -1.0, ckn.beta_lower(5, -1.0)), grid)
        assert calls == [1]

    @pytest.mark.parametrize("N, alpha, below", [(5, -1.0, False), (5, -2.0, True),
                                                 (6, -1.5, True), (7, -3.0, True)])
    def test_not_the_third_eigenvalue(self, N, alpha, below):
        # the radial nu_{0,2} = (M+4)(M+6)/((M-4)(M-2)) undercuts nu_{1,0} at three points
        p = ckn.derive(N, alpha, ckn.beta_lower(N, alpha))
        M = p.M_dim
        nu02 = linearized_eigenvalue(p, 0, 2)
        assert nu02 == pytest.approx((M + 4.0) * (M + 6.0) / ((M - 4.0) * (M - 2.0)), rel=1e-12)
        assert (nu02 < linearized_eigenvalue(p, 1, 0)) is below

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
        phi = transforms.cosh_constants(P)[0] * extremal_shape(P, g.ts)
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
