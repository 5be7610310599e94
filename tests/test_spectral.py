import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ckn
from ckn import _forms, numerics, spectral, transforms
from ckn.closedform import (ExtremalSpec, extremal_shape, extremal_u, linearized_degree,
                            linearized_eigenvalue, omega_sphere, scaling_direction)
from ckn.errors import (BadGridSpec, MOutOfRange, NoConvergence, RellichBoundary,
                        WrongRegion)
from ckn.spectral import (linearized_residual, mode_eigenvalue,
                          second_variation_bracket, second_variation_sign,
                          second_variation_z1, spectral_gap)
from ckn.variational import make_mode
from conftest import count_matvecs, weighted_cosine

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
        # either index costs one Lanczos run, whose every matvec is one solve by division
        # by the symbol; iters is that run's matvec count, the same for both indices
        runs = count_matvecs(monkeypatch)
        r = mode_eigenvalue(p513, make_mode(p513, 0), index, grid_fast)
        assert len(runs) == 1
        assert r.iters == runs[0] > 0
        other = mode_eigenvalue(p513, make_mode(p513, 0), 3 - index, grid_fast)
        assert len(runs) == 2
        assert other.iters == r.iters == runs[1]

    def test_lanczos_no_convergence_raises(self, p513, grid_fast, monkeypatch):
        # a run past LANCZOS_STEPS is a typed NoConvergence, never a traceback or a value;
        # this run needs 9 steps
        monkeypatch.setattr(spectral, "LANCZOS_STEPS", 8)
        with pytest.raises(NoConvergence, match="Lanczos on mode 0"):
            mode_eigenvalue(p513, make_mode(p513, 0), 1, grid_fast)

    def test_mode1_where_a_moving_shift_went_astray(self):
        # a shift that follows the Rayleigh quotient settled on a higher eigenvalue
        # here (7.0306); Lanczos for the largest 1/nu cannot
        p = ckn.derive(6, 2.678, -2.319)
        grid = ckn.make_grid(-14.3, 14.3, 4077)
        r = mode_eigenvalue(p, make_mode(p, 1), 1, grid)
        assert r.eigenvalue == pytest.approx(2.0809807, abs=1e-6)

    def test_mode0_bottom_on_gate_grid(self, p513, grid):
        # finite differences erred by about 5e-8 here; a loose eigen stop
        # test shows up as an error of 1e-6 or more
        r = mode_eigenvalue(p513, make_mode(p513, 0), 1, grid)
        assert abs(r.eigenvalue - 1.0) < 2e-7

    def test_mode0_on_fine_grid(self, p513):
        # the finite-difference Ritz value carried the eps h^-4 rounding of
        # E = B^T W B (1.5e-4 here); the Fourier solve does not read the grid
        grid = ckn.make_grid(-14.0, 14.0, 32001)
        r0, r1 = ckn.mode_eigenpairs(p513, make_mode(p513, 0), grid)
        assert abs(r0.eigenvalue - 1.0) < 1e-8
        assert abs(r1.eigenvalue - (p513.p - 1.0)) < 1e-8 * (p513.p - 1.0)

    def test_mode_eigenpairs_one_solve_for_both_pairs(self, p513, grid_fast, monkeypatch):
        # both mode-0 pairs come from one Lanczos run, and mode_eigenvalue(..., i) is
        # entry i - 1, field for field
        runs = count_matvecs(monkeypatch)
        pairs = ckn.mode_eigenpairs(p513, make_mode(p513, 0), grid_fast)
        assert len(runs) == 1 and len(pairs) == 2
        assert [pair.iters for pair in pairs] == runs * 2
        for index, pair in enumerate(pairs, 1):
            r = mode_eigenvalue(p513, make_mode(p513, 0), index, grid_fast)
            assert (r.eigenvalue, r.residual, r.iters) == (pair.eigenvalue, pair.residual,
                                                           pair.iters)
            assert r.profile.grid == pair.profile.grid
            assert np.array_equal(r.profile.values, pair.profile.values)
        assert len(ckn.mode_eigenpairs(p513, make_mode(p513, 1), grid_fast)) == 1


#: Rows of the ROADMAP Baseline table whose t-domain holds the eigenfunctions:
#: (N, alpha, beta), half-width of the t-domain, n.  Finite differences met nu_{k,n}
#: to 3.6e-9 on them at worst; the Fourier solve meets it to 6.3e-14.
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
        # finite-difference +-14 cut-off alone erred by 1.4e-7 in mode 0
        # (test_whole_region_sweep drops both limits).
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


    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.integers(5, 8), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(0.0, 1.0, exclude_max=True))
    # M = 3e6 and 6e9, where a's gaps close: a fixed Lanczos tolerance of 1e-8 erred by
    # 1.7e-10 and 6.8e-9 there
    @example(N=5, a_frac=1e-12, b_frac=1.0 - 1e-6)
    @example(N=8, a_frac=0.5, b_frac=1.0 - 1e-9)
    def test_whole_region_sweep(self, grid, N, a_frac, b_frac):
        # alpha anywhere in (2 - N + 0.05, 4) and beta anywhere in [beta_lower, alpha - 2),
        # near either end included, on the default grid: the derived domain follows the
        # profiles wherever they live, and the Lanczos tolerance follows a mode's gaps
        alpha = 2.05 - N + a_frac * (N + 1.95)
        lo = ckn.beta_lower(N, alpha)
        P = ckn.derive(N, alpha, lo + b_frac * (alpha - 2.0 - lo))
        assume(P.subcritical)
        for k in range(4):
            for n, pair in enumerate(ckn.mode_eigenpairs(P, make_mode(P, k), grid)):
                exact = linearized_eigenvalue(P, k, n)
                assert abs(pair.eigenvalue - exact) <= 1e-12 * exact, (k, n)

    @pytest.mark.parametrize("point", [
        # the +-14 finite-difference grid read 99.9 for nu_00 = 1 and 737 for p - 1 = 5 here
        (5, -2.9, -4.95),
        # ... and 1.323 and 4.025 for 1 and 2, with backward error 1.7e-18
        (5, -2.5, -4.6),
        # ... and nu_00 = 1 + 1.4e-7: M = 5.10, phi_U^2 is only e^{-17} at t = 14
        (5, 0.5, ckn.beta_lower(5, 0.5) + 0.15 * (ckn.felli_schneider(5, 0.5)
                                                  - ckn.beta_lower(5, 0.5)))],
        ids=["nu-0.025", "nu-0.05", "M-5.10"])
    def test_points_the_fixed_grid_got_wrong(self, grid, point):
        P = ckn.derive(*point)
        for k in range(4):
            for n, pair in enumerate(ckn.mode_eigenpairs(P, make_mode(P, k), grid)):
                exact = linearized_eigenvalue(P, k, n)
                assert abs(pair.eigenvalue - exact) <= 1e-12 * exact, (k, n)

    def test_near_the_rellich_line(self):
        # M = 5.19e12.  alpha - beta rounds near 2 here while 2 + beta - alpha is exact; a nu
        # and an M formed from the former put 1.6e-4 into the closed form's nu_10 and 2.3e-4
        # into nu_20, against a solve right to rounding.  Pins: 50-digit values at the float
        # alpha and beta.
        P = ckn.derive(7, 0.053, (0.053 - 2.0) - 1.947e-12)
        for k in range(3):
            nus, *_ = spectral._mode_solve(P, make_mode(P, k))
            for n, nu in enumerate(nus):
                exact = linearized_eigenvalue(P, k, n)
                assert abs(nu - exact) <= 1e-12 * exact, (k, n)
        assert linearized_eigenvalue(P, 1) == pytest.approx(3.7634722836505932626, rel=1e-14)
        assert linearized_eigenvalue(P, 2) == pytest.approx(10.196887249252106105, rel=1e-14)


def _dense_lanczos(op, v0, count, tol, k):
    """spectral._lanczos's answer to machine precision: numpy.linalg.eigh of op applied to
    the identity, row by row (op is symmetric, and a matvec: it takes one vector)."""
    thetas, S = np.linalg.eigh(np.array([op(e) for e in np.eye(len(v0))]))
    return thetas[:-count - 1:-1], S[:, :-count - 1:-1], len(v0)


class TestRightSizedLanczos:
    """The run stops at LANCZOS_TOL, not at machine precision."""

    def test_matches_full_precision_run(self, baseline_spectra, monkeypatch):
        # a dense eigh of the same operator is the reference; the reported Rayleigh
        # quotients agree to rounding (1.4e-15 at worst measured)
        monkeypatch.setattr(spectral, "_lanczos", _dense_lanczos)
        full = _spectra(BASELINE_ROWS + [ASTRAY_ROW])
        for loose_row, full_row in zip(baseline_spectra, full):
            for loose, ref in zip(loose_row, full_row):
                assert len(loose) == len(ref)
                for a, b in zip(loose, ref):
                    assert abs(a.eigenvalue - b.eigenvalue) < 1e-11 * b.eigenvalue

    def test_lanczos_on_a_known_spectrum(self):
        # diag(1, 1/2, ..., 1/200): the two largest eigenvalues, falling, and their unit
        # eigenvectors, as Fortran-ordered columns, which numpy sums pairwise
        d = 1.0 / np.arange(1.0, 201.0)
        thetas, Y, steps = spectral._lanczos(lambda y: d * y, np.ones(200), 2, 1e-12, 0)
        assert thetas == pytest.approx([1.0, 0.5], rel=1e-14)
        assert np.abs(np.abs(Y[:2]) - np.eye(2)).max() < 1e-12 and Y.flags.f_contiguous
        assert 6 <= steps < spectral.LANCZOS_STEPS

    def test_step_cap_raises_no_convergence(self, monkeypatch):
        # the tridiagonal holds cap + 1 columns, as the last step's beta lands in column cap:
        # a cap of 5 ends before the first stop test, with NoConvergence, never an IndexError
        monkeypatch.setattr(spectral, "LANCZOS_STEPS", 5)
        d = 1.0 / np.arange(1.0, 201.0)
        with pytest.raises(NoConvergence, match="mode 3: no convergence in 5 steps"):
            spectral._lanczos(lambda y: d * y, np.ones(200), 1, 1e-12, 3)

    def test_calls_return_independent_arrays(self, p513, grid):
        # each solve reuses only its own buffers and the read-only start vector: at the README
        # point two calls agree, and writing into the first result reaches no later call
        mode = make_mode(p513, 0)
        first, second = (ckn.mode_eigenpairs(p513, mode, grid) for _ in range(2))
        for a, b in zip(first, second):
            assert (a.eigenvalue, a.residual, a.iters) == (b.eigenvalue, b.residual, b.iters)
            assert np.array_equal(a.profile.values, b.profile.values)
            assert not np.shares_memory(a.profile.values, b.profile.values)
        kept = [r.profile.values.copy() for r in second]
        for r in first:
            r.profile.values[:] = np.nan
        third = ckn.mode_eigenpairs(p513, mode, grid)
        for values, b, c in zip(kept, second, third):
            assert np.array_equal(b.profile.values, values)
            assert np.array_equal(c.profile.values, values)
        v0 = spectral._start_vector(len(spectral._Pencil(p513, mode).ts))
        assert not v0.flags.writeable
        with pytest.raises(ValueError):
            v0[0] = 0.0

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_solves_per_mode(self, p513, grid, k):
        # the run sized to LANCZOS_TOL stops at 9, 8 and 9 matvecs here
        assert ckn.mode_eigenpairs(p513, make_mode(p513, k), grid)[0].iters <= 12

    @pytest.mark.parametrize("lo,hi,n", [(-1.0, 1.0, 9), (-2.0, 2.0, 11)])
    def test_narrow_grids_return_pairs(self, p513, lo, hi, n):
        # the grid only samples the profiles: on 9 or 11 nodes the eigenvalues are those of
        # the derived domain (finite differences read them above 1, the truncation error)
        grid = ckn.make_grid(lo, hi, n)
        for k, count in ((0, 2), (1, 1)):
            pairs = ckn.mode_eigenpairs(p513, make_mode(p513, k), grid)
            assert len(pairs) == count
            for index, pair in enumerate(pairs):
                exact = linearized_eigenvalue(p513, k, index)
                assert abs(pair.eigenvalue - exact) <= 1e-12 * exact, (k, index)


PENCIL_PINS = json.loads(Path(__file__).with_name("pencil_pins.json").read_text())


class TestPencilPins:
    """The derived-domain results bit for bit, as float.hex: for k = 0..2 on the default grid,
    each eigenvalue, residual, matvec count and every 50th profile sample of mode_eigenpairs,
    and linearized_residual at the indices of verify ode, (0, 0), and of verify linearized.  A
    change to the mode's _Pencil or to the order of its operations shows here first."""

    @pytest.mark.parametrize("pin", PENCIL_PINS, ids=[str(p["point"]) for p in PENCIL_PINS])
    def test_bit_for_bit(self, grid, pin):
        P = ckn.derive(*pin["point"])
        for k, pairs in enumerate(pin["modes"]):
            got = [[r.eigenvalue.hex(), r.residual.hex(), r.iters,
                    [v.hex() for v in r.profile.values[::50].tolist()]]
                   for r in ckn.mode_eigenpairs(P, make_mode(P, k), grid)]
            assert got == pairs, k
        for k, n, want in pin["residuals"]:
            assert linearized_residual(P, k, n).hex() == want, (k, n)


def _direct_chirp_z(b, theta, m):
    """The O(Km) sum that spectral._chirp_z evaluates by one FFT convolution."""
    return np.exp(1j * theta * np.outer(np.arange(m), np.arange(len(b)))) @ b


class TestProfileSampling:
    """Profiles are the trigonometric interpolants of the Fourier eigenvectors at the nodes of
    the caller's grid, 0 outside the derived domain (half-width 32.9 for mode 0 at p513)."""

    @pytest.mark.parametrize("k,bounds", [(0, (-40.0, 40.0, 801)), (1, (-40.0, 40.0, 801)),
                                          (0, (-14.0, 14.0, 4001)), (1, (-14.0, 14.0, 4001)),
                                          (0, (32.5, 33.5, 3)), (0, (-1.0, 1.0, 3))],
                             ids=["wider-than-domain-0", "wider-than-domain-1", "default-0",
                                  "default-1", "one-node-inside", "3-nodes"])
    def test_chirp_z_matches_the_direct_sum(self, p513, monkeypatch, k, bounds):
        grid, mode = ckn.make_grid(*bounds), make_mode(p513, k)
        fast = ckn.mode_eigenpairs(p513, mode, grid)
        monkeypatch.setattr(spectral, "_chirp_z", _direct_chirp_z)
        slow = ckn.mode_eigenpairs(p513, mode, grid)
        half = spectral._Pencil(p513, mode).L
        for a, b in zip(fast, slow):
            assert a.eigenvalue == b.eigenvalue
            # compared in the scaled variable, where the profiles are bounded
            phi_a, phi_b = (_forms.to_scaled(p513, grid, r.profile.values) for r in (a, b))
            assert np.abs(phi_a - phi_b).max() <= 1e-11 * np.abs(phi_b).max()
            assert np.count_nonzero(phi_b) == np.count_nonzero(np.abs(grid.ts) < half)

    @pytest.mark.parametrize("point", [(5, 1.0, -3.0), (5, -2.9, -4.95), (8, 3.0, -1.9)])
    def test_mode0_profiles_are_the_closed_forms(self, grid, point):
        # nu_00 = 1 belongs to U and nu_01 = p - 1 to the scaling direction: in t,
        # cosh(nu t)^m and cosh(nu t)^m tanh(nu t), m = -(M-4)/2 (measured: 7.8e-12 at worst,
        # the scaling direction at (8, 3, -1.9); a Lanczos tolerance of 1e-8 gave 2.8e-10)
        P = ckn.derive(*point)
        shape = extremal_shape(P, grid.ts)
        for r, want in zip(ckn.mode_eigenpairs(P, make_mode(P, 0), grid),
                           (shape, shape * np.tanh(P.nu * grid.ts))):
            phi = _forms.to_scaled(P, grid, r.profile.values)
            peak = np.argmax(np.abs(phi))
            assert np.abs(phi - want * (phi[peak] / want[peak])).max() <= 1e-11 * abs(phi[peak])

    def test_grid_that_misses_the_profiles(self, p513):
        with pytest.raises(BadGridSpec, match="misses the mode-0 profiles"):
            ckn.mode_eigenpairs(p513, make_mode(p513, 0), ckn.make_grid(40.0, 60.0, 11))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_wide_grid_gives_finite_profiles(self, p513, monkeypatch, k):
        # on t in [-14, 700] r^{-kappa1} = e^{-3t} only underflows: the profiles are finite, 0
        # past the derived domain, with the default grid's eigenvalues.  A symmetric rule raised
        # BadGridSpec here; on [-700, 14], where e^{-3t} overflows, it still comes before the solve
        mode = make_mode(p513, k)
        wide = ckn.mode_eigenpairs(p513, mode, ckn.make_grid(-14.0, 700.0, 4001))
        assert [r.eigenvalue for r in wide] == [
            r.eigenvalue for r in ckn.mode_eigenpairs(p513, mode, ckn.make_grid())]
        for r in wide:
            vals = r.profile.values
            assert np.isfinite(vals).all() and np.abs(vals).max() > 0.0
            assert not vals[r.profile.grid.ts > spectral._Pencil(p513, mode).L].any()
        runs = count_matvecs(monkeypatch)
        with pytest.raises(BadGridSpec, match="r\\^-kappa1 overflows"):
            ckn.mode_eigenpairs(p513, mode, ckn.make_grid(-700.0, 14.0, 4001))
        assert runs == []


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


# the three modes of verify linearized, (k, n) = (0, 1), (1, 0) and (2, 0), named by k as its
# rows are
CLI_MODES = [pytest.param(0, 1, id="0"), pytest.param(1, 0, id="1"), pytest.param(2, 0, id="2")]


@pytest.fixture(scope="module")
def residual_sweep():
    """300 seeded points over the admissible region, N = 5..8, alpha in (2 - N + 0.05, 4) and
    beta uniform in [beta_lower, alpha - 2), then 100 edge draws: alpha 1e-3 to 5 above 2 - N,
    beta within 1e-9 to 1e-1 of either end of its interval (as a share of its length)."""
    rng = np.random.default_rng(2027)
    points = []
    for i in range(400):
        N = int(rng.integers(5, 9))
        if i < 300:
            alpha = rng.uniform(2.05 - N, 4.0)
            frac = rng.uniform()
        else:
            alpha = 2.0 - N + 10.0 ** rng.uniform(-3.0, math.log10(5.0))
            near = 10.0 ** rng.uniform(-9.0, -1.0)
            frac = near if rng.uniform() < 0.5 else 1.0 - near
        lo = ckn.beta_lower(N, alpha)
        P = ckn.derive(N, alpha, lo + frac * (alpha - 2.0 - lo))
        if P.subcritical:
            points.append(P)
    return points


def _point(P):
    return P.N, P.alpha, P.beta


class TestLinearizedResidual:
    """linearized_residual on the domain of mode_eigenpairs, with no grid from the caller."""

    def test_mode0_exact(self, p512):
        assert linearized_residual(p512, 0, 1) < 1e-7

    def test_mode1_exact_on_curve(self):
        pf = ckn.derive(5, 1.0, ckn.felli_schneider(5, 1.0))
        assert linearized_residual(pf, 1, 0) < 1e-7

    def test_mode1_off_curve(self):
        # X1 = s^{l_1}(1+s^2)^{-(M-4)/2-l_1} at nu_{1,0} solves the mode-1 equation at every
        # point; s(1+s^2)^{-(M-2)/2} at p - 1 left residuals of 0.17 to 3.9e3 here
        for point in OFF_CURVE:
            assert linearized_residual(ckn.derive(*point), 1, 0) < 1e-7, point

    def test_mode1_degree_is_one_on_the_curve_only(self):
        for N, a in ((5, 1.0), (6, 2.0), (8, 0.3), (7, 0.5)):
            on = ckn.derive(N, a, ckn.felli_schneider(N, a))
            assert abs(linearized_degree(on, 1) - 1.0) < 1e-12
        for point in OFF_CURVE:
            assert abs(linearized_degree(ckn.derive(*point), 1) - 1.0) > 1e-2, point

    def test_mode1_narrow_profile_near_the_rellich_boundary(self):
        # l_1 = 16.6 (M = 82) and l_1 = 1657 (M = 8002): X1 narrows, and its form
        # cosh(nu t)^{-(M-4)/2-l_1} is representable where s (1+s^2)^{-(M-2)/2} underflows
        for beta in (-1.1, -1.001):
            assert linearized_residual(ckn.derive(5, 1.0, beta), 1, 0) < 1e-7

    @pytest.mark.parametrize("k,n", CLI_MODES)
    def test_every_mode_at_m_8002(self, k, n):
        # (5, 1, -1.001): finite differences needed n = 16001 in mode 1 and 32001 in mode 0
        assert linearized_residual(ckn.derive(5, 1.0, -1.001), k, n) < 1e-7

    def test_small_nu_on_the_default_grid(self):
        # nu = 0.15: mode 0 read 1.09e-7 through s and s^2 (mode 1 passed; both: test_cli.py)
        assert linearized_residual(ckn.derive(5, -2.5, -4.8), 0, 1) < 1e-7

    @pytest.mark.parametrize("point", [(5, 1.0, -3.0), (6, -1.0, -4.0), (5, 1.0, -2.0),
                                       (8, 3.0, -1.9)])
    def test_gegenbauer_eigenfunctions(self, point):
        # X_{k,n} = s^{l_k}(1+s^2)^{-(M-4)/2-l_k} C_n^{l_k+(M-1)/2}((1-s^2)/(1+s^2)) at nu_{k,n},
        # also for n >= 2, which mode_eigenpairs never returns (worst 3.7e-10, (0, 1) at
        # (5, 1, -3); finite differences on the default grid read up to 2.3e-7)
        P = ckn.derive(*point)
        for k in range(4):
            for n in range(4):
                assert linearized_residual(P, k, n) < 3e-7, (k, n)

    def test_mode0_other_params(self):
        assert linearized_residual(ckn.derive(6, 0.5, -2.5), 0, 1) < 1e-7

    def test_whole_region_sweep(self, residual_sweep):
        # finite differences on the default grid failed 36 of the 600 (0, 1) and (1, 0)
        # checks at the first 300 points; measured here at most 1.5e-9, near M = 5.  (0, 0) is
        # U's own Emden-Fowler equation, the ode_residual row of verify ode: at most 8.1e-10
        for P in residual_sweep:
            for k, n in ((0, 0), (0, 1), (1, 0), (2, 0)):
                assert linearized_residual(P, k, n) < 1e-7, (_point(P), k, n)

    @pytest.mark.parametrize("point", [(8, 2.253, 0.222), (7, 0.053, -1.971),
                                       (6, -3.176, -5.181)])
    def test_points_the_default_grid_failed(self, point):
        # narrow profiles (M = 539 and 418) and nu = 0.0025: finite differences on the default
        # grid read 8.3e-7, 6.6e-7 and 7.1e-7 at the worst mode; measured at most 1.5e-13.  In
        # (0, 0), verify ode read 2.3e-7 by finite differences at (7, 0.053, -1.971), and 1.1e-68
        # at (6, -3.176, -5.181), where its 1 + max|phi|^{p-1} normalization measured nothing
        P = ckn.derive(*point)
        for k, n in ((0, 0), (0, 1), (1, 0), (2, 0)):
            assert linearized_residual(P, k, n) < 1e-12, (k, n)

    def test_wrong_eigenvalue_fails(self, residual_sweep, monkeypatch):
        # nu_{k,n} (1 + 1e-6) leaves delta/(1 + delta) = 1e-6 - 1e-12, less the 1.5e-9 floor;
        # at nu_00 = 1 it is verify ode's ode_residual row for an equation off by 1e-6
        exact = spectral.linearized_eigenvalue
        monkeypatch.setattr(spectral, "linearized_eigenvalue",
                            lambda P, k, n: exact(P, k, n) * (1.0 + 1e-6))
        for P in residual_sweep:
            for k, n in ((0, 0), (0, 1), (1, 0), (2, 0)):
                assert linearized_residual(P, k, n) >= 0.998e-6, (_point(P), k, n)

    def test_wrong_shape_fails(self, residual_sweep, monkeypatch):
        # X (1 + 0.01 tanh nu t), 1 % off in shape (in (0, 0) at least 2.9e-6).  The blind
        # spots of the docstring: at k >= 1 the reading falls with nu (3.9e-7 at nu = 0.0024,
        # 1.6e-10 at nu = 7.8e-6; at least 1.3e-3 nu^2 here), and at any k as M grows, so the
        # sweep's points of M > 1000 are left out
        shape = spectral.extremal_shape
        monkeypatch.setattr(spectral, "extremal_shape",
                            lambda P, t, m: shape(P, t, m) * (1.0 + 0.01 * np.tanh(P.nu * t)))
        for P in residual_sweep:
            if P.M_dim <= 1000.0:
                for k, n in ((0, 0), (0, 1), (1, 0), (2, 0)):
                    floor = min(2.6e-6, 1e-3 * P.nu ** 2) if k else 2.6e-6
                    assert linearized_residual(P, k, n) >= floor, (_point(P), k, n)


class TestGegenbauerRecurrence:
    """linearized_residual's C_n^lam(c), by its three-term recurrence, against scipy's."""

    @pytest.mark.parametrize("lam", [2.05, 2.5, 10.0, 250.5, 4e6, 3e9])
    def test_matches_eval_gegenbauer(self, p513, lam, monkeypatch):
        from scipy.special import eval_gegenbauer     # test-only: slow to import
        # on nodes where c = -tanh(nu t) covers (-1, 1), with a unit shape and degree lam, the
        # residual's X is C_n^lam(c): read it where the pencil applies A to it
        c = np.cos(np.linspace(0.0, np.pi, 257))[1:-1]
        ts, seen = -np.arctanh(c) / p513.nu, []
        monkeypatch.setattr(spectral, "_Pencil", lambda P, mode: SimpleNamespace(
            a=0.0, ts=ts, w=np.ones_like(ts), apply=lambda x: seen.append(x) or x))
        monkeypatch.setattr(spectral, "extremal_shape", lambda P, t, m: np.ones_like(t))
        monkeypatch.setattr(spectral, "linearized_degree",
                            lambda P, k: lam - (P.M_dim - 1.0) / 2.0)
        for n in range(9):
            linearized_residual(p513, 0, n)
            want = eval_gegenbauer(n, lam, c)
            assert np.abs(seen.pop() - want).max() <= 1e-14 * np.abs(want).max(), n


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
        # the bottom of mode 1 is the gap, bit for bit mode_eigenvalue's; measured 6e-12 to
        # 5.5e-11 on the default grid
        p = ckn.derive(N, alpha, ckn.beta_lower(N, alpha))
        gap = spectral_gap(p, grid)
        assert gap == mode_eigenvalue(p, make_mode(p, 1), 1, grid).eigenvalue
        assert gap == pytest.approx(linearized_eigenvalue(p, 1, 0), rel=1e-8)

    def test_one_mode_solve(self, grid, monkeypatch):
        # one Lanczos run, on mode 1 (nu_{k,0} rises with k), and no profile sampled
        solve, sample, calls = spectral._mode_solve, spectral._Pencil.sample, []

        def counted(P, mode):
            calls.append(mode.k)
            return solve(P, mode)
        monkeypatch.setattr(spectral, "_mode_solve", counted)
        monkeypatch.setattr(spectral._Pencil, "sample",
                            lambda *a: calls.append("sample") or sample(*a))
        spectral_gap(ckn.derive(5, -1.0, ckn.beta_lower(5, -1.0)), grid)
        assert calls == [1]

    def test_grid_that_misses_the_profile_gets_the_value(self):
        # the grid only meets the r^{-kappa1} rule: t in [40, 60] samples nothing, which
        # mode_eigenpairs refuses, yet the value needs no sample
        p, far = ckn.derive(5, -1.0, ckn.beta_lower(5, -1.0)), ckn.make_grid(40.0, 60.0, 11)
        with pytest.raises(BadGridSpec, match="misses"):
            mode_eigenvalue(p, make_mode(p, 1), 1, far)
        assert spectral_gap(p, far) == mode_eigenvalue(p, make_mode(p, 1), 1,
                                                       ckn.make_grid()).eigenvalue

    def test_overflowing_grid_gets_the_value(self):
        # r^{-kappa1} overflows at t = -700, where a grid rule raised BadGridSpec before the
        # solve; the value reads no grid, so this grid gets the default grid's, bit for bit
        p = ckn.derive(5, -1.0, ckn.beta_lower(5, -1.0))
        assert spectral_gap(p, ckn.make_grid(-700.0, 14.0)) == spectral_gap(p, ckn.make_grid())
        assert spectral_gap(p, ckn.make_grid(-14.0, 700.0)) == spectral_gap(p, ckn.make_grid())

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
        # nu1 = 1 exactly, so the error itself is observable: finite differences halved it by
        # an h^2 order per refinement, and the Fourier solve on the derived domain has none left
        for n in (1001, 2001):
            g = ckn.make_grid(-14.0, 14.0, n)
            assert abs(mode_eigenvalue(p512, make_mode(p512, 0), 1, g).eigenvalue - 1.0) <= 1e-13

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
