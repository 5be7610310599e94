import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

import ckn
from ckn.closedform import ExtremalSpec, linearized_mode, scaling_direction
from ckn.errors import BadGridSpec, GridTooSmall, TailInadequate
from ckn.numerics import (RESIDUAL_MARGIN, T_LIMIT, RadialProfile, _fd_weights,
                          checked_integrals, checked_sums, diff_matrix, differentiate,
                          even_residual, grid_exp, grid_power, integrate, make_grid,
                          quadrature_terms, require_tail, tail_fraction, tail_nodes,
                          trapezoid_weights, with_derivatives)
from ckn.transforms import rayleigh_m, to_dimension_m, to_emden_fowler
from conftest import ORACLE
from test_forms import GRIDS


class TestMakeGrid:
    def test_three_nodes(self):
        g = make_grid(-1.0, 1.0, 3)
        assert_allclose(g.nodes, [math.exp(-1), 1.0, math.e], rtol=1e-15)

    def test_default_spacing(self):
        g = make_grid(-14.0, 14.0, 4001)
        assert g.h == pytest.approx(0.007, abs=1e-15)

    def test_degenerate_interval(self):
        with pytest.raises(BadGridSpec):
            make_grid(0.0, 0.0, 3)

    def test_even_node_count(self):
        with pytest.raises(BadGridSpec):
            make_grid(-1.0, 1.0, 4)

    @pytest.mark.parametrize("t_min,t_max", [
        (-14.0, math.inf), (-14.0, 800.0), (-1e308, 1e308), (-800.0, 14.0),
        (-14.0, math.nextafter(T_LIMIT, math.inf)), (-math.inf, 14.0)])
    def test_overflowing_nodes(self, t_min, t_max):
        with pytest.raises(BadGridSpec, match="709.78"):
            make_grid(t_min, t_max, 5)

    def test_widest_grid_has_finite_nodes(self):
        g = make_grid(-T_LIMIT, T_LIMIT, 5)
        assert np.isfinite(g.nodes).all()
        assert np.isfinite(make_grid(-400.0, 15.0, 5).nodes).all()

    def test_ts_computed_once_and_read_only(self):
        g = make_grid(-3.0, 2.0, 11)
        assert g.ts is g.ts
        assert not g.ts.flags.writeable
        assert np.array_equal(g.ts, np.linspace(-3.0, 2.0, 11))
        with pytest.raises(ValueError):
            g.ts[0] = 0.0

    @pytest.mark.parametrize("t_min, t_max, n", [(-3.0, 2.0, 11), (-14.0, 14.0, 4001),
                                                 (-T_LIMIT, T_LIMIT, 5)])
    def test_nodes_evaluated_on_first_read(self, t_min, t_max, n):
        # make_grid takes no exponential; nodes, like ts, are cached on first read, bit for bit
        # the exp of the linspace that make_grid used to store
        g = make_grid(t_min, t_max, n)
        assert "nodes" not in vars(g) and "ts" not in vars(g)
        assert g.nodes.tobytes() == np.exp(np.linspace(t_min, t_max, n)).tobytes()
        assert g.nodes is g.nodes

    def test_grids_hash_and_compare_by_their_scalars(self):
        a, b = make_grid(-3.0, 2.0, 11), make_grid(-3.0, 2.0, 11)
        b.nodes                                 # a cached array takes no part
        assert a == b and hash(a) == hash(b)
        assert len({a, b, make_grid(-3.0, 2.0, 13), make_grid(-3.0, 2.5, 11)}) == 3


class TestDifferentiate:
    def test_constant(self):
        g = make_grid(-2.0, 2.0, 101)
        d = differentiate(RadialProfile(grid=g, values=np.ones(g.n)), 1)
        assert np.abs(d.values).max() < 1e-12

    def test_linear(self):
        g = make_grid(-2.0, 2.0, 101)
        d = differentiate(RadialProfile(grid=g, values=g.ts.copy()), 1)
        assert np.abs(d.values[5:-5] - 1.0).max() < 1e-11

    def test_sin_accuracy(self):
        g = make_grid(-14.0, 14.0, 4001)
        d = differentiate(RadialProfile(grid=g, values=np.sin(g.ts)), 1)
        assert np.abs(d.values[3:-3] - np.cos(g.ts[3:-3])).max() < 1e-9

    def test_observed_order(self):
        # coarse grids keep truncation above the rounding floor
        errs = []
        for n in (51, 101):
            g = make_grid(-3.0, 3.0, n)
            d = differentiate(RadialProfile(grid=g, values=np.sin(g.ts)), 2)
            errs.append(np.abs(d.values + np.sin(g.ts)).max())
        assert math.log2(errs[0] / errs[1]) >= 3.5

    def test_too_small(self):
        g = make_grid(-1.0, 1.0, 5)
        with pytest.raises(GridTooSmall):
            differentiate(RadialProfile(grid=g, values=np.zeros(5)), 2)

    def test_underflowing_step(self):
        # h = 2.5e-301: h**2 underflows to 0, and the order-2 weights went inf and nan with a
        # divide-by-zero RuntimeWarning; h itself still gives finite order-1 weights
        prof = RadialProfile(grid=make_grid(-1e-300, 1e-300, 9), values=np.ones(9))
        with pytest.raises(BadGridSpec, match="order-2 stencil weights overflow"):
            differentiate(prof, 2)
        assert np.isfinite(differentiate(prof, 1).values).all()


def loop_diff_matrix(n, h, order):
    """Reference builder: the row-by-row loop that diff_matrix replaced."""
    central = _fd_weights(np.arange(-2, 3), order) / h ** order
    rows, cols, vals = [], [], []
    for i in range(3, n - 3):
        rows.extend([i] * 5)
        cols.extend(range(i - 2, i + 3))
        vals.extend(central)
    for i in range(3):
        w = _fd_weights(np.arange(0, 7) - i, order) / h ** order
        rows.extend([i] * 7)
        cols.extend(range(0, 7))
        vals.extend(w)
        w = _fd_weights(np.arange(-6, 1) + i, order) / h ** order
        rows.extend([n - 1 - i] * 7)
        cols.extend(range(n - 7, n))
        vals.extend(w)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


class TestDiffMatrix:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("n", [7, 9, 101, 4001])
    @pytest.mark.parametrize("span", [28.0, 3.0])
    def test_bit_identical_to_loop_builder(self, n, span, order):
        h = span / (n - 1)
        got, want = diff_matrix.__wrapped__(n, h, order), loop_diff_matrix(n, h, order)
        assert got.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    def test_cached(self):
        assert diff_matrix(101, 0.02, 1) is diff_matrix(101, 0.02, 1)

    def test_too_small(self):
        with pytest.raises(GridTooSmall, match="at least 7 nodes"):
            diff_matrix(5, 1.0, 1)


#: (n, half-width of the t domain): the grids of test_forms.GRIDS, the smallest and a fine one
STENCIL_GRIDS = [(n, width) for _, n, width in GRIDS] + [(7, 1.0), (32001, 14.0)]


def spread_samples(grid, seed):
    """Normal samples spread over e^{+-50} node by node, the same scaled by e^{-50} and by
    e^{50} as a whole, and a smooth bump scaled by e^{50}."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(grid.n) * np.exp(rng.uniform(-50.0, 50.0, grid.n)),
            math.exp(-50.0) * rng.standard_normal(grid.n),
            math.exp(50.0) * rng.standard_normal(grid.n),
            math.exp(50.0) * np.exp(-grid.ts ** 2)]


class TestStencilKernel:
    """numerics.apply_rows against the sparse product with the same rows: each row of both
    is summed from 0 in rising column order, so they agree bit for bit, not to a tolerance."""

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("n, width", STENCIL_GRIDS)
    def test_differentiate_matches_diff_matrix(self, n, width, order):
        g = make_grid(-width, width, n)
        D = diff_matrix(n, g.h, order)
        for v in spread_samples(g, n):
            got = differentiate(RadialProfile(grid=g, values=v), order).values
            assert got.tobytes() == (D @ v).tobytes()

    @pytest.mark.parametrize("n, width", [g for g in STENCIL_GRIDS if g[0] > 2 * RESIDUAL_MARGIN])
    def test_even_residual_matches_diff_matrix(self, n, width):
        g = make_grid(-width, width, n)
        D = diff_matrix(n, g.h, 2)
        K2, K0 = 3.5, 2.25
        for v in spread_samples(g, n):
            rhs = 0.5 * v
            d2 = D @ v
            want = np.abs(D @ d2 - K2 * d2 + K0 * v - rhs)[RESIDUAL_MARGIN:-RESIDUAL_MARGIN].max()
            assert even_residual(v, g, K2, K0, rhs) == float(want)


class TestWithDerivatives:
    """with_derivatives builds its profile directly from check_samples and apply_rows, with no
    differentiate round trip: the same bits, errors and inputs as differentiate gives."""

    @pytest.mark.parametrize("n, width", STENCIL_GRIDS)
    def test_bit_equal_to_differentiate(self, n, width):
        g = make_grid(-width, width, n)
        for v in spread_samples(g, n):
            kept = v.copy()
            prof = RadialProfile(grid=g, values=v)
            got = with_derivatives(prof)
            assert got.grid is g and got.values.tobytes() == kept.tobytes()
            for d, order in ((got.d1, 1), (got.d2, 2)):
                assert d.tobytes() == differentiate(prof, order).values.tobytes()
            assert prof.d1 is None and prof.d2 is None and v.tobytes() == kept.tobytes()

    def test_filled_profile_is_returned_unchanged(self):
        g = make_grid(-2.0, 2.0, 21)
        prof = with_derivatives(RadialProfile(grid=g, values=np.exp(-g.ts ** 2)))
        assert with_derivatives(prof) is prof
        half = RadialProfile(grid=g, values=prof.values, d1=prof.d1)      # d2 missing: both
        assert with_derivatives(half).d2.tobytes() == prof.d2.tobytes()

    @pytest.mark.parametrize("values", [np.ones(20), np.ones(22), np.ones((2, 21)), np.ones(())])
    def test_wrong_shape_is_bad_grid_spec(self, values):
        g = make_grid(-2.0, 2.0, 21)
        with pytest.raises(BadGridSpec, match="need 21 samples"):
            with_derivatives(RadialProfile(grid=g, values=values))


class TestIntegrate:
    def test_exponential(self):
        g = make_grid(-26.0, 14.0, 4001)
        val = integrate(np.exp(-g.nodes), g, 0.0)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_beta_integral(self):
        # int_0^inf s^2 (1+s^2)^{-(M-2)} s^{M-5} ds at M = 10 reduces to an
        # Euler Beta integral via u = s^2
        g = make_grid()
        val = integrate(g.nodes ** 2 * (1.0 + g.nodes ** 2) ** -8.0, g, 5.0)
        assert val == pytest.approx(ORACLE["beta_integral_M10"], rel=1e-12)

    def test_zero(self):
        g = make_grid(-2.0, 2.0, 21)
        assert integrate(np.zeros(g.n), g, 3.0) == 0.0

    def test_linear_in_samples(self):
        g = make_grid(-3.0, 3.0, 31)
        rng = np.random.RandomState(0)
        f1, f2 = rng.rand(g.n), rng.rand(g.n)
        lhs = integrate(2.5 * f1 - 0.5 * f2, g, 1.0)
        rhs = 2.5 * integrate(f1, g, 1.0) - 0.5 * integrate(f2, g, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-14)

    @pytest.mark.parametrize("n", [201, 1001, 4001])
    @pytest.mark.parametrize("w", [-2.5, -1.0, 0.0, 1.5])
    def test_gaussian_in_t_to_rounding(self, w, n):
        # the stated contract: equal weights are spectrally accurate for an integrand that
        # decays at both ends, int_0^inf e^{-(ln s)^2} s^w ds = sqrt(pi) e^{(w+1)^2/4}
        g = make_grid(-14.0, 14.0, n)
        exact = math.sqrt(math.pi) * math.exp((w + 1.0) ** 2 / 4.0)
        assert integrate(np.exp(-g.ts ** 2), g, w) == pytest.approx(exact, rel=1e-14, abs=0)


class TestTailFraction:
    def test_compact_bump(self):
        g = make_grid()
        frac = tail_fraction(np.exp(-g.ts ** 2), g, -1.0)
        assert frac < 1e-8

    def test_fat_tail_detected(self):
        g = make_grid()
        frac = tail_fraction(np.ones(g.n), g, -1.0)
        assert frac > 1e-3


class TestTailRule:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_integral_fails(self, bad):
        # a NaN share, or a sum that is not finite, raises TailInadequate and
        # no RuntimeWarning (tier-1 turns those into errors)
        g = make_grid()
        samples = np.exp(-g.ts ** 2)
        samples[g.n // 2] = bad
        assert math.isnan(tail_fraction(samples, g, -1.0))
        with pytest.raises(TailInadequate, match="not finite"):
            require_tail(samples, g, -1.0, "bad")
        with pytest.raises(TailInadequate, match="not finite"):
            checked_integrals(quadrature_terms(np.abs(samples), g, -1.0), g.h, ("bad",))

    def test_zero_integral_passes(self):
        g = make_grid(-2.0, 2.0, 21)
        assert checked_integrals(quadrature_terms(np.zeros(g.n), g, 3.0), g.h, ("zero",)) == 0.0

    @pytest.mark.parametrize("grid,m", [((-14.0, 14.0, 4001), 100),   # 2.5 % of the nodes
                                        ((-700.0, 14.0, 4001), 4),
                                        ((-1.0, 1.0, 101), 35),
                                        ((-5.0, 5.0, 11), 2),          # the floor
                                        ((-1.0, 1.0, 3), 1)])          # the cap: n // 2
    def test_tail_is_a_width_in_t(self, grid, m):
        g = make_grid(*grid)
        terms = quadrature_terms(np.ones(g.n), g, -1.0)
        want = (terms[:m].sum() + terms[-m:].sum()) / terms.sum()
        assert tail_fraction(np.ones(g.n), g, -1.0) == want

    @pytest.mark.parametrize("grid,m", [((-14.0, 14.0, 4001), 100), ((-700.0, 14.0, 4001), 4),
                                        ((-5.0, 5.0, 11), 2), ((-1.0, 1.0, 3), 1)])
    def test_tail_nodes(self, grid, m):
        g = make_grid(*grid)
        assert tail_nodes(g.n, g.h) == m

    def test_checked_sums_checks_each_index_when_drawn(self):
        # index 0 passes; index 1 fails on check "b", not on "a", and only once drawn
        total = np.array([[1.0, 1.0], [1.0, 1.0]])
        tail = np.array([[0.0, 0.0], [0.0, 1e-3]])
        sums = checked_sums(total, tail, ("a", "b"))
        assert next(sums) == [1.0, 1.0]
        with pytest.raises(TailInadequate, match="^b: outermost nodes carry 1.000e-03"):
            next(sums)
        with pytest.raises(TailInadequate, match="^a: the integral is not finite"):
            next(checked_sums(np.array([[math.inf], [1.0]]), np.zeros((2, 1)), ("a", "b")))

    @pytest.mark.parametrize("grid", [(-14.0, 14.0, 4001), (-700.0, 14.0, 4001)])
    def test_unit_weight_terms_are_weights_times_samples(self, grid):
        # w = -1 weighs by s^0 = 1: callers pass trapezoid weights times samples, the same
        # terms bit for bit without an exponential per node
        g = make_grid(*grid)
        samples = np.exp(-g.ts ** 2)
        np.testing.assert_array_equal(trapezoid_weights(g.n, g.h) * samples,
                                      quadrature_terms(samples, g, -1.0))

    def test_asymmetric_grid_holds_a_centred_profile(self):
        # the right tail of [-700, 14] is [13.3, 14], not the 100 nodes on [-3.85, 14]
        g = make_grid(-700.0, 14.0)
        require_tail(np.exp(-g.ts ** 2), g, -1.0, "centred bump")


#: grids inside make_grid's bound on which a power of r can still overflow
WIDE_GRIDS = [(-14.0, 700.0), (-700.0, 14.0)]


def _finite_or_bad_grid(fn):
    """fn() raises BadGridSpec or returns only finite values; tier-1 turns every
    RuntimeWarning (an overflow in particular) into an error."""
    try:
        out = fn()
    except BadGridSpec as exc:
        assert "709.78" in str(exc)
        return "BadGridSpec"
    values = getattr(out, "values", getattr(out, "phi", out))
    assert np.isfinite(values).all()
    return "finite"


class TestGridExp:
    def test_ends_of_a_linear_exponent_decide(self):
        g = make_grid(-700.0, 14.0, 5)
        c = T_LIMIT / 14.0
        assert np.isfinite(grid_power(c, g, "s^c")).all()     # e^{-c 700} underflows: legal
        with pytest.raises(BadGridSpec, match="709.78"):
            grid_power(c * 1.0000001, g, "s^c")
        rows = grid_power(np.array([[1.0], [-1.0]]), g, "s^c")
        assert rows.shape == (2, 1, 5)
        assert np.array_equal(rows[0, 0], np.exp(g.ts))
        assert np.array_equal(rows[1, 0], np.exp(-g.ts))
        with pytest.raises(BadGridSpec):
            grid_power(np.array([1.0, -2.0]), g, "s^c")

    def test_top_and_fn(self):
        x = np.array([-1.0, 700.0])
        assert np.array_equal(grid_exp(x, "e^x"), np.exp(x))
        with pytest.raises(BadGridSpec, match="two-sided"):
            grid_exp(x, "two-sided", top=800.0)

    def test_underflowing_weight_is_legal(self):
        g = make_grid(-700.0, 14.0)
        val = integrate(np.exp(-g.ts ** 2 / 8.0), g, 3.0)
        assert math.isfinite(val) and val > 0.0

    @pytest.mark.parametrize("t_min,t_max", WIDE_GRIDS)
    @pytest.mark.parametrize("point", [(5, 1.0, -2.0), (5, 1.0, -3.0)])
    @pytest.mark.parametrize("what", ["to_emden_fowler", "to_dimension_m", "linearized_mode_0",
                                      "linearized_mode_1", "scaling_direction", "integrate",
                                      "tail_fraction", "rayleigh_m"])
    def test_wide_grid_bad_grid_or_finite(self, t_min, t_max, point, what):
        P = ckn.derive(*point)
        g = make_grid(t_min, t_max)
        centre = math.copysign(40.0, t_max + t_min)          # away from the tail nodes
        u = RadialProfile(grid=g, values=np.exp(-((g.ts - centre) / 2.0) ** 2))
        calls = {
            "to_emden_fowler": lambda: to_emden_fowler(u, P),
            "to_dimension_m": lambda: to_dimension_m(u, P),
            "linearized_mode_0": lambda: linearized_mode(P, 0, g.nodes),
            "linearized_mode_1": lambda: linearized_mode(P, 1, g.nodes),
            "scaling_direction": lambda: scaling_direction(ExtremalSpec(P), g.nodes),
            "integrate": lambda: integrate(u.values, g, 3.0),
            "tail_fraction": lambda: tail_fraction(u.values, g, 3.0),
            "rayleigh_m": lambda: rayleigh_m(u, P.M_dim),
        }
        _finite_or_bad_grid(calls[what])

