"""Every public function that takes a raw N, alpha, M, k, n, r or lambda, a mode selector, a
derivative order, an iteration bound, a grid's node count or samples on a grid, at the boundary
of its domain and at +-inf and NaN: each row names the typed error that the input must raise.
The rules themselves (check_dimension, check_alpha, require_subcritical, is_index and
check_index) live in ckn.params, the samples rule (check_samples) in ckn.numerics; these rows
pin every caller to them."""

import inspect
import math
import pathlib
import re

import numpy as np
import pytest

from ckn import closedform as cf
from ckn import _forms, identities, numerics, spectral, transforms, variational
from ckn.errors import (AlphaOutOfRange, BadGridSpec, BetaOutOfRange, CknError, EpsOutOfRange,
                        InvalidDimension, MOutOfRange, NonPositiveRadius, RellichBoundary,
                        ScalarOverflow)
from ckn.numerics import RadialProfile, differentiate, make_grid, sample
from ckn.params import derive, felli_schneider

INF, NAN = math.inf, math.nan
P = derive(5, 1.0, -3.0)                  # subcritical
R = derive(5, 1.0, -1.0)                  # beta = alpha - 2, the Rellich line
SPEC = cf.ExtremalSpec(P)
GRID = make_grid(-10.0, 10.0, 201)
BUMP = sample(GRID, lambda s: (1.0 + s * s) ** -2.0)
INIT = RadialProfile(grid=GRID, values=np.exp(-GRID.ts ** 2))
MODE = variational.make_mode(P, 1)
MODE64 = variational.make_mode(P, np.int64(1))
# samples whose shape is not the grid's (201,)
SHORT = RadialProfile(grid=GRID, values=np.ones(200))
COLUMN = RadialProfile(grid=GRID, values=np.ones((201, 1)))
ROWS2 = RadialProfile(grid=GRID, values=np.ones((2, 201)))
SCALAR = RadialProfile(grid=GRID, values=np.array(1.0))
OFF_GRID = (SHORT, COLUMN, ROWS2, SCALAR)


def scalar_fn(s):
    """A sampled function that returns one number, not one per node."""
    return 1.0


def column_fn(s):
    """A sampled function that returns an (n, 1) column."""
    return s[:, None]


# the same samples as Emden-Fowler profiles
EF_OFF_GRID = tuple(transforms.EmdenFowlerProfile(grid=GRID, phi=prof.values, params=P)
                    for prof in OFF_GRID)
NAMES = {id(x): name for x, name in ((P, "P"), (R, "R"), (SPEC, "spec"), (GRID, "grid"),
                                     (BUMP, "bump"), (INIT, "init"), (MODE, "mode"),
                                     (SHORT, "short"), (COLUMN, "column"), (ROWS2, "rows2"),
                                     (SCALAR, "scalar"), (MODE64, "mode64"),
                                     (scalar_fn, "scalar_fn"), (column_fn, "column_fn"))}
NAMES.update({id(x): f"{NAMES[id(prof)]}{suffix}" for prof, ef in zip(OFF_GRID, EF_OFF_GRID)
              for x, suffix in ((prof.values, ".values"), (ef, "_ef"))})


def row(outcome, fn, *args):
    """One table row: fn(*args) and its outcome, an error class or a check of the value."""
    text = ", ".join(NAMES.get(id(a), repr(a)) for a in args)
    return pytest.param(fn, args, outcome, id=f"{fn.__name__}({text})")


ROWS = [
    # N: an int or NumPy integer >= 5, not a bool
    *(row(InvalidDimension, fn, N, *rest) for N in (4, 5.0, True, np.True_, INF, NAN)
      for fn, rest in ((derive, (1.0, -3.0)), (felli_schneider, (1.0,)), (cf.sobolev_s0, ()),
                       (cf.rellich_constant, (1.0,)), (identities.xi_sign, (1.0,)))),
    row(InvalidDimension, cf.rellich_test_quotient, 4, 0.1, GRID),
    row(InvalidDimension, cf.rellich_test_quotient, np.True_, 0.1, GRID),
    # alpha: finite with 2 - N < alpha (< 0 on the critical boundary)
    *(row(AlphaOutOfRange, fn, 5, a) for a in (-3.0, INF, -INF, NAN)
      for fn in (cf.rellich_constant, cf.rellich_constant_alt, cf.critical_constant,
                 identities.xi_sign, identities.rellich_coeff_identities)),
    *(row(AlphaOutOfRange, derive, 5, a, -3.0) for a in (-3.0, INF, -INF, NAN)),
    *(row(AlphaOutOfRange, fn, 5, 0.0) for fn in (cf.critical_constant,
                                                  identities.rellich_coeff_identities)),
    *(row(AlphaOutOfRange, felli_schneider, 5, a) for a in (INF, -INF, NAN)),
    row(ScalarOverflow, identities.xi_sign, 5, 1e160),
    row(ScalarOverflow, identities.xi_sign, 5, 1e100),
    *(row(ScalarOverflow, fn, 5, a) for a in (1e100, 1e200)
      for fn in (cf.rellich_constant, cf.rellich_constant_alt)),
    # beta: derive is the one check
    *(row(BetaOutOfRange, derive, 5, 1.0, b) for b in (-1.0 + 1e-12, INF, -INF, NAN)),
    # M: finite and > 4
    *(row(MOutOfRange, fn, *pre, M) for M in (4.0, INF, -INF, NAN)
      for fn, pre in ((cf.b_of_m, ()), (transforms.rayleigh_m, (BUMP,)))),
    # eps of the Rellich test sequence
    *(row(EpsOutOfRange, cf.rellich_test_quotient, 5, e, GRID) for e in (0.0, 0.5, INF, NAN)),
    *(row(EpsOutOfRange, cf.rellich_test_quotient, 5, [0.3, e], GRID)
      for e in (0.0, 0.5, -0.2, NAN, INF)),
    row(EpsOutOfRange, cf.rellich_test_quotient, 5, (0.3, NAN), GRID),
    row(EpsOutOfRange, cf.rellich_test_quotient, 5, np.array([0.0, 0.3]), GRID),
    # k and n: ints >= 0, not bools
    *(row(ValueError, fn, P, k) for k in (-1, 1.5, True, INF, NAN)
      for fn in (variational.make_mode, cf.linearized_degree, cf.linearized_eigenvalue)),
    *(row(ValueError, cf.linearized_eigenvalue, P, 1, n) for n in (-1, 0.5, False, INF, NAN)),
    *(row(ValueError, fn, INIT, k, *rest) for k in (1.5, True, -3)
      for fn, rest in ((identities.verify_iid, (5,)), (identities.verify_hardy_identity, (5,)),
                       (identities.equivalence_ratio, (P,)),
                       (identities.weighted_hardy_check, (5, 0.5)))),
    row(ValueError, identities.verify_iid, INIT, [0, 1.5], 5),
    # ... and linearized_residual's k and n, before any work
    *(row(ValueError, spectral.linearized_residual, P, k, n, GRID)
      for k, n in ((True, 0), (np.True_, 0), (1.0, 0), (np.float64(1.0), 0), (INF, 0), (-1, 0),
                   (0, 1.5), (0, np.True_))),
    # which and index: the two-valued selectors, not bools
    row(ValueError, cf.linearized_mode, P, True, 1.0),
    row(ValueError, spectral.mode_eigenvalue, P, MODE, True, GRID),
    # ... nor a NumPy bool or a float, even one equal to a valid selector
    *(row(ValueError, fn, *pre, sel, post) for sel in (np.True_, 1.0, np.float64(1.0), INF)
      for fn, pre, post in ((cf.linearized_mode, (P,), 1.0),
                            (spectral.mode_eigenvalue, (P, MODE), GRID))),
    # the order of differentiate: the int 1 or 2, not a bool or a float
    *(row(ValueError, differentiate, BUMP, order) for order in (True, 1.0, 2.0, np.float64(1.0))),
    # samples to differentiate: shape (grid.n,)
    *(row(BadGridSpec, differentiate, prof, 1) for prof in (SHORT, COLUMN, ROWS2)),
    row(BadGridSpec, differentiate, SCALAR, 1),
    # samples on a grid, for every entry point of the samples rule: shape (grid.n,)
    *(row(BadGridSpec, fn, *args) for prof, ef in zip(OFF_GRID, EF_OFF_GRID)
      for fn, *args in ((numerics.integrate, prof.values, GRID, 1.0),
                        (numerics.tail_fraction, prof.values, GRID, 1.0),
                        (_forms.to_scaled, P, GRID, prof.values),
                        (variational.radial_energy, prof, P),
                        (variational.mode_energy, prof, P, MODE),
                        (variational.minimize_radial, P, prof),
                        (variational.perturbed_quotient, P, 0.05, MODE, prof),
                        (transforms.to_emden_fowler, prof, P),
                        (transforms.to_dimension_m, prof, P),
                        (transforms.from_dimension_m, prof, P),
                        (transforms.from_emden_fowler, ef),
                        (transforms.ode_residual, ef))),
    # ... and sample, whose function must return one value per node
    *(row(BadGridSpec, sample, GRID, fn) for fn in (scalar_fn, column_fn)),
    # n of a grid: an odd int or NumPy integer >= 3, not a bool
    *(row(BadGridSpec, make_grid, -10.0, 10.0, n) for n in (NAN, INF, 5.0)),
    # r: r > 0 (NaN fails)
    *(row(NonPositiveRadius, fn, SPEC, r) for r in (0.0, -INF, NAN)
      for fn in (cf.extremal_u, cf.scaling_direction)),
    *(row(NonPositiveRadius, cf.linearized_mode, P, which, r)
      for which in (0, 1) for r in (0.0, NAN)),
    # lambda: 0 < lambda < inf
    *(row(ValueError, cf.ExtremalSpec, P, lam) for lam in (0.0, INF, -INF, NAN)),
    # the subcritical rule beta < alpha - 2, at beta = alpha - 2
    *(row(RellichBoundary, fn, *args) for fn, *args in (
        (cf.ExtremalSpec, R), (cf.extremal_shape, R, 0.0), (cf.linearized_mode, R, 1, 1.0),
        (cf.radial_constant_sr, R), (cf.linearized_degree, R, 1),
        (cf.linearized_eigenvalue, R, 1, 0), (variational.make_mode, R, 1),
        (variational.minimize_radial, R, INIT), (spectral.mode_eigenpairs, R, MODE, GRID),
        (spectral.second_variation_bracket, R), (spectral.second_variation_sign, R),
        (spectral.second_variation_z1, R), (spectral.linearized_residual, R, 1, 0, GRID),
        (transforms.to_dimension_m, BUMP, R), (transforms.from_dimension_m, BUMP, R),
        (transforms.cosh_constants, R))),
]


@pytest.mark.parametrize("fn,args,error", ROWS)
def test_out_of_range_input_raises_its_typed_error(fn, args, error):
    with pytest.raises(error):
        fn(*args)


@pytest.mark.parametrize("fn,args,check", [
    # finite alpha <= 2 - N is legal for beta_fs: region-map prints it beside Invalid cells
    row(math.isfinite, felli_schneider, 5, -3.0),
    row(math.isfinite, felli_schneider, 5, -10.0),
    # N as a NumPy integer: the formulas see int(N), and derive stores it
    row(lambda p: type(p.N) is int and p == derive(5, 1.0, -3.0), derive, np.int64(5), 1.0, -3.0),
    *(row(lambda v, fn=fn, rest=rest: type(v) is float and v == fn(5, *rest), fn, np.int64(5),
          *rest)
      for fn, rest in ((felli_schneider, (1.0,)), (cf.sobolev_s0, ()),
                       (cf.rellich_test_quotient, (0.1, GRID)), (cf.rellich_constant, (1.0,)))),
    row(lambda v: v == identities.xi_sign(5, 1.0), identities.xi_sign, np.int64(5), 1.0),
    row(lambda v: math.isfinite(v[0]) and v[1] == 1, identities.xi_sign, 5, 1e70),
    row(lambda v: v == 0.0, cf.extremal_u, SPEC, INF),
    row(math.isfinite, cf.b_of_m, 4.5),
    row(math.isfinite, cf.linearized_eigenvalue, P, np.int64(1), 0),
    row(lambda m: m.multiplicity == 1, variational.make_mode, P, 0),
    row(lambda v: math.isfinite(v[2]), identities.verify_iid, INIT, np.int64(1), 5),
    row(lambda g: g.n == 201, make_grid, -10.0, 10.0, np.int64(201)),
    row(lambda d: d.values.shape == (201,), differentiate, BUMP, np.int64(2)),
    row(math.isfinite, cf.linearized_mode, P, np.int64(1), 1.0),
    row(math.isfinite, spectral.linearized_residual, P, np.int64(0), np.int64(1), GRID),
    row(lambda r: math.isfinite(r.eigenvalue), spectral.mode_eigenvalue, P, MODE, np.int64(1),
        GRID),
    row(math.isfinite, variational.perturbed_quotient, P, 0.05, MODE64, BUMP),
    # eps of the Rellich test sequence: one float, or a tuple or ndarray of them
    row(lambda q: type(q) is float, cf.rellich_test_quotient, 5, np.float64(0.1), GRID),
    row(lambda q: len(q) == 2, cf.rellich_test_quotient, 5, (0.3, 0.1), GRID),
    row(lambda q: len(q) == 2, cf.rellich_test_quotient, 5, np.array([0.3, 0.1]), GRID),
])
def test_inside_the_boundary_is_accepted(fn, args, check):
    assert check(fn(*args))


@pytest.mark.parametrize("max_iters", [2.5, INF, 3.0, True, np.True_, np.float64(3.0), 0, -3],
                         ids=repr)
def test_max_iters_is_a_positive_integer(max_iters):
    # a usage error before any solve (the CLI exits 2), not a TypeError or MaxIters after one
    with pytest.raises(CknError) as info:
        variational.minimize_radial(P, INIT, max_iters)
    assert type(info.value) is CknError and "max_iters" in str(info.value)


def test_integer_and_samples_rules_stated_only_in_their_checks():
    # is_index and check_index are the only integer and selector tests, check_samples the only
    # samples-shape test: every other module calls them
    texts = {path.name: path.read_text()
             for path in pathlib.Path(cf.__file__).parent.glob("*.py")}
    integer = re.compile(r"isinstance\([^)]*\bbool\b|\bnot in [(\[{]-?\d|\bif\b.*\bin [(\[{]-?\d")
    assert {name for name, text in texts.items() if integer.search(text)} == {"params.py"}
    shape = re.compile(r"\.shape\s*[!=]=|\blen\([^)]*\)\s*[!=]=")
    assert [name for name, text in texts.items() for _ in shape.finditer(text)] == ["numerics.py"]
    assert shape.search(inspect.getsource(numerics.check_samples))


def test_region_errors_raised_only_in_params():
    # one statement of each rule: every other module calls the params checks
    src = pathlib.Path(cf.__file__).parent
    pattern = re.compile(r"raise (InvalidDimension|AlphaOutOfRange|RellichBoundary)\b")
    raisers = {path.name for path in src.glob("*.py") if pattern.search(path.read_text())}
    assert raisers == {"params.py"}
