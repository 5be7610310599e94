import numpy as np
import pytest

import ckn
from ckn.numerics import RadialProfile

# Multiprecision reference values (50-digit evaluation of the closed forms,
# frozen here once; see the formulas in ckn.closedform).
ORACLE = {
    "beta_fs_5_1": -2.6568542494923801952067548968387923142786875015078,
    "beta_fs_6_2": -1.4833147735478827711674974646330986035120396155575,
    "S0": {5: 102.38327344058293488072625381746483492694595795111,
           6: 247.28444736616020538181967215847751561102255567024,
           7: 431.53266467865955559854274225027678389381945373716,
           8: 653.82471182644695925916635048729945545062435463873,
           9: 913.53384477999401397545540339231389656171056962948,
           10: 1210.3236298262270580532807646282590012896065032146},
    "S_r_5_1_-2": 101.08196411064141651638983443992465950656829716353,
    "S_r_5_1_-3": 221.6882674197928150886249023669521675797300871151,
    "S_r_6_05_-25": 143.75110532304675700631484206789728864266943555096,
    "B": {6: 25.055152903480727010719590786634697119562766171824,
          8: 114.74194649610178943700644925053999854530039350382,
          10: 331.34030324294946380542075246793911267121511644721,
          13.5: 1282.7432543487736992592136189656461541156841373908},
    "critical_5_-1": 27.972867094209949114561674165231195720541016739735,
    "gamma_2_5": 1.3293403881791370204736256125058588870981620920918,
    "beta_integral_M10": 0.0035714285714285714285714285714285714285714285714286,
    "C_5_1_-2": 82.6469584798115807656130369564132631800001572025,
    "U_at_1_5_1_-2": 10.330869809976447595701629619551657897500019650313,
}


@pytest.fixture(scope="session")
def grid():
    return ckn.make_grid()


@pytest.fixture(scope="session")
def grid_fast():
    return ckn.make_grid(-14.0, 14.0, 2001)


@pytest.fixture(scope="session")
def p512():
    return ckn.derive(5, 1.0, -2.0)


@pytest.fixture(scope="session")
def p513():
    return ckn.derive(5, 1.0, -3.0)


def gaussian_profile(grid, center=0.0, width=1.0, amp=1.0) -> RadialProfile:
    t = grid.ts
    return RadialProfile(grid=grid, values=amp * np.exp(-((t - center) / width) ** 2))


def random_profiles(grid, seed, count):
    rng = np.random.RandomState(seed)
    for _ in range(count):
        yield gaussian_profile(grid, center=rng.uniform(-2.0, 2.0),
                               width=rng.uniform(0.6, 2.0),
                               amp=rng.uniform(0.5, 2.0))


def weighted_cosine(params, grid, f, g) -> float:
    """Cosine similarity in the weighted mass inner product of the
    linearized pencil, int U^{p-2} f g r^{gamma+N-1} dr."""
    from ckn import _forms

    d = np.pad(_forms.mass_vector(params, grid), _forms.N_CLAMP)
    a = _forms.to_scaled(params, grid, np.asarray(f, dtype=float))
    b = _forms.to_scaled(params, grid, np.asarray(g, dtype=float))
    return abs(float(np.sum(d * a * b))) / np.sqrt(float(np.sum(d * a * a))
                                                   * float(np.sum(d * b * b)))


def count_matvecs(monkeypatch):
    """Wrap spectral._lanczos so that the matvecs of each run are counted; returns the counts,
    one per run, in call order."""
    from ckn import spectral

    lanczos, runs = spectral._lanczos, []

    def counted(op, *args):
        run = len(runs)
        runs.append(0)

        def matvec(y):
            runs[run] += 1
            return op(y)

        return lanczos(matvec, *args)

    monkeypatch.setattr(spectral, "_lanczos", counted)
    return runs
