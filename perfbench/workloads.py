"""Seeded operation streams of the three workloads, and the checks of
their answers against the paper's closed forms.

Every stream is a sequence of equal-length cycles.  A cycle holds a fixed
mix of input classes (drawn from the seed within each class) in a seeded
order, and runs stop only at a cycle boundary, so every run sees the same
mix whatever its length.

Inputs are drawn from the part of the admissible region, and from the
grids, on which the program's answers meet the checks: a run in which an
operation fails is not a valid measurement.  What that leaves out, because
the program is known to get it wrong there, is listed in
perfbench/README.md ("Inputs left out").

- ``spectrum``: ``ckn spectrum --kmax 0 --format json`` through
  ``ckn.cli.main``, at symmetry-breaking, conjectured-symmetry and
  Felli-Schneider points.  Every request has its own node count near the
  default 4001 and its own domain half-width in [13, 15], so each one
  builds fresh difference matrices, as a new CLI process would.
- ``certify``: ``minimize_radial`` from a multi-bump profile, then
  ``perturbed_quotient`` at +-0.05 along Z1, all on the default grid, so
  the library's caches stay warm, as in a library session.
- ``survey``: the README's ``constants``, ``verify`` and ``region-map``
  lines at seeded points, plus one out-of-range value per cycle, for
  which the right outcome is exit 2 with a JSON error.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

from ckn import cli, closedform, numerics, params, spectral, variational

#: Relative accuracy a spectrum eigenvalue must meet against its closed form.
EIG_TOL = 1e-5
#: Documented accuracy of minimize_radial against S_r.
MIN_TOL = 5e-3
#: Perturbation amplitude of the symmetry-breaking certificate.
CERT_AMP = 0.05
#: Node count of spectrum requests, each drawn within +-2 % of it.  On finer
#: grids the eigen iteration stops early and returns wrong eigenvalues
#: (already a few at n = 6001, most from n = 11001 on).
SPECTRUM_N = 4001
#: Point classes of a spectrum cycle, and how often each occurs in it.
SPECTRUM_CLASSES = ("sb", "cs", "fs")
SPECTRUM_REPEATS = 8
#: Dimensions N of spectrum requests, N = 6..8 (N = 5 misses 1e-5 at some
#: points).
SPECTRUM_DIMS = (6, 9)
#: Smallest p - 1 drawn above the Felli-Schneider curve.  Towards the
#: Rellich boundary p - 1 falls to 1, and spectral.mode_eigenvalue's index-2
#: shift p - 1 - 0.1 comes closer to the eigenvalue 1 than to p - 1.
CS_MIN_PM1 = 1.5
#: Bumps of a certify initial profile are centred in [-BUMP_SPREAD,
#: BUMP_SPREAD].  Bumps further apart slow the descent down, and from
#: about 3 apart some profiles exhaust its 2000 iterations (MaxIters).
BUMP_SPREAD = 1.0
REGION_RESOLUTION = 200
#: Share of admissible cells in a region-map window.
REGION_ADMISSIBLE = 0.45


@dataclass
class Outcome:
    """Result of checking one operation."""

    ok: bool
    note: str = ""
    #: relative errors of the numeric answers against their closed forms
    errs: list[float] = field(default_factory=list)
    #: bytes the program wrote to stdout
    out_bytes: int = 0


# -- closed forms and points ---------------------------------------------------

def beta_lower(N: int, a):
    return (N - 4) * a / (N - 2) - 4.0


def beta_fs(N: int, a):
    return N + 2.0 * a - 4.0 - np.sqrt((N - 2.0 + a) ** 2 + 4.0 * (N - 1.0))


def p_exponent(N: int, a: float, b: float) -> float:
    """p = 2(N+gamma)/(N+2alpha-beta-4) with (N+beta)(N+gamma) = (N+2alpha-beta-4)^2."""
    return 2.0 * (N + 2.0 * a - b - 4.0) / (N + b)


def nu_of(N: int, a: float, b: float) -> float:
    """nu = (alpha - beta - 2)/2, the decay scale of the extremal in t."""
    return (a - b - 2.0) / 2.0


def m_dim(N: int, a: float, b: float) -> float:
    """Effective dimension M = (N + 2alpha - beta - 4)/nu."""
    return (N + 2.0 * a - b - 4.0) / nu_of(N, a, b)


def beta_at_pm1(N: int, a: float, c: float) -> float:
    """beta at which p - 1 = c, from p - 1 = (N + 4alpha - 3beta - 8)/(N + beta),
    which falls as beta grows."""
    return (N + 4.0 * a - 8.0 - c * N) / (3.0 + c)


def _draw(rng: np.random.Generator, cls: str, N: int | None):
    N = int(rng.integers(5, 9)) if N is None else N
    if cls == "neg":
        a = float(rng.uniform(2.5 - N, -0.2))
        lo, hi = beta_lower(N, a), a - 2.1
        return N, a, float(lo + rng.uniform(0.15, 0.85) * (hi - lo))
    a = float(rng.uniform(0.5, 3.0))
    lo, fs = beta_lower(N, a), float(beta_fs(N, a))
    if cls == "sb":
        return N, a, float(lo + rng.uniform(0.15, 0.85) * (fs - lo))
    if cls == "cs":
        top = min(a - 2.1, beta_at_pm1(N, a, CS_MIN_PM1))
        return N, a, float(fs + rng.uniform(0.15, 0.85) * (top - fs))
    if cls == "fs":
        return N, a, fs
    raise ValueError(f"unknown point class {cls!r}")


def draw_point(rng: np.random.Generator, cls: str, N: int | None = None,
               accept=None) -> tuple[int, float, float]:
    """Admissible (N, alpha, beta) of one class, redrawn until
    ``accept(N, alpha, beta)`` holds:

    sb  symmetry breaking (0.5 <= alpha <= 3, beta_lower < beta < beta_fs);
    cs  conjectured symmetry above the curve (0.5 <= alpha <= 3, p - 1 >= 1.5);
    fs  on the Felli-Schneider curve (0.5 <= alpha <= 3);
    neg alpha < 0, beta between beta_lower and alpha - 2.1.

    beta keeps 15 % of its range away from either end of the class.
    """
    while True:
        point = _draw(rng, cls, N)
        if accept is None or accept(*point):
            return point


def classify(N: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Region tags from the definitional inequalities, with the package's
    tie-breaking order (later assignments win)."""
    lo, hi, fs = beta_lower(N, a), a - 2.0, beta_fs(N, a)
    tag = np.full(a.shape, "ConjecturedSymmetry", dtype=object)
    tag[(a > 0) & (lo < b) & (b < fs)] = "SymmetryBreaking"
    tag[(b == fs) & (a >= 0)] = "FSCurve"
    tag[(b == lo) & (a > 0)] = "CriticalUpperAlphaPos"
    tag[(b == lo) & (a <= 0)] = "CriticalUpperAlphaNeg"
    tag[(a == 0) & (b == -4.0)] = "CriticalUpperAlphaZero"
    tag[b == hi] = "RellichBoundary"
    tag[~((a > 2 - N) & (lo <= b) & (b <= hi))] = "Invalid"
    return tag


def sv_gap(N: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """q^2 (N-1) - (M-1), whose sign is that of the second variation along Z1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 2.0 / (2.0 + b - a)
        M = 2.0 * (N + 2.0 * a - b - 4.0) / (a - b - 2.0)
        return q ** 2 * (N - 1.0) - (M - 1.0)


def _odd(x: float) -> int:
    n = int(round(x))
    return n if n % 2 else n + 1


def _num(x: float) -> str:
    return repr(float(x))


def _point_args(point) -> list[str]:
    """-N, alpha and beta as CLI arguments.  The values are attached with
    ``=``: argparse reads a lone ``-4e-05`` as an option, not a number."""
    N, a, b = point
    return ["-N", str(N), f"--alpha={_num(a)}", f"--beta={_num(b)}"]


# -- CLI operations --------------------------------------------------------------

@dataclass
class CliOp:
    """One ``ckn`` invocation; ``expect`` describes the right answer."""

    argv: list[str]
    kind: str
    expect: dict

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(self.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a failed operation
                code = type(exc).__name__
        return code, out.getvalue()

    def check(self, result) -> Outcome:
        code, text = result
        size = len(text.encode())
        try:
            outcome = CHECKS[self.kind](self.expect, code, text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            outcome = Outcome(False, f"unreadable output: {type(exc).__name__}: {exc}")
        if not outcome.ok:
            command = " ".join(self.argv[:2] if self.argv[0] == "verify" else self.argv[:1])
            outcome.note = f"{command}: {outcome.note}"
        outcome.out_bytes = size
        return outcome


def _exit_failure(code) -> Outcome:
    return Outcome(False, f"exit {code}")


def check_spectrum(expect, code, text) -> Outcome:
    if code != 0:
        return _exit_failure(code)
    rows = {(r["k"], r["index"]): r["eigenvalue"] for r in json.loads(text)["rows"]}
    pm1 = expect["p_minus_1"]
    errs = [abs(rows[(0, 1)] - 1.0), abs(rows[(0, 2)] - pm1) / pm1]
    notes = [f"mode0[{i + 1}] rel err {e:.2e}" for i, e in enumerate(errs) if e > EIG_TOL]
    return Outcome(not notes, "; ".join(notes), errs)


def check_constants(expect, code, text) -> Outcome:
    if code != 0:
        return _exit_failure(code)
    doc = json.loads(text)
    N, a, b = expect["point"]
    T = N + 2.0 * a - b - 4.0
    want = {"p": p_exponent(N, a, b), "gamma": T * T / (N + b) - N,
            "beta_fs": float(beta_fs(N, a))}
    errs = [abs(doc[k] - v) / max(abs(v), 1.0) for k, v in want.items()]
    region = classify(N, np.array([a]), np.array([b]))[0]
    notes = [f"{k} rel err {e:.1e}" for k, e in zip(want, errs) if e > 1e-12]
    if doc["region"] != region:
        notes.append(f"region {doc['region']}, expected {region}")
    return Outcome(not notes, "; ".join(notes))


#: verify checks whose value is a relative error against an exact identity
#: or an exact solution
VERIFY_ERRORS = ("ode_residual", "iid_worst_relerr", "hardy_worst_relerr",
                 "linearized_residual_mode0", "linearized_residual_mode1")


def check_verify(expect, code, text) -> Outcome:
    if code != 0:
        return _exit_failure(code)
    doc = json.loads(text)
    failed = [c["check"] for c in doc["checks"] if not c["pass"]]
    errs = [c["value"] for c in doc["checks"] if c["check"] in VERIFY_ERRORS]
    ok = doc["pass"] is True and not failed and doc["suite"] == expect["suite"]
    return Outcome(ok, f"failed checks {failed}" if not ok else "", errs)


def _map_cells(alpha_range, beta_range):
    """(alpha, beta) of every region-map cell, in the CLI's row order."""
    a_axis = np.linspace(*alpha_range, REGION_RESOLUTION)
    b_axis = np.linspace(*beta_range, REGION_RESOLUTION)
    return np.repeat(a_axis, REGION_RESOLUTION), np.tile(b_axis, REGION_RESOLUTION)


def _region_rows(text: str, fmt: str):
    if fmt == "json":
        rows = json.loads(text)["rows"]
        return ([r["alpha"] for r in rows], [r["beta"] for r in rows],
                [r["region"] for r in rows], [r["beta_fs"] for r in rows],
                [r["sv_sign"] for r in rows])
    lines = text.splitlines()
    if lines[0] != "alpha,beta,region,beta_fs,sv_sign":
        raise ValueError(f"header {lines[0]!r}")
    cols = list(zip(*(line.split(",") for line in lines[1:])))
    sv = [int(s) if s else "" for s in cols[4]]
    return ([float(x) for x in cols[0]], [float(x) for x in cols[1]],
            list(cols[2]), [float(x) for x in cols[3]], sv)


def check_region_map(expect, code, text) -> Outcome:
    if code != 0:
        return _exit_failure(code)
    N = expect["N"]
    alpha, beta, region, bfs, sv = _region_rows(text, expect["format"])
    a, b = _map_cells(expect["alpha_range"], expect["beta_range"])
    if len(alpha) != a.size or not (np.array_equal(alpha, a) and np.array_equal(beta, b)):
        return Outcome(False, "cells differ from the requested ranges")
    tag = classify(N, a, b)
    notes = []
    bad = np.flatnonzero(np.array(region, dtype=object) != tag)
    if bad.size:
        i = bad[0]
        notes.append(f"{bad.size} region tags wrong, e.g. ({a[i]}, {b[i]}): "
                     f"{region[i]} for {tag[i]}")
    if not np.allclose(bfs, beta_fs(N, a), rtol=1e-14, atol=1e-14):
        notes.append("beta_fs column differs from the closed form")
    signed = (tag != "Invalid") & (tag != "RellichBoundary")
    sv_arr = np.array([0 if s == "" else s for s in sv])
    gap = sv_gap(N, a, b)
    want = np.sign(gap)
    want[tag == "SymmetryBreaking"] = -1
    want[(tag == "ConjecturedSymmetry") & (a > 0)] = 1
    blank = np.array([s == "" for s in sv])
    wrong = (signed & (blank | (sv_arr != want))) | (~signed & ~blank)
    if wrong.any():
        notes.append(f"{int(wrong.sum())} sv_sign cells disagree with the closed form")
    return Outcome(not notes, "; ".join(notes))


def check_usage_error(expect, code, text) -> Outcome:
    if code != 2:
        return _exit_failure(code)
    doc = json.loads(text)
    return Outcome("error" in doc, "" if "error" in doc else "no JSON error object")


CHECKS = {"spectrum": check_spectrum, "constants": check_constants,
          "verify": check_verify, "region-map": check_region_map,
          "usage-error": check_usage_error}


# -- certify operations ----------------------------------------------------------

@dataclass
class CertifyOp:
    """A symmetry-breaking certificate from one seeded initial profile."""

    point: tuple[int, float, float]
    init: np.ndarray
    grid: numerics.LogGrid
    expect: dict

    def run(self):
        try:
            P = params.derive(*self.point)
            init = numerics.RadialProfile(grid=self.grid, values=self.init)
            value, _ = variational.minimize_radial(P, init)
            mode = variational.make_mode(P, 1)
            z1 = numerics.RadialProfile(
                grid=self.grid, values=closedform.linearized_mode(P, 1, self.grid.nodes))
            return (value, variational.perturbed_quotient(P, CERT_AMP, mode, z1),
                    variational.perturbed_quotient(P, -CERT_AMP, mode, z1))
        except Exception as exc:  # CknError or a traceback: a failed operation
            return type(exc).__name__

    def check(self, result) -> Outcome:
        if isinstance(result, str):
            return Outcome(False, result)
        value, plus, minus = result
        s_r, sv = self.expect["S_r"], self.expect["sv"]
        err = abs(value - s_r) / s_r
        drops = plus < s_r and minus < s_r
        notes = []
        if err > MIN_TOL:
            notes.append(f"minimum off S_r by {err:.2e}")
        if drops != (sv == -1):
            notes.append(f"quotient drops={drops} but second variation sign {sv}")
        return Outcome(not notes, "; ".join(notes), [err])


# -- streams ---------------------------------------------------------------------

class Workload:
    """A seeded, endless stream of operations in cycles of ``cycle_len``."""

    cycle_len: int

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self._cycles = 0

    def cycle(self) -> list:
        ops = self._make_cycle(self._cycles)
        self._cycles += 1
        self.rng.shuffle(ops)
        return ops

    def ops(self):
        while True:
            yield from self.cycle()

    def _make_cycle(self, c: int) -> list:
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError


class Spectrum(Workload):
    cycle_len = len(SPECTRUM_CLASSES) * SPECTRUM_REPEATS

    def _make_cycle(self, c):
        ops = []
        for cls in SPECTRUM_CLASSES * SPECTRUM_REPEATS:
            N, a, b = draw_point(self.rng, cls, int(self.rng.integers(*SPECTRUM_DIMS)))
            n = _odd(SPECTRUM_N * self.rng.uniform(0.98, 1.02))
            width = self.rng.uniform(13.0, 15.0)
            argv = ["spectrum", *_point_args((N, a, b)),
                    "--kmax", "0", "--format", "json", "-n", str(n),
                    f"--t-min={_num(-width)}", f"--t-max={_num(width)}"]
            ops.append(CliOp(argv, "spectrum", {"p_minus_1": p_exponent(N, a, b) - 1.0}))
        return ops

    def warm_up(self):
        return CliOp(["spectrum", "-N", "5", "-a", "1", "-b", "-3", "--kmax", "0",
                      "--format", "json"], "spectrum", {})


class Certify(Workload):
    classes = ("sb", "cs")
    #: N = 5 is left out: there some symmetry-breaking certificates raise
    #: TailInadequate on the default grid.
    dims = (6, 7, 8)
    cycle_len = len(classes) * len(dims)

    def __init__(self, seed):
        super().__init__(seed)
        self.grid = numerics.make_grid()

    def _op(self, point, bumps):
        N, a, b = point
        t = self.grid.ts
        phi = sum(amp * np.exp(-((t - c) / w) ** 2) for c, w, amp in bumps)
        kappa1 = (N + 2.0 * a - b - 4.0) / 2.0
        P = params.derive(N, a, b)
        expect = {"S_r": closedform.radial_constant_sr(P),
                  "sv": spectral.second_variation_sign(P)}
        return CertifyOp(point, phi * np.exp(-kappa1 * t), self.grid, expect)

    def _make_cycle(self, c):
        ops = []
        for cls in self.classes:
            for N in self.dims:
                point = draw_point(self.rng, cls, N)
                bumps = [(self.rng.uniform(-BUMP_SPREAD, BUMP_SPREAD), self.rng.uniform(0.5, 2.0),
                          self.rng.uniform(0.3, 2.0))
                         for _ in range(int(self.rng.integers(2, 5)))]
                ops.append(self._op(point, bumps))
        return ops

    def warm_up(self):
        return self._op((5, 1.0, -3.0), [(0.0, 1.0, 1.0)])


def ode_ok(N: int, a: float, b: float) -> bool:
    """Points where ``verify ode`` meets its 1e-7 residual with room to
    spare: its residual grows with nu (past 1e-7 from nu = 0.9), and at
    alpha < 0 also as nu falls towards 0 (past 1e-7 below nu = 0.2)."""
    nu = nu_of(N, a, b)
    return nu <= 0.7 and (a > 0 or nu >= 0.5)


def linearized_ok(N: int, a: float, b: float) -> bool:
    """Points where ``verify linearized`` meets its 1e-7 residual with room
    to spare: the mode-0 residual grows as M falls (past 1e-7 below M = 7)."""
    return m_dim(N, a, b) >= 10.0


def equivalence_ok(N: int, a: float, b: float) -> bool:
    """Points where ``verify equivalence`` passes its tail check for every
    random profile it may draw.  The profiles are Gaussians in t centred in
    [-2, 2] with widths up to 2; under the weight exp(2 kappa1 t) their mass
    moves out towards t = 14, and for the widest ones the check raises
    TailInadequate from kappa1 = (N + 2alpha - beta - 4)/2 of about 2.7 on."""
    return (N + 2.0 * a - b - 4.0) / 2.0 <= 2.25


class Survey(Workload):
    cycle_len = 9

    def _point(self, classes=("sb", "cs", "neg"), N=None, accept=None):
        cls = classes[int(self.rng.integers(len(classes)))]
        return draw_point(self.rng, cls, N, accept)

    def _at(self, cmd, point, *extra):
        return [*cmd, *_point_args(point), *extra]

    def _verify(self, suite, point, *extra):
        return CliOp(self._at(["verify", suite], point, "--format", "json", *extra),
                     "verify", {"suite": suite})

    def _region_map(self, fmt):
        # The map's cost grows with its share of admissible cells (from 0.3 s
        # with none to 0.7 s with half), so windows are redrawn until that
        # share is near REGION_ADMISSIBLE, to keep the cost of a map steady.
        while True:
            N = int(self.rng.integers(5, 9))
            a_lo = float(self.rng.uniform(2.2 - N, 1.0))
            b_lo = float(self.rng.uniform(-6.0, -3.5))
            a_hi, b_hi = a_lo + 2.0, b_lo + 3.0
            a, b = _map_cells((a_lo, a_hi), (b_lo, b_hi))
            share = float(np.mean(classify(N, a, b) != "Invalid"))
            if abs(share - REGION_ADMISSIBLE) <= 0.05:
                break
        argv = ["region-map", "-N", str(N), f"--alpha-range={_num(a_lo)}:{_num(a_hi)}",
                f"--beta-range={_num(b_lo)}:{_num(b_hi)}",
                "--resolution", str(REGION_RESOLUTION), "--jobs", "1", "--format", fmt]
        return CliOp(argv, "region-map", {"N": N, "format": fmt,
                                          "alpha_range": (a_lo, a_hi),
                                          "beta_range": (b_lo, b_hi)})

    def _out_of_range(self):
        N, a, b = self._point()
        kind = int(self.rng.integers(4))
        if kind == 0:
            argv = self._at(["constants"], (N, a, a - 2.0 + self.rng.uniform(0.1, 1.0)))
        elif kind == 1:
            argv = self._at(["constants"], (4, a, b))
        elif kind == 2:
            argv = self._at(["spectrum"], (N, a, b), "-n", str(2 * int(self.rng.integers(50, 500))))
        else:
            argv = ["region-map", "-N", str(N), "--alpha-range=1:0", "--beta-range=-4:-1",
                    "--resolution", "20", "--jobs", "1"]
        return CliOp(argv + ["--format", "json"], "usage-error", {})

    def _make_cycle(self, c):
        seed = str(int(self.rng.integers(1 << 30)))
        const_point = self._point()
        return [
            CliOp(self._at(["constants"], const_point, "--format", "json"),
                  "constants", {"point": const_point}),
            self._verify("ode", self._point(("cs", "fs", "neg"), accept=ode_ok)),
            self._verify("identities", self._point(N=int(self.rng.integers(5, 8))),
                         "--seed", seed, "--jobs", "1"),
            self._verify("linearized", self._point(("fs",), accept=linearized_ok)),
            self._verify("equivalence", self._point(("neg",), accept=equivalence_ok),
                         "--seed", seed, "--jobs", "1"),
            CliOp(["verify", "rellich-limit", "-N", str(int(self.rng.integers(5, 9))),
                   "--format", "json"], "verify", {"suite": "rellich-limit"}),
            self._region_map("csv"),
            self._region_map("json"),
            self._out_of_range(),
        ]

    def warm_up(self):
        point = (5, 1.0, -2.0)
        return CliOp(self._at(["constants"], point, "--format", "json"),
                     "constants", {"point": point})


WORKLOADS = {"spectrum": Spectrum, "certify": Certify, "survey": Survey}
