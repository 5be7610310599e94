"""Command-line front end: constants, verification suites, spectra, region
maps, and radial minimization, with machine-readable output.

Grid and tolerance defaults can be pinned in a plain-text config file of
``key = value`` lines (keys: t_min, t_max, n), selected with --config or
the CKN_CONFIG environment variable; explicit flags win over the config,
which wins over the built-ins.  Exit codes: 0 success, 1 assertion or
convergence failure, 2 usage/validation error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import closedform, identities, numerics, spectral, transforms, variational
from .errors import (CknError, Diverged, MaxIters, NoConvergence, TailInadequate)
from .numerics import RadialProfile, make_grid
from .params import (CknParams, RegionClass, beta_lower, derive, exponents,
                     felli_schneider, regions, second_variation_gap)

_USAGE_ERRORS = 2
_CHECK_ERRORS = 1

VERIFY_SUITES = ("ode", "identities", "linearized", "equivalence", "rellich-limit")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _to_json(obj, indent=0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        items = [f'{pad}  "{k}": {_to_json(obj[k], indent + 2).lstrip()}'
                 for k in sorted(obj)]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [_to_json(v, indent + 2) for v in obj]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if obj is None:
        return pad + "null"
    if isinstance(obj, float):
        if math.isnan(obj):
            return pad + "null"
        return pad + f"{obj:.17g}"
    if isinstance(obj, int):
        return pad + str(obj)
    return pad + '"' + str(obj).replace('"', '\\"') + '"'


def emit(doc: dict, fmt: str, csv_rows=None, csv_header=None) -> None:
    if fmt == "json":
        sys.stdout.write(_to_json(doc) + "\n")
    elif fmt == "csv":
        if csv_rows is None:
            csv_header = sorted(doc)
            csv_rows = [[doc[k] for k in csv_header]]
        sys.stdout.write(",".join(csv_header) + "\n")
        for row in csv_rows:
            sys.stdout.write(",".join(_fmt(v) for v in row) + "\n")
    else:
        for key, val in _flatten(doc):
            sys.stdout.write(f"{key} = {_fmt(val)}\n")


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{prefix}{k}." if prefix == "" else f"{prefix}{k}.")
        return
    if isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
        return
    yield prefix[:-1], obj


def _emit_error(exc: Exception, fmt: str) -> None:
    emit({"error": type(exc).__name__, "message": str(exc)}, "json" if fmt == "csv" else fmt)


def load_config(path: str | None) -> dict:
    path = path or os.environ.get("CKN_CONFIG")
    cfg = {}
    if not path:
        return cfg
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, val = line.partition("=")
            cfg[key.strip()] = val.strip()
    return cfg


def _grid_from(args, cfg) -> numerics.LogGrid:
    def pick(flag, key, default, cast):
        if flag is not None:
            return flag
        if key in cfg:
            return cast(cfg[key])
        return default

    return make_grid(pick(args.t_min, "t_min", numerics.DEFAULT_T_MIN, float),
                     pick(args.t_max, "t_max", numerics.DEFAULT_T_MAX, float),
                     pick(args.n, "n", numerics.DEFAULT_N, int))


def _params_from(args) -> CknParams:
    return derive(args.dim, args.alpha, args.beta)


def _constants_doc(P: CknParams) -> dict:
    doc = {
        "N": P.N, "alpha": P.alpha, "beta": P.beta, "gamma": P.gamma,
        "p": P.p, "kappa1": P.kappa1, "kappa2": P.kappa2, "K2": P.K2,
        "K0": P.K0, "m": P.m_exp, "nu": P.nu, "q": P.q_pow, "a": P.a_shift,
        "M": P.M_dim, "beta_fs": P.beta_fs, "C_amp": P.C_amp,
        "region": P.region.value,
        "S0": closedform.sobolev_s0(P.N),
        "omega": closedform.omega_sphere(P.N),
    }
    if P.subcritical:
        doc["S_r"] = closedform.radial_constant_sr(P)
        doc["B_M"] = closedform.b_of_m(P.M_dim)
    else:
        doc["S_rellich"] = closedform.rellich_constant(P.N, P.alpha)
    if 2 - P.N < P.alpha < 0:
        doc["S_critical"] = closedform.critical_constant(P.N, P.alpha)
    return doc


def cmd_constants(args) -> int:
    doc = _constants_doc(_params_from(args))
    emit(doc, args.format)
    return 0


def _random_profiles(grid, seed: int, count: int):
    rng = np.random.RandomState(seed)
    t = grid.ts
    for _ in range(count):
        c = rng.uniform(-2.0, 2.0)
        width = rng.uniform(0.6, 2.0)
        amp = rng.uniform(0.5, 2.0)
        yield RadialProfile(grid=grid, values=amp * np.exp(-((t - c) / width) ** 2))


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    checks = []

    def check(name, value, tol, ok=None):
        ok = (value <= tol) if ok is None else ok
        checks.append({"check": name, "value": value, "tolerance": tol, "pass": bool(ok)})

    if args.suite == "ode":
        P = _params_from(args)
        r1, r2, r3 = transforms.cosh_ansatz_check(P)
        check("cosh_relation_1", r1, 1e-10)
        check("cosh_relation_2", r2, 1e-10)
        check("cosh_relation_3", r3, 1e-10)
        lo, hi, n_check = transforms.ODE_CHECK_GRID
        n_eff = args.n if args.n is not None else int(cfg.get("n", n_check))
        ef = transforms.cosh_profile(P, make_grid(lo, hi, n_eff))
        check("ode_residual", transforms.ode_residual(ef), 1e-7)
    elif args.suite == "identities":
        P = _params_from(args)
        grid = _grid_from(args, cfg)
        results = [(identities.verify_iid(prof, k, P.N)[2],
                    identities.verify_hardy_identity(prof, k, P.N)[2])
                   for prof in _random_profiles(grid, args.seed, 20) for k in range(4)]
        check("iid_worst_relerr", max(r[0] for r in results), 1e-5)
        check("hardy_worst_relerr", max(r[1] for r in results), 1e-5)
        alphas = np.linspace(2 - P.N + 1e-3, 3.0, 200)
        sign_ok = all(identities.xi_sign(P.N, a)[1] == int(a > 0) - int(a < 0)
                      for a in alphas)
        check("xi_sign_matches_sign_alpha", 0.0, 0.0, ok=sign_ok)
        worst_s = max(abs(closedform.rellich_constant(P.N, float(a))
                          - closedform.rellich_constant_alt(P.N, float(a)))
                      / closedform.rellich_constant(P.N, float(a))
                      for a in np.linspace(2 - P.N + 0.1, 4.0, 50))
        check("rellich_closed_forms_agree", worst_s, 1e-10)
        if 2 - P.N < P.alpha < 0:
            l1, r1_, l2, r2_ = identities.rellich_coeff_identities(P.N, P.alpha)
            check("coeff_identity_1", abs(l1 - r1_) / max(abs(r1_), 1e-30), 1e-10)
            check("coeff_identity_2", abs(l2 - r2_) / max(abs(r2_), 1e-30), 1e-10)
    elif args.suite == "linearized":
        P = _params_from(args)
        grid = _grid_from(args, cfg)
        check("linearized_residual_mode0", spectral.linearized_residual(P, 0, grid), 1e-7)
        res1 = spectral.linearized_residual(P, 1, grid)
        if abs(P.beta - P.beta_fs) < 1e-6:
            # the mode-1 profile is an exact solution only on the curve
            check("linearized_residual_mode1", res1, 1e-7)
        else:
            checks.append({"check": "linearized_residual_mode1_off_curve",
                           "value": res1, "tolerance": None, "pass": True})
    elif args.suite == "equivalence":
        P = _params_from(args)
        grid = _grid_from(args, cfg)
        bracket = identities.equivalence_bracket(P)
        ratios = [identities.equivalence_ratio(prof, k, P)
                  for prof in _random_profiles(grid, args.seed, 20) for k in range(4)]
        inside = all(1.0 / bracket <= r <= bracket for r in ratios)
        check("ratios_inside_bracket", max(ratios), bracket, ok=inside)
        if P.alpha == 0.0:
            check("ratio_is_one_at_alpha_zero",
                  max(abs(r - 1.0) for r in ratios), 1e-14)
    else:          # rellich-limit
        eps_list = sorted((float(e) for e in args.eps.split(",")), reverse=True)
        n = int(cfg.get("n", numerics.DEFAULT_N))
        grid = closedform.rellich_limit_grid(n)
        limit = ((args.dim - 4) / 2.0) ** 4
        quotients = [closedform.rellich_test_quotient(args.dim, e, grid) for e in eps_list]
        mono = all(a > b for a, b in zip(quotients, quotients[1:]))
        check("quotients_strictly_decreasing", 0.0, 0.0, ok=mono)
        check("quotients_above_limit", 0.0, 0.0, ok=all(q > limit for q in quotients))
        if eps_list and eps_list[-1] <= 0.011:
            check("within_5pct_at_smallest_eps",
                  abs(quotients[-1] - limit) / limit, 0.05)
        checks.append({"check": "quotients", "value": quotients,
                       "tolerance": limit, "pass": True})

    doc = {"suite": args.suite, "seed": args.seed, "checks": checks,
           "pass": all(c["pass"] for c in checks)}
    emit(doc, args.format,
         csv_rows=[[c["check"], c["value"], c["tolerance"], c["pass"]] for c in checks],
         csv_header=["check", "value", "tolerance", "pass"])
    return 0 if doc["pass"] else _CHECK_ERRORS


def cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    P = _params_from(args)
    grid = _grid_from(args, cfg)
    rows = []
    for k in range(args.kmax + 1):
        solves = spectral._mode_solves(P, variational.make_mode(P, k), grid)
        rows += [[k, idx, r.eigenvalue, r.residual, r.iters] for idx, r in enumerate(solves, 1)]
    doc = {"N": P.N, "alpha": P.alpha, "beta": P.beta, "p_minus_1": P.p - 1.0,
           "rows": [{"k": r[0], "index": r[1], "eigenvalue": r[2],
                     "residual": r[3], "iters": r[4]} for r in rows]}
    emit(doc, args.format, csv_rows=rows,
         csv_header=["k", "index", "eigenvalue", "residual", "iters"])
    return 0


def cmd_region_map(args) -> int:
    N, res = args.dim, args.resolution
    try:
        (a_lo, a_hi), (b_lo, b_hi) = ends = [[float(x) for x in r.split(":")]
                                             for r in (args.alpha_range, args.beta_range)]
        if not np.isfinite(ends).all():
            raise ValueError
    except ValueError:
        raise CknError(f"malformed range: alpha {args.alpha_range!r}, "
                       f"beta {args.beta_range!r}; need finite lo:hi") from None
    if a_hi < a_lo or b_hi < b_lo or res < 1:
        raise CknError(f"empty or inverted ranges: alpha {args.alpha_range}, "
                       f"beta {args.beta_range}, resolution {res}")
    alphas, betas = np.linspace(a_lo, a_hi, res), np.linspace(b_lo, b_hi, res)
    # scalar curves, once per alpha: beta_fs and every tie match derive() bit for bit
    bfs = [felli_schneider(N, float(a)) for a in alphas]
    lo = [beta_lower(N, float(a)) for a in alphas]
    a, b = alphas[:, None], betas[None, :]
    tags = regions(N, a, b, np.array(lo)[:, None], np.array(bfs)[:, None])
    with np.errstate(all="ignore"):
        sv = np.sign(second_variation_gap(N, *exponents(N, a, b))).astype(int) + 1
    sv[np.isin(tags, (RegionClass.INVALID.value, RegionClass.RELLICH_BOUNDARY.value))] = 3
    as_json = args.format == "json"
    sv_text = ["-1", "0", "1", '""' if as_json else ""]
    tags, svs = tags.tolist(), [[sv_text[v] for v in row] for row in sv.tolist()]

    def num(x) -> str:
        return "null" if as_json and math.isnan(x) else _fmt(float(x))

    bs = [num(x) for x in betas]
    cells = [(num(a), num(f), zip(bs, tag_row, sv_row))
             for a, f, tag_row, sv_row in zip(alphas, bfs, tags, svs)]
    if as_json:
        rows = ",\n".join([f'    {{\n      "alpha": {a},\n      "beta": {b},\n'
                           f'      "beta_fs": {f},\n      "region": "{tag}",\n'
                           f'      "sv_sign": {v}\n    }}'
                           for a, f, row in cells for b, tag, v in row])
        sys.stdout.write(f'{{\n  "N": {N},\n  "rows": [\n{rows}\n  ]\n}}\n')
    else:
        sys.stdout.write("alpha,beta,region,beta_fs,sv_sign\n" + "".join(
            [f"{a},{b},{tag},{f},{v}\n" for a, f, row in cells for b, tag, v in row]))
    return 0


def cmd_minimize(args) -> int:
    cfg = load_config(args.config)
    P = _params_from(args)
    grid = _grid_from(args, cfg)
    t = grid.ts
    if args.init:
        try:
            vals = np.loadtxt(args.init, dtype=float, ndmin=1)
        except (ValueError, OSError) as exc:
            raise CknError(f"unreadable init file {args.init}: {exc}") from exc
        if vals.ndim != 1 or len(vals) != grid.n:
            raise CknError(f"init file must hold {grid.n} values, got shape {vals.shape}")
        init = RadialProfile(grid=grid, values=vals * np.exp(-P.kappa1 * t))
    else:
        init = RadialProfile(grid=grid, values=np.exp(-t * t - P.kappa1 * t))
    value, profile = variational.minimize_radial(P, init, max_iters=args.max_iters)
    s_r = closedform.radial_constant_sr(P)
    doc = {"value": value, "S_r": s_r, "relative_gap": (value - s_r) / s_r}
    if args.perturb is not None:
        mode = variational.make_mode(P, 1)
        z1 = RadialProfile(grid=grid, values=closedform.linearized_mode(P, 1, grid.nodes))
        doc["perturbed_plus"] = variational.perturbed_quotient(P, args.perturb, mode, z1)
        doc["perturbed_minus"] = variational.perturbed_quotient(P, -args.perturb, mode, z1)
        doc["drops_below_radial"] = bool(doc["perturbed_plus"] < s_r
                                         and doc["perturbed_minus"] < s_r)
    emit(doc, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ckn", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, params=True):
        p.add_argument("-N", "--dim", type=int, required=True, help="dimension N >= 5")
        if params:
            p.add_argument("-a", "--alpha", type=float, required=True)
            p.add_argument("-b", "--beta", type=float, required=True)
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--config", default=None, help="key=value file; or env CKN_CONFIG")
        p.add_argument("--t-min", type=float, default=None)
        p.add_argument("--t-max", type=float, default=None)
        p.add_argument("-n", type=int, default=None, help="grid nodes (odd)")

    p = sub.add_parser("constants", help="derived scalars and best constants")
    add_common(p)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=VERIFY_SUITES)
    add_common(p, params=False)
    p.add_argument("-a", "--alpha", type=float, default=0.0)
    p.add_argument("-b", "--beta", type=float, default=-4.0)
    p.add_argument("--eps", default="0.3,0.1,0.03,0.01",
                   help="comma list of eps for rellich-limit")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("spectrum", help="per-mode linearized eigenvalues")
    add_common(p)
    p.add_argument("--kmax", type=int, default=2)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("region-map", help="grid of region tags for plotting")
    p.add_argument("-N", "--dim", type=int, required=True)
    p.add_argument("--alpha-range", required=True, help="lo:hi")
    p.add_argument("--beta-range", required=True, help="lo:hi")
    p.add_argument("--resolution", type=int, required=True, help="cells per axis")
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    p.add_argument("--format", choices=("json", "csv", "text"), default="csv")
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_region_map)

    p = sub.add_parser("minimize", help="radial quotient minimization")
    add_common(p)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--perturb", type=float, default=None,
                   help="also evaluate the mode-1 perturbed quotient at +-t")
    p.add_argument("--init", default=None, help="file of u samples, one per line")
    p.set_defaults(fn=cmd_minimize)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fmt = getattr(args, "format", "text")
    try:
        return args.fn(args)
    except (TailInadequate, Diverged, MaxIters, NoConvergence) as exc:
        _emit_error(exc, fmt)
        return _CHECK_ERRORS
    except CknError as exc:
        _emit_error(exc, fmt)
        return _USAGE_ERRORS


if __name__ == "__main__":
    sys.exit(main())
