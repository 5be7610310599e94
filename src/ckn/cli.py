"""Command-line front end: constants, verification suites, spectra, region
maps, and radial minimization, with machine-readable output.

Grid defaults can be pinned in a plain-text config file of
``key = value`` lines (keys: t_min, t_max, n), selected with --config or
the CKN_CONFIG environment variable; explicit flags win over the config,
which wins over the built-ins.  Exit codes: 0 success, 1 assertion or
convergence failure, 2 usage/validation error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import _forms, closedform, identities, numerics, spectral, transforms, variational
from .errors import BadGridSpec, CknError, MaxIters, NoConvergence, OutOfMemory, TailInadequate
from .numerics import RadialProfile, make_grid
from .params import (CknParams, beta_lower, derive, exponents, felli_schneider, regions,
                     second_variation_gap)

_USAGE_ERRORS = 2
_CHECK_ERRORS = 1

VERIFY_SUITES = ("ode", "identities", "linearized", "equivalence", "rellich-limit")
#: region-map text per format: head, cell prefix (alpha), cell suffix, cell separator, tail
_MAP_TEXT = {
    "json": ('{{\n  "N": {N},\n  "rows": [\n', '    {{\n      "alpha": {},\n      "beta": ',
             ',\n      "beta_fs": {f},\n      "region": "{tag}",\n      "sv_sign": {v}\n    }}',
             ",\n", "\n  ]\n}\n"),
    "csv": ("alpha,beta,region,beta_fs,sv_sign\n", "{},", ",{tag},{f},{v}\n", "", "")}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, (list, tuple)):          # one csv field, quoted by emit
        return ",".join(map(_fmt, x))
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
    if isinstance(obj, float):
        return pad + (f"{obj:.17g}" if math.isfinite(obj) else "null")
    plain = obj is None or isinstance(obj, int)      # null, an integer, or true or false (ints)
    return pad + json.dumps(obj if plain else str(obj), ensure_ascii=False)


def emit(doc: dict, fmt: str, csv_rows=None, csv_header=None) -> None:
    if fmt == "json":
        sys.stdout.write(_to_json(doc) + "\n")
    elif fmt == "csv":
        if csv_rows is None:
            csv_header = sorted(doc)
            csv_rows = [[doc[k] for k in csv_header]]
        csv.writer(sys.stdout, lineterminator="\n").writerows(     # RFC 4180 quoting
            [csv_header, *([_fmt(v) for v in row] for row in csv_rows)])
    else:
        for key, val in _flatten(doc):
            sys.stdout.write(f"{key} = {_fmt(val)}\n")


def _flatten(obj, prefix=""):
    if not isinstance(obj, (dict, list, tuple)):
        yield prefix[:-1], obj
        return
    for k, v in sorted(obj.items()) if isinstance(obj, dict) else enumerate(obj):
        yield from _flatten(v, f"{prefix}{k}.")


def _emit_error(exc: Exception, fmt: str) -> None:
    emit({"error": type(exc).__name__, "message": str(exc)}, "json" if fmt == "csv" else fmt)


def load_config(path: str | None) -> dict:
    path = path or os.environ.get("CKN_CONFIG")
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            pairs = [line.strip().partition("=") for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise CknError(f"unreadable config file {path}: {exc}") from None
    # key = value lines; blank lines, comments (#) and lines without "=" are skipped
    return {key.strip(): val.strip() for key, eq, val in pairs if eq and not key.startswith("#")}


def _settings(args) -> dict:
    """make_grid's pinned arguments: the config's t_min, t_max and n, cast, under the flags
    that are given.  The one parse of the config; CknError where a value is malformed."""
    cfg, keys = load_config(args.config), (("t_min", float), ("t_max", float), ("n", int))
    try:
        out = {key: cast(cfg[key]) for key, cast in keys if key in cfg}
    except ValueError as exc:
        raise CknError(f"malformed config value: {exc}") from None
    return out | {key: getattr(args, key) for key, _ in keys if getattr(args, key) is not None}


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
    emit(_constants_doc(derive(args.dim, args.alpha, args.beta)), args.format)
    return 0


def _random_profiles(grid, seed: int, count: int) -> list:
    """Seeded Gaussians in t, with the t-derivatives that every mode shares."""
    if not 0 <= seed < 2 ** 32:
        raise CknError(f"need 0 <= seed < 2^32 for --seed, got {seed}")
    rows = [numerics.diff_rows(grid.h, k) for k in (1, 2)]
    draws = np.random.RandomState(seed).uniform((-2.0, 0.6, 0.5), 2.0, (count, 3)).tolist()
    return [RadialProfile(grid, v, *(numerics.apply_rows(r, v) for r in rows)) for v in
            (amp * np.exp(-((grid.ts - centre) / width) ** 2) for centre, width, amp in draws)]


def cmd_verify(args) -> int:
    if args.suite in ("ode", "linearized") and (args.n, args.t_min, args.t_max) != (None,) * 3:
        raise BadGridSpec(f"verify {args.suite} runs on the domain derived from (N, alpha, beta) "
                          "that spectrum solves on: it takes no -n, --t-min or --t-max")
    if args.suite == "rellich-limit" and (args.t_min, args.t_max) != (None, None):
        own = closedform.rellich_limit_grid()
        raise BadGridSpec(f"verify rellich-limit keeps its own domain, t in [{own.t_min:g}, "
                          f"{own.t_max:g}]: of the grid flags only -n applies")
    settings = _settings(args)
    checks = []

    def check(name, value, tol, ok=None):
        ok = (value <= tol) if ok is None else ok
        checks.append({"check": name, "value": value, "tolerance": tol, "pass": bool(ok)})

    if args.suite != "rellich-limit":
        P = derive(args.dim, args.alpha, args.beta)
    if args.suite in ("identities", "equivalence"):
        grid = make_grid(**settings)
    if args.suite == "ode":
        r1, r2, r3 = transforms.cosh_ansatz_check(P)
        check("cosh_relation_1", r1, 1e-10)
        check("cosh_relation_2", r2, 1e-10)
        check("cosh_relation_3", r3, 1e-10)
        check("ode_residual", spectral.linearized_residual(P, 0, 0), 1e-7)     # U, nu_00 = 1
    elif args.suite == "identities":
        profs = _random_profiles(grid, args.seed, 20)
        # zip draws both in turn: tail checks fail in the order profile, mode, iid, hardy
        results = list(zip(identities.verify_iid(profs, range(4), P.N),
                           identities.verify_hardy_identity(profs, range(4), P.N)))
        check("iid_worst_relerr", max(i[2] for i, _ in results), 1e-5)
        check("hardy_worst_relerr", max(h[2] for _, h in results), 1e-5)
        alphas = np.linspace(2 - P.N + 1e-3, 3.0, 200)      # xi_sign's formula, in range
        check("xi_sign_matches_sign_alpha", 0.0, 0.0,
              ok=np.array_equal(np.sign(identities._xi(P.N, alphas)), np.sign(alphas)))
        worst_s = max(abs(s - closedform.rellich_constant_alt(P.N, a)) / s
                      for a in np.linspace(2 - P.N + 0.1, 4.0, 50).tolist()
                      for s in (closedform.rellich_constant(P.N, a),))
        check("rellich_closed_forms_agree", worst_s, 1e-10)
        if 2 - P.N < P.alpha < 0:
            l1, r1_, l2, r2_ = identities.rellich_coeff_identities(P.N, P.alpha)
            check("coeff_identity_1", abs(l1 - r1_) / max(abs(r1_), 1e-30), 1e-10)
            check("coeff_identity_2", abs(l2 - r2_) / max(abs(r2_), 1e-30), 1e-10)
    elif args.suite == "linearized":
        for k, n in ((0, 1), (1, 0), (2, 0)):
            check(f"linearized_residual_mode{k}", spectral.linearized_residual(P, k, n), 1e-7)
    elif args.suite == "equivalence":
        ratios = list(identities.equivalence_ratio(_random_profiles(grid, args.seed, 20),
                                                   range(4), P))
        lo, hi = identities.equivalence_bounds(P)
        check("ratios_above_lower_bound", min(ratios), lo, ok=min(ratios) >= lo)
        check("ratios_below_upper_bound", max(ratios), hi)
        if P.alpha == 0.0:
            check("ratio_is_one_at_alpha_zero",
                  max(abs(r - 1.0) for r in ratios), 1e-14)
    else:          # rellich-limit
        try:
            eps_list = sorted((float(e) for e in args.eps.split(",")), reverse=True)
        except ValueError:
            raise CknError(f"malformed --eps {args.eps!r}: need a comma list of numbers") from None
        if len(set(eps_list)) < len(eps_list):
            raise CknError(f"malformed --eps {args.eps!r}: a value repeats")
        grid = closedform.rellich_limit_grid(settings.get("n", numerics.DEFAULT_N))
        limit = ((args.dim - 4) / 2.0) ** 4
        quotients = closedform.rellich_test_quotient(args.dim, eps_list, grid)
        mono = all(a > b for a, b in zip(quotients, quotients[1:]))
        check("quotients_strictly_decreasing", 0.0, 0.0, ok=mono)
        check("quotients_above_limit", 0.0, 0.0, ok=all(q > limit for q in quotients))
        if eps_list and eps_list[-1] <= 0.011:
            check("within_5pct_at_smallest_eps",
                  abs(quotients[-1] - limit) / limit, 0.05)
        check("quotients", quotients, limit, ok=True)

    doc = {"suite": args.suite, "seed": args.seed, "checks": checks,
           "pass": all(c["pass"] for c in checks)}
    emit(doc, args.format,
         csv_rows=[[c["check"], c["value"], c["tolerance"], c["pass"]] for c in checks],
         csv_header=["check", "value", "tolerance", "pass"])
    return 0 if doc["pass"] else _CHECK_ERRORS


def cmd_spectrum(args) -> int:
    if args.kmax < 0:
        raise CknError(f"need --kmax >= 0, got {args.kmax}")
    P = derive(args.dim, args.alpha, args.beta)
    modes = [variational.make_mode(P, k) for k in range(args.kmax + 1)]
    _forms.scale_rule(P, make_grid(**_settings(args)))      # the grid's rules, before any solve
    rows = []
    for mode in modes:      # eigenvalues only: no profile is printed, so none is sampled
        nus, residuals, iters, _ = spectral._mode_solve(P, mode)
        rows += [[mode.k, i + 1, nus[i], residuals[i], iters] for i in range(len(nus))]
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
        if not np.isfinite([*ends, (a_hi - a_lo, b_hi - b_lo)]).all():
            raise ValueError
    except ValueError:
        raise CknError(f"malformed range: alpha {args.alpha_range!r}, beta "
                       f"{args.beta_range!r}; need finite lo:hi, hi - lo finite") from None
    if a_hi < a_lo or b_hi < b_lo or res < 1:
        raise CknError(f"empty or inverted ranges: alpha {args.alpha_range}, "
                       f"beta {args.beta_range}, resolution {res}")
    alphas, betas = np.linspace(a_lo, a_hi, res), np.linspace(b_lo, b_hi, res)
    bfs = felli_schneider(N, alphas)        # bit for bit the scalar's, so ties match derive()
    a, b = alphas[:, None], betas[None, :]
    codes, names = regions(N, a, b, beta_lower(N, a), bfs[:, None])
    sv, signed = np.full(codes.shape, 3), codes >= 2    # Invalid and RellichBoundary: no sign
    with np.errstate(all="ignore"):
        sv[signed] = np.sign(second_variation_gap(N, *exponents(
            N, *(np.broadcast_to(x, codes.shape)[signed] for x in (a, b))))).astype(int) + 1
    as_json = args.format == "json"
    sv_text = ["-1", "0", "1", '""' if as_json else ""]
    bs, fs, als = ([f"{x:.17g}" if math.isfinite(x) or not as_json else "null" for x in v.tolist()]
                   for v in (betas, bfs, alphas))     # json: NaN, inf as null
    # A cell is pre(alpha) + beta + suf(beta_fs, tag, sv_sign), cells are joined by sep, and
    # along a row tag and sign stay equal over long runs: one str.join writes a run.
    head, pre, suf, sep, tail = _MAP_TEXT["json" if as_json else "csv"]
    pres = [pre.format(x) for x in als]
    halves = [[suf.format(f="\0", tag=t, v=x).split("\0") for x in sv_text] for t in names]
    key = codes * 4 + sv            # run starts: column 0 and every change of key along a row
    rows, cols = np.nonzero(np.hstack((key[:, :1] >= 0, key[:, 1:] != key[:, :-1])))
    out = [head.format(N=N)]
    for i, j, e, c, v in zip(rows.tolist(), cols.tolist(), np.append(cols[1:], 0).tolist(),
                             codes[rows, cols].tolist(), sv[rows, cols].tolist()):
        p, s = pres[i], fs[i].join(halves[c][v])     # suf with its beta_fs, tag and sign
        out += [p, (s + sep + p).join(bs[j:e or res]), s, sep]     # e = 0: the row ends
    out[-1] = tail
    sys.stdout.writelines(out)
    return 0


def cmd_minimize(args) -> int:
    P = derive(args.dim, args.alpha, args.beta)
    grid = make_grid(**_settings(args))
    t = grid.ts
    if args.init:
        try:
            vals = np.loadtxt(args.init, dtype=float, ndmin=1)
        except (ValueError, OSError) as exc:
            raise CknError(f"unreadable init file {args.init}: {exc}") from exc
        init = RadialProfile(grid=grid, values=vals)
    else:
        init = RadialProfile(grid=grid, values=numerics.grid_exp(-t * t - P.kappa1 * t, "init"))
    value, profile = variational.minimize_radial(P, init, max_iters=args.max_iters)
    s_r = closedform.radial_constant_sr(P)
    doc = {"value": value, "S_r": s_r, "relative_gap": (value - s_r) / s_r}
    if args.perturb is not None:
        mode = variational.make_mode(P, 1)
        shape = closedform.extremal_shape(P, t, 1.0 - P.M_dim / 2.0)   # r^{kappa1} Z1, in t
        z1 = RadialProfile(grid=grid, values=_forms.from_scaled(P, grid, shape))
        doc["perturbed_plus"] = variational.perturbed_quotient(P, args.perturb, mode, z1)
        doc["perturbed_minus"] = variational.perturbed_quotient(P, -args.perturb, mode, z1)
        q0 = variational.perturbed_quotient(P, 0.0, mode, z1)    # this grid's radial quotient
        doc["drops_below_radial"] = bool(doc["perturbed_plus"] < q0 and doc["perturbed_minus"] < q0)
    emit(doc, args.format)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ckn", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, params=True, grid=True):
        p.add_argument("-N", "--dim", type=int, required=True, help="dimension N >= 5")
        if params:
            p.add_argument("-a", "--alpha", type=float, required=True)
            p.add_argument("-b", "--beta", type=float, required=True)
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        if grid:
            p.add_argument("--config", default=None, help="key=value file; or env CKN_CONFIG")
            p.add_argument("--t-min", type=float, default=None)
            p.add_argument("--t-max", type=float, default=None)
            p.add_argument("-n", type=int, default=None, help="grid nodes (odd)")

    p = sub.add_parser("constants", help="derived scalars and best constants")
    add_common(p, grid=False)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("verify", help="run a named verification suite", description="Grid flags: "
                       "identities and equivalence take -n, --t-min and --t-max, rellich-limit "
                       "only -n, ode and linearized none (their domain is derived).")
    p.add_argument("suite", choices=VERIFY_SUITES)
    add_common(p, params=False)
    p.add_argument("-a", "--alpha", type=float, default=0.0)
    p.add_argument("-b", "--beta", type=float, default=-4.0)
    p.add_argument("--eps", default="0.3,0.1,0.03,0.01",
                   help="comma list of eps for rellich-limit")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("spectrum", help="per-mode linearized eigenvalues",
                       description="Eigenvalues on a domain derived from (N, alpha, beta). -n, "
                       "--t-min and --t-max must pass make_grid's rules and keep r^(-kappa1) "
                       "finite, but sample nothing: no printed number depends on them.")
    add_common(p)
    p.add_argument("--kmax", type=int, default=2)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("region-map", help="grid of region tags for plotting")
    p.add_argument("-N", "--dim", type=int, required=True)
    p.add_argument("--alpha-range", required=True, help="lo:hi")
    p.add_argument("--beta-range", required=True, help="lo:hi")
    p.add_argument("--resolution", type=int, required=True, help="cells per axis")
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    p.add_argument("--format", choices=("json", "csv", "text"), default="csv",
                   help="text writes csv")
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
    except (TailInadequate, MaxIters, NoConvergence) as exc:
        _emit_error(exc, fmt)
        return _CHECK_ERRORS
    except CknError as exc:
        _emit_error(exc, fmt)
        return _USAGE_ERRORS
    except MemoryError as exc:        # numpy's, for an array the request sizes: a usage error
        _emit_error(OutOfMemory(str(exc) or "out of memory"), fmt)
        return _USAGE_ERRORS


if __name__ == "__main__":
    sys.exit(main())
