import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ckn
from ckn import _forms, cli, identities, spectral
from ckn.cli import build_parser, emit, load_config, main
from ckn.params import RegionClass, beta_lower, derive, felli_schneider, region_of
from ckn.spectral import second_variation_sign
from conftest import count_matvecs, random_profiles


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def count_calls(monkeypatch, *targets):
    """Wrap each (module, name) so that calls are counted; returns the counts."""
    calls = {}
    for module, name in targets:
        calls[name] = 0

        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestConstants:
    def test_json_document(self, capsys):
        code, out = run(capsys, "constants", "-N", "5", "-a", "1", "-b", "-2",
                        "--format", "json")
        assert code == 0
        assert out.endswith("\n")
        doc = json.loads(out)
        assert doc["M"] == pytest.approx(10.0)
        assert doc["p"] == pytest.approx(10.0 / 3.0, rel=1e-12)
        assert doc["beta_fs"] == pytest.approx(-2.65685424949238, rel=1e-12)
        assert "S_r" in doc
        assert list(doc) == sorted(doc)

    def test_negative_alpha_reports_critical_constant(self, capsys):
        # 2 - N < alpha < 0: the sharp constant of the critical lower boundary rides along
        code, out = run(capsys, "constants", "-N", "5", "-a", "-1", "-b", "-3.5",
                        "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["S_critical"] == ckn.critical_constant(5, -1.0) == 27.972867094209988

    def test_zero_case_reports_s0(self, capsys):
        code, out = run(capsys, "constants", "-N", "5", "-a", "0", "-b", "-4",
                        "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["region"] == "CriticalUpperAlphaZero"
        assert doc["S_r"] == pytest.approx(doc["S0"], rel=1e-10)

    def test_invalid_dimension_exit_2(self, capsys):
        code, out = run(capsys, "constants", "-N", "4", "-a", "0", "-b", "-4",
                        "--format", "json")
        assert code == 2
        assert json.loads(out)["error"] == "InvalidDimension"

    @pytest.mark.parametrize("N", [5, 6, 8])
    def test_beta_lower_rounds_to_minus_n(self, capsys, N):
        # at alpha = nextafter(2 - N, inf), beta_lower(alpha) rounds to -N,
        # where gamma used to divide by N + beta = 0
        alpha = math.nextafter(2.0 - N, math.inf)
        assert beta_lower(N, alpha) == -N
        code, out = run(capsys, "constants", "-N", str(N), f"--alpha={alpha!r}",
                        f"--beta={-N}", "--format", "json")
        assert code == 2
        assert json.loads(out)["error"] == "BetaOutOfRange"

    @pytest.mark.parametrize("alpha,beta,error", [
        ("1e200", "5e199", "ScalarOverflow"), ("1.5e77", "5e76", "ScalarOverflow"),
        ("inf", "inf", "AlphaOutOfRange")])
    def test_unrepresentable_point_exit_2(self, capsys, alpha, beta, error):
        # used to end in an OverflowError traceback, in "C_amp": inf, or (alpha = inf)
        # in a RellichBoundary document
        code, out = run(capsys, "constants", "-N", "5", f"--alpha={alpha}", f"--beta={beta}",
                        "--format", "json")
        assert code == 2
        assert json.loads(out)["error"] == error

    def test_overflowing_amplitude_is_null(self, capsys):
        # C_amp = inf here was printed as a bare inf, which no JSON parser reads
        def reject(name):
            raise ValueError(f"not JSON: {name}")

        code, out = run(capsys, "constants", "-N", "5", "-a", "1", "-b", "-1.0001",
                        "--format", "json")
        assert code == 0
        doc = json.loads(out, parse_constant=reject)
        assert doc["C_amp"] is None and doc["M"] == pytest.approx(80002.0)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_floats_written_as_null(self, x):
        assert cli._to_json({"x": x}) == '{\n  "x": null\n}'

    def test_rellich_rounding_tie(self, capsys):
        # beta is one ULP below alpha - 2, but alpha - beta - 2 rounds to 0:
        # a point of the Rellich boundary, where derive used to divide by zero
        code, out = run(capsys, "constants", "-N", "6", "--alpha=0.11055276381909548",
                        "--beta=-1.8894472361809047", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["region"] == "RellichBoundary"
        assert doc["M"] is None and doc["q"] is None and doc["p"] == 2.0
        assert "S_rellich" in doc

    def test_seventeen_significant_digits_in_csv(self, capsys):
        code, out = run(capsys, "constants", "-N", "5", "-a", "1", "-b", "-2",
                        "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        vals = dict(zip(header.split(","), row.split(",")))
        assert vals["S_r"] == f"{ckn.radial_constant_sr(ckn.derive(5, 1.0, -2.0)):.17g}"


#: verify identities and verify equivalence --format json checks, (name, float.hex of value and
#: tolerance, pass), as printed once every integral summed with trapezoid weights (re-taken when
#: Simpson's rule went; no exit code or pass moved): the README lines, then 20 whole-region
#: points (default_rng(4034): N = 5..8, alpha uniform in (2.05 - N, 4), beta uniform in
#: [beta_lower, alpha - 2), a drawn --seed) under both suites.  9 of them exit 1 with
#: TailInadequate, which is pinned as well.
IDENTITY_PINS = json.loads(Path(__file__).with_name("identity_pins.json").read_text())


def _hex(value):
    return [float(v).hex() for v in value] if isinstance(value, list) else float(value).hex()


class TestVerify:
    @pytest.mark.parametrize("pin", IDENTITY_PINS, ids=[f"{p['suite']}-{i}"
                                                        for i, p in enumerate(IDENTITY_PINS)])
    def test_identity_suites_are_pinned_bit_for_bit(self, capsys, pin):
        code, out = run(capsys, "verify", pin["suite"], *pin["argv"], "--format", "json")
        doc = json.loads(out)
        assert code == pin["code"]
        if "error" in pin:
            assert doc["error"] == pin["error"]
        else:
            assert [[c["check"], _hex(c["value"]), _hex(c["tolerance"]), c["pass"]]
                    for c in doc["checks"]] == pin["checks"]

    def test_ode_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "ode", "-N", "5", "-a", "1", "-b", "-2",
                        "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["seed"] == 42

    @pytest.mark.parametrize("point", [("8", "3", "-1.9"), ("6", "2", "-2.9"),
                                       ("7", "0.053", "-1.971"),
                                       ("5", "1", "-1.001"), ("5", "-2.9", "-4.9001")])
    def test_ode_true_statements_exit_0(self, capsys, point):
        # finite differences on t in [-10, 10], n = 1401, read 3.7e-7, 2.9e-7 and 2.3e-7 at the
        # first three and exited 1; ode_residual is now linearized_residual(P, 0, 0) on the
        # derived domain.  At the last two C_cosh overflows (M = 8002) or underflows (M = 2002)
        # and cosh relation 3 exited 2 with ScalarOverflow; it is now checked in logs
        N, a, b = point
        code, out = run(capsys, "verify", "ode", "-N", N, "-a", a, "-b", b, "--format", "json")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["check"] for c in checks] == ["cosh_relation_1", "cosh_relation_2",
                                                "cosh_relation_3", "ode_residual"]
        assert checks[-1]["tolerance"] == 1e-7 and checks[-1]["value"] < 1e-9

    def test_ode_tiny_amplitude_checks_the_shape(self, capsys, monkeypatch):
        # C_cosh = 1.4e-63: normalized by 1 + max|phi|^{p-1}, the exact profile read 1.1e-68
        # and one 1 % wrong in shape 5.9e-65, so any profile passed
        argv = ("verify", "ode", "-N", "6", "-a", "-3.176", "-b", "-5.181", "--format", "json")
        code, out = run(capsys, *argv)
        assert code == 0 and json.loads(out)["checks"][-1]["value"] < 1e-12
        shape = spectral.extremal_shape
        monkeypatch.setattr(spectral, "extremal_shape",
                            lambda P, t, m: shape(P, t, m) * (1.0 + 0.01 * np.tanh(P.nu * t)))
        code, out = run(capsys, *argv)
        row = json.loads(out)["checks"][-1]
        assert code == 1 and row["check"] == "ode_residual" and row["pass"] is False

    def test_derived_domain_suites_share_one_grid_rule(self, capsys):
        # verify ode took -n on its own grid; it and verify linearized now reject each grid
        # flag with one message that differs only in the suite's name
        for flag in (("-n", "1401"), ("--t-min=-3",), ("--t-max=3",)):
            said = []
            for suite in ("ode", "linearized"):
                code, out = run(capsys, "verify", suite, "-N", "5", "-a", "1", "-b", "-2", *flag,
                                "--format", "json")
                doc = json.loads(out)
                assert code == 2 and doc["error"] == "BadGridSpec", (suite, flag)
                said.append(doc["message"].replace(suite, "SUITE"))
            assert said[0] == said[1], flag

    def test_identities_at_negative_alpha_check_the_coefficient_identities(self, capsys):
        code, out = run(capsys, "verify", "identities", "-N", "5", "-a", "-1", "-b", "-3.5",
                        "--format", "json")
        assert code == 0
        checks = {c["check"]: c for c in json.loads(out)["checks"]}
        for name in ("coeff_identity_1", "coeff_identity_2"):
            assert checks[name]["pass"] is True and checks[name]["value"] < 1e-14, name

    def test_rellich_limit_suite(self, capsys):
        code, out = run(capsys, "verify", "rellich-limit", "-N", "5",
                        "--eps", "0.3,0.1,0.03,0.01", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        names = [c["check"] for c in doc["checks"]]
        assert "quotients_strictly_decreasing" in names
        quotients = next(c["value"] for c in doc["checks"] if c["check"] == "quotients")
        assert quotients == sorted(quotients, reverse=True)
        assert all(q > 0.0625 for q in quotients)

    def test_rellich_limit_makes_one_call(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, (ckn.closedform, "rellich_test_quotient"))
        code, _ = run(capsys, "verify", "rellich-limit", "-N", "6", "--format", "json")
        assert code == 0 and calls == {"rellich_test_quotient": 1}

    def test_rellich_limit_honors_n(self, capsys, tmp_path, monkeypatch):
        # n is resolved as identities and equivalence do: the flag, then the config, the default
        def quotients(*extra):
            code, out = run(capsys, "verify", "rellich-limit", "-N", "5", *extra,
                            "--format", "json")
            assert code == 0
            return next(c["value"] for c in json.loads(out)["checks"]
                        if c["check"] == "quotients")

        default, flag = quotients(), quotients("-n", "2001")
        assert flag != default
        cfg = tmp_path / "ckn.conf"
        cfg.write_text("n = 2001\n")
        assert quotients("--config", str(cfg)) == flag
        cfg.write_text("n = 1001\n")
        monkeypatch.setenv("CKN_CONFIG", str(cfg))
        assert quotients("-n", "2001") == flag

    @pytest.mark.parametrize("argv,says", [
        (("ode", "-N", "5", "-a", "1", "-b", "-2", "--t-max=5"), "domain derived from (N, alpha"),
        (("ode", "-N", "5", "-a", "1", "-b", "-2", "--t-min=-3", "--t-max=3"),
         "domain derived from (N, alpha"),
        (("rellich-limit", "-N", "5", "--t-min=-300"), "[-400, 15]: of the grid flags only -n"),
        (("rellich-limit", "-N", "5", "--t-min=-3", "--t-max=3"),
         "[-400, 15]: of the grid flags only -n")],
        ids=["ode-t-max", "ode-both", "rellich-limit-t-min", "rellich-limit-both"])
    def test_own_domain_rejects_grid_flags(self, capsys, argv, says):
        # both suites ignored --t-min and --t-max and printed the same stdout as without them;
        # verify ode kept t in [-10, 10] and took -n until it ran on the derived domain
        code, out = run(capsys, "verify", *argv, "--format", "json")
        doc = json.loads(out)
        assert code == 2 and doc["error"] == "BadGridSpec"
        assert says in doc["message"]

    def test_own_domain_skips_config_ends(self, capsys, tmp_path):
        # a config file pins defaults for every command: its t_min and t_max stay unread here
        cfg = tmp_path / "ckn.conf"
        cfg.write_text("t_min = -3\nt_max = 3\n")
        for argv in (("ode", "-N", "5", "-a", "1", "-b", "-2"), ("rellich-limit", "-N", "5")):
            plain = run(capsys, "verify", *argv, "--format", "json")
            assert plain[0] == 0
            assert run(capsys, "verify", *argv, "--config", str(cfg), "--format", "json") == plain

    @pytest.mark.parametrize("eps", ["0.1,x", "", "0.1,,0.01", "0.1,0.1", "0.3,0.1,0.30"])
    def test_malformed_eps_exit_2(self, capsys, eps):
        # a ValueError traceback with exit 1 until --eps was parsed inside the CLI's errors;
        # a repeated eps exited 1, as a failed quotients_strictly_decreasing check
        code, out = run(capsys, "verify", "rellich-limit", "-N", "5", f"--eps={eps}",
                        "--format", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "CknError" and "--eps" in doc["message"]

    @pytest.mark.parametrize("suite,point", [
        ("identities", ("-N", "5", "-a", "1", "-b", "-2")),
        ("equivalence", ("-N", "5", "-a", "-1", "-b", "-3.5"))])
    @pytest.mark.parametrize("seed,code", [("-1", 2), (str(2 ** 32), 2), ("0", 0),
                                           (str(2 ** 32 - 1), 0)])
    def test_seed_range(self, capsys, suite, point, seed, code):
        # NumPy's seeds are 0 .. 2^32 - 1; others exited 1 with a NumPy traceback
        got, out = run(capsys, "verify", suite, *point, "--seed", seed, "--format", "json")
        assert got == code
        if code:
            doc = json.loads(out)
            assert doc["error"] == "CknError" and "seed" in doc["message"]

    def test_rellich_limit_coarse_grid_exits_2(self, capsys):
        # -n 5 printed quotients 0.0256 .. 0.0624, below the sharp 1/16, and exited 1 with two
        # failed checks: a false verdict on a theorem.  The cutoff ramp needs RAMP_NODES steps
        for n in ("5", "79", "829"):
            code, out = run(capsys, "verify", "rellich-limit", "-N", "5", "-n", n,
                            "--format", "json")
            doc = json.loads(out)
            assert code == 2 and doc["error"] == "GridTooSmall"
            assert "cutoff ramp spans" in doc["message"]
        code, out = run(capsys, "verify", "rellich-limit", "-N", "5", "-n", "831",
                        "--format", "json")
        assert code == 0 and json.loads(out)["pass"] is True

    def test_rellich_limit_csv_is_rfc4180(self, capsys):
        # the quotients list is one quoted field: every row has the header's 4 fields
        code, out = run(capsys, "verify", "rellich-limit", "-N", "5", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["check", "value", "tolerance", "pass"]
        assert [len(r) for r in rows] == [4] * 5
        _, out = run(capsys, "verify", "rellich-limit", "-N", "5", "--format", "json")
        want = next(c["value"] for c in json.loads(out)["checks"] if c["check"] == "quotients")
        assert [float(q) for q in rows[-1][1].split(",")] == want

    def test_linearized_near_fs(self, capsys):
        code, out = run(capsys, "verify", "linearized", "-N", "5", "-a", "1",
                        "-b", "-2.6568542", "--format", "json")
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("point", [("5", "1", "-2"), ("5", "1", "-3"), ("6", "0.5", "-2.5"),
                                       ("6", "-1", "-4"), ("5", "-2.5", "-4.6"),
                                       ("8", "3", "-1.9"), ("8", "2.253", "0.222"),
                                       ("7", "0.053", "-1.971"), ("6", "-3.176", "-5.181")])
    def test_linearized_off_curve(self, capsys, point):
        # mode 1 was a row with tolerance null off the curve, which always passed; the last
        # three (M = 539, M = 418, nu = 0.0025) exited 1 while the residual ran by finite
        # differences on the default grid (8.3e-7, 6.6e-7 and 7.1e-7)
        N, a, b = point
        code, out = run(capsys, "verify", "linearized", "-N", N, "-a", a, "-b", b,
                        "--format", "json")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["check"] for c in checks] == ["linearized_residual_mode0",
                                                "linearized_residual_mode1",
                                                "linearized_residual_mode2"]
        assert all(c["tolerance"] == 1e-7 and c["value"] < 1e-7 and c["pass"] for c in checks)

    @pytest.mark.parametrize("flag", [("-n", "8001"), ("--t-min=-700",), ("--t-max=700",)],
                             ids=["n", "t-min", "t-max"])
    def test_linearized_rejects_grid_flags(self, capsys, flag):
        # the residual runs on the domain that spectrum solves on: -n 8001 at (5, 1, -3) read
        # 4.2e-7 and exited 1 on a true statement, the eps/h^4 floor of finite differences
        code, out = run(capsys, "verify", "linearized", "-N", "5", "-a", "1", "-b", "-3",
                        *flag, "--format", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "BadGridSpec"
        assert "domain derived from (N, alpha, beta)" in doc["message"]

    def test_linearized_mode0_generic_point(self, capsys):
        code, out = run(capsys, "verify", "linearized", "-N", "6", "-a", "0.5",
                        "-b", "-2.5", "--format", "json")
        doc = json.loads(out)
        mode0 = next(c for c in doc["checks"] if c["check"] == "linearized_residual_mode0")
        assert mode0["pass"] is True

    def test_equivalence_alpha_zero(self, capsys):
        code, out = run(capsys, "verify", "equivalence", "-N", "5", "-a", "0",
                        "-b", "-3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert any(c["check"] == "ratio_is_one_at_alpha_zero" and c["pass"]
                   for c in doc["checks"])

    def test_bad_beta_exit_2(self, capsys):
        code, out = run(capsys, "verify", "ode", "-N", "5", "-a", "1", "-b", "99",
                        "--format", "json")
        assert code == 2

    @pytest.mark.parametrize("n", ["7", "15"])
    def test_linearized_grid_without_residual_nodes_exit_2(self, capsys, n):
        # the residual's max over no nodes was a ValueError traceback with exit 1, then
        # GridTooSmall; the suite now takes no grid, so -n is a usage error at any value
        code, out = run(capsys, "verify", "linearized", "-N", "5", "-a", "1", "-b", "-2",
                        "-n", n, "--format", "json")
        assert code == 2
        assert json.loads(out)["error"] == "BadGridSpec"


#: ckn spectrum --format json rows, (k, index, float.hex of eigenvalue and residual, iters), as
#: printed once extremal_shape took ln cosh as one expression (re-taken then: last bits moved,
#: no iteration count): the README line, then 20 whole-region points (default_rng(4032):
#: N = 5..8, alpha uniform in (2.05 - N, 4), beta uniform in [beta_lower, alpha - 2)) at --kmax 2
SPECTRUM_PINS = json.loads(Path(__file__).with_name("spectrum_pins.json").read_text())


class TestSpectrum:
    @pytest.mark.parametrize("pin", SPECTRUM_PINS,
                             ids=["readme", *map(str, range(1, len(SPECTRUM_PINS)))])
    def test_rows_are_pinned_bit_for_bit(self, capsys, pin):
        code, out = run(capsys, "spectrum", *pin["argv"], "--format", "json")
        assert code == 0
        assert [[r["k"], r["index"], float(r["eigenvalue"]).hex(), float(r["residual"]).hex(),
                 r["iters"]] for r in json.loads(out)["rows"]] == pin["rows"]

    def test_reads_no_node_of_the_grid(self, capsys, monkeypatch):
        # the grid flags feed only the closed-form r^{-kappa1} rule: ts and nodes stay unevaluated
        grids = []
        monkeypatch.setattr(cli, "make_grid", lambda **kw: grids.append(ckn.make_grid(**kw))
                            or grids[-1])
        code, _ = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "-3", "--format", "json")
        assert code == 0 and len(grids) == 1
        assert "ts" not in vars(grids[0]) and "nodes" not in vars(grids[0])

    @pytest.mark.parametrize("step, code", [(1e-9, 2), (-1e-9, 0)])
    def test_overflow_rule_at_its_edge(self, capsys, monkeypatch, step, code):
        # kappa1 = 3 at (5, 1, -3): r^{-kappa1} overflows past t = T_LIMIT/3, and on that side no
        # Lanczos step runs
        runs = count_matvecs(monkeypatch)
        got, out = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "-3", "--kmax", "0",
                       f"--t-max={ckn.numerics.T_LIMIT / 3.0 + step!r}", "--format", "json")
        assert got == code and (runs == []) == (code == 2)
        if code == 2:
            assert json.loads(out) == {"error": "BadGridSpec", "message":
                                       "r^-kappa1 overflows: log 709.8 > 709.78; narrow the grid"}

    def test_negative_kmax_exit_2(self, capsys):
        # exited 0 with an empty rows list
        code, out = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "-3", "--kmax", "-1",
                        "--format", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "CknError" and "--kmax" in doc["message"]

    def test_rows(self, capsys):
        code, out = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "-3",
                        "--kmax", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        rows = {(r["k"], r["index"]): r for r in doc["rows"]}
        assert rows[(0, 1)]["eigenvalue"] == pytest.approx(1.0, abs=1e-3)
        assert rows[(0, 2)]["eigenvalue"] == pytest.approx(doc["p_minus_1"], abs=1e-3)
        assert rows[(1, 1)]["eigenvalue"] < doc["p_minus_1"]

    def test_csv_header(self, capsys):
        code, out = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "-2",
                        "--kmax", "0", "--format", "csv")
        assert out.splitlines()[0] == "k,index,eigenvalue,residual,iters"

    def test_bad_beta(self, capsys):
        code, _ = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "0")
        assert code == 2

    def test_rows_match_mode_eigenvalue(self, capsys):
        code, out = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "-3",
                        "--kmax", "2", "--format", "json", "-n", "2001")
        assert code == 0
        P, grid = derive(5, 1.0, -3.0), ckn.make_grid(n=2001)
        rows = json.loads(out)["rows"]
        assert [(r["k"], r["index"]) for r in rows] == [(0, 1), (0, 2), (1, 1), (2, 1)]
        for row in rows:
            r = ckn.mode_eigenvalue(P, ckn.make_mode(P, row["k"]), row["index"], grid)
            assert (row["eigenvalue"], row["residual"], row["iters"]) == (
                r.eigenvalue, r.residual, r.iters)

    @pytest.mark.parametrize("point, flags, grid", [
        ((5, -2.9, -4.95), (), {}),
        ((5, 1.0, -1.001), ("--t-min=-300", "--t-max=300", "-n", "16001"),
         {"t_min": -300.0, "t_max": 300.0, "n": 16001}),
        ((8, 2.253, 0.222), (), {}),
        # 15 % of the symmetry-breaking range above beta_lower
        ((6, 0.5, 0.85 * beta_lower(6, 0.5) + 0.15 * felli_schneider(6, 0.5)), (), {})],
        ids=["nu-0.025", "m-8002", "m-539", "beta-lower-15pct"])
    def test_rows_equal_the_library_bit_for_bit(self, capsys, point, flags, grid):
        # the CLI skips the profile sampling, not the solve: across the region its rows are
        # mode_eigenpairs' eigenvalues, residuals and matvec counts, digit for digit
        N, alpha, beta = point
        code, out = run(capsys, "spectrum", "-N", str(N), "-a", repr(alpha), "-b", repr(beta),
                        *flags, "--format", "json")
        assert code == 0
        P, mesh = derive(N, alpha, beta), ckn.make_grid(**grid)
        lib = [(k, i, r.eigenvalue, r.residual, r.iters) for k in range(3) for i, r in
               enumerate(ckn.mode_eigenpairs(P, ckn.make_mode(P, k), mesh), 1)]
        assert [(r["k"], r["index"], r["eigenvalue"], r["residual"], r["iters"])
                for r in json.loads(out)["rows"]] == lib

    def test_rellich_boundary_before_the_grid_bound(self, capsys):
        # beta = alpha - 2 on a grid where r^{-kappa1} overflows: the point's error comes first,
        # as it did when every mode went through mode_eigenpairs
        code, out = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "-1", "--t-max=700",
                        "--format", "json")
        assert code == 2
        assert json.loads(out) == {"error": "RellichBoundary",
                                   "message": "make_mode requires beta < alpha - 2"}

    def test_the_cli_samples_no_profile(self, capsys, monkeypatch):
        # spectrum prints no profile, so it runs no chirp-z pass; the library runs one per mode
        calls = count_calls(monkeypatch, (spectral, "_chirp_z"))
        code, _ = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "-3", "--kmax", "2",
                      "--format", "json")
        assert code == 0 and calls == {"_chirp_z": 0}
        P, grid = derive(5, 1.0, -3.0), ckn.make_grid()
        for k in range(3):
            ckn.mode_eigenpairs(P, ckn.make_mode(P, k), grid)
        assert calls == {"_chirp_z": 3}

    def test_grid_that_misses_the_domain_still_prints_the_rows(self, capsys):
        # the profiles live on |t| < 32.93 and the grid on [40, 60]; mode_eigenpairs raises
        # BadGridSpec there, but no printed number depends on the grid, so spectrum exited 2
        # for nothing
        code, out = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "-3", "--t-min=40",
                        "--t-max=60", "-n", "11", "--format", "json")
        assert code == 0
        P, rows = derive(5, 1.0, -3.0), json.loads(out)["rows"]
        assert [(r["k"], r["index"]) for r in rows] == [(0, 1), (0, 2), (1, 1), (2, 1)]
        for r in rows:
            exact = ckn.linearized_eigenvalue(P, r["k"], r["index"] - 1)
            assert abs(r["eigenvalue"] - exact) < 1e-12 * exact

    def test_one_lanczos_run_per_mode(self, capsys, monkeypatch):
        # one _lanczos run per mode, shared by both mode-0 rows; iters is its matvec count
        runs = count_matvecs(monkeypatch)
        code, out = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "-3",
                        "--kmax", "2", "--format", "json", "-n", "2001")
        assert code == 0
        assert len(runs) == 3 and min(runs) > 0
        assert [r["iters"] for r in json.loads(out)["rows"]] == [runs[0], *runs]

    def test_repeat_runs_byte_identical(self, capsys):
        # the Lanczos start vector is fixed, so every digit repeats
        argv = ("spectrum", "-N", "6", "-a", "2", "-b", "-2", "--kmax", "2",
                "--format", "json")
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first[0] == 0
        assert first == second

    def test_lanczos_no_convergence_exit_1(self, capsys, monkeypatch):
        # a run past its step cap is a typed NoConvergence; the first stop test is at step 6
        monkeypatch.setattr(spectral, "LANCZOS_STEPS", 5)
        code, out = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "-3",
                        "--kmax", "0", "--format", "json", "-n", "2001")
        assert code == 1
        assert json.loads(out)["error"] == "NoConvergence"

    def test_overflowing_map_back_raises_before_the_solve(self, capsys, monkeypatch):
        # r^{-kappa1} overflows on t in [-14, 700]; it was found only when the profiles were
        # mapped back, after a factorization and a Lanczos run
        calls = count_calls(monkeypatch, (_forms, "cholesky_solver"), (spectral, "_lanczos"))
        code, out = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "-3", "--t-max=700",
                        "--format", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "BadGridSpec" and "r^-kappa1" in doc["message"]
        assert calls == {"cholesky_solver": 0, "_lanczos": 0}


#: Run in a fresh interpreter: import ckn, then every command that calls no solver, and print
#: the scipy modules loaded after each step.
_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import ckn
from ckn import cli
report = {"import ckn": loaded()}
P = ["-N", "5", "-a", "1", "-b", "-2"]
S = ["-N", "5", "-a", "1", "-b", "-3", "--kmax", "3"]
for argv, code in [(["constants", *P], 0),
                   *((["verify", s, *P], 0) for s in ("ode", "identities", "linearized")),
                   (["verify", "equivalence", "-N", "5", "-a", "-1", "-b", "-3.5"], 0),
                   (["verify", "rellich-limit", "-N", "5"], 0),
                   *((["spectrum", *S, *n], 0) for n in ([], ["-n", "32001"])),
                   *((["region-map", "-N", "5", "--alpha-range=0:3", "--beta-range=-4:-1",
                       "--resolution", "40", "--format", f], 0) for f in ("json", "csv")),
                   (["constants", "-N", "5", "-a", "1e200", "-b", "5e199"], 2)]:
    with contextlib.redirect_stdout(io.StringIO()):
        got = cli.main(argv)
    report[" ".join(argv)] = loaded() if got == code else f"exit {got}, expected {code}"
print(json.dumps(report))
"""


class TestStartup:
    def test_numpy_only_commands_load_no_scipy(self):
        # scipy is imported by the solvers that call it: minimize and the test references,
        # so ckn starts, and these commands, spectrum among them, run on numpy alone
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        report = json.loads(proc.stdout)
        assert len(report) == 12
        assert report == {step: [] for step in report}


class TestParser:
    @pytest.mark.parametrize("argv", [
        ("constants", "-N", "5", "-a", "1", "-b", "-2", "--config", "ckn.conf"),
        ("constants", "-N", "5", "-a", "1", "-b", "-2", "--t-min=-12"),
        ("constants", "-N", "5", "-a", "1", "-b", "-2", "--t-max=12"),
        ("constants", "-N", "5", "-a", "1", "-b", "-2", "-n", "4"),
        ("region-map", "-N", "5", "--alpha-range=0:1", "--beta-range=-4:-1",
         "--resolution", "2", "--config", "ckn.conf")],
        ids=["constants-config", "constants-t-min", "constants-t-max", "constants-n",
             "region-map-config"])
    def test_unread_options_are_usage_errors(self, argv):
        # constants reads no grid setting and region-map no config, yet both accepted them;
        # this replaces the wide-grid cases of constants in TestWideGrids
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    def test_cached_parser_output_matches_fresh(self, capsys):
        argvs = [("spectrum", "-N", "5", "-a", "1", "-b", "-3", "--kmax", "1",
                  "--format", "json", "-n", "2001"),
                 ("constants", "-N", "4", "-a", "0", "-b", "-4", "--format", "json"),
                 ("constants", "-N", "5", "-a", "1", "-b", "-2", "--format", "json")]
        build_parser.cache_clear()
        cached = [run(capsys, *argv) for argv in argvs]
        assert build_parser.cache_info().misses == 1
        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert [code for code, _ in cached] == [0, 2, 0]
        assert json.loads(cached[1][1])["error"] == "InvalidDimension"
        assert cached == fresh


class TestRegionMap:
    def test_row_major_alpha_outer(self, capsys):
        code, out = run(capsys, "region-map", "-N", "5", "--alpha-range=0:1",
                        "--beta-range=-4:-3", "--resolution", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,beta,region,beta_fs,sv_sign"
        alphas = [float(l.split(",")[0]) for l in lines[1:]]
        assert alphas == [0.0, 0.0, 1.0, 1.0]

    def test_alpha_zero_column(self, capsys):
        _, out = run(capsys, "region-map", "-N", "5", "--alpha-range=0:0",
                     "--beta-range=-4:-3", "--resolution", "2")
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[3]) == -4.0

    def test_single_cell(self, capsys):
        code, out = run(capsys, "region-map", "-N", "5", "--alpha-range=1:1",
                        "--beta-range=-3:-3", "--resolution", "1")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[2] == "SymmetryBreaking"

    def test_fs_cell_when_quantized_beta_hits_curve(self, capsys):
        bfs = ckn.felli_schneider(5, 1.0)
        code, out = run(capsys, "region-map", "-N", "5", "--alpha-range=1:1",
                        f"--beta-range={bfs!r}:{bfs!r}", "--resolution", "1")
        assert out.strip().splitlines()[1].split(",")[2] == "FSCurve"

    def test_inverted_range_exit_2(self, capsys):
        code, _ = run(capsys, "region-map", "-N", "5", "--alpha-range=1:0",
                      "--beta-range=-4:-3", "--resolution", "2")
        assert code == 2

    @pytest.mark.parametrize("alpha_range,beta_range", [
        ("0:1", "-4:x"), ("1", "-4:-1"), ("0:1:2", "-4:-1"), ("a:b", "-4:-1"),
        ("nan:1", "-4:-1"), ("0:nan", "-4:-1"), ("0:1", "-inf:-1"), ("-inf:inf", "-4:-1"),
        ("0:1", "-4:inf"), ("-1e308:1e308", "-4:-1"), ("0:1", "-1e308:1e308")])
    def test_malformed_range_exit_2(self, capsys, alpha_range, beta_range):
        code, out = run(capsys, "region-map", "-N", "5", f"--alpha-range={alpha_range}",
                        f"--beta-range={beta_range}", "--resolution", "3")
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "CknError"
        assert "malformed range" in doc["message"]

    def test_overflowing_curve_exit_2(self, capsys):
        code, out = run(capsys, "region-map", "-N", "5", "--alpha-range=0:1e200",
                        "--beta-range=-4:-1", "--resolution", "3")
        assert code == 2
        assert json.loads(out)["error"] == "ScalarOverflow"

    def test_rellich_rounding_ties(self, capsys):
        # alpha - beta - 2 rounds to 0 at 28 cells strictly below beta = alpha - 2;
        # they used to end in ZeroDivisionError
        code, out = run(capsys, "region-map", "-N", "6", "--alpha-range=0:2",
                        "--beta-range=-4:-1", "--resolution", "200")
        assert code == 0
        rellich = [line.split(",") for line in out.splitlines()[1:]
                   if ",RellichBoundary," in line]
        below = [(float(a), float(b)) for a, b, _, _, _ in rellich
                 if float(b) < float(a) - 2.0]
        assert len(below) > 0
        assert all(row[4] == "" for row in rellich)
        assert all(derive(6, a, b).region is RegionClass.RELLICH_BOUNDARY for a, b in below)

    def test_jobs_parallel_deterministic(self, capsys):
        args = ("region-map", "-N", "5", "--alpha-range=0:2",
                "--beta-range=-4:-2", "--resolution", "3")
        _, serial = run(capsys, *args)
        _, parallel = run(capsys, *args, "--jobs", "2")
        assert serial == parallel


@functools.lru_cache(maxsize=None)
def _oracle_rows(N, alpha_range, beta_range, resolution):
    """Region-map rows from the scalar library, one call per cell."""
    rows = []
    for a in np.linspace(*alpha_range, resolution).tolist():
        for b in np.linspace(*beta_range, resolution).tolist():
            tag = region_of(N, a, b)
            sv = ""
            if tag not in (RegionClass.INVALID, RegionClass.RELLICH_BOUNDARY):
                sv = second_variation_sign(derive(N, a, b))
            rows.append([a, b, tag.value, felli_schneider(N, a), sv])
    return rows


def _oracle_windows():
    rng = np.random.default_rng(2409)
    windows = []
    for N in (5, 6, 7, 8):
        for _ in range(2):
            a_lo, b_lo = float(rng.uniform(2.2 - N, 1.0)), float(rng.uniform(-6.0, -3.5))
            windows.append((N, (a_lo, a_lo + 2.0), (b_lo, b_lo + 3.0), 30))
        bfs, lo = felli_schneider(N, 1.0), beta_lower(N, 1.0)
        windows += [
            (N, (0.0, 0.0), (-4.0, -3.0), 5),           # alpha = 0 column, beta = -4
            (N, (1.0, 1.0), (lo, -1.0), 7),             # beta = beta_lower ... alpha - 2
            (N, (-1.0, -1.0), (beta_lower(N, -1.0), -3.0), 5),
            (N, (1.0, 1.0), (bfs, bfs), 1),             # the single FS cell
            (N, (0.0, 2.0), (-4.0, -1.0), 8),           # a rounding tie on the Rellich line
            (N, (0.5, 3.0), (-4.0, 1.0), 40),           # 12 rounding ties
        ]
    return windows


class TestRegionMapOracle:
    """The whole-grid region map equals the scalar library, cell by cell,
    rendered by the generic emitter, byte for byte."""

    @pytest.mark.parametrize("N,alpha_range,beta_range,resolution", _oracle_windows())
    def test_matches_scalar_rows(self, capsys, N, alpha_range, beta_range, resolution):
        rows = _oracle_rows(N, alpha_range, beta_range, resolution)
        header = ["alpha", "beta", "region", "beta_fs", "sv_sign"]
        emit({}, "csv", csv_rows=rows, csv_header=header)
        want_csv = capsys.readouterr().out
        emit({"N": N, "rows": [dict(zip(header, r)) for r in rows]}, "json")
        want_json = capsys.readouterr().out
        argv = ("region-map", "-N", str(N),
                "--alpha-range={!r}:{!r}".format(*alpha_range),
                "--beta-range={!r}:{!r}".format(*beta_range), "--resolution", str(resolution))
        assert run(capsys, *argv, "--format", "csv") == (0, want_csv)
        assert run(capsys, *argv, "--format", "json") == (0, want_json)

    def test_tie_cells_present(self):
        tags = {row[2] for window in _oracle_windows() for row in _oracle_rows(*window)}
        assert {"CriticalUpperAlphaZero", "CriticalUpperAlphaPos", "CriticalUpperAlphaNeg",
                "FSCurve", "RellichBoundary", "SymmetryBreaking",
                "ConjecturedSymmetry", "Invalid"} <= tags


class TestVerifyDeterminism:
    """The identities and equivalence suites depend on --seed only, and
    their checks equal the library evaluated on the seeded profiles."""

    @pytest.mark.parametrize("seed", [42, 7, 20240918])
    def test_identities(self, capsys, seed):
        args = ("verify", "identities", "-N", "5", "-a", "1", "-b", "-2",
                "--seed", str(seed), "--format", "json")
        code, serial = run(capsys, *args, "--jobs", "1")
        assert (code, serial) == run(capsys, *args, "--jobs", "2")
        checks = {c["check"]: c["value"] for c in json.loads(serial)["checks"]}
        grid = ckn.make_grid()
        pairs = [(identities.verify_iid(prof, k, 5)[2],
                  identities.verify_hardy_identity(prof, k, 5)[2])
                 for prof in random_profiles(grid, seed, 20) for k in range(4)]
        assert checks["iid_worst_relerr"] == max(p[0] for p in pairs)
        assert checks["hardy_worst_relerr"] == max(p[1] for p in pairs)

    @pytest.mark.parametrize("seed", [42, 7, 20240918])
    def test_equivalence(self, capsys, seed):
        args = ("verify", "equivalence", "-N", "5", "-a", "-1", "-b", "-3.5",
                "--seed", str(seed), "--format", "json")
        code, serial = run(capsys, *args, "--jobs", "1")
        assert (code, serial) == run(capsys, *args, "--jobs", "2")
        checks = {c["check"]: c["value"] for c in json.loads(serial)["checks"]}
        P = derive(5, -1.0, -3.5)
        ratios = [identities.equivalence_ratio(prof, k, P)
                  for prof in random_profiles(ckn.make_grid(), seed, 20) for k in range(4)]
        assert checks["ratios_above_lower_bound"] == min(ratios)
        assert checks["ratios_below_upper_bound"] == max(ratios)
        tolerances = [c["tolerance"] for c in json.loads(serial)["checks"]]
        assert tolerances == list(identities.equivalence_bounds(P))


class TestVerifyModeBatch:
    """verify identities and equivalence evaluate the four modes of a profile
    in one call per identity, and report the failure the per-mode loop
    (profile, then k, then iid lhs/rhs, then hardy lhs) would report."""

    @staticmethod
    def per_mode_failure(suite, N, a, b, grid):
        P = derive(N, a, b)
        try:
            for prof in random_profiles(grid, 42, 20):
                for k in range(4):
                    if suite == "identities":
                        identities.verify_iid(prof, k, N)
                        identities.verify_hardy_identity(prof, k, N)
                    else:
                        identities.equivalence_ratio(prof, k, P)
        except ckn.errors.TailInadequate as exc:
            return {"error": "TailInadequate", "message": str(exc)}
        return None

    # the N = 9 case fails the iid check first at k = 1 but the hardy check at
    # k = 0, so one call per identity alone would report the wrong check
    # on t in [-9, 9] profile 11 of seed 42 is the first to fail, in both suites: the tail rule,
    # applied once per suite, must still raise the failure of the first profile drawn
    @pytest.mark.parametrize("suite,N,a,b,t_max", [
        ("identities", 5, 1.0, -2.0, 6.0), ("identities", 9, 1.0, -2.0, 10.0),
        ("equivalence", 5, -1.0, -3.5, 6.0), ("identities", 5, 1.0, -2.0, 9.0),
        ("equivalence", 5, -1.0, -3.5, 9.0)])
    def test_same_first_failure(self, capsys, suite, N, a, b, t_max):
        code, out = run(capsys, "verify", suite, "-N", str(N), f"--alpha={a}", f"--beta={b}",
                        f"--t-min={-t_max}", f"--t-max={t_max}", "--format", "json")
        expected = self.per_mode_failure(suite, N, a, b, ckn.make_grid(-t_max, t_max))
        assert expected is not None
        assert code == 1
        assert json.loads(out) == expected

    @pytest.mark.parametrize("suite,point,per_profile", [
        ("identities", ("-N", "5", "-a", "1", "-b", "-2"), 4),
        ("equivalence", ("-N", "5", "-a", "-1", "-b", "-3.5"), 2)])
    def test_derivatives_per_profile(self, capsys, monkeypatch, suite, point, per_profile):
        calls = count_calls(monkeypatch, (ckn.numerics, "differentiate"))
        code, _ = run(capsys, "verify", suite, *point, "--format", "json")
        assert code == 0
        assert calls["differentiate"] <= per_profile * 20

    @pytest.mark.parametrize("suite,point,per_suite", [
        ("identities", ("-N", "5", "-a", "1", "-b", "-2"), 3),
        ("equivalence", ("-N", "5", "-a", "-1", "-b", "-3.5"), 1)])
    def test_grid_powers_per_suite(self, capsys, monkeypatch, suite, point, per_suite):
        # the quadrature rows and r^-2 are built once per suite, not once per profile
        counts = []
        for count in (1, 20):
            profiles = functools.partial(random_profiles, count=count)
            monkeypatch.setattr(cli, "_random_profiles",
                                lambda grid, seed, _, p=profiles: list(p(grid, seed)))
            calls = count_calls(monkeypatch, (ckn.numerics, "grid_power"),
                                (identities, "grid_power"))
            assert run(capsys, "verify", suite, *point, "--format", "json")[0] == 0
            counts.append(calls["grid_power"])
        assert counts == [per_suite, per_suite]

    def test_rellich_closed_forms_at_n8(self, capsys):
        code, out = run(capsys, "verify", "identities", "-N", "8", "-a", "1", "-b", "-2",
                        "--format", "json")
        assert code == 0
        check = next(c for c in json.loads(out)["checks"]
                     if c["check"] == "rellich_closed_forms_agree")
        assert check["pass"] is True and check["value"] < 1e-14


def _address_space_cap(limit: int):
    """A preexec_fn that caps the child's address space (RLIMIT_AS) at limit bytes."""
    def cap():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return cap


class TestOutOfMemory:
    """A request that sizes an array past what the process may allocate exits 2 with a JSON
    error, not numpy's MemoryError traceback and exit 1.  The child alone runs under an
    address-space cap below its request's first large array (9.3 GiB for the map, 1.5 GiB for
    the grids), so the allocation fails at once and no test touches that memory."""

    @pytest.mark.parametrize("argv,cap", [
        (("region-map", "-N", "5", "--alpha-range=0:1", "--beta-range=-4:-1",
          "--resolution", "100000"), 3_000_000_000),
        (("verify", "identities", "-N", "5", "-a", "1", "-b", "-2", "-n", "200000001"),
         1_000_000_000),
        (("minimize", "-N", "5", "-a", "1", "-b", "-3", "-n", "200000001"), 1_000_000_000),
        (("verify", "rellich-limit", "-N", "5", "-n", "200000001"), 1_000_000_000)])
    def test_exit_2_with_json_error(self, argv, cap):
        env = dict(os.environ, PYTHONPATH=str(Path(ckn.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-m", "ckn.cli", *argv, "--format", "json"],
                              capture_output=True, text=True, env=env, timeout=120,
                              preexec_fn=_address_space_cap(cap))
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["error"] == "OutOfMemory" and proc.stderr == ""


class TestMinimize:
    def test_json_error_escapes_backslash(self, capsys):
        # strings were written with only '"' escaped, which json.loads rejects here
        code, out = run(capsys, "minimize", "-N", "5", "-a", "1", "-b", "-3",
                        "--init", "no\\such", "--format", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "CknError" and "no\\such" in doc["message"]

    def test_reaches_radial_constant(self, capsys, tmp_path):
        code, out = run(capsys, "minimize", "-N", "5", "-a", "1", "-b", "-2",
                        "-n", "2001", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["relative_gap"]) < 5e-3

    def test_perturbation_report(self, capsys):
        code, out = run(capsys, "minimize", "-N", "5", "-a", "1", "-b", "-3",
                        "-n", "2001", "--perturb", "0.05", "--format", "json")
        doc = json.loads(out)
        assert doc["drops_below_radial"] is True
        assert doc["perturbed_plus"] < doc["S_r"]

    @pytest.mark.parametrize("beta,amp,drops", [
        ("-2", "1e-300", False), ("-3", "0", False), ("-3", "-0.0", False),
        ("-3", "1e-320", False), ("-3", "0.05", True), ("-2", "0.05", False)])
    def test_drop_is_judged_against_the_grid_radial_quotient(self, capsys, beta, amp, drops):
        # Q(0) sits below S_r by the grid floor (2.2e-9 at (5, 1, -2)): judged against S_r, the
        # four vanishing perturbations, where Q(+-t) = Q(0), printed true.  beta_fs = -2.657
        code, out = run(capsys, "minimize", "-N", "5", "-a", "1", "-b", beta, "--perturb", amp,
                        "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["drops_below_radial"] is drops
        if amp != "0.05":
            assert doc["perturbed_plus"] < doc["S_r"] and doc["perturbed_minus"] < doc["S_r"]

    @pytest.mark.parametrize("amp", ["nan", "inf", "0.3"])
    def test_bad_amplitude_exit_2(self, capsys, amp):
        code, out = run(capsys, "minimize", "-N", "5", "-a", "1", "-b", "-3",
                        "-n", "2001", "--perturb", amp, "--format", "json")
        assert code == 2
        assert json.loads(out)["error"] == "AmplitudeTooLarge"

    def test_malformed_init_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "init.txt"
        bad.write_text("1.0\nnot-a-number\n")
        code, out = run(capsys, "minimize", "-N", "5", "-a", "1", "-b", "-2",
                        "--init", str(bad), "--format", "json")
        assert code == 2

    @pytest.mark.parametrize("bad", ["zero", "nan"])
    def test_bad_init_samples_exit_2(self, capsys, tmp_path, bad):
        # an all-zero file, or extremal samples with one NaN: a JSON error
        # before any solve, not a traceback or MaxIters after 2000 solves
        grid = ckn.make_grid(n=2001)
        if bad == "zero":
            vals = np.zeros(grid.n)
        else:
            vals = ckn.extremal_u(ckn.ExtremalSpec(derive(5, 1.0, -2.0)), grid.nodes)
            vals[1000] = math.nan
        init = tmp_path / "init.txt"
        np.savetxt(init, vals, fmt="%.17g")
        code, out = run(capsys, "minimize", "-N", "5", "-a", "1", "-b", "-2",
                        "-n", "2001", "--init", str(init), "--format", "json")
        assert code == 2
        assert json.loads(out)["error"] == "CknError"

    def test_init_file_holds_u_samples(self, capsys, tmp_path):
        P = derive(5, 1.0, -2.0)
        grid = ckn.make_grid(n=2001)
        init = tmp_path / "init.txt"
        np.savetxt(init, ckn.extremal_u(ckn.ExtremalSpec(P), grid.nodes), fmt="%.17g")
        code, out = run(capsys, "minimize", "-N", "5", "-a", "1", "-b", "-2",
                        "-n", "2001", "--init", str(init), "--format", "json")
        assert code == 0
        assert abs(json.loads(out)["relative_gap"]) < 1e-6

    def test_wrong_length_init_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "init.txt"
        bad.write_text("\n".join(["1.0"] * 10))
        code, out = run(capsys, "minimize", "-N", "5", "-a", "1", "-b", "-2",
                        "--init", str(bad), "--format", "json")
        assert code == 2
        assert json.loads(out)["error"] == "BadGridSpec"     # the samples rule, check_samples

    @pytest.mark.parametrize("iters", ["-3", "0"])
    def test_max_iters_below_one_exit_2(self, capsys, iters):
        # malformed input, not a MaxIters check failure (exit 1)
        code, out = run(capsys, "minimize", "-N", "5", "-a", "1", "-b", "-3",
                        "--max-iters", iters, "--format", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "CknError" and "max_iters" in doc["message"]


class TestGridBounds:
    # the last four grids have finite nodes, but r^kappa1, r^-kappa1 or the
    # extremal overflows on them
    @pytest.mark.parametrize("argv", [
        ("spectrum", "--t-max=inf"), ("spectrum", "--t-max=800"),
        ("minimize", "--t-min=-1e308", "--t-max=1e308"),
        ("spectrum", "--t-max=700"), ("spectrum", "--t-min=-700"),
        ("minimize", "--t-max=700"), ("minimize", "--t-min=-700")])
    def test_overflowing_grid_exit_2(self, capsys, argv):
        cmd, *grid = argv
        code, out = run(capsys, cmd, "-N", "5", "-a", "1", "-b", "-3", *grid,
                        "--format", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "BadGridSpec"
        assert "709.78" in doc["message"]


def _leaves(doc, key=None):
    """Every leaf of a JSON document, with the key it sits under."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, k)
    elif isinstance(doc, list):
        for v in doc:
            yield from _leaves(v, key)
    else:
        yield key, doc


class TestWideGrids:
    # Grids inside make_grid's bound on which a power of r can overflow.  Each
    # command ends in a typed outcome, with no NaN and no traceback (tier-1
    # turns every RuntimeWarning into an error).
    COMMANDS = [("spectrum", "-N", "5", "-a", "1", "-b", "-3"),
                ("minimize", "-N", "5", "-a", "1", "-b", "-3"),
                ("minimize", "-N", "5", "-a", "1", "-b", "-3", "--perturb", "0.05"),
                ("verify", "ode", "-N", "5", "-a", "1", "-b", "-2"),
                ("verify", "identities", "-N", "5", "-a", "1", "-b", "-2"),
                ("verify", "linearized", "-N", "6", "-a", "0.5", "-b", "-2.5"),
                ("verify", "equivalence", "-N", "5", "-a", "-1", "-b", "-3.5"),
                ("verify", "rellich-limit", "-N", "5")]

    @pytest.mark.parametrize("grid", ["--t-max=700", "--t-min=-700"])
    @pytest.mark.parametrize("cmd", COMMANDS, ids=["spectrum", "minimize", "minimize-perturb",
                                                   "ode", "identities",
                                                   "linearized", "equivalence", "rellich-limit"])
    def test_typed_outcome(self, capsys, cmd, grid):
        code, out = run(capsys, *cmd, grid, "--format", "json")
        doc = json.loads(out)
        assert code in (0, 2)
        assert code == 0 or doc["error"] == "BadGridSpec"
        for _, leaf in _leaves(doc):
            assert leaf is not None and (not isinstance(leaf, float) or math.isfinite(leaf))

    @pytest.mark.parametrize("cmd", [
        # verify linearized takes no --t-min (its domain is derived); the wide
        # left end is held by equivalence, here in a second dimension
        ("verify", "equivalence", "-N", "6", "-a", "-1", "-b", "-4"),
        # the tail of a node-count rule once spanned [-3.85, 14]
        ("verify", "equivalence", "-N", "5", "-a", "-1", "-b", "-3.5")])
    def test_true_statement_passes(self, capsys, cmd):
        code, out = run(capsys, *cmd, "--t-min=-700", "--format", "json")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_default_init_overflow_exit_2(self, capsys):
        # the default initial profile e^{-t^2} r^{-kappa1} at kappa1 = 100.5
        code, out = run(capsys, "minimize", "-N", "5", "-a", "100", "-b", "50",
                        "--format", "json")
        assert code == 2
        assert json.loads(out)["error"] == "BadGridSpec"


class TestNearRellichBoundary:
    # beta just below alpha - 2, where nu is small, M is in the thousands and C_amp
    # overflows: the spectrum and the certificate work on the amplitude-free shape in t
    WIDE = ("--t-min=-300", "--t-max=300", "-n", "16001")

    def test_spectrum_meets_closed_form(self, capsys):
        # exited 2 with "amplitude undefined at beta = alpha - 2"
        code, out = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "-1.001", *self.WIDE,
                        "--kmax", "2", "--format", "json")
        assert code == 0
        P = derive(5, 1.0, -1.001)
        assert math.isinf(P.C_amp)
        rows = json.loads(out)["rows"]
        assert len(rows) == 4
        for r in rows:
            want = ckn.linearized_eigenvalue(P, r["k"], r["index"] - 1)
            assert r["eigenvalue"] == pytest.approx(want, rel=1e-10), r

    @pytest.mark.parametrize("beta", ["-1.01", "-1.005"])
    def test_certificate(self, capsys, beta):
        # exited 2 with BadGridSpec from the weight s^{gamma+N} (or the false
        # RellichBoundary); the points lie above the Felli-Schneider curve
        code, out = run(capsys, "minimize", "-N", "5", "-a", "1", "-b", beta, *self.WIDE,
                        "--perturb", "0.05", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["relative_gap"]) <= 1e-8
        assert second_variation_sign(derive(5, 1.0, float(beta))) == 1
        assert doc["drops_below_radial"] is False
        assert doc["perturbed_plus"] > doc["S_r"] and doc["perturbed_minus"] > doc["S_r"]

    @pytest.mark.parametrize("args", [("-a", "1", "-b", "-1.001"), ("-a", "-2.5", "-b", "-4.8")])
    def test_linearized_true_statement_passes(self, capsys, args):
        # both exited 1 while the residual ran in s = r^{1/q}: M = 8002 at -n 16001, and
        # nu = 0.15 on the default grid (mode 0 at 1.3e-7 and 1.09e-7)
        code, out = run(capsys, "verify", "linearized", "-N", "5", *args, "--format", "json")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_underflowing_direction_certified(self, capsys):
        # Z1 ~ 2^{-(M-2)/2} underflows to zero at every node in r (M = 2164); it exited 2
        # with CknError until the direction was built as r^{kappa1} Z1 in t
        code, out = run(capsys, "minimize", "-N", "5", "-a", "1", "-b", "-1.0037", *self.WIDE,
                        "--perturb", "0.05", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert second_variation_sign(derive(5, 1.0, -1.0037)) == 1
        assert doc["drops_below_radial"] is False
        assert doc["perturbed_plus"] > doc["S_r"] and doc["perturbed_minus"] > doc["S_r"]


class TestConfig:
    def test_skipped_lines(self, tmp_path):
        # blank lines, comments and lines without "=" are skipped; a value keeps later "="s
        cfg = tmp_path / "ckn.conf"
        cfg.write_text("\n  # n = 5\nnot a pair\n t_min =  -12 \nkey = a=b\n=orphan\n")
        assert load_config(str(cfg)) == {"t_min": "-12", "key": "a=b", "": "orphan"}

    def test_text_format_flattens_nested_values(self, capsys):
        emit({"b": [1.5, {"c": True}], "a": 2}, "text")
        assert capsys.readouterr().out == "a = 2\nb.0 = 1.5\nb.1.c = True\n"

    def test_file_and_env_precedence(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "ckn.conf"
        cfg.write_text("# grid\nn = 1001\nt_min = -12\nt_max = 12\n")
        assert load_config(str(cfg)) == {"n": "1001", "t_min": "-12", "t_max": "12"}
        monkeypatch.setenv("CKN_CONFIG", str(cfg))
        assert load_config(None)["n"] == "1001"
        # flags beat the config: an explicit -n overrides
        code, out = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "-2",
                        "--kmax", "0", "-n", "801", "--format", "json")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("spectrum", "-N", "5", "-a", "1", "-b", "-3", "--kmax", "0"),
        ("minimize", "-N", "5", "-a", "1", "-b", "-3"),
        ("verify", "ode", "-N", "5", "-a", "1", "-b", "-2"),
        ("verify", "rellich-limit", "-N", "5")], ids=["spectrum", "minimize", "ode", "rellich"])
    @pytest.mark.parametrize("how", ["flag", "env"])
    @pytest.mark.parametrize("content", [None, "n = abc\n", "t_max = x\n"],
                             ids=["missing", "n-abc", "t_max-x"])
    def test_config_errors_exit_2(self, capsys, tmp_path, monkeypatch, argv, how, content):
        # a missing file or a malformed value was a FileNotFoundError or ValueError
        # traceback with exit 1.  The config is parsed in one place, so a malformed t_max
        # is an error also for the two suites that read only its n
        cfg = tmp_path / "ckn.conf"
        if content is not None:
            cfg.write_text(content)
        if how == "env":
            monkeypatch.setenv("CKN_CONFIG", str(cfg))
            extra = ()
        else:
            extra = ("--config", str(cfg))
        code, out = run(capsys, *argv, *extra, "--format", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "CknError" and "config" in doc["message"]

    def test_config_is_parsed_whole(self, capsys, tmp_path):
        # a malformed value is an error also where a flag overrides it
        cfg = tmp_path / "ckn.conf"
        cfg.write_text("n = abc\n")
        code, out = run(capsys, "verify", "rellich-limit", "-N", "5", "-n", "1001",
                        "--config", str(cfg), "--format", "json")
        assert code == 2
        assert "abc" in json.loads(out)["message"]
