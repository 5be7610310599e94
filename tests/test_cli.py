import functools
import json
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import ckn
from ckn import _forms, identities
from ckn.cli import emit, load_config, main
from ckn.params import RegionClass, beta_lower, derive, felli_schneider, region_of
from ckn.spectral import second_variation_sign
from conftest import random_profiles


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


class TestVerify:
    def test_ode_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "ode", "-N", "5", "-a", "1", "-b", "-2",
                        "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["seed"] == 42

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

    def test_linearized_near_fs(self, capsys):
        code, out = run(capsys, "verify", "linearized", "-N", "5", "-a", "1",
                        "-b", "-2.6568542", "--format", "json")
        assert code == 0
        assert json.loads(out)["pass"] is True

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


class TestSpectrum:
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

    def test_one_assembly_and_one_factorization_per_mode(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, (_forms, "energy_matrix"), (spla, "splu"))
        code, _ = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "-3",
                      "--kmax", "2", "--format", "json", "-n", "2001")
        assert code == 0
        assert calls == {"energy_matrix": 3, "splu": 3}

    def test_repeat_runs_byte_identical(self, capsys):
        # the Lanczos start vector is fixed, so every digit repeats
        argv = ("spectrum", "-N", "6", "-a", "2", "-b", "-2", "--kmax", "2",
                "--format", "json")
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first[0] == 0
        assert first == second

    def test_lanczos_no_convergence_exit_1(self, capsys, monkeypatch):
        def stalled(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spla, "eigsh", stalled)
        code, out = run(capsys, "spectrum", "-N", "5", "-a", "1", "-b", "-3",
                        "--kmax", "0", "--format", "json", "-n", "2001")
        assert code == 1
        assert json.loads(out)["error"] == "NoConvergence"


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
        ("0:1", "-4:inf")])
    def test_malformed_range_exit_2(self, capsys, alpha_range, beta_range):
        code, out = run(capsys, "region-map", "-N", "5", f"--alpha-range={alpha_range}",
                        f"--beta-range={beta_range}", "--resolution", "3")
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "CknError"
        assert "malformed range" in doc["message"]

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
        assert checks["ratios_inside_bracket"] == max(ratios)


class TestMinimize:
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

    def test_malformed_init_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "init.txt"
        bad.write_text("1.0\nnot-a-number\n")
        code, out = run(capsys, "minimize", "-N", "5", "-a", "1", "-b", "-2",
                        "--init", str(bad), "--format", "json")
        assert code == 2

    def test_wrong_length_init_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "init.txt"
        bad.write_text("\n".join(["1.0"] * 10))
        code, _ = run(capsys, "minimize", "-N", "5", "-a", "1", "-b", "-2",
                      "--init", str(bad), "--format", "json")
        assert code == 2


class TestConfig:
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
