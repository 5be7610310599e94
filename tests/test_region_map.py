"""``ckn region-map`` against the per-cell formatter it replaced: stdout is
byte for byte the reference in csv, json and text, on windows drawn by
Hypothesis and on fixed windows whose grid cells land on the tie lines."""

import contextlib
import functools
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ckn import cli
from ckn.cli import _fmt, main
from ckn.params import (RegionClass, _region_rules, beta_lower, exponents, felli_schneider,
                        regions, second_variation_gap)


@functools.lru_cache(maxsize=None)
def reference_tags(N, alpha_range, beta_range, res) -> np.ndarray:
    """Each cell's tag from the scalar rules, first match as derive takes it, not from regions."""
    rows = []
    for a in np.linspace(*alpha_range, res).tolist():
        lo, bfs = beta_lower(N, a), felli_schneider(N, a)
        rows.append([next((r.value for r, holds in _region_rules(N, a, b, lo, bfs) if holds),
                          RegionClass.CONJECTURED_SYMMETRY.value)
                     for b in np.linspace(*beta_range, res).tolist()])
    return np.array(rows)


def reference_map(N, alpha_range, beta_range, res, fmt) -> str:
    """The region map as one f-string per cell renders it."""
    alphas, betas = np.linspace(*alpha_range, res), np.linspace(*beta_range, res)
    bfs = [felli_schneider(N, float(a)) for a in alphas]
    a, b = alphas[:, None], betas[None, :]
    tags = reference_tags(N, tuple(alpha_range), tuple(beta_range), res)
    with np.errstate(all="ignore"):
        sv = np.sign(second_variation_gap(N, *exponents(N, a, b))).astype(int) + 1
    sv[np.isin(tags, (RegionClass.INVALID.value, RegionClass.RELLICH_BOUNDARY.value))] = 3
    as_json = fmt == "json"
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
        return f'{{\n  "N": {N},\n  "rows": [\n{rows}\n  ]\n}}\n'
    return "alpha,beta,region,beta_fs,sv_sign\n" + "".join(
        [f"{a},{b},{tag},{f},{v}\n" for a, f, row in cells for b, tag, v in row])


def first_difference(got: str, want: str):
    """None for equal texts, else the first differing line of each: a short
    report, where pytest's diff of two long texts takes minutes."""
    if got == want:
        return None
    lines = zip(got.splitlines(True) + [""], want.splitlines(True) + [""])
    return next((i, g, w) for i, (g, w) in enumerate(lines) if g != w)


def assert_matches_reference(N, alpha_range, beta_range, res):
    argv = ["region-map", "-N", str(N), "--alpha-range={!r}:{!r}".format(*alpha_range),
            "--beta-range={!r}:{!r}".format(*beta_range), "--resolution", str(res)]
    for fmt in ("csv", "json", "text"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--format", fmt])
        assert code == 0
        want = reference_map(N, alpha_range, beta_range, res, fmt)
        assert first_difference(out.getvalue(), want) is None, fmt


def classified(N, alpha_range, beta_range, res):
    """The window's alpha and beta axes, each cell's rule index and the tag of each index."""
    alphas, betas = np.linspace(*alpha_range, res), np.linspace(*beta_range, res)
    lo = np.array([beta_lower(N, float(a)) for a in alphas])[:, None]
    bfs = np.array([felli_schneider(N, float(a)) for a in alphas])[:, None]
    return (alphas, betas, *regions(N, alphas[:, None], betas[None, :], lo, bfs))


@st.composite
def windows(draw):
    """A window whose first or last alpha row may put a beta grid end exactly on
    beta_lower, beta_FS, alpha - 2 or -4 (linspace returns both ends exactly)."""
    N = draw(st.integers(5, 8))
    alpha = st.one_of(st.just(0.0), st.floats(-8.0, 4.0))
    a_lo, a_hi = sorted((draw(alpha), draw(alpha)))
    at = draw(st.sampled_from((a_lo, a_hi)))
    ties = [beta_lower(N, at), felli_schneider(N, at), at - 2.0, -4.0]
    beta = st.one_of(st.sampled_from(ties), st.floats(-12.0, 4.0))
    b_lo, b_hi = sorted((draw(beta), draw(beta)))
    return N, (a_lo, a_hi), (b_lo, b_hi), draw(st.integers(1, 40))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(windows())
def test_drawn_windows(window):
    assert_matches_reference(*window)


def _ulps_below(x, k):
    for _ in range(k):
        x = math.nextafter(x, -math.inf)
    return x


def _tie_windows():
    lo6, fs6, fs52 = beta_lower(6, 1.0), felli_schneider(6, 1.0), felli_schneider(5, 2.0)
    return [
        (6, (1.0, 1.0), (lo6, -1.0), 7),                          # beta_lower, then alpha - 2
        (7, (-1.0, -1.0), (beta_lower(7, -1.0), -3.5), 5),        # beta_lower at alpha < 0
        (6, (0.5, 1.0), (-5.0, fs6), 9),                          # beta_FS on the last row
        (5, (1.0, 1.0), (felli_schneider(5, 1.0),) * 2, 1),       # the single FS cell
        (5, (2.0, 2.0), (_ulps_below(fs52, 8), fs52), 9),         # sv_sign -1, then 0, below FS
        (7, (-2.0, 2.0), (-6.0, 0.0), 9),                         # alpha - 2 at alpha = 2
        (6, (0.0, 2.0), (-4.0, -1.0), 200),                       # rounding ties on alpha - 2
        (5, (0.0, 0.0), (-4.0, -3.0), 2),                         # (0, -4) first
        (8, (-1.0, 0.0), (-5.0, -4.0), 3),                        # (0, -4) last
        (5, (0.0, 0.0), (-4.0, -4.0), 1),                         # (0, -4) alone
        (5, (1.0, 1.0), (-3.0, -3.0), 1),                         # resolution 1
        (5, (0.0, 1.0), (-4.0, -3.0), 2),                         # resolution 2
        (5, (-10.0, -9.0), (-4.0, -1.0), 7),                      # all Invalid: alpha < 2 - N
        (6, (0.0, 1.0), (0.0, 3.0), 5),                           # all Invalid: beta > alpha - 2
    ]


@pytest.mark.parametrize("N,alpha_range,beta_range,res", _tie_windows())
def test_tie_windows(N, alpha_range, beta_range, res):
    assert_matches_reference(N, alpha_range, beta_range, res)


def test_tie_windows_hit_every_tag():
    tags = set()
    for window in _tie_windows():
        _, _, codes, names = classified(*window)
        tags |= {names[c] for c in np.unique(codes)}
    assert tags == {r.value for r in RegionClass}


#: (window, least Invalid share, least signed share): the signs are evaluated on signed cells
#: only, so these stress a window with almost none, one with no other and |alpha| near 1e150
LEAN_WINDOWS = [
    ((6, (-3.9, -1.0), (-8.0, 4.0), 60), 0.9, 0.0),
    ((6, (0.5, 2.0), (-2.9, -1.6), 40), 0.0, 1.0),
    ((6, (-1e150, 1e150), (-2e150, 1e150), 50), 0.9, 0.0),
    ((7, (1e150, 1.5e150), (5e149, 1e150), 30), 0.0, 0.4),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("window,invalid,signed", LEAN_WINDOWS,
                         ids=["mostly-invalid", "all-signed", "huge-wide", "huge-signed"])
def test_lean_windows(window, invalid, signed):
    codes = classified(*window)[2]
    assert (codes == 0).mean() >= invalid and (codes >= 2).mean() >= signed
    assert_matches_reference(*window)


@pytest.mark.parametrize("window", [w for w, _, _ in LEAN_WINDOWS] + _tie_windows()[:7])
def test_signs_only_on_signed_cells(monkeypatch, window):
    # second_variation_gap gets exactly the cells whose tag carries a sign: rules 2 and on, not
    # Invalid or RellichBoundary, once per map
    seen, sizes = [], []
    exponents, gap = cli.exponents, cli.second_variation_gap
    monkeypatch.setattr(cli, "exponents", lambda N, a, b: seen.append((a, b)) or exponents(N, a, b))
    monkeypatch.setattr(cli, "second_variation_gap",
                        lambda N, q, M: sizes.append(np.size(q)) or gap(N, q, M))
    N, alpha_range, beta_range, res = window
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["region-map", "-N", str(N), "--alpha-range={!r}:{!r}".format(*alpha_range),
                     "--beta-range={!r}:{!r}".format(*beta_range), "--resolution", str(res)]) == 0
    alphas, betas, codes, _ = classified(*window)
    i, j = np.nonzero(codes >= 2)
    (a, b), = seen
    assert sizes == [i.size] and np.array_equal(a, alphas[i]) and np.array_equal(b, betas[j])
