"""``ckn region-map`` against the per-cell formatter it replaced: stdout is
byte for byte the reference in csv, json and text, on windows drawn by
Hypothesis and on fixed windows whose grid cells land on the tie lines."""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ckn.cli import _fmt, main
from ckn.params import (RegionClass, beta_lower, exponents, felli_schneider, regions,
                        second_variation_gap)


def reference_map(N, alpha_range, beta_range, res, fmt) -> str:
    """The region map as one f-string per cell renders it."""
    alphas, betas = np.linspace(*alpha_range, res), np.linspace(*beta_range, res)
    bfs = [felli_schneider(N, float(a)) for a in alphas]
    lo = [beta_lower(N, float(a)) for a in alphas]
    a, b = alphas[:, None], betas[None, :]
    codes, names = regions(N, a, b, np.array(lo)[:, None], np.array(bfs)[:, None])
    tags = np.array(names)[codes]
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
    for N, alpha_range, beta_range, res in _tie_windows():
        alphas, betas = np.linspace(*alpha_range, res), np.linspace(*beta_range, res)
        lo = np.array([beta_lower(N, float(a)) for a in alphas])[:, None]
        bfs = np.array([felli_schneider(N, float(a)) for a in alphas])[:, None]
        codes, names = regions(N, alphas[:, None], betas[None, :], lo, bfs)
        tags |= {names[c] for c in np.unique(codes)}
    assert tags == {r.value for r in RegionClass}
