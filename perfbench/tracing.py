"""Span tracing of the ckn layers, installed from outside the package.

Each listed public function is replaced by a timing wrapper at every
module-level binding that refers to it, so a name imported with
``from .numerics import integrate`` is traced in the importing module as
well as in its home module.  SuperLU factorizations are traced through
``scipy.sparse.linalg.splu``; the returned factor is wrapped in a proxy
whose ``solve`` is traced as its own span.

Spans are recorded only while an operation is open, so the benchmark's
own checks never show up.  They are kept in flat in-memory arrays (name,
start, end, parent span, operation id) and written out once, when the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

import numpy as np

#: (layer, module, function) of every traced function.
TRACED = (
    ("params", "ckn.params", "derive"),
    ("params", "ckn.params", "region_of"),
    ("numerics", "ckn.numerics", "diff_matrix"),
    ("numerics", "ckn.numerics", "integrate"),
    ("numerics", "ckn.numerics", "with_derivatives"),
    ("numerics", "ckn.numerics", "require_tail"),
    ("closedform", "ckn.closedform", "extremal_u"),
    ("closedform", "ckn.closedform", "radial_constant_sr"),
    ("closedform", "ckn.closedform", "rellich_test_quotient"),
    ("transforms", "ckn.transforms", "ode_residual"),
    ("forms", "ckn._forms", "energy_matrix"),
    ("forms", "ckn._forms", "mass_vector"),
    ("forms", "ckn._forms", "mode_operator"),
    ("spectral", "ckn.spectral", "mode_eigenvalue"),
    ("spectral", "ckn.spectral", "second_variation_sign"),
    ("variational", "ckn.variational", "minimize_radial"),
    ("variational", "ckn.variational", "perturbed_quotient"),
    ("identities", "ckn.identities", "verify_iid"),
    ("identities", "ckn.identities", "verify_hardy_identity"),
    ("identities", "ckn.identities", "equivalence_ratio"),
    ("cli", "ckn.cli", "main"),
    ("cli", "ckn.cli", "emit"),
)
#: Span names of the SuperLU layer: the factorization and each solve.
SPLU_FACTOR = "splu.factor"
SPLU_SOLVE = "splu.solve"
#: Counts recorded next to the spans; each repeats exactly for a given input.
COUNTS = ("numerics.diff_matrix.builds", "splu.factor_nnz",
          "splu.factor_bytes_computed", "spectral.iters", "cli.emit.bytes")

ROOT = "op"


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, _, fn in TRACED] + [SPLU_FACTOR, SPLU_SOLVE]


class _Factor:
    """SuperLU factor whose solve is traced; everything else is forwarded."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = [ROOT] + span_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []
        self._op_id = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name_id: int, t0: float) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.start.append(t0)
        self.end.append(t0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t1: float) -> None:
        self.end[sid] = t1
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._open(0, perf_counter())

    def end_op(self) -> None:
        self._close(self._stack[-1], perf_counter())
        self._op_id = -1

    def _active(self) -> bool:
        return self._op_id >= 0

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        name_id = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active():
                return fn(*args, **kwargs)
            sid = self._open(name_id, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, perf_counter())
            if after is not None:
                after(result)
            return result

        return traced

    def _rebind(self, original, wrapper) -> None:
        """Point every ckn module-level binding of ``original`` at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ckn" or mod_name.startswith("ckn.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def count(self, key: str, amount: int) -> None:
        self.counts[key] += int(amount)

    def install(self) -> None:
        for layer, module, fn_name in TRACED:
            original = getattr(importlib.import_module(module), fn_name)
            if fn_name == "diff_matrix":
                # builds are the lru_cache misses while the tracer is installed
                self._diff_matrix = original
                self._misses = original.cache_info().misses
            after = None
            if (layer, fn_name) == ("spectral", "mode_eigenvalue"):
                after = lambda res: self.count("spectral.iters", res.iters)
            self._rebind(original, self._wrap(f"{layer}.{fn_name}", original, after))

        import scipy.sparse.linalg as spla

        factor = spla.splu

        def after_factor(lu):
            # SuperLU stores L and U in CSC: float64 values, int32 row
            # indices and one int32 column pointer array per factor.
            self.count("splu.factor_nnz", lu.nnz)
            self.count("splu.factor_bytes_computed",
                        12 * lu.nnz + 8 * (lu.shape[1] + 1))

        wrapped = self._wrap(SPLU_FACTOR, factor, after_factor)

        @functools.wraps(factor)
        def splu(*args, **kwargs):
            lu = wrapped(*args, **kwargs)
            return _Factor(lu, self._wrap(SPLU_SOLVE, lu.solve)) if self._active() else lu

        self._undo.append((spla, "splu", factor))
        spla.splu = splu

    def uninstall(self) -> None:
        self.count("numerics.diff_matrix.builds",
                    self._diff_matrix.cache_info().misses - self._misses)
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)

    # -- results -----------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        """calls and self time per span name, the counts, and unattributed_s
        (the self time of the operation roots)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=self_time, minlength=len(self.names))
        out: dict[str, float] = {}
        for i, span in enumerate(self.names[1:], start=1):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_s"] = float(self_s[i])
        out.update(self.counts)
        out["unattributed_s"] = float(self_s[0])
        out["op_wall_s"] = float(dur[name == 0].sum())
        return out

    def write(self, path) -> None:
        """Dump every span as compressed arrays plus the name table."""
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            names=np.array(json.dumps(self.names)),
        )
