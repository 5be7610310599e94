"""One workload in one process: set up, report readiness, measure, report.

Started by run.py, which times the set-up.  The worker imports ckn from
the checkout's ``src``, builds the first cycle's inputs, runs one warm-up
operation and prints ``READY``.  It then reads one line from stdin:
``go`` starts the measurement, anything else ends the process (a set-up
sample).  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_timed(op, tracer=None, op_id: int = 0):
    """Run one operation; returns (wall seconds, result)."""
    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = perf_counter()
    result = op.run()
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    return elapsed, result


def measure(ops, seconds: float, cycle_len: int, max_ops: float,
            check: bool = True) -> tuple[list[tuple], list[float]]:
    """Run operations one at a time until ``seconds`` have passed at a cycle
    boundary (or ``max_ops`` ran).  Checks run outside the timed span.
    Returns the records and the reference-loop times taken at the start of
    every cycle."""
    records, refs = [], []
    begin = perf_counter()
    for i, op in enumerate(ops):
        if i >= max_ops or (i and i % cycle_len == 0 and perf_counter() - begin >= seconds):
            break
        if i % cycle_len == 0:
            refs.append(hostspeed.reference_time())
        elapsed, result = run_timed(op)
        records.append((op, elapsed, op.check(result) if check else None))
    return records, refs


UNITS = {"goodput_ops_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
         "digits_p50": "digits", "digits_tail": "digits", "peak_rss_mb": "MB",
         "trace_overhead_share": "ratio", "cli.emit.bytes": "B",
         "splu.factor_bytes_computed": "B"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


#: Highest quantile reported as a tail.  Certificate times are heavy-tailed
#: (the descent's step count depends on the initial profile), and far
#: quantiles of a few hundred operations move by a quarter between seeds.
TAIL_CAP = 0.9


def tail_level(count: int) -> float:
    """Highest quantile, up to TAIL_CAP, with at least ten samples beyond
    it (the median for runs too short to have one)."""
    return min(TAIL_CAP, max(0.5, 1.0 - 10.0 / count))


def quantile(values, q: float) -> float:
    import numpy as np

    return float(np.quantile(values, q))


def end_to_end(records, refs: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics, with times in reference-host seconds
    (hostspeed.py), and the info-line details."""
    times = [t for _, t, _ in records]
    outcomes = [o for _, _, o in records]
    good = sum(o.ok for o in outcomes)
    # accuracy of the answers that passed their checks, as correct digits;
    # rounding-level errors are floored at the float64 epsilon
    digits = [-math.log10(max(e, sys.float_info.epsilon))
              for o in outcomes if o.ok for e in o.errs]
    all_errs = [e for o in outcomes for e in o.errs]
    level = tail_level(len(times))
    digit_level = tail_level(len(digits)) if digits else 0.5
    wall = {
        "goodput_ops_s": good / sum(times),
        "op_p50_s": quantile(times, 0.5),
        "op_tail_s": quantile(times, level),
    }
    host_ref = statistics.median(refs)
    scale = hostspeed.REF_S / host_ref
    metrics = {
        "goodput_ops_s": wall["goodput_ops_s"] / scale,
        "op_p50_s": wall["op_p50_s"] * scale,
        "op_tail_s": wall["op_tail_s"] * scale,
        "digits_p50": quantile(digits, 0.5) if digits else 0.0,
        "digits_tail": quantile(digits, 1.0 - digit_level) if digits else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # tally failure kinds with the numbers blanked out
    failures = Counter(re.sub(r"\d[\d.e+-]*", "#", o.note) for o in outcomes if not o.ok)
    info = {
        "ops": len(times),
        "failed": len(times) - good,
        "fail_share": (len(times) - good) / len(times),
        "host_ref_s": host_ref,
        **{f"wall_{k}": v for k, v in wall.items()},
        "op_tail_quantile": level,
        "answers_checked": len(all_errs),
        "answers_passing": len(digits),
        "digits_tail_quantile": 1.0 - digit_level,
        "rel_err_p50": quantile(all_errs, 0.5) if all_errs else None,
        "rel_err_max": max(all_errs) if all_errs else None,
        "failure_kinds": dict(failures.most_common(10)),
    }
    return metrics, info


#: Operations a traced run covers, rounded up to whole cycles.  The set is
#: fixed, not timed, so that the per-layer counts repeat exactly for a seed.
TRACE_OPS = 60


def traced_run(workload, stream, max_ops: float, out_dir: Path, tag: str):
    """Per-layer metrics from traced runs, and their overhead against the
    same operations run untraced.

    After an untimed pass that warms caches and the allocator, each
    operation runs twice in a row, traced and untraced, in alternating
    order, so that drift in the machine's speed hits both alike.  When the
    first run built difference matrices, the cache is cleared so that the
    second run builds them too.
    """
    import tracing
    from ckn import numerics

    count = min(max_ops, math.ceil(TRACE_OPS / workload.cycle_len) * workload.cycle_len)
    ops = list(itertools.islice(stream, count))
    measure(ops, math.inf, workload.cycle_len, math.inf, check=False)
    diff_matrix = numerics.diff_matrix
    tracer = tracing.Tracer()
    traced, plain = [], []
    for i, op in enumerate(ops):
        for run_traced in ((True, False) if i % 2 == 0 else (False, True)):
            misses = diff_matrix.cache_info().misses
            if run_traced:
                tracer.install()
                try:
                    elapsed, result = run_timed(op, tracer, i)
                finally:
                    tracer.uninstall()
                traced.append((elapsed, op.check(result)))
            else:
                # the same operation again, only for its untraced time
                plain.append(run_timed(op)[0])
            if diff_matrix.cache_info().misses > misses:
                diff_matrix.cache_clear()
    tracer.count("cli.emit.bytes", sum(o.out_bytes for _, o in traced))
    layer = tracer.per_layer()
    layer["trace_overhead_share"] = sum(t for t, _ in traced) / sum(plain) - 1.0
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{tag}.npz"
    tracer.write(spans)
    failed = sum(not o.ok for _, o in traced)
    info = {"ops": len(traced), "failed": failed, "spans": len(tracer.name),
            "spans_file": str(spans.relative_to(HERE.parent)), "untraced_op_wall_s": sum(plain)}
    return layer, info, len(traced), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--max-ops", type=int, default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import ckn
    import numpy
    import scipy
    if Path(ckn.__file__).resolve().parent != SRC / "ckn":
        print(f"ckn imported from {ckn.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    # the first cycle's inputs are built during set-up, later ones between operations
    stream = itertools.chain(workload.cycle(), workload.ops())
    workload.warm_up().run()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    max_ops = math.inf if args.max_ops is None else args.max_ops
    if args.trace:
        metrics, info, attempted, failed = traced_run(
            workload, stream, max_ops, HERE / "out", f"{args.workload}-{args.seed}")
    else:
        records, refs = measure(stream, args.seconds, workload.cycle_len, max_ops)
        metrics, info = end_to_end(records, refs)
        attempted, failed = info["ops"], info["failed"]
    info.update(python=sys.version.split()[0], numpy=numpy.__version__, scipy=scipy.__version__)
    print(json.dumps({"attempted": attempted, "failed": failed, "info": info,
                      "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
