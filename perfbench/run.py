"""Benchmark of the ckn toolkit: accurate-answer goodput per workload.

    python3 perfbench/run.py --workload {spectrum,certify,survey} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ckn is imported from its ``src``.  Each
workload runs closed-loop with one operation in flight, in a worker
process of its own (perfbench/worker.py), so that set-up time and peak
memory belong to that workload.  BLAS and OpenMP pools get one thread
each: with one operation in flight the work is serial, and extra pool
threads on a shared host only add scheduler noise to the timings.

Operation times are reported in reference-host seconds
(perfbench/hostspeed.py): wall times scaled by the host's speed during the
run, measured with a fixed reference loop.  The wall times are on the info
line.  setup_s is a wall time.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports per-layer calls, self times and counts from
a traced pass, and the tracing overhead against the same operations run
untraced.  The line before it records the seed, the machine and the
versions, plus details that are not metrics (fail share, raw relative
errors, failure notes).  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectrum", "certify", "survey")
#: Worker start-ups timed per untraced run; setup_s is their median.
SETUP_SAMPLES = 5
#: Seconds a worker may take beyond the measured window before it is killed.
GRACE_S = 120.0


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, env: dict):
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.max_ops is not None:
        cmd += ["--max-ops", str(args.max_ops)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not become ready: {line!r}")
    return proc, setup


def finish(proc, command: str, timeout: float) -> str:
    try:
        out, _ = proc.communicate(command + "\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--max-ops", type=int, default=None,
                    help="stop after this many operations (smoke checks)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ckn" / "__init__.py").is_file():
        print(f"no ckn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cores = len(os.sched_getaffinity(0))
    env = worker_env()
    timeout = args.seconds + GRACE_S
    try:
        samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, setup = start_worker(args, env)
                finish(proc, "exit", timeout)
                samples.append(setup)
        proc, setup = start_worker(args, env)
        samples.append(setup)
        lines = finish(proc, "go", timeout).strip().splitlines()
        report = json.loads(lines[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": cores, "machine": platform.machine(),
            "setup_samples_s": samples, **report["info"]}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
