"""Smoke check of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload for a few operations, untraced and traced, and checks
the result line against BENCHMARK.json: its keys, the metric names and
units, that every operation passed its check, and that traced self times
plus unattributed_s add up to the operation wall time.  Then checks that the benchmark refuses to run,
without printing a result, in a copy that holds only BENCHMARK.json and
the benchmark's own files.  Takes about a minute; timings are not judged.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_OPS = 3


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke check failed: {what}")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--max-ops", str(MAX_OPS)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(stdout: str, specs: list[dict], trace: int, label: str) -> dict:
    doc = json.loads(stdout.strip().splitlines()[-1])
    require(set(doc) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(doc)}")
    require(isinstance(doc["correct"], bool), f"{label}: correct is not a boolean")
    require(doc["attempted"] == MAX_OPS, f"{label}: attempted {doc['attempted']}")
    require(0 <= doc["failed"] <= doc["attempted"], f"{label}: failed {doc['failed']}")
    require(doc["correct"] == (doc["failed"] == 0), f"{label}: correct disagrees with failed")
    require(doc["correct"], f"{label}: {doc['failed']} operations failed")
    metrics = doc["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    require(set(metrics) == set(want), f"{label}: metrics {sorted(set(metrics) ^ set(want))}")
    for name, unit in want.items():
        require(metrics[name]["unit"] == unit, f"{label}: unit of {name}")
        require(isinstance(metrics[name]["value"], (int, float)), f"{label}: value of {name}")
    if trace:
        values = {k: v["value"] for k, v in metrics.items()}
        spans = sum(v for k, v in values.items() if k.endswith(".self_s"))
        total = spans + values["unattributed_s"]
        require(abs(total - values["op_wall_s"]) <= 1e-9 * max(1.0, values["op_wall_s"]),
                f"{label}: self times {total} do not add up to {values['op_wall_s']}")
    return doc


def check_refusal() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("survey", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0, "run without ckn sources exited 0")
    require('"metrics"' not in proc.stdout, "run without ckn sources printed a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{wl['name']} --trace {trace}"
            proc = run(wl["name"], trace)
            require(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
            doc = check_result(proc.stdout, spec[key], trace, label)
            print(f"ok  {label}: attempted {doc['attempted']}, failed {doc['failed']}")
    check_refusal()
    print("ok  refuses to run without the ckn sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
