"""Measure the benchmark's baseline and write ``perfbench/baseline.json``.

    python3 perfbench/baseline.py

Runs every workload once per seed 1..SEEDS untraced and once at seed 0
traced, one run at a time, each for BENCHMARK.json's ``run_seconds``,
from the root of a checkout.  For each end-to-end metric it records the
median, the quartiles and the spread (IQR / median, as
``statistics.quantiles(values, n=4)`` gives them) over the SEEDS runs.  It
also keeps every run's physics record and the seed-0 per-layer values.
A run that is not correct stops it.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import machine_facts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    record = json.loads(
        (ROOT / ".perfbench_work" / f"{workload}-seed{seed}-trace{trace}"
         / "record.json").read_text())
    if not record["correct"]:
        sys.exit(f"{workload} seed {seed}: not correct\n{proc.stdout}")
    return record


def summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = {"machine": machine_facts(), "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        records = [run_once(workload, seed, seconds, 0)
                   for seed in range(1, SEEDS + 1)]
        traced = run_once(workload, 0, seconds, 1)
        metrics = {}
        for name in records[0]["metrics"]:
            metrics[name] = {
                "unit": records[0]["metrics"][name]["unit"],
                **summary([r["metrics"][name]["value"] for r in records])}
        out["workloads"][workload] = {
            "end_to_end": metrics,
            "per_layer_seed0": {k: v["value"]
                                for k, v in traced["metrics"].items()},
            "physics": {str(r["seed"]): r["physics"]
                        for r in records + [traced]},
        }
        for name, m in metrics.items():
            print(f"{workload} {name}: median {m['median']:.6g} "
                  f"{m['unit']}, spread {m['spread']:.4f}", flush=True)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
