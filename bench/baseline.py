"""Regenerate ``bench/baseline.json``: repeated runs of ``bench/run.py`` per workload.

Run from the root of a checkout:

    python3 bench/baseline.py --output bench/baseline.json

For each workload of ``BENCHMARK.json`` it makes ten untraced runs, seeds
1..10, and one traced run with seed 1.  It records every run's end-to-end
metrics, each metric's median, quartiles and spread (quartile distance over
median, the figure compared with the bound in ``BENCHMARK.json``), the traced
run's per-layer metrics and the environment line of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: untraced runs per workload, seeds 1..RUNS
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, environment record).

    Exits when the run reports a failed operation.
    """
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: {result['failed']} of "
                         f"{result['attempted']} operations failed")
    return result, env


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=Path("bench/baseline.json"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, RUNS + 1):
            result, env = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append(result["metrics"])
            out.setdefault("env", env)
        traced, _ = run_once(workload, 1, spec["run_seconds"], 1)
        end_to_end = {name: summary([r[name]["value"] for r in runs]) for name in bounds}
        out["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer_seed1": {n: m["value"] for n, m in traced["metrics"].items()},
        }
        for name, stats in end_to_end.items():
            print(f"{workload} {name} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f} (bound {bounds[name]})")
    args.output.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
