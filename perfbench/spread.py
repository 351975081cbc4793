"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--out FILE]

Runs ``run.py`` once per seed (untraced, ``run_seconds`` from
BENCHMARK.json), then prints for every end-to-end metric the median and
the quartile spread (Q3 - Q1, from ``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound. With ``--out`` the raw
per-seed results are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"wall_s={result['metrics']['wall_s']['value']:.3f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1), encoding="utf-8")

    worst = 0.0
    print(f"{'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        if metric["name"] != "setup_s":
            worst = max(worst, spread / metric["bound"])
        print(f"{metric['name']:<20} {median:>12.6g} {spread:>8.4f} "
              f"{metric['bound']:>6}")
    print(f"all correct: {all(run['correct'] for run in runs)}; "
          f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
