"""survbench benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a survbench checkout. Each run starts fresh worker
interpreters (``worker.py``) with the BLAS thread count pinned, importing
survbench from ``src/``. With ``--trace 0`` it prints every end-to-end
metric listed in ``BENCHMARK.json``, with ``--trace 1`` every per-layer
metric of a traced pass. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The run environment (versions, core count, BLAS threads,
commit) and the raw C_td/IBS go to standard error; the environment also
to ``.perfbench_out/<run>/env.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("table1_n1000_p10", "table1_n200_p1000", "score_ah_n6000")
SETUP_REPEATS = 3
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    """Environment of a worker: pinned BLAS threads, survbench from src/."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(args: list, env: dict, deadline: float):
    """Run worker.py to completion; return (seconds from spawn to READY,
    parsed RESULT or None)."""
    spawned = time.monotonic()
    try:
        # run() kills and reaps the worker when the timeout expires
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, check=False,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    ready = result = None
    for line in proc.stdout.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1]) - spawned
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if ready is None:
        raise WorkerError("worker never reported ready")
    return ready, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "survbench" / "__init__.py").is_file():
        print(f"perfbench: no survbench sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    out = ROOT / ".perfbench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--out", str(out)]
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(run_worker(common + ["--setup-only"], env,
                                         deadline)[0])
        ready, result = run_worker(common + ["--trace", str(args.trace)], env,
                                   deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if result is None:
        print("perfbench: worker printed no result", file=sys.stderr)
        return 1
    setups.append(ready)

    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"env": result["env"], "passes": result["passes"],
                      "fail_frac": result["failed"] / result["attempted"],
                      "quality": result["quality"]}), file=sys.stderr)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
