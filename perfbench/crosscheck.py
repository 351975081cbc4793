"""Cross-check the tracer's call counts.

    python3 perfbench/crosscheck.py [--workload table1_n1000_p10] [--seed 0]

Runs the workload's traced pass twice and once under cProfile (each in a
fresh worker, set-up included, as in ``run.py --trace 1``). Every traced
call count must repeat exactly between the two traced runs and equal the
count cProfile gives for the same function. Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import sys
import time

import run


def counts(args: list) -> dict:
    _, result = run.run_worker(args, run.worker_env(),
                               time.monotonic() + 3600.0)
    if result is None or result["failed"]:
        raise SystemExit(f"worker run failed: {result}")
    return result["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="table1_n1000_p10",
                        choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    out = run.ROOT / ".perfbench_out" / f"crosscheck-{args.workload}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", "1", "--out", str(out)]

    first = counts(common + ["--trace", "1"])
    second = counts(common + ["--trace", "1"])
    profiled = counts(common + ["--profile", "1"])

    ok = True
    call_metrics = sorted(k for k in first if k.endswith(".calls"))
    for key in call_metrics:
        if first[key] != second[key]:
            ok = False
            print(f"MISMATCH {key}: traced {first[key]} then {second[key]}")
    print(f"{'function':<34} {'traced':>9} {'cProfile':>9}")
    for name, n_profiled in sorted(profiled.items()):
        n_traced = first[f"{name}.calls"]
        flag = "" if n_traced == n_profiled else "  MISMATCH"
        ok = ok and not flag
        print(f"{name:<34} {n_traced:>9} {n_profiled:>9}{flag}")
    print("call counts agree" if ok else "call counts DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
