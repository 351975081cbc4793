"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` with the BLAS thread count pinned. It imports
survbench, sets the workload up, prints ``READY <monotonic time>`` so the
parent can time process start to ready, runs the timed passes, checks
every output and prints ``RESULT <json>`` as its last line.

With ``--setup-only`` it exits after READY (the parent repeats set-up to
take a median). With ``--trace 1`` the tracer covers set-up and one timed
pass, and an untraced pass of the same work gives the tracing overhead.
With ``--profile 1`` the same set-up and pass run under cProfile instead,
and the worker prints the profiled call counts of every traced function.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import survbench
# Call into survbench through its modules, never through names imported
# here, so the tracer's rebinding of those module attributes sees the calls.
from survbench import bench, core, models, simgen
from survbench import metrics as scoring
from survbench.models import MODEL_NAMES
from survbench.nnet import TrainConfig
from survbench.simgen import LogNormal, ModelFamily, SimulationSpec, Weibull

import tracer as tracing

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
DEFAULT_SEED = 0
BLAS_THREADS = 1

# Every network in the cells trains for exactly this many epochs (early
# stopping can still pick an earlier best epoch, but never ends training),
# so a cell's work does not swing with the seed's stopping epoch; two CV
# folds instead of three make room for several repetitions (independent
# draws) per run, so the figures average over draws instead of following
# one draw's quirks.
CELL_TRAIN = TrainConfig(epochs=100, min_epochs=100, cv_folds=2)

TABLE1 = dict(family=ModelFamily.COX, baseline=Weibull(a=2.0, lam=1.3e-7),
              censor_target=0.3)
# workload -> (n, p = k, repetitions per run)
CELLS = {"table1_n1000_p10": (1000, 10, 3),
         "table1_n200_p1000": (200, 1000, 1)}

# score_ah_n6000 times scoring, not fitting: coxl1 runs its full pipeline,
# the networks train with a fixed ridge (near the middle of each head's CV
# grid at 3000 subjects) for a fixed number of epochs, to keep set-up short
SCORE_TRAIN, SCORE_TEST = 3000, 6000
SCORE_SPEC = dict(family=ModelFamily.AH, baseline=LogNormal(mu=7.73, sigma=0.7),
                  p=10, k=10, censor_target=0.3)
SCORE_CONFIGS = {
    "coxl1": None,
    "coxnnet": TrainConfig(ridge=200.0, epochs=200, min_epochs=200),
    "nnsurv": TrainConfig(ridge=3.0, epochs=20, min_epochs=20),
    "nnsurv_deep": TrainConfig(ridge=3.0, epochs=20, min_epochs=20),
}
PINNED_TEST = 1000  # default-seed reference check on this many test subjects


class Outcome:
    """Attempted and failed operations of a run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9


def _valid_quality(c_td: float, ibs: float) -> bool:
    return (math.isfinite(c_td) and 0.0 <= c_td <= 1.0
            and math.isfinite(ibs) and ibs >= 0.0)


# ---------------------------------------------------------------------------
# Table-1 cells through run_grid

class CellWorkload:
    def __init__(self, name: str, seed: int, out: Path):
        n, p, self.repetitions = CELLS[name]
        self.name = name
        self.spec = SimulationSpec(n=n, p=p, k=p, seed=0, **TABLE1)
        self.seed = seed
        self.out = out

    def setup(self) -> None:
        self.config = bench.ExperimentConfig(
            cells=(self.spec,), repetitions=self.repetitions,
            base_seed=self.seed)

    def run_pass(self, index: int, outcome: Outcome) -> dict:
        out = self.out / f"pass{index}"
        start = time.perf_counter()
        rows = bench.run_grid(self.config, out, resume=False, log=_quiet,
                              train_config=CELL_TRAIN)
        wall = time.perf_counter() - start
        by_key = {(row.model, row.rep): row for row in rows}
        models = ("reference",) + MODEL_NAMES
        for rep in range(self.repetitions):
            for model in models:
                row = by_key.get((model, rep))
                outcome.check(row is not None
                              and _valid_quality(row.c_td, row.ibs),
                              f"{model} rep {rep} row missing or out of range")
        expected = self.repetitions * len(models)
        outcome.check(len(rows) == len(by_key) == expected,
                      f"{len(rows)} rows, expected {expected} distinct ones")
        errors = out / "errors.log"
        outcome.check(not errors.exists() or errors.stat().st_size == 0,
                      "errors.log is not empty")
        outcome.check(bench.read_results(out / "results.csv") == rows,
                      "results.csv differs from the returned rows")
        if self.seed == DEFAULT_SEED and ("reference", 0) in by_key:
            self._check_pinned(by_key[("reference", 0)], outcome)
        shutil.rmtree(out, ignore_errors=True)
        per_model = {m: [row for row in rows if row.model == m] for m in models}
        return {
            "wall_s": wall,
            "seconds": {m: statistics.fmean(r.wall_seconds for r in per_model[m])
                        for m in MODEL_NAMES},
            "quality": {m: [(r.c_td, r.ibs) for r in per_model[m]]
                        for m in models},
            "row_seconds": sum(row.wall_seconds for row in rows),
        }

    def pinned_check(self, outcome: Outcome) -> None:
        """The default-seed reference row involves no training: it must
        match the recorded value on every run, whatever the seed."""
        out = self.out / "pinned"
        config = bench.ExperimentConfig(cells=(self.spec,), models=(),
                                  repetitions=1, base_seed=DEFAULT_SEED)
        rows = bench.run_grid(config, out, resume=False, log=_quiet)
        shutil.rmtree(out, ignore_errors=True)
        if outcome.check(len(rows) == 1, "pinned reference row missing"):
            self._check_pinned(rows[0], outcome)

    def _check_pinned(self, row, outcome: Outcome) -> None:
        want = EXPECTED[self.name]["reference"]
        outcome.check(_close(row.c_td, want["c_td"])
                      and _close(row.ibs, want["ibs"]),
                      f"reference row {row.c_td!r}, {row.ibs!r} != {want}")


# ---------------------------------------------------------------------------
# large-n scoring

class ScoreWorkload:
    name = "score_ah_n6000"

    def __init__(self, name: str, seed: int, out: Path):
        self.seed = seed

    @staticmethod
    def _draw(seed: int):
        seeds = np.random.SeedSequence(seed).generate_state(2 + len(MODEL_NAMES))
        spec = SimulationSpec(n=SCORE_TRAIN + SCORE_TEST, seed=int(seeds[0]),
                              **SCORE_SPEC)
        sim = simgen.generate(spec)
        fraction = SCORE_TRAIN / (SCORE_TRAIN + SCORE_TEST)
        train, test, split = core.train_test_split(sim.data, fraction, int(seeds[1]))
        return sim, train, test, split, [int(s) for s in seeds[2:]]

    def setup(self) -> None:
        self.sim, train, self.test, self.split, model_seeds = self._draw(self.seed)
        self.models = {
            name: models.fit_model(name, train, seed=s, config=SCORE_CONFIGS[name])
            for name, s in zip(MODEL_NAMES, model_seeds)
        }

    def run_pass(self, index: int, outcome: Outcome) -> dict:
        test = self.test
        seconds, quality = {}, {}
        for name, model in self.models.items():
            t0 = time.perf_counter()
            curves = model.predict_survival(test.X)
            report = scoring.metric_report(curves, test.time, test.event)
            seconds[name] = time.perf_counter() - t0
            outcome.check(_valid_curves(curves, test.n),
                          f"{name} predicted curves are invalid")
            outcome.check(_valid_quality(report.c_td, report.ibs),
                          f"{name} metrics out of range")
            quality[name] = [(report.c_td, report.ibs)]
            del curves
        t0 = time.perf_counter()
        ref = scoring.reference_metrics(self.sim, self.split.test)
        wall = sum(seconds.values()) + time.perf_counter() - t0
        outcome.check(_valid_quality(ref.c_td, ref.ibs),
                      "reference metrics out of range")
        quality["reference"] = [(ref.c_td, ref.ibs)]
        if self.seed == DEFAULT_SEED:
            want = EXPECTED[self.name]
            for key in ("coxl1", "reference"):
                (c_td, ibs), = quality[key]
                outcome.check(_close(c_td, want[key]["c_td"])
                              and _close(ibs, want[key]["ibs"]),
                              f"{key} scores {c_td!r}, {ibs!r} != {want[key]}")
        return {"wall_s": wall, "seconds": seconds, "quality": quality,
                "row_seconds": 0.0}

    def pinned_check(self, outcome: Outcome) -> None:
        """Reference metrics of the default-seed data on a fixed subset of
        its test subjects: no training, so they must match the record."""
        sim, _, _, split, _ = self._draw(DEFAULT_SEED)
        ref = scoring.reference_metrics(sim, split.test[:PINNED_TEST])
        want = EXPECTED[self.name]["pinned_reference"]
        outcome.check(_close(ref.c_td, want["c_td"])
                      and _close(ref.ibs, want["ibs"]),
                      f"pinned reference {ref.c_td!r}, {ref.ibs!r} != {want}")


def _valid_curves(curves, n: int) -> bool:
    if len(curves) != n:
        return False
    for curve in curves:
        probs = curve.probs
        if not (np.all(probs >= 0.0) and np.all(probs <= 1.0)
                and np.all(np.diff(probs) <= 0.0)):
            return False
    return True


def _quiet(*_args, **_kwargs) -> None:
    pass


WORKLOADS = {"table1_n1000_p10": CellWorkload,
             "table1_n200_p1000": CellWorkload,
             "score_ah_n6000": ScoreWorkload}


# ---------------------------------------------------------------------------
# run environment

def environment() -> dict:
    """Machine and library versions the figures were taken with."""
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy older than 1.26
        pass
    commit = "unknown (not a git checkout)"
    if (HERE.parent / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "survbench": survbench.__version__,
        "commit": commit,
    }


# ---------------------------------------------------------------------------

def _consistent(passes) -> bool:
    """Quality is deterministic at a fixed seed: every pass must agree."""
    return all(p["quality"] == passes[0]["quality"] for p in passes[1:])


def _median_seconds(passes, model: str) -> float:
    return statistics.median(p["seconds"][model] for p in passes)


def end_to_end(passes, outcome: Outcome) -> dict:
    first = passes[0]
    out = {"wall_s": statistics.median(p["wall_s"] for p in passes),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "ok_frac": 1.0 - outcome.failed / outcome.attempted}
    for model in MODEL_NAMES:
        out[f"{model}_s"] = _median_seconds(passes, model)
    # relative to the exact data-generating model on the same test set,
    # averaged over repetitions: raw C_td and IBS move with each draw's
    # population as much as the models differ, the ratios do not
    reference = first["quality"]["reference"]
    for k, stat in enumerate(("c_td", "ibs")):
        for model in MODEL_NAMES:
            out[f"{stat}_ratio.{model}"] = statistics.fmean(
                got[k] / ref[k]
                for got, ref in zip(first["quality"][model], reference))
    return out


def profile_counts(stats) -> dict:
    """Call counts cProfile saw for each traced function, by layer name."""
    wanted = {}
    for module_name, attr, name, _ in tracing.FUNCTIONS:
        if name == "models.fit":
            continue
        code = getattr(sys.modules[module_name], attr).__code__
        wanted[(code.co_filename, code.co_firstlineno, code.co_name)] = name
    for module_name, cls_name, method, name, _ in tracing.METHODS:
        if name == "mlp.adam_step":
            code = getattr(getattr(sys.modules[module_name], cls_name),
                           method).__code__
            wanted[(code.co_filename, code.co_firstlineno, code.co_name)] = name
    return {wanted[key]: entry[1] for key, entry in stats.stats.items()
            if key in wanted}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.workload, args.seed, out)
    tracer = tracing.Tracer() if args.trace else None
    profiler = None
    if args.profile:
        import cProfile
        profiler = cProfile.Profile()

    if tracer:
        tracer.install()
    if profiler:
        profiler.enable()
    workload.setup()
    if profiler:
        profiler.disable()
    if tracer:
        tracer.uninstall()
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    outcome = Outcome()
    if args.trace:
        untraced = workload.run_pass(0, outcome)
        tracer.install()
        traced = workload.run_pass(1, outcome)
        tracer.uninstall()
        tracer.write(out / "trace.json")
        passes = [untraced, traced]
        metrics = tracer.layer_metrics(traced["row_seconds"],
                                       untraced["wall_s"], traced["wall_s"])
    elif args.profile:
        profiler.enable()
        passes = [workload.run_pass(0, outcome)]
        profiler.disable()
        import pstats
        metrics = profile_counts(pstats.Stats(profiler))
    else:
        passes, start = [], time.perf_counter()
        while True:
            passes.append(workload.run_pass(len(passes), outcome))
            used = time.perf_counter() - start
            typical = statistics.median(p["wall_s"] for p in passes)
            if used + typical > args.seconds:
                break
        metrics = None
    outcome.check(_consistent(passes), "quality differs between passes")
    workload.pinned_check(outcome)
    if metrics is None:
        metrics = end_to_end(passes, outcome)

    env = environment()
    (out / "env.json").write_text(json.dumps(env, indent=2), encoding="utf-8")
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"attempted": outcome.attempted, "failed": outcome.failed,
              "passes": len(passes), "metrics": metrics, "env": env,
              "quality": passes[0]["quality"]}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
