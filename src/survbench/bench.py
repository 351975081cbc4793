"""Configuration-driven experiment harness and command-line interface.

A grid run simulates each cell, splits it, fits every requested model,
and scores test-set predictions next to the exact-model reference. Each
row (cell, repetition, model) is computed on its own, in parallel over
the usable CPUs, and appended to a CSV in grid order, so a resumed run
computes only the rows that are missing or failed; all seeds derive
deterministically from (base seed, cell index, repetition, model slot),
which makes reruns bit-stable however the rows are spread over processes.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import multiprocessing
import os
import signal
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .core import SurvivalDataset, train_test_split
from .metrics import metric_report, reference_metrics
from .models import MODEL_NAMES, fit_model, load_model, save_model
from .nnet import TrainConfig
from .simgen import (
    LogNormal,
    ModelFamily,
    SimulationSpec,
    Weibull,
    generate,
)

ENV_OUTDIR = "SURVBENCH_OUTDIR"
CONFIG_VERSION = 1
RESULT_COLUMNS = ("family", "baseline", "n", "p", "model", "rep", "seed",
                  "c_td", "ibs", "wall_seconds")
REFERENCE_MODEL = "reference"
FAILED_SEED = -1  # seed of a row whose cell failed: NaN metrics, no result


@dataclass(frozen=True)
class ResultRow:
    family: str
    baseline: str
    n: int
    p: int
    model: str
    rep: int
    seed: int
    c_td: float
    ibs: float
    wall_seconds: float

    def key(self):
        return (self.family, self.baseline, self.n, self.p, self.model, self.rep)

    @property
    def failed(self) -> bool:
        return self.seed == FAILED_SEED

    def as_record(self) -> list:
        return [self.family, self.baseline, self.n, self.p, self.model,
                self.rep, self.seed, repr(self.c_td), repr(self.ibs),
                repr(self.wall_seconds)]


@dataclass(frozen=True)
class ExperimentConfig:
    cells: tuple
    models: tuple = MODEL_NAMES
    repetitions: int = 5
    base_seed: int = 0
    train_fraction: float = 2.0 / 3.0
    output_dir: str | None = None  # CLI fallback when --out is absent

    def __post_init__(self):
        if not self.cells:
            raise ValueError("experiment grid is empty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        _check_model_names(self.models)


def _check_model_names(models) -> None:
    """Reject a name outside ``MODEL_NAMES`` and a repeated name: a
    duplicate's row would be fitted and written twice."""
    for name in models:
        if name not in MODEL_NAMES:
            raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
    if len(set(models)) != len(models):
        raise ValueError(f"duplicate model names in {tuple(models)!r}")


def _baseline_label(baseline) -> str:
    # no commas: the label lands in CSV fields unquoted
    if isinstance(baseline, Weibull):
        return f"weibull(a={baseline.a:g};lam={baseline.lam:g})"
    return f"lognormal(mu={baseline.mu:g};sigma={baseline.sigma:g})"


def _derived_seed(base_seed: int, *path: int) -> int:
    return int(np.random.SeedSequence((base_seed,) + path).generate_state(1)[0])


# ---------------------------------------------------------------------------
# configuration files

_BASELINES = {"weibull": (Weibull, ("a", "lam")),
              "lognormal": (LogNormal, ("mu", "sigma"))}


def _checked(d, where: str, required, optional=()) -> dict:
    """``d`` if it is a JSON object with every ``required`` key and no
    key outside ``required`` and ``optional``, so a typo is not ignored."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key in d:
        if key not in required and key not in optional:
            raise ValueError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in d:
            raise ValueError(f"{where}: missing key {key!r}")
    return d


def _typed(value, where: str, types, kind: str):
    # JSON's true is a Python int, yet neither a count nor a number
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{where} must be {kind}, got {value!r}")
    return value


def _integer(value, where: str) -> int:
    # int() would truncate 1.5 to 1
    value = _typed(value, where, (int, float), "an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _number(value, where: str) -> float:
    # float() would read "0.3" as a number, and json reads NaN and Infinity
    value = float(_typed(value, where, (int, float), "a number"))
    if not np.isfinite(value):
        raise ValueError(f"{where} must be a finite number, got {value!r}")
    return value


# how each number of a cell and each optional top-level key is read; an
# absent top-level key keeps ExperimentConfig's default
_CELL_READERS = {"n": _integer, "p": _integer, "k": _integer,
                 "beta_scale": _number, "censor_target": _number}
_CONFIG_READERS = {
    "models": lambda v, where: tuple(_typed(v, where, list, "a list")),
    "repetitions": _integer, "base_seed": _integer, "train_fraction": _number,
    "output_dir": lambda v, where: _typed(v, where, (str, type(None)),
                                          "a string or null")}


def _cell_from_json(c, where: str) -> SimulationSpec:
    c = _checked(c, where, ("family", "baseline") + tuple(_CELL_READERS))
    if c["family"] not in [family.value for family in ModelFamily]:
        raise ValueError(f"{where}: unknown family {c['family']!r}")
    kind = c["baseline"].get("kind") if isinstance(c["baseline"], dict) else None
    if not isinstance(kind, str) or kind not in _BASELINES:
        raise ValueError(f"{where}: unknown baseline kind {kind!r}")
    cls, fields = _BASELINES[kind]
    base = _checked(c["baseline"], f"{where} baseline", ("kind",) + fields)
    return SimulationSpec(
        family=ModelFamily(c["family"]), seed=0,
        baseline=cls(*(_number(base[f], f"{where} baseline {f}") for f in fields)),
        **{key: read(c[key], f"{where} {key}")
           for key, read in _CELL_READERS.items()})


def config_from_json(d: dict) -> ExperimentConfig:
    """The experiment a config object describes; a key that is unknown,
    missing or of the wrong type raises ``ValueError`` naming it."""
    d = _checked(d, "config", ("config_version", "cells"), _CONFIG_READERS)
    if _integer(d["config_version"], "config_version") != CONFIG_VERSION:
        raise ValueError(f"unsupported config version {d['config_version']!r}")
    cells = _typed(d["cells"], "config cells", list, "a list")
    return ExperimentConfig(
        cells=tuple(_cell_from_json(c, f"config cell {i}")
                    for i, c in enumerate(cells)),
        **{key: read(d[key], f"config {key}")
           for key, read in _CONFIG_READERS.items() if key in d})


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_json(json.load(fh))


def builtin_config(name: str, repetitions: int = 5,
                   models: tuple = MODEL_NAMES) -> ExperimentConfig:
    """The three built-in simulation grids (dense coefficients, k = p)."""
    grids = {
        "table1": (ModelFamily.COX, Weibull(a=2.0, lam=1.3e-7)),
        "table2": (ModelFamily.AH, LogNormal(mu=7.73, sigma=0.7)),
        "table3": (ModelFamily.AFT, LogNormal(mu=7.73, sigma=0.176)),
    }
    if name not in grids:
        raise ValueError(f"unknown built-in config {name!r}; "
                         f"choose from {sorted(grids)}")
    family, baseline = grids[name]
    cells = tuple(
        SimulationSpec(family=family, baseline=baseline, n=n, p=p, k=p,
                       censor_target=0.3, seed=0)
        for n in (200, 1000) for p in (10, 100, 1000)
    )
    return ExperimentConfig(cells=cells, models=models, repetitions=repetitions)


# ---------------------------------------------------------------------------
# result persistence

def read_results(path) -> list:
    """The rows of a results file, one per key: a later row replaces an
    earlier one of its key (a failed row retried on resume) in place."""
    rows = {}
    path = Path(path)
    if not path.exists():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is not None and tuple(reader.fieldnames) != RESULT_COLUMNS:
            raise ValueError(f"unexpected results header {reader.fieldnames}")
        for rec in reader:
            row = ResultRow(
                family=rec["family"], baseline=rec["baseline"],
                n=int(rec["n"]), p=int(rec["p"]), model=rec["model"],
                rep=int(rec["rep"]), seed=int(rec["seed"]),
                c_td=float(rec["c_td"]), ibs=float(rec["ibs"]),
                wall_seconds=float(rec["wall_seconds"]))
            rows[row.key()] = row
    return list(rows.values())


class _ResultWriter:
    """Append-only CSV sink; each row is flushed as soon as it lands."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # a run killed in the middle of a row leaves a last line without
        # its newline: cut it, so that row counts as missing
        if self.path.exists():
            data = self.path.read_bytes()
            if not data.endswith(b"\n"):
                os.truncate(self.path, data.rfind(b"\n") + 1)
        self._fh = open(self.path, "a", newline="", encoding="utf-8")
        self._writer = csv.writer(self._fh)
        # a run killed before its header reached disk leaves an empty file
        if self._fh.tell() == 0:
            self._writer.writerow(RESULT_COLUMNS)
            self._fh.flush()

    def write(self, row: ResultRow) -> None:
        self._writer.writerow(row.as_record())
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()


# ---------------------------------------------------------------------------
# grid execution

def _result_row(spec: SimulationSpec, name: str, rep: int, seed: int,
                c_td: float, ibs: float, wall_seconds: float) -> ResultRow:
    return ResultRow(family=spec.family.value,
                     baseline=_baseline_label(spec.baseline), n=spec.n,
                     p=spec.p, model=name, rep=rep, seed=seed, c_td=c_td,
                     ibs=ibs, wall_seconds=wall_seconds)


@lru_cache(maxsize=1)
def _draw(spec: SimulationSpec, train_fraction: float, split_seed: int):
    """The simulated data of one (cell, repetition) and its split. The
    last draw is kept, so a process that computes several rows of one
    draw in turn simulates it once; those rows share it and must not
    modify it. ``run_grid`` clears it when it returns."""
    sim = generate(spec)
    return (sim,) + train_test_split(sim.data, train_fraction, split_seed)


def _row_seed(base_seed: int, cell_idx: int, rep: int, name: str) -> int:
    """The seed row ``name`` of a (cell, repetition) records. Seeds derive
    from (base seed, cell, repetition, slot): slot 0 draws the data (the
    reference's seed), 1 the split and 2 + the model's index in
    ``MODEL_NAMES`` its fit, whatever ``config.models`` holds, so any
    subset of rows, in any process, draws the seeds of a full run."""
    slot = 0 if name == REFERENCE_MODEL else 2 + MODEL_NAMES.index(name)
    return _derived_seed(base_seed, cell_idx, rep, slot)


def _evaluate_row(config: ExperimentConfig, train_config, cell_idx: int,
                  rep: int, name: str) -> ResultRow:
    """Score one row of a (cell, repetition) draw: the exact-model
    reference or the model ``name``, with the seeds of ``_row_seed``."""
    seed = _row_seed(config.base_seed, cell_idx, rep, name)
    sim_seed = _derived_seed(config.base_seed, cell_idx, rep, 0)
    split_seed = _derived_seed(config.base_seed, cell_idx, rep, 1)
    spec = replace(config.cells[cell_idx], seed=sim_seed)
    sim, train, test, split = _draw(spec, config.train_fraction, split_seed)
    if name == REFERENCE_MODEL:
        t0 = time.perf_counter()
        scores = reference_metrics(sim, split.test)
        seconds = time.perf_counter() - t0
    else:
        scores, seconds = _fit_and_score(name, seed, train, test, train_config)
    return _result_row(spec, name, rep, seed, scores.c_td, scores.ibs, seconds)


def _fit_and_score(name: str, seed: int, train: SurvivalDataset,
                   test: SurvivalDataset, train_config):
    """Fit model ``name`` on ``train`` with ``seed`` and score its curves
    for ``test``; returns the metric report and the seconds both took."""
    t0 = time.perf_counter()
    model = fit_model(name, train, seed=seed, config=train_config)
    scores = metric_report(model.predict_survival(test.X), test.time,
                           test.event)
    return scores, time.perf_counter() - t0


def _row_or_traceback(config: ExperimentConfig, train_config, key):
    """The row of ``key`` = (cell, repetition, model), or the traceback
    of its failure as a string."""
    try:
        return _evaluate_row(config, train_config, *key)
    except Exception:
        return traceback.format_exc()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform: one process
        return 1


@lru_cache(maxsize=1)
def _openblas_set_threads():
    """A function that sets the thread count of the OpenBLAS bundled with
    numpy's wheel (``numpy.libs/libscipy_openblas64_-*.so``) and returns
    the count it replaced, or None when numpy runs on another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue

        def set_threads(count: int) -> int:
            before = get()
            put(count)
            return before
        return set_threads
    return None


@contextmanager
def _one_blas_thread():
    """numpy's bundled OpenBLAS on one thread in this process, and so in
    every worker it forks meanwhile; the caller's count is restored on
    leaving. On another BLAS it does nothing."""
    set_threads = _openblas_set_threads()
    if set_threads is None:
        yield
        return
    before = set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _ignore_interrupt() -> None:
    # Ctrl-C reaches the parent, which then terminates the pool
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@contextmanager
def _mapped(fn, keys: list):
    """``fn`` over ``keys``, yielded in order: on a pool of forked
    workers, one per usable CPU (never more than keys), or in this
    process when that is one. Either way the rows run numpy's bundled
    OpenBLAS on one thread, so a row's bits do not depend on where it
    ran; the workers already fill the CPUs. Leaving the block restores
    the caller's BLAS threads and terminates the pool.
    An idle worker whose parent died reads end-of-file and exits."""
    workers = min(_usable_cpus(), len(keys))
    with _one_blas_thread():
        if workers <= 1:
            yield map(fn, keys)
            return
        context = multiprocessing.get_context("fork")
        with context.Pool(workers, initializer=_ignore_interrupt) as pool:
            yield pool.imap(fn, keys, chunksize=1)


def run_grid(config: ExperimentConfig, output_dir, resume: bool = True,
             log=print, train_config=None) -> list:
    """Run every (cell, repetition, model) row, persisting rows as they
    finish.

    The pending rows run on a pool of forked workers, one per usable
    CPU; with one usable CPU (``taskset -c 0``) they run in this
    process. Only this process writes, and it writes the rows to
    ``results.csv`` in grid order: cell, then repetition, then the
    reference and ``config.models`` in their order. With ``resume``
    (default), the rows already in the results file are kept and only
    the missing ones, the failed ones and those whose seed is not the
    one ``_row_seed`` derives (a row of another base seed, or written
    before seeds followed model names) are computed, so an interrupted
    or partly failed run completes to the rows of a clean one. A row that
    raises is recorded as failed (NaN metrics, seed ``FAILED_SEED``)
    with its traceback in ``errors.log``, and the other rows still run.
    Without ``resume``, the results file and ``errors.log`` start
    afresh. Returns one row per key, as ``read_results`` reads them back
    from the file.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    results_path = output_dir / "results.csv"
    err_path = output_dir / "errors.log"
    if not resume:
        results_path.unlink(missing_ok=True)
        err_path.unlink(missing_ok=True)
    # the writer first: it cuts a row left half-written by a killed run
    writer = _ResultWriter(results_path)
    try:
        rows = {row.key(): row for row in read_results(results_path)}
        pending = []
        for cell_idx, spec in enumerate(config.cells):
            label = _baseline_label(spec.baseline)
            for rep in range(config.repetitions):
                for name in (REFERENCE_MODEL,) + tuple(config.models):
                    row = rows.get((spec.family.value, label, spec.n, spec.p,
                                    name, rep))
                    # a failed row's seed is FAILED_SEED
                    if row is None or row.seed != _row_seed(
                            config.base_seed, cell_idx, rep, name):
                        pending.append((cell_idx, rep, name))
        task = partial(_row_or_traceback, config, train_config)
        with _mapped(task, pending) as results:
            for (cell_idx, rep, name), row in zip(pending, results):
                spec = config.cells[cell_idx]
                where = (f"cell {cell_idx} ({spec.family.value} n={spec.n} "
                         f"p={spec.p}) rep {rep}")
                if isinstance(row, str):
                    with open(err_path, "a", encoding="utf-8") as fh:
                        fh.write(f"cell {cell_idx} rep {rep} model {name}\n"
                                 f"{row}\n")
                    row = _result_row(spec, name, rep, FAILED_SEED,
                                      float("nan"), float("nan"), 0.0)
                writer.write(row)
                rows[row.key()] = row
                if row.failed:
                    log(f"{where}: {name} failed; see {err_path}")
                else:
                    log(f"{where}: {name} done in {row.wall_seconds:.1f}s")
    finally:
        writer.close()
        _draw.cache_clear()
    return list(rows.values())


# ---------------------------------------------------------------------------
# table emission

def _format_stat(values) -> str:
    values = [v for v in values if not np.isnan(v)]
    if not values:
        return "nan"
    if len(values) == 1:
        return f"{values[0]:.4f}"
    return f"{np.mean(values):.4f}±{np.std(values, ddof=1):.4f}"


def emit_table(rows, fmt: str = "markdown") -> str:
    """Mean (+-sd over repetitions) of C_td and IBS per cell and model."""
    if not rows:
        raise ValueError("no rows to tabulate")
    if fmt not in ("markdown", "csv"):
        raise ValueError("format must be 'markdown' or 'csv'")
    cells = sorted({(r.family, r.baseline, r.n, r.p) for r in rows})
    models = [REFERENCE_MODEL] + [m for m in MODEL_NAMES
                                  if any(r.model == m for r in rows)]
    lines = []
    if fmt == "csv":
        lines.append("family,baseline,n,p,model,c_td,ibs")
    for family, baseline, n, p in cells:
        if fmt == "markdown":
            lines.append(f"### {family} / {baseline} / n={n} p={p}")
            lines.append("| model | C_td | IBS |")
            lines.append("|---|---|---|")
        for model in models:
            sel = [r for r in rows
                   if (r.family, r.baseline, r.n, r.p, r.model)
                   == (family, baseline, n, p, model)]
            if not sel:
                continue
            ctd = _format_stat([r.c_td for r in sel])
            ibs = _format_stat([r.ibs for r in sel])
            if fmt == "markdown":
                lines.append(f"| {model} | {ctd} | {ibs} |")
            else:
                lines.append(f"{family},{baseline},{n},{p},{model},{ctd},{ibs}")
        if fmt == "markdown":
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------------
# dataset files

def load_csv(path) -> SurvivalDataset:
    """Read a dataset CSV: a header with reserved ``time`` and ``event``
    columns, every other column a numeric covariate. Rows are validated
    individually and rejected with their line number."""
    # utf-8-sig drops the byte-order mark of a spreadsheet's "CSV UTF-8"
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file") from None
        if "time" not in header or "event" not in header:
            raise ValueError("header must contain 'time' and 'event' columns")
        if len(set(header)) != len(header):
            raise ValueError("duplicate column names in header")
        t_col = header.index("time")
        e_col = header.index("event")
        x_cols = [j for j in range(len(header)) if j not in (t_col, e_col)]
        if not x_cols:
            raise ValueError("header has no covariate column")
        times, events, xrows = [], [], []
        for line_no, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise ValueError(f"row {line_no}: expected {len(header)} fields, "
                                 f"got {len(rec)}")
            try:
                values = [float(v) for v in rec]
            except ValueError:
                raise ValueError(f"row {line_no}: non-numeric cell") from None
            if any(np.isnan(v) for v in values):
                raise ValueError(f"row {line_no}: missing value")
            if not all(np.isfinite(values[j]) for j in x_cols):
                raise ValueError(f"row {line_no}: covariates must be finite")
            t = values[t_col]
            e = values[e_col]
            if not np.isfinite(t) or t <= 0:
                raise ValueError(f"row {line_no}: time must be positive, got {t!r}")
            if e not in (0.0, 1.0):
                raise ValueError(f"row {line_no}: event must be 0 or 1, got {e!r}")
            times.append(t)
            events.append(int(e))
            xrows.append([values[j] for j in x_cols])
    if not times:
        raise ValueError("no data rows")
    return SurvivalDataset(np.asarray(xrows, dtype=np.float64),
                           np.asarray(times), np.asarray(events))


def save_csv(data: SurvivalDataset, path) -> None:
    """Write a dataset in the same CSV format load_csv reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "event"] + [f"x{j + 1}" for j in range(data.p)])
        for i in range(data.n):
            writer.writerow([repr(float(data.time[i])), int(data.event[i])]
                            + [repr(float(v)) for v in data.X[i]])


def run_real(path, models=MODEL_NAMES, seed: int = 0,
             train_fraction: float = 2.0 / 3.0, log=print,
             train_config=None) -> list:
    """Fit and score every model on a real dataset file (no reference
    row). A model's seed derives from ``seed`` and its position in
    ``MODEL_NAMES``, whatever other models run with it."""
    _check_model_names(models)
    data = load_csv(path)
    train, test, _ = train_test_split(data, train_fraction, seed)
    rows = []
    for name in models:
        model_seed = _derived_seed(seed, 0, 0, MODEL_NAMES.index(name))
        rep, seconds = _fit_and_score(name, model_seed, train, test,
                                      train_config)
        row = ResultRow(family="real", baseline=Path(path).name, n=data.n,
                        p=data.p, model=name, rep=0, seed=model_seed,
                        c_td=rep.c_td, ibs=rep.ibs, wall_seconds=seconds)
        log(f"{name}: C_td={rep.c_td:.4f} IBS={rep.ibs:.4f} "
            f"({row.wall_seconds:.1f}s)")
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# CLI

def _default_outdir() -> str:
    return os.environ.get(ENV_OUTDIR, "survbench-results")


def _spec_from_args(args) -> SimulationSpec:
    if args.baseline == "weibull":
        baseline = Weibull(a=args.shape, lam=args.rate)
    else:
        baseline = LogNormal(mu=args.mu, sigma=args.sigma)
    k = args.k if args.k is not None else args.p
    return SimulationSpec(family=ModelFamily(args.family), baseline=baseline,
                          n=args.n, p=args.p, k=k, beta_scale=args.beta_scale,
                          censor_target=args.censor, seed=args.seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="survbench",
        description="survival-analysis benchmark toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a dataset and write it as CSV")
    p_sim.add_argument("--family", choices=[f.value for f in ModelFamily],
                       default="cox")
    p_sim.add_argument("--baseline", choices=["weibull", "lognormal"],
                       default="weibull")
    p_sim.add_argument("--shape", type=float, default=2.0,
                       help="Weibull shape")
    p_sim.add_argument("--rate", type=float, default=1.3e-7,
                       help="Weibull rate")
    p_sim.add_argument("--mu", type=float, default=7.73)
    p_sim.add_argument("--sigma", type=float, default=0.7)
    p_sim.add_argument("--n", type=int, default=1000)
    p_sim.add_argument("--p", type=int, default=10)
    p_sim.add_argument("--k", type=int, default=None,
                       help="relevant covariates (default: all)")
    p_sim.add_argument("--beta-scale", type=float,
                       default=SimulationSpec.__dataclass_fields__["beta_scale"].default)
    p_sim.add_argument("--censor", type=float, default=0.3)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)

    p_fit = sub.add_parser("fit", help="fit one model and serialize it")
    p_fit.add_argument("--data", required=True, help="dataset CSV")
    p_fit.add_argument("--model", choices=MODEL_NAMES, required=True)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--ridge", type=float, default=None,
                       help="fixed ridge weight (networks); default cross-validates")
    p_fit.add_argument("--epochs", type=int, default=None)
    p_fit.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="score a serialized model on a dataset")
    p_eval.add_argument("--model", required=True, help="model JSON file")
    p_eval.add_argument("--data", required=True, help="dataset CSV")

    p_bench = sub.add_parser("bench", help="run an experiment grid from a config")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--no-resume", action="store_true")
    p_bench.add_argument("--format", choices=["markdown", "csv"],
                         default="markdown")

    p_repro = sub.add_parser("reproduce",
                             help="run one of the built-in simulation grids")
    p_repro.add_argument("--table", choices=["table1", "table2", "table3"],
                         required=True)
    p_repro.add_argument("--repetitions", type=int, default=5)
    p_repro.add_argument("--models", nargs="+", choices=MODEL_NAMES,
                         default=list(MODEL_NAMES))
    p_repro.add_argument("--out", default=None)
    p_repro.add_argument("--no-resume", action="store_true")
    p_repro.add_argument("--format", choices=["markdown", "csv"],
                         default="markdown")

    p_real = sub.add_parser("real", help="fit every model on a dataset CSV")
    p_real.add_argument("--data", required=True)
    p_real.add_argument("--seed", type=int, default=0)
    p_real.add_argument("--models", nargs="+", choices=MODEL_NAMES,
                        default=list(MODEL_NAMES))

    args = parser.parse_args(argv)

    if args.command == "simulate":
        sim = generate(_spec_from_args(args))
        save_csv(sim.data, args.out)
        print(f"wrote {sim.data.n} subjects ({1 - sim.data.event.mean():.1%} "
              f"censored) to {args.out}")
        return 0

    if args.command == "fit":
        data = load_csv(args.data)
        overrides = {}
        if args.ridge is not None:
            overrides["ridge"] = args.ridge
        if args.epochs is not None:
            overrides["epochs"] = args.epochs
        config = TrainConfig(**overrides) if overrides else None
        model = fit_model(args.model, data, seed=args.seed, config=config)
        save_model(model, args.out)
        print(f"fitted {args.model} on {data.n} subjects -> {args.out}")
        return 0

    if args.command == "eval":
        data = load_csv(args.data)
        model = load_model(args.model)
        rep = metric_report(model.predict_survival(data.X), data.time,
                            data.event)
        print(f"c_td={rep.c_td:.4f} ibs={rep.ibs:.4f}")
        return 0

    if args.command in ("bench", "reproduce"):
        if args.command == "bench":
            config = load_config(args.config)
            out = args.out or config.output_dir or _default_outdir()
        else:
            config = builtin_config(args.table, repetitions=args.repetitions,
                                    models=tuple(args.models))
            out = args.out or os.path.join(_default_outdir(), args.table)
        rows = run_grid(config, out, resume=not args.no_resume)
        table = emit_table(rows, args.format)
        suffix = "md" if args.format == "markdown" else "csv"
        table_path = Path(out) / f"table.{suffix}"
        table_path.write_text(table, encoding="utf-8")
        print(table)
        print(f"rows: {Path(out) / 'results.csv'}  table: {table_path}")
        return 0

    if args.command == "real":
        run_real(args.data, models=tuple(args.models), seed=args.seed)
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
