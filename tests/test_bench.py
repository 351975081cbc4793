import ctypes
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import survbench.bench as bench_mod
from survbench.bench import (
    FAILED_SEED,
    ExperimentConfig,
    builtin_config,
    config_from_json,
    dataset_cell,
    emit_table,
    load_config,
    load_csv,
    main,
    read_results,
    run_grid,
    save_csv,
)
from survbench.core import SurvivalDataset
from survbench.models import MODEL_NAMES
from survbench.nnet import TrainConfig
from survbench.simgen import ModelFamily, SimulationSpec, Weibull, generate

FAST = TrainConfig(ridge=1.0, epochs=20, min_epochs=5, patience=10)


def tiny_config(models=("coxl1",), repetitions=1, n=80, p=3):
    cell = SimulationSpec(family=ModelFamily.COX, baseline=Weibull(2.0, 1.3e-7),
                          n=n, p=p, k=p, censor_target=0.3, seed=0)
    return ExperimentConfig(cells=(cell,), models=models,
                            repetitions=repetitions, base_seed=11)


def tiny_config_json():
    """``tiny_config()`` as a config file holds it."""
    return {"config_version": 1, "base_seed": 11, "repetitions": 1,
            "models": ["coxl1"],
            "cells": [{"family": "cox",
                       "baseline": {"kind": "weibull", "a": 2.0, "lam": 1.3e-7},
                       "n": 80, "p": 3, "k": 3, "beta_scale": 1.0,
                       "censor_target": 0.3}]}


class TestDatasetCsv:
    def test_toy_file_parses(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("time,event,x1\n1.5,1,0.2\n2.5,0,-0.3\n4.0,1,1.1\n")
        data = load_csv(path)
        assert data.n == 3 and data.p == 1
        np.testing.assert_allclose(data.time, [1.5, 2.5, 4.0])
        np.testing.assert_array_equal(data.event, [1, 0, 1])

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with U+FEFF
        path = tmp_path / "bom.csv"
        path.write_bytes("time,event,x1\n1.5,1,0.2\n2.5,0,-0.3\n"
                         .encode("utf-8-sig"))
        data = load_csv(path)
        np.testing.assert_array_equal(data.time, [1.5, 2.5])
        np.testing.assert_array_equal(data.X[:, 0], [0.2, -0.3])

    def test_bad_event_names_the_row(self, tmp_path):
        lines = ["time,event,x1"] + [f"{i}.0,1,0.0" for i in range(1, 6)]
        lines.append("6.0,2,0.0")  # line 7 in the file
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="row 7"):
            load_csv(path)

    def test_missing_header_columns(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("duration,status\n1.0,1\n")
        with pytest.raises(ValueError, match="time"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("time,event,x1\n1.0,1,abc\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf"])
    def test_nonfinite_covariate_names_the_row(self, tmp_path, cell):
        lines = ["time,event,x1,x2"] + [f"{i}.0,{i % 2},0.5,-1.0"
                                        for i in range(1, 61)]
        lines[12] = f"12.0,0,0.5,{cell}"  # line 13 in the file
        path = tmp_path / "inf.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="row 13: covariates must be finite"):
            load_csv(path)

    def test_earlier_bad_value_named_before_a_later_unparsable_row(
            self, tmp_path):
        # rows are checked as one matrix after parsing: the first bad row
        # is still the one named
        path = tmp_path / "two.csv"
        path.write_text("time,event,x1\n1.0,1,0.5\n2.0,3,0.5\n3.0,0,abc\n")
        with pytest.raises(ValueError,
                           match=r"row 3: event must be 0 or 1, got 3\.0"):
            load_csv(path)

    def test_header_without_covariates_rejected_at_load(self, tmp_path):
        path = tmp_path / "x0.csv"
        path.write_text("time,event\n1.0,1\n2.0,0\n")
        with pytest.raises(ValueError, match="no covariate column"):
            load_csv(path)

    def test_nonpositive_time(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,event,x1\n0.0,1,0.5\n")
        with pytest.raises(ValueError, match="positive"):
            load_csv(path)

    def test_round_trip_identity(self, tmp_path):
        sim = generate(SimulationSpec(family=ModelFamily.COX,
                                      baseline=Weibull(2.0, 1.3e-7),
                                      n=40, p=3, k=2, seed=5))
        path = tmp_path / "rt.csv"
        save_csv(sim.data, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.X, sim.data.X)
        np.testing.assert_array_equal(back.time, sim.data.time)
        np.testing.assert_array_equal(back.event, sim.data.event)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config_json()))
        assert load_config(path) == tiny_config()
        # each built-in grid, written out as a config file
        for name, family, baseline in [
                ("table1", "cox", {"kind": "weibull", "a": 2.0, "lam": 1.3e-7}),
                ("table2", "ah", {"kind": "lognormal", "mu": 7.73,
                                  "sigma": 0.7}),
                ("table3", "aft", {"kind": "lognormal", "mu": 7.73,
                                   "sigma": 0.176})]:
            cells = [{"family": family, "baseline": baseline, "n": n, "p": p,
                      "k": p, "beta_scale": 1.0, "censor_target": 0.3}
                     for n in (200, 1000) for p in (10, 100, 1000)]
            path.write_text(json.dumps({"config_version": 1, "repetitions": 2,
                                        "models": ["coxl1"], "cells": cells}))
            assert load_config(path) == builtin_config(
                name, repetitions=2, models=("coxl1",))

    def test_version_enforced(self):
        d = tiny_config_json()
        d["config_version"] = 0
        with pytest.raises(ValueError, match="version"):
            config_from_json(d)

    def test_builtin_grids_cover_paper_cells(self):
        config = builtin_config("table1")
        dims = {(c.n, c.p) for c in config.cells}
        assert dims == {(n, p) for n in (200, 1000) for p in (10, 100, 1000)}
        assert all(c.k == c.p for c in config.cells)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown built-in"):
            builtin_config("table9")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ExperimentConfig(cells=())

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_train_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match="train_fraction"):
            ExperimentConfig(cells=tiny_config().cells, train_fraction=fraction)
        d = tiny_config_json()
        d["train_fraction"] = fraction
        with pytest.raises(ValueError, match="train_fraction"):
            config_from_json(d)

    def test_duplicate_model_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate model"):
            ExperimentConfig(cells=tiny_config().cells,
                             models=("coxl1", "nnsurv", "coxl1"))
        d = tiny_config_json()
        d["models"] = ["coxnnet", "coxnnet"]
        with pytest.raises(ValueError, match="duplicate model"):
            config_from_json(d)

    def test_json_nan_rejected_on_load(self, tmp_path):
        # Python's json reads the non-standard NaN and Infinity literals
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config_json()).replace(
            '"a": 2.0', '"a": NaN'), encoding="utf-8")
        with pytest.raises(ValueError, match="baseline a must be a finite"):
            load_config(path)

    @pytest.mark.parametrize("key", ["family", "baseline", "n", "p", "k",
                                     "beta_scale", "censor_target"])
    def test_missing_cell_key_named(self, key):
        d = tiny_config_json()
        del d["cells"][0][key]
        with pytest.raises(ValueError, match=f"cell 0: missing key '{key}'"):
            config_from_json(d)

    def test_integral_float_counts_accepted(self):
        d = tiny_config_json()
        d["cells"][0]["n"] = 80.0
        d["repetitions"] = 1.0
        assert config_from_json(d) == tiny_config()

    @pytest.mark.parametrize("where, key, value, message", [
        (None, "repetition", 3, "config: unknown key 'repetition'"),
        (0, "censor", 0.3, "cell 0: unknown key 'censor'"),
        ("baseline", "shape", 2.0, "cell 0 baseline: unknown key 'shape'"),
        (0, "n", 1.5, "cell 0 n must be an integer"),
        (0, "p", 3.5, "cell 0 p must be an integer"),
        (0, "k", True, "cell 0 k must be an integer"),
        (None, "repetitions", 2.5, "config repetitions must be an integer"),
        (None, "base_seed", 0.5, "config base_seed must be an integer"),
        (None, "base_seed", "11", "config base_seed must be an integer"),
        (None, "config_version", True, "config_version must be an integer"),
        (0, "beta_scale", True, "cell 0 beta_scale must be a number"),
        (0, "censor_target", "0.3", "cell 0 censor_target must be a number"),
        ("baseline", "a", "2", "cell 0 baseline a must be a number"),
        (None, "train_fraction", "0.5", "config train_fraction must be a number"),
        (None, "models", "coxl1", "config models must be a list"),
        (None, "cells", 5, "config cells must be a list"),
        (None, "output_dir", 5, "config output_dir must be a string"),
        (0, "family", "weibull", "cell 0: unknown family 'weibull'"),
        ("baseline", "kind", ["weibull"], "cell 0: unknown baseline kind"),
        ("baseline", "a", float("nan"),
         "cell 0 baseline a must be a finite number, got nan"),
        ("baseline", "lam", float("inf"),
         "cell 0 baseline lam must be a finite number, got inf"),
        (0, "beta_scale", float("-inf"),
         "cell 0 beta_scale must be a finite number, got -inf"),
        (0, "censor_target", float("nan"),
         "cell 0 censor_target must be a finite number"),
        (0, "n", float("inf"), "cell 0 n must be an integer"),
        (None, "train_fraction", float("nan"),
         "config train_fraction must be a finite number")])
    def test_bad_key_or_value_named(self, where, key, value, message):
        d = tiny_config_json()
        target = {None: d, 0: d["cells"][0],
                  "baseline": d["cells"][0]["baseline"]}[where]
        target[key] = value
        with pytest.raises(ValueError, match=message):
            config_from_json(d)


class TestRunGrid:
    def test_row_accounting_one_cell(self, tmp_path):
        config = tiny_config(models=("coxl1", "coxnnet"), repetitions=1)
        rows = run_grid(config, tmp_path, log=lambda *_: None,
                        train_config=FAST)
        assert len(rows) == 3  # reference + two models
        models = sorted(r.model for r in rows)
        assert models == ["coxl1", "coxnnet", "reference"]

    def test_rerun_is_bit_identical(self, tmp_path):
        config = tiny_config(models=("coxl1",), repetitions=2)
        a = run_grid(config, tmp_path / "a", log=lambda *_: None,
                     train_config=FAST)
        b = run_grid(config, tmp_path / "b", log=lambda *_: None,
                     train_config=FAST)
        for ra, rb in zip(a, b):
            # everything but wall time must match exactly
            assert ra.key() == rb.key()
            assert ra.seed == rb.seed
            assert ra.c_td == rb.c_td
            assert ra.ibs == rb.ibs

    def test_resume_skips_completed_work(self, tmp_path):
        config = tiny_config(models=("coxl1",), repetitions=2)
        out = tmp_path / "run"
        full = run_grid(config, out, log=lambda *_: None, train_config=FAST)
        resumed = run_grid(config, out, log=lambda *_: None, train_config=FAST)
        assert resumed == full
        # persisted file holds exactly one copy of each row
        persisted = read_results(out / "results.csv")
        assert persisted == full

    def test_empty_results_file_gets_a_header(self, tmp_path):
        # a run killed before its header reached disk leaves an empty file
        (tmp_path / "results.csv").write_text("")
        rows = run_grid(tiny_config(), tmp_path, log=lambda *_: None,
                        train_config=FAST)
        assert read_results(tmp_path / "results.csv") == rows
        assert len(rows) == 2

    def test_interrupted_run_completes_to_same_rows(self, tmp_path):
        config = tiny_config(models=("coxl1",), repetitions=3)
        clean = run_grid(config, tmp_path / "clean", log=lambda *_: None,
                         train_config=FAST)

        # simulate an interruption after the first repetition
        partial_dir = tmp_path / "partial"
        one_rep = ExperimentConfig(cells=config.cells, models=config.models,
                                   repetitions=1, base_seed=config.base_seed)
        run_grid(one_rep, partial_dir, log=lambda *_: None, train_config=FAST)
        resumed = run_grid(config, partial_dir, log=lambda *_: None,
                           train_config=FAST)
        assert [r.key() for r in resumed] == [r.key() for r in clean]
        for ra, rb in zip(sorted(resumed, key=lambda r: r.key()),
                          sorted(clean, key=lambda r: r.key())):
            assert ra.c_td == rb.c_td and ra.ibs == rb.ibs and ra.seed == rb.seed

    def test_metrics_are_in_range(self, tmp_path):
        config = tiny_config(models=("nnsurv",), repetitions=1)
        rows = run_grid(config, tmp_path, log=lambda *_: None,
                        train_config=FAST)
        for row in rows:
            assert 0.0 <= row.c_td <= 1.0
            assert row.ibs >= 0.0

    def test_cell_failure_yields_error_rows_and_continues(self, tmp_path,
                                                          monkeypatch):
        calls = {"count": 0}
        real_fit = bench_mod.fit_model

        def flaky_fit(name, train, seed=0, config=None):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("injected failure")
            return real_fit(name, train, seed=seed, config=config)

        monkeypatch.setattr(bench_mod, "fit_model", flaky_fit)
        config = tiny_config(models=("coxl1",), repetitions=2)
        rows = run_grid(config, tmp_path, log=lambda *_: None,
                        train_config=FAST)
        failed = [r for r in rows if np.isnan(r.c_td)]
        fine = [r for r in rows if not np.isnan(r.c_td)]
        assert failed and fine  # rep 0 errored, rep 1 completed
        assert (tmp_path / "errors.log").exists()


    def test_resume_computes_only_missing_rows(self, tmp_path, monkeypatch):
        config = tiny_config(models=("coxl1", "nnsurv"), repetitions=1)
        out = tmp_path / "run"
        full = run_grid(config, out, log=lambda *_: None, train_config=FAST)
        results = out / "results.csv"
        lines = results.read_text().splitlines(keepends=True)
        results.write_text("".join(l for l in lines if ",nnsurv," not in l))

        calls = []
        real_fit, real_ref = bench_mod.fit_model, bench_mod.reference_metrics

        def counting_fit(name, *args, **kwargs):
            calls.append(name)
            return real_fit(name, *args, **kwargs)

        def counting_ref(*args):
            calls.append("reference")
            return real_ref(*args)

        monkeypatch.setattr(bench_mod, "fit_model", counting_fit)
        monkeypatch.setattr(bench_mod, "reference_metrics", counting_ref)
        resumed = run_grid(config, out, log=lambda *_: None, train_config=FAST)
        assert calls == ["nnsurv"]
        assert [r.key() for r in resumed] == [r.key() for r in full]
        for ra, rb in zip(resumed, full):
            # the refitted nnsurv row keeps its seed from its model position
            assert (ra.seed, ra.c_td, ra.ibs) == (rb.seed, rb.c_td, rb.ibs)

    def test_failed_row_retried_on_resume(self, tmp_path, monkeypatch):
        config = tiny_config(models=("coxl1",), repetitions=2)
        clean = run_grid(config, tmp_path / "clean", log=lambda *_: None,
                         train_config=FAST)

        real_fit = bench_mod.fit_model
        # the rep-0 coxl1 row fails, whichever process computes it
        bad_seed = next(r.seed for r in clean
                        if (r.model, r.rep) == ("coxl1", 0))

        def fail_rep0(name, train, seed=0, config=None):
            if seed == bad_seed:
                raise RuntimeError("injected failure")
            return real_fit(name, train, seed=seed, config=config)

        out = tmp_path / "run"
        monkeypatch.setattr(bench_mod, "fit_model", fail_rep0)
        first = run_grid(config, out, log=lambda *_: None, train_config=FAST)
        assert sum(np.isnan(r.c_td) for r in first) == 1
        monkeypatch.setattr(bench_mod, "fit_model", real_fit)
        resumed = run_grid(config, out, log=lambda *_: None, train_config=FAST)

        assert not any(np.isnan(r.c_td) for r in resumed)
        assert [r.key() for r in resumed] == [r.key() for r in clean]
        for ra, rb in zip(resumed, clean):
            assert (ra.seed, ra.c_td, ra.ibs) == (rb.seed, rb.c_td, rb.ibs)
        # the file holds the failed row and its retry; the retry wins
        assert len((out / "results.csv").read_text().splitlines()) == 1 + 4 + 1
        assert read_results(out / "results.csv") == resumed

    def test_half_written_last_row_is_recomputed(self, tmp_path):
        config = tiny_config(models=("coxl1", "nnsurv"), repetitions=1)
        clean = run_grid(config, tmp_path / "clean", log=lambda *_: None,
                         train_config=FAST)
        out = tmp_path / "run"
        run_grid(config, out, log=lambda *_: None, train_config=FAST)
        # a run killed while writing its last row: that row is cut short
        results = out / "results.csv"
        lines = results.read_text().splitlines(keepends=True)
        results.write_text("".join(lines[:-1]) + "cox,w,10,2,nnsurv,0,12")

        resumed = run_grid(config, out, log=lambda *_: None, train_config=FAST)
        assert [r.key() for r in resumed] == [r.key() for r in clean]
        for ra, rb in zip(resumed, clean):
            assert (ra.seed, ra.c_td, ra.ibs) == (rb.seed, rb.c_td, rb.ibs)
        assert read_results(results) == resumed
        assert len(results.read_text().splitlines()) == 1 + 3

    def test_model_seed_follows_its_name_not_its_place(self):
        # a model's row is the same whether the grid runs it alone or
        # next to the others
        full = tiny_config(models=MODEL_NAMES)
        for name in MODEL_NAMES:
            alone = bench_mod._evaluate_row(tiny_config(models=(name,)), FAST,
                                            0, 0, name)
            together = bench_mod._evaluate_row(full, FAST, 0, 0, name)
            assert alone == replace(together,
                                    wall_seconds=alone.wall_seconds)

    def test_resume_under_a_longer_model_list_equals_clean_run(self,
                                                               tmp_path):
        config = tiny_config(models=("coxl1", "coxnnet"), repetitions=1)
        clean = run_grid(config, tmp_path / "clean", log=lambda *_: None,
                         train_config=FAST)
        out = tmp_path / "run"
        run_grid(tiny_config(models=("coxnnet",), repetitions=1), out,
                 log=lambda *_: None, train_config=FAST)
        resumed = run_grid(config, out, log=lambda *_: None,
                           train_config=FAST)
        assert {r.key(): (r.seed, r.c_td, r.ibs) for r in resumed} == \
            {r.key(): (r.seed, r.c_td, r.ibs) for r in clean}

    def test_row_of_another_seed_recomputed_on_resume(self, tmp_path):
        # as a file written before seeds followed model names holds it
        config = tiny_config(models=("coxl1", "coxnnet"), repetitions=1)
        out = tmp_path / "run"
        clean = run_grid(config, out, log=lambda *_: None, train_config=FAST)
        path = out / "results.csv"
        lines = path.read_text().splitlines(keepends=True)
        stale = lines[3].split(",")  # header, reference, coxl1, coxnnet
        assert stale[4] == "coxnnet"
        stale[6:9] = ["1201711368", "0.5", "0.25"]
        path.write_text("".join(lines[:3]) + ",".join(stale))
        resumed = run_grid(config, out, log=lambda *_: None,
                           train_config=FAST)
        assert len(path.read_text().splitlines()) == 5  # the stale row's retry
        assert {r.key(): (r.seed, r.c_td, r.ibs) for r in resumed} == \
            {r.key(): (r.seed, r.c_td, r.ibs) for r in clean}

    def test_fresh_run_starts_a_fresh_error_log(self, tmp_path):
        (tmp_path / "errors.log").write_text("cell 0 rep 0\nold failure\n")
        run_grid(tiny_config(), tmp_path, resume=False, log=lambda *_: None,
                 train_config=FAST)
        assert not (tmp_path / "errors.log").exists()


def grid_2x2():
    cells = tuple(
        SimulationSpec(family=ModelFamily.COX, baseline=Weibull(2.0, 1.3e-7),
                       n=n, p=p, k=p, censor_target=0.3, seed=0)
        for n, p in ((80, 3), (100, 4)))
    return ExperimentConfig(cells=cells, models=MODEL_NAMES, repetitions=2,
                            base_seed=7)


def use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus),
                        raising=False)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# run_grid on two forked workers; its parent is killed once one worker
# is idle and the other is in the middle of a row
_ORPHAN_SCRIPT = """
import os, sys, time
from pathlib import Path
import survbench.bench as bench
from survbench.simgen import ModelFamily, SimulationSpec, Weibull

out = Path(sys.argv[1])
real_init, real_row = bench._ignore_interrupt, bench._evaluate_row

def init():
    real_init()
    (out / f"worker-{os.getpid()}").touch()

def row(config, train_config, cell_idx, rep, name):
    if name == "coxl1":
        (out / "slow-row").touch()
        time.sleep(4)
    return real_row(config, train_config, cell_idx, rep, name)

bench._ignore_interrupt, bench._evaluate_row = init, row
os.sched_getaffinity = lambda pid: {0, 1}
cell = SimulationSpec(family=ModelFamily.COX, baseline=Weibull(2.0, 1.3e-7),
                      n=80, p=3, k=3, censor_target=0.3, seed=0)
bench.run_grid(bench.ExperimentConfig(cells=(cell,), models=("coxl1",),
                                      repetitions=1),
               out / "run", log=lambda *_: None)
"""


def _blas_threads(_key=None) -> int:
    """The thread count of numpy's bundled OpenBLAS in this process."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    path, = libs.glob("libscipy_openblas64_*.so")
    return ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_()


class TestParallelRows:
    def test_workers_run_one_blas_thread(self, monkeypatch):
        if bench_mod._openblas_set_threads() is None:
            pytest.skip("numpy does not run on its bundled OpenBLAS")
        use_cpus(monkeypatch, {0, 1})
        before = _blas_threads()
        with bench_mod._mapped(_blas_threads, [0, 1, 2, 3]) as results:
            assert list(results) == [1, 1, 1, 1]
        assert _blas_threads() == before  # the parent keeps its setting
        # on another BLAS the workers run as before
        monkeypatch.setattr(bench_mod, "_openblas_set_threads", lambda: None)
        with bench_mod._mapped(_blas_threads, [0, 1]) as results:
            assert list(results) == [before, before]

    def test_in_process_rows_run_one_blas_thread(self):
        # one pending row runs in this process: on one BLAS thread, as a
        # worker would, and the caller's count comes back afterwards
        set_threads = bench_mod._openblas_set_threads()
        if set_threads is None:
            pytest.skip("numpy does not run on its bundled OpenBLAS")
        before = set_threads(2)
        try:
            if _blas_threads() != 2:
                pytest.skip("OpenBLAS cannot run two threads here")
            with bench_mod._mapped(_blas_threads, [0]) as results:
                assert list(results) == [1]
            assert _blas_threads() == 2
        finally:
            set_threads(before)

    def test_parallel_rows_equal_in_process_rows(self, tmp_path, monkeypatch):
        config = grid_2x2()
        real_fit = bench_mod.fit_model
        runs = {}
        for cpus in ({0}, {0, 1}):
            use_cpus(monkeypatch, cpus)
            fits_here = []

            def counting_fit(name, *args, **kwargs):
                fits_here.append(name)  # seen only by this process
                return real_fit(name, *args, **kwargs)

            monkeypatch.setattr(bench_mod, "fit_model", counting_fit)
            out = tmp_path / f"cpus{len(cpus)}"
            rows = run_grid(config, out, log=lambda *_: None,
                            train_config=FAST)
            assert multiprocessing.active_children() == []
            assert read_results(out / "results.csv") == rows
            # every field but wall_seconds, the last
            lines = [line.rsplit(",", 1)[0] for line in
                     (out / "results.csv").read_text().splitlines()]
            runs[len(cpus)] = rows, lines, len(fits_here)

        (serial, serial_lines, serial_fits), (parallel, parallel_lines,
                                              parallel_fits) = runs[1], runs[2]
        assert serial_fits == 2 * 2 * len(MODEL_NAMES)  # all in this process
        assert parallel_fits == 0  # all in the workers
        assert len(serial) == 2 * 2 * (1 + len(MODEL_NAMES))
        assert [r.key() for r in parallel] == [r.key() for r in serial]
        assert ([(r.seed, r.c_td, r.ibs) for r in parallel]
                == [(r.seed, r.c_td, r.ibs) for r in serial])
        assert not any(r.failed for r in serial)
        assert parallel_lines == serial_lines

    def test_in_process_rows_share_one_draw(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, {0})
        real_generate = bench_mod.generate
        draws = []

        def counting_generate(spec):
            draws.append(spec.seed)
            return real_generate(spec)

        monkeypatch.setattr(bench_mod, "generate", counting_generate)
        config = tiny_config(models=("coxl1", "coxnnet"), repetitions=2)
        rows = run_grid(config, tmp_path, log=lambda *_: None,
                        train_config=FAST)
        # one simulation per (cell, repetition), none kept after the run
        assert draws == [r.seed for r in rows if r.model == "reference"]
        assert len(set(draws)) == 2
        assert bench_mod._draw.cache_info().currsize == 0

    def test_row_raising_in_worker_fails_alone(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, {0, 1})
        real_fit = bench_mod.fit_model

        def fit_or_fail(name, *args, **kwargs):
            if name == "coxnnet":
                raise RuntimeError("injected failure")
            return real_fit(name, *args, **kwargs)

        monkeypatch.setattr(bench_mod, "fit_model", fit_or_fail)
        config = tiny_config(models=MODEL_NAMES, repetitions=1)
        rows = run_grid(config, tmp_path, log=lambda *_: None,
                        train_config=FAST)
        assert multiprocessing.active_children() == []
        assert [r.model for r in rows] == ["reference"] + list(MODEL_NAMES)
        failed = [r for r in rows if r.failed]
        assert [r.model for r in failed] == ["coxnnet"]
        assert np.isnan(failed[0].c_td) and np.isnan(failed[0].ibs)
        assert failed[0].seed == FAILED_SEED
        assert all(0.0 <= r.c_td <= 1.0 for r in rows if not r.failed)
        log = (tmp_path / "errors.log").read_text()
        assert log.startswith("cell 0 rep 0 model coxnnet\n")
        assert "RuntimeError: injected failure" in log
        assert log.count("Traceback") == 1
        # as records: a NaN metric is not == itself
        assert ([r.as_record() for r in read_results(tmp_path / "results.csv")]
                == [r.as_record() for r in rows])

    def test_interrupt_leaves_no_worker_and_resumes(self, tmp_path,
                                                    monkeypatch):
        use_cpus(monkeypatch, {0, 1})
        config = tiny_config(models=("coxl1", "nnsurv"), repetitions=2)
        clean = run_grid(config, tmp_path / "clean", log=lambda *_: None,
                         train_config=FAST)

        def interrupt(*_):
            raise KeyboardInterrupt

        out = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_grid(config, out, log=interrupt, train_config=FAST)
        assert multiprocessing.active_children() == []
        assert len(read_results(out / "results.csv")) == 1
        resumed = run_grid(config, out, log=lambda *_: None,
                           train_config=FAST)
        assert multiprocessing.active_children() == []
        assert ([(r.key(), r.seed, r.c_td, r.ibs) for r in resumed]
                == [(r.key(), r.seed, r.c_td, r.ibs) for r in clean])

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads process states from /proc")
    def test_workers_exit_when_their_parent_dies(self, tmp_path):
        src = str(Path(bench_mod.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]]
                     if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.Popen([sys.executable, "-c", _ORPHAN_SCRIPT,
                                 str(tmp_path)], env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        results = tmp_path / "run" / "results.csv"
        try:
            deadline = time.monotonic() + 60.0
            # one worker in the slow row, the reference row written
            while not ((tmp_path / "slow-row").exists() and results.exists()
                       and len(results.read_text().splitlines()) == 2):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait()
        workers = [int(f.name.split("-")[1])
                   for f in tmp_path.glob("worker-*")]
        assert len(workers) == 2
        deadline = time.monotonic() + 30.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, workers))


class TestEmitTable:
    def make_rows(self, tmp_path, repetitions=2):
        config = tiny_config(models=("coxl1",), repetitions=repetitions)
        return run_grid(config, tmp_path, log=lambda *_: None,
                        train_config=FAST)

    def test_markdown_contains_means_and_sd(self, tmp_path):
        rows = self.make_rows(tmp_path)
        table = emit_table(rows, "markdown")
        assert "| model | C_td | IBS |" in table
        assert "±" in table  # two repetitions produce a spread

    def test_single_rep_omits_sd(self, tmp_path):
        rows = self.make_rows(tmp_path, repetitions=1)
        table = emit_table(rows, "markdown")
        assert "±" not in table

    def test_bit_stable_given_rows(self, tmp_path):
        rows = self.make_rows(tmp_path)
        assert emit_table(rows, "csv") == emit_table(rows, "csv")

    def test_csv_round_trips_schema(self, tmp_path):
        rows = self.make_rows(tmp_path)
        table = emit_table(rows, "csv")
        header, *body = table.strip().splitlines()
        assert header == "family,baseline,n,p,model,c_td,ibs"
        assert all(len(line.split(",")) == 7 for line in body)

    def test_empty_rows_error(self):
        with pytest.raises(ValueError, match="no rows"):
            emit_table([], "markdown")

    def test_golden_file_mini_grid(self, tmp_path):
        # frozen output of the first verified run of this exact grid
        from pathlib import Path

        cell = SimulationSpec(family=ModelFamily.COX,
                              baseline=Weibull(2.0, 1.3e-7),
                              n=80, p=3, k=3, censor_target=0.3, seed=0)
        config = ExperimentConfig(cells=(cell,), models=("coxl1",),
                                  repetitions=2, base_seed=21)
        rows = run_grid(config, tmp_path, log=lambda *_: None,
                        train_config=FAST)
        golden = (Path(__file__).parent / "data" / "golden_table.md").read_text()
        assert emit_table(rows, "markdown") == golden


def real_csv(tmp_path, name="real.csv", n=120, p=4, censor=0.5, seed=3):
    """A simulated dataset written as a dataset file."""
    sim = generate(SimulationSpec(family=ModelFamily.COX,
                                  baseline=Weibull(2.0, 1.3e-7), n=n, p=p,
                                  k=p, censor_target=censor, seed=seed))
    path = tmp_path / name
    save_csv(sim.data, path)
    return path


def real_config(path, models=("coxl1",), repetitions=2, base_seed=7):
    return ExperimentConfig(cells=(dataset_cell(path),), models=models,
                            repetitions=repetitions, base_seed=base_seed)


def quiet(*_):
    pass


def metrics_of(rows):
    return [(r.key(), r.seed, r.c_td, r.ibs) for r in rows]


class TestDatasetCell:
    def test_metabric_shaped_run_completes(self, tmp_path):
        # stand-in with the real dataset's shape characteristics scaled
        # down: heavy censoring, wide covariates
        path = real_csv(tmp_path, n=300, p=60, censor=0.55, seed=2)
        rows = run_grid(real_config(path, ("coxl1", "nnsurv"), 1, base_seed=1),
                        tmp_path / "out", log=quiet, train_config=FAST)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
        assert [r.model for r in rows] == ["coxl1", "nnsurv"]
        for row in rows:
            assert 0.0 <= row.c_td <= 1.0 and row.ibs >= 0.0
            assert (row.family, row.baseline, row.n, row.p) == \
                ("real", f"real.csv#{digest}", 300, 60)

    def test_no_reference_row(self, tmp_path, monkeypatch):
        def no_reference(*_):
            raise AssertionError("a dataset cell has no exact model")

        monkeypatch.setattr(bench_mod, "reference_metrics", no_reference)
        use_cpus(monkeypatch, {0})
        rows = run_grid(real_config(real_csv(tmp_path)), tmp_path / "out",
                        log=quiet, train_config=FAST)
        assert [(r.model, r.rep) for r in rows] == [("coxl1", 0), ("coxl1", 1)]
        assert not any(r.failed for r in rows)
        assert ",reference," not in (tmp_path / "out" / "results.csv").read_text()
        assert "reference" not in emit_table(rows)

    def test_deterministic(self, tmp_path):
        config = real_config(real_csv(tmp_path))
        a = run_grid(config, tmp_path / "a", log=quiet, train_config=FAST)
        b = run_grid(real_config(tmp_path / "real.csv"), tmp_path / "b",
                     log=quiet, train_config=FAST)
        assert metrics_of(a) == metrics_of(b)
        # each repetition splits the file anew
        assert a[0].c_td != a[1].c_td

    def test_unknown_model_rejected_before_fitting(self, tmp_path):
        path = tmp_path / "real.csv"
        path.write_text("time,event,x1\n1.0,1,0.5\n")
        with pytest.raises(ValueError, match="unknown model 'forest'"):
            real_config(path, models=("coxl1", "forest"))

    def test_duplicate_model_name_is_one_error_line(self, tmp_path, capsys,
                                                    monkeypatch):
        # coxl1 used to be fitted twice and returned as two rows
        fits = []
        monkeypatch.setattr(bench_mod, "fit_model",
                            lambda name, *args, **kwargs: fits.append(name))
        with pytest.raises(SystemExit) as exit_:
            main(["real", "--data", str(real_csv(tmp_path)), "--models",
                  "coxl1", "coxl1", "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("survbench real: error: duplicate model names")
        assert fits == [] and not (tmp_path / "out").exists()

    def test_model_seed_follows_its_name_not_its_place(self, tmp_path):
        path = real_csv(tmp_path)
        alone, = run_grid(real_config(path, ("nnsurv",), 1), tmp_path / "a",
                          log=quiet, train_config=FAST)
        _, together = run_grid(real_config(path, ("coxl1", "nnsurv"), 1),
                               tmp_path / "b", log=quiet, train_config=FAST)
        assert (alone.seed, alone.c_td, alone.ibs) == \
            (together.seed, together.c_td, together.ibs)
        # the seed rule of a simulated cell: slot 2 + the model's index
        assert alone.seed == bench_mod._derived_seed(7, 0, 0, 4)

    def test_parallel_rows_equal_in_process_rows(self, tmp_path, monkeypatch):
        path = real_csv(tmp_path)
        lines = {}
        for cpus in ({0}, {0, 1}):
            use_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{len(cpus)}"
            rows = run_grid(real_config(path, ("coxl1", "nnsurv")), out,
                            log=quiet, train_config=FAST)
            assert multiprocessing.active_children() == []
            assert read_results(out / "results.csv") == rows
            # every field but wall_seconds, the last
            lines[len(cpus)] = [line.rsplit(",", 1)[0] for line in
                                (out / "results.csv").read_text().splitlines()]
        assert len(lines[1]) == 1 + 2 * 2
        assert lines[1] == lines[2]

    def test_workers_inherit_the_rows(self, tmp_path, monkeypatch):
        # only row keys travel to the forked workers, never a dataset
        def no_pickle(self, protocol):
            raise AssertionError("a dataset cell was pickled")

        monkeypatch.setattr(bench_mod.DatasetCell, "__reduce_ex__", no_pickle)
        use_cpus(monkeypatch, {0, 1})
        rows = run_grid(real_config(real_csv(tmp_path)), tmp_path / "out",
                        log=quiet, train_config=FAST)
        assert len(rows) == 2 and not any(r.failed for r in rows)

    def test_resume_against_an_edited_file_recomputes(self, tmp_path,
                                                      monkeypatch):
        path = real_csv(tmp_path)
        out = tmp_path / "out"
        first = run_grid(real_config(path), out, log=quiet, train_config=FAST)
        header, row, *rest = path.read_text().splitlines(keepends=True)
        fields = row.split(",")
        fields[2] = repr(float(fields[2]) + 1.0)  # one covariate cell
        path.write_text("".join([header, ",".join(fields)] + rest))

        fits = []
        real_fit = bench_mod.fit_model

        def counting_fit(name, *args, **kwargs):
            fits.append(name)
            return real_fit(name, *args, **kwargs)

        monkeypatch.setattr(bench_mod, "fit_model", counting_fit)
        use_cpus(monkeypatch, {0})
        edited = real_config(path)
        rows = run_grid(edited, out, log=quiet, train_config=FAST)
        assert fits == ["coxl1", "coxl1"]
        label = f"real.csv#{edited.cells[0].digest}"
        assert label != first[0].baseline
        # only the edited file's rows come back
        assert [(r.baseline, r.model, r.rep) for r in rows] == [
            (label, "coxl1", 0), (label, "coxl1", 1)]
        # the first file's rows stay in the file under their own key
        kept = read_results(out / "results.csv")
        assert [r for r in kept if r.baseline != label] == first
        assert [r for r in kept if r.baseline == label] == rows

    def test_half_written_last_row_is_recomputed(self, tmp_path):
        config = real_config(real_csv(tmp_path), ("coxl1", "coxnnet"))
        clean = run_grid(config, tmp_path / "clean", log=quiet,
                         train_config=FAST)
        out = tmp_path / "run"
        run_grid(config, out, log=quiet, train_config=FAST)
        results = out / "results.csv"
        lines = results.read_text().splitlines(keepends=True)
        results.write_text("".join(lines[:-1]) + lines[-1][:25])
        resumed = run_grid(config, out, log=quiet, train_config=FAST)
        assert metrics_of(resumed) == metrics_of(clean)
        assert read_results(results) == resumed
        assert len(results.read_text().splitlines()) == 1 + 4

    def test_file_without_events_gives_failed_rows(self, tmp_path):
        path = real_csv(tmp_path)
        data = load_csv(path)
        save_csv(SurvivalDataset(data.X, data.time, np.zeros(data.n, int)),
                 path)
        out = tmp_path / "out"
        rows = run_grid(real_config(path, ("coxl1", "nnsurv"), 1), out,
                        log=quiet, train_config=FAST)
        assert [(r.model, r.failed) for r in rows] == [("coxl1", True),
                                                       ("nnsurv", True)]
        log = (out / "errors.log").read_text()
        assert log.count("ValueError: the training data hold no event") == 2

    def test_comma_in_file_name_leaves_none_in_the_label(self, tmp_path):
        path = real_csv(tmp_path, name="tcga,brca.csv")
        rows = run_grid(real_config(path), tmp_path / "out", log=quiet,
                        train_config=FAST)
        assert rows[0].baseline.startswith("tcga_brca.csv#")
        header, *body = emit_table(rows, "csv").splitlines()
        assert [len(line.split(",")) for line in body] == [7]
        assert read_results(tmp_path / "out" / "results.csv") == rows


class TestOutputDirEnv:
    def test_env_variable_sets_default(self, monkeypatch):
        from survbench.bench import _default_outdir

        monkeypatch.setenv("SURVBENCH_OUTDIR", "/tmp/sb-out")
        assert _default_outdir() == "/tmp/sb-out"
        monkeypatch.delenv("SURVBENCH_OUTDIR")
        assert _default_outdir() == "survbench-results"


def _coxl1_file_without_beta(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "format_version": 1, "kind": "coxl1", "lam": 0.1, "mean": [0.0],
        "scale": [1.0], "baseline": {"grid": [0.0, 1.0], "alpha_hat": [1.0, 1.0],
                                     "bandwidth": 0.5, "cumulative": [0.0, 1.0]}}))
    return path


def _config_with_unknown_key(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(tiny_config_json(), repetition=2)))
    return path


def _toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("time,event,x1\n1.5,1,0.2\n2.5,0,-0.3\n")
    return path


def _censored_csv(tmp_path):
    path = tmp_path / "censored.csv"
    path.write_text("time,event,x1\n1.5,0,0.2\n2.5,0,-0.3\n")
    return path


class TestCli:
    def test_simulate_then_fit_then_eval(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        model_path = tmp_path / "m.json"
        assert main(["simulate", "--n", "100", "--p", "3", "--seed", "4",
                     "--out", str(data_path)]) == 0
        assert main(["fit", "--data", str(data_path), "--model", "coxl1",
                     "--seed", "1", "--out", str(model_path)]) == 0
        assert main(["eval", "--model", str(model_path), "--data",
                     str(data_path)]) == 0
        out = capsys.readouterr().out
        assert "c_td=" in out and "ibs=" in out

    def test_fit_and_eval_run_one_blas_thread(self, tmp_path, monkeypatch):
        # a CLI-fitted model has the bits of the same fit in a grid row
        counts = [4]  # the caller's thread count, then each one set

        def set_threads(count):
            counts.append(count)
            return counts[-2]

        monkeypatch.setattr(bench_mod, "_openblas_set_threads",
                            lambda: set_threads)
        seen = []
        for name in ("fit_model", "metric_report"):
            def recording(*args, _real=getattr(bench_mod, name), _name=name,
                          **kwargs):
                seen.append((_name, counts[-1]))
                return _real(*args, **kwargs)
            monkeypatch.setattr(bench_mod, name, recording)
        data, model = tmp_path / "d.csv", tmp_path / "m.json"
        save_csv(generate(SimulationSpec(family=ModelFamily.COX,
                                         baseline=Weibull(2.0, 1.3e-7), n=80,
                                         p=3, k=3, seed=4)).data, data)
        assert main(["fit", "--data", str(data), "--model", "coxl1",
                     "--out", str(model)]) == 0
        assert main(["eval", "--model", str(model), "--data", str(data)]) == 0
        assert seen == [("fit_model", 1), ("metric_report", 1)]
        assert counts == [4, 1, 4, 1, 4]

    def test_real_command_runs_a_grid(self, tmp_path, capsys):
        path = real_csv(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["real", "--data", str(path), "--models", "coxl1",
                     "--repetitions", "2", "--seed", "7", "--format", "csv",
                     "--out", str(out_dir)]) == 0
        rows = read_results(out_dir / "results.csv")
        assert [(r.model, r.rep) for r in rows] == [("coxl1", 0), ("coxl1", 1)]
        assert (out_dir / "table.csv").read_text() == emit_table(rows, "csv")
        # the grid's rows, as run_grid computes them
        again = run_grid(real_config(path), tmp_path / "again", log=quiet)
        assert metrics_of(again) == metrics_of(rows)

    def test_bench_command_runs_config(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config_json()))
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", str(config_path), "--out",
                     str(out_dir)]) == 0
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "table.md").exists()

    @pytest.mark.parametrize("command, args, message", [
        ("simulate", lambda d: ["--shape", "nan", "--out", str(d / "s.csv")],
         "Weibull parameters must be finite"),
        ("simulate", lambda d: ["--n", "1", "--out", str(d / "s.csv")],
         "two subjects"),
        ("simulate", lambda d: ["--censor", "1.5", "--out", str(d / "s.csv")],
         "censor_target"),
        ("fit", lambda d: ["--data", str(d / "missing.csv"), "--model",
                           "coxl1", "--out", str(d / "m.json")], "missing.csv"),
        ("eval", lambda d: ["--model", str(_coxl1_file_without_beta(d)),
                            "--data", str(_toy_csv(d))], "'beta_hat'"),
        ("bench", lambda d: ["--config", str(_config_with_unknown_key(d)),
                             "--out", str(d / "out")], "'repetition'"),
        ("reproduce", lambda d: ["--table", "table1", "--repetitions", "0",
                                 "--out", str(d / "out")], "repetitions"),
        ("real", lambda d: ["--data", str(d / "missing.csv")], "missing.csv"),
        ("fit", lambda d: ["--data", str(_toy_csv(d)), "--model", "coxnnet",
                           "--ridge", "nan", "--out", str(d / "m.json")],
         "ridge weight must be finite"),
        ("fit", lambda d: ["--data", str(_toy_csv(d)), "--model", "coxnnet",
                           "--ridge", "inf", "--out", str(d / "m.json")],
         "ridge weight must be finite"),
        ("fit", lambda d: ["--data", str(_censored_csv(d)), "--model",
                           "coxl1", "--out", str(d / "m.json")],
         "the training data hold no event"),
    ], ids=["simulate-shape-nan", "simulate-n-1", "simulate-censor-1.5",
            "fit-missing-data", "eval-no-beta_hat", "bench-unknown-key",
            "reproduce-0-repetitions", "real-missing-data", "fit-ridge-nan",
            "fit-ridge-inf", "fit-no-event"])
    def test_bad_input_is_one_error_line(self, command, args, message,
                                         tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([command] + args(tmp_path))
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"survbench {command}: error: ")
        assert message in err

    def test_simulate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--n", "50", "--p", "2", "--seed", "9", "--out", str(a)])
        main(["simulate", "--n", "50", "--p", "2", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()
