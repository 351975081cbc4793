"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with -s to watch them stream)."""

import time

import numpy as np
import pytest
from scipy import stats

from survbench.baseline import (
    default_grid,
    ramlau_hansen,
    select_bandwidth_gl,
    survival_from_scores,
)
from survbench.bench import ExperimentConfig, _mapped, run_grid
from survbench.core import SurvivalCurve, SurvivalDataset, train_test_split
from survbench.metrics import (
    brier_trace,
    c_index_td,
    integrate_trace,
    metric_report,
    reference_metrics,
)
from survbench.models import fit_model
from survbench.nnet import TrainConfig, coxnnet_loss_and_grad, nnsurv_loss_and_grad
from survbench.nnet.mlp import init_mlp, unpack
from survbench.simgen import (
    LogNormal,
    ModelFamily,
    SimulationSpec,
    Weibull,
    draw_survival_time,
    generate,
    survival_probability,
    true_survival,
)

WEIB = Weibull(a=2.0, lam=1.3e-7)


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:>2} ({label}): {status}{extra}", flush=True)
    assert ok, f"criterion {number} failed: {label}{extra}"


def finite_diff(loss_fn, template, eps=1e-6):
    vec = template.vec
    fd = np.zeros_like(vec)
    for j in range(vec.size):
        up, dn = vec.copy(), vec.copy()
        up[j] += eps
        dn[j] -= eps
        fd[j] = (loss_fn(unpack(template, up)) - loss_fn(unpack(template, dn))) / (2 * eps)
    return fd


def rel_gap(analytic, fd):
    mask = np.abs(fd) > 1e-10
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(analytic - fd)[mask] / np.abs(fd)[mask]))


def test_criterion_01_gradient_fidelity():
    t0 = time.time()
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(4, 11))
        p = int(rng.integers(1, 4))
        hidden = int(rng.integers(1, 4))
        data = SurvivalDataset(rng.standard_normal((n, p)),
                               rng.uniform(1, 10, n), rng.integers(0, 2, n))
        if trial % 2 == 0:
            params = init_mlp((p, hidden, 1), ("tanh", "identity"),
                              seed=trial, output_bias=False)
            _, grad = coxnnet_loss_and_grad(params, data)
            fd = finite_diff(lambda q: coxnnet_loss_and_grad(q, data)[0],
                             params)
        else:
            feats = rng.standard_normal((n, p))
            targets = rng.integers(0, 2, n).astype(float)
            params = init_mlp((p, hidden, 1), ("relu", "identity"), seed=trial)
            _, grad = nnsurv_loss_and_grad(params, feats, targets)
            fd = finite_diff(
                lambda q: nnsurv_loss_and_grad(q, feats, targets)[0], params)
        worst = max(worst, rel_gap(grad, fd))
    ok = worst < 1e-5 and time.time() - t0 < 60
    report(1, "gradient fidelity", ok, f"worst rel err {worst:.2e}")


def test_criterion_02_simulator_moments():
    t0 = time.time()
    rng = np.random.default_rng(123)
    u = np.clip(rng.random(100_000), 1e-12, 1 - 1e-12)
    x = np.zeros((1, 1))
    draws = draw_survival_time(ModelFamily.COX, WEIB, x, np.zeros(1), u)
    mean_ok = abs(draws.mean() - 2458.0) / 2458.0 < 0.02
    sd_ok = abs(draws.std(ddof=1) - 1285.0) / 1285.0 < 0.02

    ln = LogNormal(mu=7.73, sigma=0.1760)
    u2 = np.clip(rng.random(100_000), 1e-12, 1 - 1e-12)
    draws_ln = draw_survival_time(ModelFamily.AFT, ln, x, np.zeros(1), u2)
    ln_ok = abs(draws_ln.mean() - 2325.0) / 2325.0 < 0.02
    ok = mean_ok and sd_ok and ln_ok and time.time() - t0 < 30
    report(2, "simulator moment check", ok,
           f"weibull mean {draws.mean():.0f} sd {draws.std(ddof=1):.0f}, "
           f"lognormal mean {draws_ln.mean():.0f}")


def test_criterion_03_distributional_fidelity():
    t0 = time.time()
    cases = [
        (ModelFamily.COX, WEIB, 0.7),
        (ModelFamily.AH, LogNormal(7.73, 0.7), 0.6),
        (ModelFamily.AFT, LogNormal(7.73, 0.176), -0.4),
    ]
    worst = 0.0
    for case_idx, (family, baseline, c) in enumerate(cases):
        rng = np.random.default_rng(1000 + case_idx)
        u = np.clip(rng.random(100_000), 1e-12, 1 - 1e-12)
        t = draw_survival_time(family, baseline, np.ones((1, 1)),
                               np.array([c]), u)
        res = stats.kstest(
            t, lambda s: 1.0 - survival_probability(family, baseline, c, s))
        worst = max(worst, float(res.statistic))
    ok = worst < 0.01 and time.time() - t0 < 120
    report(3, "distributional fidelity", ok, f"worst KS {worst:.4f}")


def table1_c_td(key):
    """C_td of one criterion-4 row, ``key`` = (p, seed, model), on the
    Cox-Weibull draw of that p and seed; the model "reference" is the
    exact data-generating model."""
    p, seed, name = key
    spec = SimulationSpec(family=ModelFamily.COX, baseline=WEIB,
                          n=1000, p=p, k=p, censor_target=0.3, seed=seed)
    sim = generate(spec)
    train, test, split = train_test_split(sim.data, 2 / 3, seed=seed)
    if name == "reference":
        return reference_metrics(sim, split.test).c_td
    model = fit_model(name, train, seed=seed)
    return metric_report(model.predict_survival(test.X), test.time,
                         test.event).c_td


@pytest.fixture(scope="module")
def table1_runs():
    """Cox-Weibull fits for criterion 4: p -> mean C_td of the reference,
    coxl1 and coxnnet over five seeds. The rows are independent, so they
    run on bench's worker pool; p = 1000 first, its fits take longest."""
    names = ("reference", "coxl1", "coxnnet")
    keys = [(p, seed, name) for p in (1000, 10) for seed in range(5)
            for name in names]
    with _mapped(table1_c_td, keys) as results:
        c_td = dict(zip(keys, results))
    return {p: tuple(np.mean([c_td[p, seed, name] for seed in range(5)])
                     for name in names)
            for p in (10, 1000)}


def test_criterion_04_table1_trends(table1_runs):
    ref10, coxl1_10, coxnnet_10 = table1_runs[10]
    _, coxl1_1000, coxnnet_1000 = table1_runs[1000]
    near_ref = (abs(coxl1_10 - ref10) < 0.04) and (abs(coxnnet_10 - ref10) < 0.04)
    split_ok = coxl1_1000 <= 0.55 and coxnnet_1000 >= 0.55
    ok = near_ref and split_ok
    report(4, "Table-1 trend reproduction", ok,
           f"p=10 ref {ref10:.4f} coxl1 {coxl1_10:.4f} coxnnet {coxnnet_10:.4f}; "
           f"p=1000 coxl1 {coxl1_1000:.4f} coxnnet {coxnnet_1000:.4f}")


def table2_draw(seed):
    spec = SimulationSpec(family=ModelFamily.AH,
                          baseline=LogNormal(mu=7.73, sigma=0.7),
                          n=1000, p=10, k=10, censor_target=0.3, seed=seed)
    return generate(spec)


def table2_ibs(key):
    """IBS of one criterion-5 fit, ``key`` = (seed, model)."""
    seed, name = key
    sim = table2_draw(seed)
    train, test, _ = train_test_split(sim.data, 2 / 3, seed=seed)
    model = fit_model(name, train, seed=seed)
    return metric_report(model.predict_survival(test.X), test.time,
                         test.event).ibs


def test_criterion_05_table2_qualitative():
    keys = [(seed, name) for seed in range(5)
            for name in ("nnsurv_deep", "coxnnet")]
    with _mapped(table2_ibs, keys) as results:
        ibs = dict(zip(keys, results))
    crossings = 0
    for seed in range(5):
        sim = table2_draw(seed)
        # true curves of opposite-sign linear predictors must cross;
        # rows scaled so eta = +-1 keep the crossing well inside the grid
        x_unit = sim.true_beta / float(sim.true_beta @ sim.true_beta)
        grid = np.geomspace(1.0, 1e5, 800)
        hi = true_survival(sim, x_unit, grid).probs
        lo = true_survival(sim, -x_unit, grid).probs
        if (hi - lo).min() < -1e-4 and (hi - lo).max() > 1e-4:
            crossings += 1
    deep = np.mean([ibs[seed, "nnsurv_deep"] for seed in range(5)])
    cox = np.mean([ibs[seed, "coxnnet"] for seed in range(5)])
    ok = deep <= cox and crossings == 5
    report(5, "Table-2 qualitative reproduction", ok,
           f"IBS nnsurv_deep {deep:.4f} vs coxnnet {cox:.4f}; "
           f"crossings {crossings}/5")


def c_td_oracle(curves, times, events):
    n = len(times)
    num = den = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            comp = (times[i] < times[j] and events[i] == 1) or (
                times[i] == times[j] and events[i] == 1 and events[j] == 0)
            if not comp:
                continue
            den += 1
            si, sj = curves[i].at(times[i]), curves[j].at(times[i])
            num += 1.0 if si < sj else (0.5 if si == sj else 0.0)
    if den == 0:
        raise ValueError("no comparable pairs")
    return num / den


def test_criterion_06_metric_oracles():
    t0 = time.time()
    rng = np.random.default_rng(0)
    exact = True
    for _ in range(40):
        n = int(rng.integers(2, 9))
        times = rng.integers(1, 5, n).astype(float)
        events = rng.integers(0, 2, n)
        grid = np.linspace(0.5, 6.0, 7)
        curves = SurvivalCurve(grid, np.array(
            [np.sort(rng.random(7))[::-1] for _ in range(n)]))
        try:
            got = c_index_td(curves, times, events)
        except ValueError:
            continue
        exact &= got == c_td_oracle(curves, times, events)

    # constant predictions with the tie rule
    times = rng.uniform(1, 9, 30)
    events = rng.integers(0, 2, 30)
    events[0] = 1
    const = SurvivalCurve(np.array([0.0, 10.0]), np.full((30, 2), 0.4))
    const_ok = c_index_td(const, times, events) == 0.5

    # zero-censoring Brier equals the mean squared error
    times = rng.uniform(1, 9, 25)
    events = np.ones(25, dtype=int)
    levels = rng.random(25)
    curves = SurvivalCurve(np.array([0.0, 10.0]),
                           np.repeat(levels[:, None], 2, axis=1))
    brier_ok = True
    for t in (2.0, 4.5, 7.0):
        mse = float(np.mean(((times >= t).astype(float) - levels) ** 2))
        bs = brier_trace(curves, times, events, grid=[t])[0, 1]
        brier_ok &= abs(bs - mse) < 1e-12

    # constant trace integrates to itself
    const_half = SurvivalCurve(np.array([0.0, 10.0]), np.full((25, 2), 0.5))
    ibs = integrate_trace(brier_trace(const_half, times, events), times.max())
    ibs_ok = abs(ibs - 0.25) < 1e-12

    ok = exact and const_ok and brier_ok and ibs_ok and time.time() - t0 < 60
    report(6, "metric oracles", ok)


def test_criterion_07_ph_consistency():
    def scalar_concordance(scores, times, events):
        num = den = 0.0
        n = len(times)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                comp = (times[i] < times[j] and events[i] == 1) or (
                    times[i] == times[j] and events[i] == 1 and events[j] == 0)
                if not comp:
                    continue
                den += 1
                num += 1.0 if scores[i] > scores[j] else (
                    0.5 if scores[i] == scores[j] else 0.0)
        return num / den

    rng = np.random.default_rng(5)
    n = 80
    times = rng.uniform(1, 10, n)
    events = rng.integers(0, 2, n)
    events[:3] = 1
    scores = rng.lognormal(size=n)
    grid = np.linspace(0.0, 11.0, 60)
    cumhaz = np.linspace(0.0, 2.0, 60)  # strictly increasing past t=0
    curves = SurvivalCurve(grid, np.exp(-scores[:, None] * cumhaz))
    got = c_index_td(curves, times, events)
    want = scalar_concordance(scores, times, events)
    ok = abs(got - want) < 1e-12
    report(7, "proportional-hazards consistency", ok,
           f"|c_td - harrell| = {abs(got - want):.2e}")


def test_criterion_08_curve_validity():
    t0 = time.time()
    spec = SimulationSpec(family=ModelFamily.COX, baseline=WEIB, n=400, p=5,
                          k=5, censor_target=0.3, seed=2)
    sim = generate(spec)
    cfg = TrainConfig(ridge=2.0, epochs=60, min_epochs=20, patience=20)
    rng = np.random.default_rng(9)
    X_new = rng.standard_normal((1000, 5))
    ok = True
    detail = []
    for name in ("coxl1", "coxnnet", "nnsurv", "nnsurv_deep"):
        model = fit_model(name, sim.data, seed=2, config=cfg, lasso_cv_folds=3)
        curves = model.predict_survival(X_new)
        P = np.array([c.probs for c in curves])
        valid = (P.min() >= 0.0 and P.max() <= 1.0
                 and np.all(np.diff(P, axis=1) <= 1e-12)
                 and np.all(P[:, 0] <= 1.0))
        ok &= valid
        if name in ("coxl1", "coxnnet"):
            interior = P[:, (P.max(axis=0) < 1.0) & (P.min(axis=0) > 0.0)]
            if interior.shape[1] >= 2:
                order = np.argsort(interior[:, 0], kind="stable")
                no_cross = all(
                    np.all(np.diff(interior[order, col]) >= -1e-12)
                    for col in range(interior.shape[1]))
                ok &= no_cross
        detail.append(name)
    ok &= time.time() - t0 < 120
    report(8, "curve validity suite", ok, f"models {','.join(detail)}")


def test_criterion_09_baseline_consistency():
    t0 = time.time()
    # midpoint accuracy at n=2000 with true scores
    spec = SimulationSpec(family=ModelFamily.COX, baseline=WEIB, n=2000, p=5,
                          k=3, censor_target=0.3, seed=0)
    sim = generate(spec)
    scores = np.exp(sim.data.X @ sim.true_beta)
    grid = np.linspace(0.0, float(np.quantile(sim.data.time, 0.75)), 200)
    est = ramlau_hansen(sim.data, scores, 900.0, grid)
    mid = grid.size // 2
    truth = 2.0 * WEIB.lam * grid[mid]
    mid_ok = abs(est.alpha_hat[mid] - truth) / truth < 0.15

    # GL bandwidth shrinks with n on a shared candidate set
    bw = np.array([75.0, 150.0, 300.0, 600.0, 1200.0, 2400.0])
    wins = 0
    for fam in range(5):
        selected = {}
        for n in (200, 2000):
            s = SimulationSpec(family=ModelFamily.COX, baseline=WEIB, n=n,
                               p=5, k=3, censor_target=0.3,
                               seed=97 * fam + (n == 2000))
            simn = generate(s)
            sc = np.exp(simn.data.X @ simn.true_beta)
            g = np.linspace(0.0, float(np.quantile(simn.data.time, 0.75)), 150)
            selected[n] = select_bandwidth_gl(simn.data, sc, g,
                                              bandwidth_grid=bw).bandwidth
        wins += selected[2000] < selected[200]
    ok = mid_ok and wins >= 4 and time.time() - t0 < 300
    report(9, "baseline-estimator consistency", ok,
           f"midpoint ratio {est.alpha_hat[mid] / truth:.3f}, "
           f"bandwidth shrank {wins}/5")


def test_criterion_10_determinism_and_resume(tmp_path):
    t0 = time.time()
    fast = TrainConfig(ridge=1.0, epochs=25, min_epochs=5, patience=10)
    cells = tuple(
        SimulationSpec(family=ModelFamily.COX, baseline=WEIB, n=n, p=3, k=3,
                       censor_target=0.3, seed=0)
        for n in (80, 120)
    )
    config = ExperimentConfig(cells=cells, models=("coxl1", "nnsurv"),
                              repetitions=2, base_seed=5)

    a = run_grid(config, tmp_path / "a", log=lambda *_: None, train_config=fast)
    b = run_grid(config, tmp_path / "b", log=lambda *_: None, train_config=fast)
    repro = all(
        ra.key() == rb.key() and abs(ra.c_td - rb.c_td) < 1e-9
        and abs(ra.ibs - rb.ibs) < 1e-9
        for ra, rb in zip(a, b))

    # interrupted run: first repetition only, then resume to completion
    partial = ExperimentConfig(cells=cells, models=config.models,
                               repetitions=1, base_seed=5)
    run_grid(partial, tmp_path / "c", log=lambda *_: None, train_config=fast)
    resumed = run_grid(config, tmp_path / "c", log=lambda *_: None,
                       train_config=fast)
    by_key = lambda rows: {r.key(): (r.c_td, r.ibs, r.seed) for r in rows}
    resume_ok = by_key(resumed) == by_key(a)
    ok = repro and resume_ok and time.time() - t0 < 600
    report(10, "determinism and resume", ok)
