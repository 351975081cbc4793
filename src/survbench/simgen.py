"""Right-censored survival data simulation via inverse-transform sampling.

Supports Cox, accelerated-hazards (AH) and accelerated-failure-time (AFT)
models with Weibull or log-normal baseline hazards. Event times come from
the general inversion

    T = (1 / psi1(x)) * H0^{-1}( -log(1 - U) / psi2(x) ),

where (psi1, psi2) encode the model family and H0 is the baseline
cumulative hazard. Censoring times are drawn from an independent
exponential whose rate is calibrated to a target censoring fraction.

Cox-Weibull data needs numpy alone: the censoring rate's root find uses
``_brentq``, a bit-exact port of scipy's Brent solver. Only a log-normal
baseline loads ``scipy.special``, on its first hazard evaluation. The
baselines are given by their parameters; the paper's are constants in
``bench.builtin_config``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import SurvivalCurve, SurvivalDataset


@dataclass(frozen=True)
class Weibull:
    """Weibull baseline: hazard a * lam * t^(a-1), cumulative lam * t^a."""

    a: float
    lam: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.lam)):
            raise ValueError("Weibull parameters must be finite")
        if self.a <= 0 or self.lam <= 0:
            raise ValueError("Weibull parameters must be positive")

    def cumulative_hazard(self, t):
        t = np.asarray(t, dtype=np.float64)
        return self.lam * t ** self.a

    def inverse_cumulative_hazard(self, u):
        u = np.asarray(u, dtype=np.float64)
        if np.any(u < 0):
            raise ValueError("cumulative hazard argument must be nonnegative")
        return (u / self.lam) ** (1.0 / self.a)


@dataclass(frozen=True)
class LogNormal:
    """Log-normal baseline on the log scale: log T ~ N(mu, sigma^2) when
    no covariates act.

    Its hazard needs ``scipy.special``, which is imported on the first
    evaluation rather than with this module.
    """

    mu: float
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.sigma)):
            raise ValueError("LogNormal parameters must be finite")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def cumulative_hazard(self, t):
        from scipy.special import log_ndtr

        t = np.asarray(t, dtype=np.float64)
        z = (np.log(t, out=np.full_like(t, -np.inf), where=t > 0) - self.mu) / self.sigma
        # H0(t) = -log(1 - Phi(z)); log_ndtr keeps the tail accurate
        return -log_ndtr(-z)

    def inverse_cumulative_hazard(self, u):
        from scipy.special import ndtri_exp

        u = np.asarray(u, dtype=np.float64)
        if np.any(u < 0):
            raise ValueError("cumulative hazard argument must be nonnegative")
        # Phi^{-1}(1 - e^{-u}) = -Phi^{-1}(e^{-u}), evaluated in log space
        # so huge u never underflows; u = 0 maps to t = 0.
        with np.errstate(over="ignore"):
            z = -ndtri_exp(-u)
        return np.exp(self.sigma * z + self.mu)


BaselineDist = Union[Weibull, LogNormal]


class ModelFamily(enum.Enum):
    """Survival model family, defining the pair (psi1, psi2).

    Cox rescales the hazard by exp(beta'x), AFT rescales time, and AH
    rescales the hazard's time axis (so survival curves may cross).
    """

    COX = "cox"
    AH = "ah"
    AFT = "aft"

    def psi1(self, eta):
        if self is ModelFamily.COX:
            return np.ones_like(np.asarray(eta, dtype=np.float64))
        return np.exp(eta)

    def psi2(self, eta):
        if self is ModelFamily.COX:
            return np.exp(eta)
        if self is ModelFamily.AH:
            return np.exp(-np.asarray(eta, dtype=np.float64))
        return np.ones_like(np.asarray(eta, dtype=np.float64))


# Frozen by a one-time calibration run so the Cox-Weibull reference C_td
# with the default censoring lands near 0.744; see SimulationSpec.
DEFAULT_BETA_SCALE = 1.0


@dataclass(frozen=True)
class SimulationSpec:
    """Fully determines a reproducible simulated dataset given a seed.

    ``k`` of the ``p`` covariates are relevant: the coefficient vector has
    its first k entries at +-beta_scale/sqrt(k) with alternating signs and
    zeros elsewhere, so var(beta'x) = beta_scale^2 regardless of k.
    """

    family: ModelFamily
    baseline: BaselineDist
    n: int
    p: int
    k: int
    beta_scale: float = DEFAULT_BETA_SCALE
    censor_target: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two subjects")
        if not 0 < self.k <= self.p:
            raise ValueError("k must satisfy 0 < k <= p")
        if not 0.0 <= self.censor_target < 1.0:
            raise ValueError("censor_target must lie in [0, 1)")
        if not np.isfinite(self.beta_scale):
            raise ValueError("beta_scale must be finite")

    def make_beta(self) -> np.ndarray:
        beta = np.zeros(self.p)
        signs = np.where(np.arange(self.k) % 2 == 0, 1.0, -1.0)
        beta[: self.k] = signs * self.beta_scale / np.sqrt(self.k)
        return beta


@dataclass(frozen=True)
class SimulatedDataset:
    """Generated data plus the ground truth that produced it."""

    data: SurvivalDataset
    true_beta: np.ndarray
    true_event_times: np.ndarray
    family: ModelFamily
    baseline: BaselineDist


def draw_survival_time(family: ModelFamily, baseline: BaselineDist, x, beta, u):
    """Event time for covariates ``x`` from a uniform draw ``u`` in (0, 1).

    ``x`` may be a single row or a matrix of rows; ``u`` broadcasts
    against the resulting linear predictor.
    """
    eta = np.asarray(x, dtype=np.float64) @ np.asarray(beta, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if np.any((u <= 0) | (u >= 1)):
        raise ValueError("uniform draws must lie strictly inside (0, 1)")
    arg = -np.log1p(-u) / family.psi2(eta)
    return baseline.inverse_cumulative_hazard(arg) / family.psi1(eta)


def true_survival(simulated: SimulatedDataset, x, grid) -> SurvivalCurve:
    """Exact model survival curves S(t|x) on the given time grid: one curve
    for a covariate row ``x``, a batch with one row per subject for a
    matrix of rows."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing and positive")
    # vecdot gives each row the bits of the one-row product x @ beta
    eta = np.vecdot(np.asarray(x, dtype=np.float64), simulated.true_beta)
    s = survival_probability(simulated.family, simulated.baseline,
                             eta[..., None], grid)
    return SurvivalCurve(grid=grid, probs=s)


def survival_probability(family: ModelFamily, baseline: BaselineDist, eta, t):
    """S(t | eta) = exp(-H0(psi1 * t) * psi2) for linear predictor eta."""
    t = np.asarray(t, dtype=np.float64)
    h = baseline.cumulative_hazard(family.psi1(eta) * t) * family.psi2(eta)
    return np.exp(-h)


def _brentq(f, a: float, b: float, xtol: float = 2e-12,
            rtol: float = 4 * np.finfo(float).eps, maxiter: int = 100) -> float:
    """Root of ``f`` in [a, b] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy's ``Zeros/brentq.c`` behind
    ``scipy.optimize.brentq``: the same update order and sign tests, so it
    returns the same root bit for bit. Raises ``ValueError`` when f(a) and
    f(b) share a sign or f returns NaN, ``RuntimeError`` when ``maxiter``
    iterations do not converge.
    """
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur}")


def _open_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    u = rng.random(size)
    # endpoint draws are measure-zero but would map to degenerate times
    while True:
        bad = (u <= 0.0) | (u >= 1.0)
        if not bad.any():
            return u
        u[bad] = rng.random(int(bad.sum()))


def _calibrate_censor_rate(event_times: np.ndarray, target: float) -> float:
    """Rate r of an independent Exponential(r) censoring time such that
    the expected censored fraction, mean_i(1 - exp(-r * Y_i)), hits the
    target."""

    def frac(r):
        return float(np.mean(-np.expm1(-r * event_times))) - target

    lo = 1e-12 / float(np.mean(event_times))
    hi = 1.0 / float(np.min(event_times))
    for _ in range(120):
        if frac(hi) > 0:
            break
        hi *= 4.0
    else:
        raise RuntimeError(
            f"censoring calibration failed to bracket target {target:.3f} "
            f"(reached rate {hi:.3g})"
        )
    if frac(lo) > 0:
        raise RuntimeError(
            f"censoring calibration failed to bracket target {target:.3f} from below"
        )
    return _brentq(frac, lo, hi, xtol=1e-300, rtol=1e-14)


def generate(spec: SimulationSpec) -> SimulatedDataset:
    """Draw a reproducible dataset from the specification.

    Covariates are i.i.d. standard normal; event times follow the model
    family; censoring times are exponential with rate calibrated so the
    expected censored fraction matches ``spec.censor_target``.
    """
    rng = np.random.default_rng(spec.seed)
    X = rng.standard_normal((spec.n, spec.p))
    beta = spec.make_beta()
    u = _open_uniform(rng, spec.n)
    event_times = draw_survival_time(spec.family, spec.baseline, X, beta, u)

    if spec.censor_target == 0.0:
        time = event_times
        event = np.ones(spec.n, dtype=np.int64)
    else:
        rate = _calibrate_censor_rate(event_times, spec.censor_target)
        censor_times = rng.exponential(scale=1.0 / rate, size=spec.n)
        time = np.minimum(event_times, censor_times)
        event = (event_times <= censor_times).astype(np.int64)

    data = SurvivalDataset(X=X, time=time, event=event)
    return SimulatedDataset(
        data=data,
        true_beta=beta,
        true_event_times=event_times,
        family=spec.family,
        baseline=spec.baseline,
    )
