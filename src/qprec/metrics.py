"""SINR / SEP estimation and convergence diagnostics.

Finite-model quantities are plug-in Monte-Carlo estimates; the asymptotic
ones are closed-form in the scalar model.  The Ky Fan distance

    d_KF(X, Y) = inf{ delta > 0 : P(|X - Y| > delta) < delta }

metrizes convergence in probability and is estimated as the exact fixed
point of the empirical-tail version (order-statistic scan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ScalarModel, SystemConfig, asymptotic_model, sample_scalar_outputs
from .quantizer import QuantizerSpec, gaussian_moments


class UnstableEstimateError(RuntimeError):
    """Plug-in denominator was nonpositive; raw moments attached."""

    def __init__(self, message: str, moments: dict | None = None) -> None:
        super().__init__(message)
        self.moments = moments or {}


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    trials: int

    def __post_init__(self) -> None:
        if self.std_error < 0 or self.trials < 1:
            raise ValueError("std_error >= 0 and trials >= 1 required")


@dataclass(frozen=True)
class DecisionRule:
    """Nearest-point decision after scaling the observation by beta."""

    constellation: tuple[complex, ...]
    beta: complex

    def __post_init__(self) -> None:
        if len(self.constellation) == 0:
            raise ValueError("constellation must be nonempty")
        if self.beta == 0:
            raise ValueError("beta must be nonzero")

    @property
    def points(self) -> np.ndarray:
        return np.asarray(self.constellation, dtype=complex)


def default_rule(model: ScalarModel, config: SystemConfig) -> DecisionRule:
    """Deterministic receiver scaling built from the asymptotic signal gain."""
    ts = model.signal_gain
    beta = np.conj(ts) / (model.power_scale * abs(ts) ** 2)
    return DecisionRule(constellation=tuple(config.constellation), beta=complex(beta))


def decide(rule: DecisionRule, r: np.ndarray | complex) -> np.ndarray | complex:
    """Nearest constellation point; exact ties go to the lowest index."""
    arr = np.atleast_1d(np.asarray(r, dtype=complex))
    d2 = np.abs(arr[..., None] - rule.points) ** 2
    idx = np.argmin(d2, axis=-1)  # argmin returns the first minimizer
    out = rule.points[idx]
    return out if np.ndim(r) else complex(out[0])


def _fsum_mean(x: np.ndarray) -> float:
    # math.fsum is exactly rounded, hence permutation invariant.
    return math.fsum(x) / x.size


def _sinr_ratio(rho: complex, m2: float, sigma2_sym: float) -> float:
    """Plug-in SINR from the correlation coefficient and second moment."""
    signal = abs(rho) ** 2 * sigma2_sym
    denom = m2 - signal
    # below the plug-in's own rounding noise the ratio is meaningless
    if denom <= 1e-12 * m2:
        raise UnstableEstimateError(
            "interference-plus-noise estimate is nonpositive",
            moments={"rho": rho, "m2": m2, "signal_power": signal})
    return signal / denom


def _batch_means(plugin, n: int) -> Estimate:
    """plugin(slice) over all n samples, with a standard error from 16 batch means."""
    value = plugin(slice(None))
    b = max(2, min(16, n // 8))
    edges = np.linspace(0, n, b + 1, dtype=int)
    vals = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        try:
            vals.append(plugin(slice(lo, hi)))
        except UnstableEstimateError:
            continue
    se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) >= 2 else float("nan")
    return Estimate(value=float(value), std_error=se, trials=n)


def sinr_from_samples(y: np.ndarray, s: np.ndarray, sigma2_sym: float) -> Estimate:
    """Plug-in SINR estimate from per-user samples (y_k, s_k).

    The correlation coefficient and second moment are estimated jointly;
    the standard error comes from batch means.
    """
    y = np.asarray(y, dtype=complex)
    s = np.asarray(s, dtype=complex)
    if y.size != s.size or y.size < 2:
        raise ValueError("need at least two paired samples")

    def plugin(sl: slice) -> float:
        cross = np.conj(s[sl]) * y[sl]
        rho = complex(_fsum_mean(cross.real), _fsum_mean(cross.imag)) / sigma2_sym
        return _sinr_ratio(rho, _fsum_mean(np.abs(y[sl]) ** 2), sigma2_sym)

    return _batch_means(plugin, y.size)


def sinr_hat_coupled(samples, model: ScalarModel, config: SystemConfig) -> Estimate:
    """Finite-model SINR from coupled samples, variance-reduced.

    The coupled limiting output shares every draw with the finite one and has
    exactly known moments, so it serves as a control variate: the estimator
    replaces the raw sample moments by (exact limit moment) + (mean paired
    difference), which is unbiased for the same plug-in moments but leaves
    only the small finite-vs-limit difference to carry Monte-Carlo noise.
    """
    y_hat, y_bar, s = samples.y_hat, samples.y_bar, samples.s
    n = y_hat.size
    if n < 2:
        raise ValueError("need at least two coupled samples")
    sig2 = config.sigma2_sym
    eta, ts, tg = model.power_scale, model.signal_gain, model.interference_gain
    rho_limit = eta * ts
    m2_limit = sig2 * eta**2 * abs(ts) ** 2 + eta**2 * tg**2 + config.sigma2_noise

    def plugin(sl: slice) -> float:
        cross = np.conj(s[sl]) * (y_hat[sl] - y_bar[sl])
        rho = rho_limit + complex(_fsum_mean(cross.real),
                                  _fsum_mean(cross.imag)) / sig2
        m2 = m2_limit + _fsum_mean(np.abs(y_hat[sl]) ** 2 - np.abs(y_bar[sl]) ** 2)
        return _sinr_ratio(rho, m2, sig2)

    return _batch_means(plugin, n)


def sinr_bar(config: SystemConfig, shaping, quant: QuantizerSpec,
             model: ScalarModel | None = None) -> float:
    """Asymptotic SINR; evaluates both algebraic forms and checks agreement."""
    if model is None:
        model = asymptotic_model(config, shaping, quant)
    eta, sig2 = model.power_scale, config.sigma2_sym
    ts, tg = model.signal_gain, model.interference_gain
    direct = sig2 * eta**2 * abs(ts) ** 2 / (eta**2 * tg**2 + config.sigma2_noise)

    gm = gaussian_moments(quant, model.input_scale)
    phi = (gm.eq2 - abs(gm.ezq) ** 2 + config.sigma2_noise / eta**2) / abs(gm.ezq) ** 2
    mom = model.moments
    spectral_form = mom.mean_df**2 / (mom.var_df + phi * mom.mean_f2 / config.gamma)
    if abs(direct - spectral_form) > 1e-8 * max(1.0, abs(direct)):
        raise AssertionError(
            f"the two asymptotic SINR forms disagree: {direct} vs {spectral_form}")
    return float(direct)


def sep_from_samples(y: np.ndarray, s: np.ndarray, rule: DecisionRule) -> Estimate:
    """Empirical symbol error frequency with binomial standard error."""
    y = np.asarray(y, dtype=complex)
    s = np.asarray(s, dtype=complex)
    if y.size != s.size or y.size == 0:
        raise ValueError("need paired samples")
    errs = decide(rule, rule.beta * y) != s
    p = float(np.mean(errs))
    se = float(np.sqrt(p * (1.0 - p) / y.size))
    return Estimate(value=p, std_error=se, trials=y.size)


def sep_bar(model: ScalarModel, rule: DecisionRule, config: SystemConfig,
            rng, trials: int) -> Estimate:
    """Scalar-model SEP by Monte Carlo under the same decision rule."""
    y, s = sample_scalar_outputs(model, config, rng, trials)
    return sep_from_samples(y, s, rule)


def ky_fan_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Empirical Ky Fan distance between paired samples.

    Exact fixed point of delta -> (empirical tail at delta): with the
    absolute gaps sorted descending, the tail equals k/n on
    [gap_(k+1), gap_(k)), so the crossing is min over k of
    max(gap_(k+1), k/n) restricted to feasible steps.
    """
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    if x.size != y.size or x.size == 0:
        raise ValueError("need nonempty paired samples")
    gaps = np.sort(np.abs(x - y))[::-1]
    n = gaps.size
    uppers = np.concatenate([[np.inf], gaps])          # tail == k/n on [lower, upper)
    lowers = np.concatenate([gaps, [0.0]])
    tails = np.arange(n + 1) / n
    feasible = tails < uppers
    return float(np.min(np.maximum(lowers, tails)[feasible]))


def gain_ky_fan(samples, model: ScalarModel) -> tuple[float, float]:
    """Ky Fan distances of the signal gain and the interference term from their limits."""
    return (ky_fan_distance(samples.signal_gain,
                            np.full(len(samples.signal_gain), model.signal_gain)),
            ky_fan_distance(samples.interference_gain * samples.g2_user,
                            model.interference_gain * samples.g2_user))


def l2_deviation(x: np.ndarray, y: np.ndarray) -> Estimate:
    """Root mean squared gap with a delta-method standard error."""
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    if x.size != y.size or x.size == 0:
        raise ValueError("need nonempty paired samples")
    sq = np.abs(x - y) ** 2
    m = float(np.mean(sq))
    root = float(np.sqrt(m))
    if x.size > 1 and m > 0:
        se_m = float(np.std(sq, ddof=1) / np.sqrt(x.size))
        se = se_m / (2.0 * root)
    else:
        se = 0.0
    return Estimate(value=root, std_error=se, trials=x.size)
