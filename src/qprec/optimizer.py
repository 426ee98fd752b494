"""Asymptotic and finite-dimensional SINR maximization over shaping families.

The search space is the one-parameter regularized-zero-forcing family plus
the matched-filter and zero-forcing endpoints; every member is bounded and
Lipschitz on the padded bulk support, so the family sits inside the compact
function class the stability theory works with.  The finite problem pins the
scale pair (power scale, input scale) to the per-draw equality constraints;
the asymptotic problem pins it to the limiting equalities.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .bounds import BoundReport, sinr_sensitivity
from .metrics import UnstableEstimateError, l2_deviation, sinr_bar, sinr_from_samples
from .models import (
    ScalarModel,
    ShapingFunction,
    SystemConfig,
    asymptotic_model,
    draw_chunks,
    mf,
    rzf,
    sample_coupled,
    scale_pair,
    zf,
)
from .quantizer import QuantizerSpec
from .spectral import theta_interval
from .stochastic import RngStream

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FamilyGrid:
    """Log-spaced RZF regularization grid, optionally with MF/ZF endpoints."""

    rho_min: float = 1e-3
    rho_max: float = 10.0
    points: int = 13
    include_endpoints: bool = True

    def __post_init__(self) -> None:
        if not (0 < self.rho_min < self.rho_max < math.inf) or self.points < 2:
            raise ValueError("need 0 < rho_min < rho_max < inf and at least two points")

    @property
    def rhos(self) -> np.ndarray:
        return np.geomspace(self.rho_min, self.rho_max, self.points)

    def members(self) -> list[ShapingFunction]:
        out = [rzf(r) for r in self.rhos]
        if self.include_endpoints:
            out = [mf(), zf()] + out
        return out


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfilePoint:
    label: str
    rho: float          # nan for the MF/ZF endpoints
    value: float
    std_error: float = 0.0


@dataclass(frozen=True)
class SolveResult:
    best: ShapingFunction
    value: float
    profile: list[ProfilePoint] = field(default_factory=list)


def solve_asymptotic(config: SystemConfig, quant: QuantizerSpec,
                     grid: FamilyGrid) -> SolveResult:
    """Maximize the asymptotic SINR over the grid, then refine locally."""
    members = grid.members()
    profile = []
    values = []
    for f in members:
        v = sinr_bar(config, f, quant)
        values.append(v)
        profile.append(ProfilePoint(label=f.label,
                                    rho=f.rho if f.family == "rzf" else float("nan"),
                                    value=v))
    best_idx = int(np.argmax(values))
    best, best_val = members[best_idx], values[best_idx]

    rhos = grid.rhos
    offset = 2 if grid.include_endpoints else 0
    rzf_vals = values[offset:]
    j = int(np.argmax(rzf_vals))
    if 0 < j < len(rhos) - 1:
        # Interior maximum: bounded Brent search on log(rho) over the bracket.
        res = minimize_scalar(lambda t: -sinr_bar(config, rzf(math.exp(t)), quant),
                              bounds=(math.log(rhos[j - 1]), math.log(rhos[j + 1])),
                              method="bounded", options={"xatol": 1e-6})
        if -res.fun > best_val:
            best, best_val = rzf(math.exp(res.x)), float(-res.fun)
    return SolveResult(best=best, value=best_val, profile=profile)


def solve_finite(config: SystemConfig, quant: QuantizerSpec, grid: FamilyGrid,
                 seed: int, trials: int) -> SolveResult:
    """Maximize the estimated finite-dimensional SINR over the grid.

    Common random numbers: every member is evaluated on the same draws of
    one stream, so grid points see the same underlying channel/noise draws.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    members = grid.members()
    profile = []
    best = None
    best_val = -math.inf
    for f, samples in zip(members, sample_coupled(config, quant, members,
                                                  RngStream(seed, 0), trials)):
        try:
            est = sinr_from_samples(samples.y_hat, samples.s, config.sigma2_sym)
        except UnstableEstimateError:
            log.warning("skipping grid point %s: unstable SINR estimate", f.label)
            continue
        profile.append(ProfilePoint(label=f.label,
                                    rho=f.rho if f.family == "rzf" else float("nan"),
                                    value=est.value, std_error=est.std_error))
        if est.value > best_val:
            best, best_val = f, est.value
    if best is None:
        raise RuntimeError("no stable grid point")
    return SolveResult(best=best, value=best_val, profile=profile)


def feasibility_deviation(config: SystemConfig, quant: QuantizerSpec,
                          grid: FamilyGrid, rng: RngStream, trials: int) -> float:
    """Monte-Carlo estimate of E max over the grid of |finite - limit| scales.

    The scale pairs of a chunk of draws come from one ``scale_pair`` call over
    the grid.
    """
    members = grid.members()
    limits = [asymptotic_model(config, f, quant) for f in members]
    total = 0.0
    for _, block, _ in draw_chunks(config, rng, trials, len(members)):
        alphas, etas = scale_pair(block, config, members, quant)[:2]
        for alpha_row, eta_row in zip(alphas.tolist(), etas.tolist()):
            total += max(math.hypot(eta - m.power_scale, alpha - m.input_scale)
                         for alpha, eta, m in zip(alpha_row, eta_row, limits))
    return total / trials


def optimal_gap_report(config: SystemConfig, quant: QuantizerSpec, grid: FamilyGrid,
                       seed: int, trials: int) -> BoundReport:
    """Check |finite optimum - asymptotic optimum| against its deviation bound."""
    asym = solve_asymptotic(config, quant, grid)
    fin = solve_finite(config, quant, grid, seed=seed, trials=trials)
    gap = abs(fin.value - asym.value)

    members = grid.members()
    sup_dev = 0.0
    l_rho = 0.0
    for f, samples in zip(members, sample_coupled(config, quant, members, RngStream(seed, 1),
                                                  max(200, trials // 4))):
        l_rho = max(l_rho, sinr_sensitivity(config, asymptotic_model(config, f, quant)))
        dev = (l2_deviation(samples.y_hat, samples.y_bar).value
               + l2_deviation(samples.y_mid, samples.y_bar).value)
        sup_dev = max(sup_dev, dev)
    return BoundReport(
        name="optimal_value_gap",
        inputs={"k": config.k, "seed": seed, "finite": fin.value,
                "asymptotic": asym.value, "sensitivity": l_rho,
                "signal_deviation": sup_dev},
        bound=l_rho * sup_dev, empirical=gap)


@dataclass(frozen=True)
class GrowthFunction:
    """Tabulated growth function converting value gaps to argument distance."""

    taus: np.ndarray
    psi: np.ndarray

    def psi_inverse(self, t: float) -> float:
        ok = self.psi <= t
        if not np.any(ok):
            return 0.0
        return float(np.max(self.taus[ok]))

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError("growth function defined for t >= 0")
        return t + self.psi_inverse(2.0 * t)


def _member_distance(f: ShapingFunction, g: ShapingFunction, config: SystemConfig,
                     model_f: ScalarModel, model_g: ScalarModel) -> float:
    """Sup distance of f and g on the bulk support plus that of their limit scale pairs."""
    lo, hi = theta_interval(config.gamma)
    xs = np.linspace(lo, hi, 501)
    sup_f = float(np.max(np.abs(np.asarray(f(xs)) - np.asarray(g(xs)))))
    return (sup_f + abs(model_f.power_scale - model_g.power_scale)
            + abs(model_f.input_scale - model_g.input_scale))


def growth_psi(config: SystemConfig, quant: QuantizerSpec, grid: FamilyGrid) -> GrowthFunction:
    """Family-restricted growth function of the asymptotic problem.

    psi(tau) is the smallest optimality gap among feasible grid points at
    distance >= tau from the grid argmax; this restriction to the parametric
    family is a surrogate for the full-ball growth function and is labeled
    as such wherever it is reported.
    """
    asym = solve_asymptotic(config, quant, grid)
    members = grid.members() + [asym.best]  # argmax itself: dist 0, gap 0
    models = [asymptotic_model(config, f, quant) for f in members]
    dists = np.array([_member_distance(f, asym.best, config, m, models[-1])
                      for f, m in zip(members, models)])
    gaps = np.array([asym.value - p.value for p in asym.profile] + [0.0])
    tau_grid = np.concatenate([[0.0], np.sort(dists[dists > 0])])
    psi_vals = []
    for tau in tau_grid:
        far = dists >= tau
        psi_vals.append(float(np.min(gaps[far])) if np.any(far) else float("inf"))
    psi_vals = np.maximum.accumulate(np.maximum(np.asarray(psi_vals), 0.0))
    return GrowthFunction(taus=tau_grid, psi=psi_vals)
