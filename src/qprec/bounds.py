"""Explicit deviation bounds: Gaussian form tails, sensitivity constants,
and the full nested tail cascades for the equivalent-model gain coefficients.

The two cascades bound P(|Tg - Tg_limit| >= eps) and P(|Ts - Ts_limit| >= eps)
by sums of exponential and polynomial terms whose constants are produced by a
long chain of threshold-splitting steps.  Each named constant is one node in
an explicit table evaluated in dependency order, so every intermediate value
can be audited in the returned report.  The constants are deliberately
conservative; bounds larger than one are reported as-is (vacuous but valid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ive

from .models import ScalarModel, ShapingFunction, SystemConfig, asymptotic_model
from .quantizer import QuantizerSpec
from .spectral import theta_interval

_SQRT_PI = math.sqrt(math.pi)


class HypothesisError(ValueError):
    """A bound was requested outside the hypotheses it was proved under."""


def product_deviation_threshold(xbar: float, ybar: float, eps: float) -> float:
    """Per-factor deviation that forces |XY - XbarYbar| below eps.

    Solves (2 d)(|Xbar| + |Ybar| + 2 d) = eps for d > 0; increasing in eps.
    """
    if eps <= 0:
        raise HypothesisError("eps must be positive")
    s = abs(xbar) + abs(ybar)
    return 0.25 * (math.sqrt(s * s + 4.0 * eps) - s)


def gaussian_boundary_bound(variance: float, eps: float) -> float:
    """Mass a complex Gaussian puts on an eps-collar of a convex boundary.

    Uses the density scale sigma = sqrt(variance); valid for small eps.
    """
    if variance <= 0:
        raise HypothesisError("variance must be positive")
    if eps <= 0:
        raise HypothesisError("eps must be positive")
    return (_SQRT_PI / math.sqrt(variance) + 1.0) * eps


def quad_form_bound(eps: float, k: int, m1: float) -> float:
    """Tail of the normalized Gaussian quadratic form around its limit."""
    if eps <= 0 or k < 1 or m1 <= 0:
        raise HypothesisError("eps > 0, k >= 1, m1 > 0 required")
    expo = 2.0 * math.exp(-0.5 * k * min(eps * eps / (16.0 * m1 * m1), eps / (4.0 * m1)))
    return expo + 8.0 * m1 * m1 / (k * eps * eps)


def cross_form_bound(eps: float, k: int, m1: float) -> float:
    """Tail of the normalized Gaussian cross form (independent factors)."""
    if eps <= 0 or k < 1 or m1 <= 0:
        raise HypothesisError("eps > 0, k >= 1, m1 > 0 required")
    return 4.0 * math.exp(-k * eps * eps / (2.0 * m1 * m1))


# ---------------------------------------------------------------------------
# Sensitivity constants for the SEP / SINR gap bounds
# ---------------------------------------------------------------------------


def sep_sensitivity(config: SystemConfig, model: ScalarModel, beta: complex) -> list[float]:
    """Per-symbol Lipschitz factors of SEP under gain perturbations."""
    b = abs(beta)
    if b == 0:
        raise HypothesisError("beta must be nonzero")
    eta, tg = model.power_scale, model.interference_gain
    denom = abs(beta * eta * tg) ** 2 + b * b * config.sigma2_noise
    if denom <= 0:
        raise HypothesisError("effective observation variance must be positive")
    lead = _SQRT_PI / denom + 1.0
    out = []
    for s in config.constellation:
        out.append(lead * max(b * eta * abs(s) + 1.0, b * eta + 1.0))
    return out


def mean_abs_scalar_output(model: ScalarModel, config: SystemConfig) -> float:
    """E|y| in the scalar model: the Rice mean of |CN(eta Ts s, v)|, averaged over s.

    E|y| = (sqrt(pi v) / 2) [(1 + x) I0(x/2) + x I1(x/2)] e^{-x/2}, x = |eta Ts s|^2 / v,
    with the exponential factor folded into the rescaled Bessel functions ive.
    """
    v = model.power_scale**2 * model.interference_gain**2 + config.sigma2_noise
    if v <= 0:
        raise HypothesisError("scalar model has zero observation variance")
    x = np.abs(model.power_scale * model.signal_gain * config.points) ** 2 / v
    rice = (1.0 + x) * ive(0, x / 2.0) + x * ive(1, x / 2.0)
    return float(0.5 * math.sqrt(math.pi * v) * np.mean(rice))


def sinr_sensitivity(config: SystemConfig, model: ScalarModel) -> float:
    """Lipschitz factor mapping L2 signal deviation to SINR deviation."""
    sig = math.sqrt(config.sigma2_sym)
    eta, tg = model.power_scale, model.interference_gain
    m2 = (config.sigma2_sym * eta**2 * abs(model.signal_gain) ** 2
          + eta**2 * tg**2 + config.sigma2_noise)
    m1 = mean_abs_scalar_output(model, config)
    denom = (config.sigma2_sym * eta**2 * tg**2 + config.sigma2_sym * config.sigma2_noise) ** 2
    if denom <= 0:
        raise HypothesisError("interference-plus-noise power must be positive")
    num = 2.0 * (2.0 * sig**3 * m2 * (sig * math.sqrt(m2) + 1.0)
                 + sig**4 * m2 * (2.0 * m1 + 1.0))
    return num / denom


# ---------------------------------------------------------------------------
# Tail cascades
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CascadeParams:
    """Model constants feeding the tail cascades."""

    m0: float            # sup |q|
    m1: float            # bound on the spectral statistic family
    sigma_s2: float
    sigma2_noise: float
    gamma: float
    c_max: float         # spread of |s|^2 over the constellation
    band_g: float        # line/ray Gaussian band constant of either component
    band_k: float
    alpha_bar: float
    ezq_abs: float       # |E[Z^dag q(alpha_bar Z)]|
    c1_abs: float        # |linear gain|
    c2: float            # distortion rms
    tg_bar: float
    mean_df: float
    var_df: float
    mean_f2: float
    mean_d2f2: float
    mean_d2: float

    def __post_init__(self) -> None:
        for name in ("m0", "m1", "sigma_s2", "gamma", "alpha_bar", "ezq_abs",
                     "c1_abs", "c2", "tg_bar", "mean_df", "mean_f2"):
            if getattr(self, name) <= 0:
                raise HypothesisError(f"cascade constant {name} must be positive")

    @property
    def sigma_s(self) -> float:
        return math.sqrt(self.sigma_s2)

    @property
    def big_l(self) -> float:
        return (4.0 * (1.0 + self.sigma_s2) * (self.mean_f2 + 1.0)
                + 2.0 * self.sigma_s2 * (1.0 + self.mean_f2))

    @property
    def c1_prime(self) -> float:
        return max(self.c_max**2 / 2.0, 2.0, 2.0 / self.gamma, 32.0 * self.m1**2)

    @property
    def c2_prime(self) -> float:
        return max(2.0, 2.0 / self.gamma, 8.0 * self.m1)

    def hat_delta(self, x: float) -> float:
        return min(self.gamma * x / (2.0 * self.big_l), 0.5)


def assumption_m1(shaping: ShapingFunction, gamma: float) -> float:
    """Bound on max{x, f, f^2, xf, x^2, x^2 f^2} over the padded bulk support."""
    lo, hi = theta_interval(gamma)
    x = np.linspace(lo, hi, 4001)
    f = np.asarray(shaping(x))
    stacked = np.stack([x, f, f * f, x * f, x * x, (x * f) ** 2])
    return float(np.max(np.abs(stacked)))


def cascade_params(config: SystemConfig, shaping: ShapingFunction,
                   quant: QuantizerSpec) -> CascadeParams:
    model = asymptotic_model(config, shaping, quant)
    mom = model.moments
    mags = np.abs(config.points) ** 2
    return CascadeParams(
        m0=quant.m0, m1=assumption_m1(shaping, config.gamma),
        sigma_s2=config.sigma2_sym, sigma2_noise=config.sigma2_noise,
        gamma=config.gamma, c_max=float(np.max(mags) - np.min(mags)) or 1e-12,
        band_g=quant.band_constant,
        band_k=quant.squared_band_constant,
        alpha_bar=model.input_scale,
        ezq_abs=model.input_scale * abs(model.linear_gain),
        c1_abs=abs(model.linear_gain), c2=model.distortion_rms,
        tg_bar=model.interference_gain, mean_df=mom.mean_df, var_df=mom.var_df,
        mean_f2=mom.mean_f2, mean_d2f2=mom.mean_d2f2, mean_d2=mom.mean_d2)


@dataclass(frozen=True)
class TailBound:
    """Evaluated tail bound with its audit trail.

    ``applicable`` is False when K is at or below the cascade's dimension
    threshold; the value is still reported (and may well exceed one).
    """

    name: str
    eps: float
    k: int
    value: float
    threshold: float
    terms: dict = field(default_factory=dict)
    nodes: dict = field(default_factory=dict)

    @property
    def applicable(self) -> bool:
        return self.k > self.threshold


def _interference_nodes(eps: float, p: CascadeParams) -> dict:
    """K-independent constant layer of the interference-gain cascade."""
    td = product_deviation_threshold
    ns: dict[str, float] = {}
    ns["eps1"] = td(0.0, 1.0, eps / 2.0)
    ns["eps2"] = td(1.0, p.tg_bar**2, eps * p.tg_bar / 2.0)
    ns["eps3"] = td(p.c1_abs**2, p.mean_d2f2, ns["eps2"] / 6.0)
    ns["eps4"] = td(p.c1_abs**2, p.sigma_s2, ns["eps3"])
    ns["eps5"] = td(1.0, p.sigma_s2, ns["eps4"])
    ns["eps6"] = ns["eps5"] / (1.0 + ns["eps5"])
    ns["eps7"] = td(p.c2**2, p.mean_d2, ns["eps2"] / 6.0)
    ns["eps8"] = td(0.0, 2.0, ns["eps2"] / 6.0)
    ns["eps9"] = td(1.0, p.sigma_s, ns["eps8"] / 2.0)
    ns["eps10"] = ns["eps9"] / (1.0 + ns["eps9"])
    ns["eps11"] = td(0.0, p.c1_abs * p.c2, ns["eps8"] / 4.0)
    ns["eps12"] = td(p.c1_abs, p.c2, ns["eps11"] / 4.0)
    ns["eps13"] = td(p.c1_abs**2, p.sigma_s2 * p.mean_df**2, ns["eps2"] / 6.0)
    ns["eps14"] = td(p.sigma_s, p.mean_df, ns["eps13"])
    ns["eps15"] = td(1.0, p.sigma_s2, ns["eps14"])
    ns["eps16"] = ns["eps15"] / (1.0 + ns["eps15"])
    ns["eps17"] = td(0.0, p.c2, ns["eps2"] / 6.0)
    ns["eps18"] = td(1.0, 0.0, ns["eps17"])
    ns["eps19"] = ns["eps18"] / (1.0 + ns["eps18"])
    ns["eps20"] = math.sqrt(ns["eps2"] / 6.0)
    ns["eps21"] = td(p.sigma_s, 0.0, ns["eps20"])
    ns["eps22"] = td(1.0, 0.0, ns["eps21"])
    ns["eps23"] = ns["eps22"] / (1.0 + ns["eps22"])
    ns["eps24"] = td(p.c1_abs * p.c2, 0.0, ns["eps20"])
    ns["eps25"] = td(p.c1_abs, p.c2, ns["eps24"])
    ns["eps26"] = td(p.mean_df, 0.0, ns["eps25"])
    ns["eps27"] = min(math.sqrt(ns["eps14"] / 2.0), ns["eps14"] / 4.0, ns["eps26"])
    ns["eps28"] = min(ns["eps26"], ns["eps18"])
    ns["eps29"] = min(math.sqrt(ns["eps13"] / 2.0), ns["eps13"] / 4.0, ns["eps25"])
    ns["eps30"] = min(math.sqrt(ns["eps16"] / 2.0), ns["eps16"] / 4.0, ns["eps19"],
                      math.sqrt(ns["eps23"] / 3.0), ns["eps23"] / 3.0, ns["eps23"] / 9.0)
    ns["eps31"] = min(ns["eps15"], p.sigma_s * ns["eps21"])
    ns["eps32"] = min(math.sqrt(ns["eps17"] / 2.0), p.sigma_s * ns["eps19"],
                      ns["eps17"] / 4.0, ns["eps25"])
    ns["eps33"] = min(ns["eps1"], ns["eps2"]) / (1.0 + min(ns["eps1"], ns["eps2"]))
    ns["eps34"] = td(1.0, 1.0, ns["eps33"])
    ns["eps35"] = td(p.c2, 0.0, ns["eps1"])

    ns["eta2"] = min(ns["eps12"], math.sqrt(ns["eps4"] / 2.0), ns["eps4"] / 4.0)
    ns["delta1"] = td(p.ezq_abs, 1.0 / p.alpha_bar**2, ns["eta2"])
    ns["delta2"] = td(1.0, 1.0 / p.alpha_bar**2, ns["delta1"])
    ns["delta3"] = ns["delta2"] * p.alpha_bar / (1.0 + ns["delta2"] * p.alpha_bar)
    ns["delta4"] = ns["delta2"] / (1.0 + ns["delta2"])
    ns["delta5"] = td(1.0, p.c2**2, min(p.c2 * ns["eps12"], ns["eps7"]))
    ns["delta6"] = td(1.0, p.ezq_abs**2, ns["delta5"])
    ns["delta7"] = ns["delta6"] / (1.0 + ns["delta6"])
    ns["delta8"] = min(math.sqrt(ns["delta6"] / 2.0), ns["delta6"] / (2.0 * p.ezq_abs))
    ns["delta9"] = 0.5 * (math.sqrt(1.0 + ns["delta5"]) - 1.0)
    ns["delta10"] = min(ns["delta5"] ** 2 / 2.0, 2.0 * ns["delta8"] ** 2)
    ns["delta11"] = min(ns["delta5"], ns["delta8"])
    ns["delta12"] = td(p.ezq_abs, 1.0 / p.alpha_bar**2, ns["eps29"])
    ns["delta13"] = td(1.0, 1.0 / p.alpha_bar**2, ns["delta12"])
    ns["delta14"] = ns["delta13"] * p.alpha_bar / (1.0 + ns["delta13"] * p.alpha_bar)
    ns["delta15"] = ns["delta13"] / (1.0 + ns["delta13"])
    ns["delta16"] = td(1.0, p.c2**2, ns["eps32"])
    ns["delta17"] = td(1.0, p.ezq_abs**2, ns["delta16"])
    ns["delta18"] = ns["delta17"] / (1.0 + ns["delta17"])
    ns["delta19"] = min(math.sqrt(ns["delta17"] / 2.0), ns["delta17"] / (2.0 * p.ezq_abs))
    ns["delta20"] = 0.5 * (math.sqrt(1.0 + ns["delta16"]) - 1.0)
    ns["delta21"] = min(ns["delta16"] ** 2 / 2.0, 2.0 * ns["delta19"] ** 2)
    ns["delta22"] = min(ns["delta16"], ns["delta19"])
    ns["delta23"] = td(1.0, p.c2**2, p.c2 * ns["eps35"])
    ns["delta24"] = td(1.0, p.ezq_abs**2, ns["delta23"])
    ns["delta25"] = ns["delta24"] / (1.0 + ns["delta24"])
    ns["delta26"] = min(math.sqrt(ns["delta24"] / 2.0), ns["delta24"] / (2.0 * p.ezq_abs))
    ns["delta27"] = 0.5 * (math.sqrt(1.0 + ns["delta23"]) - 1.0)
    ns["delta28"] = min(ns["delta23"] ** 2 / 2.0, 2.0 * ns["delta26"] ** 2)
    ns["delta29"] = min(ns["delta23"], ns["delta26"])
    return ns


def _interference_k_layer(ns: dict, k: int, p: CascadeParams) -> dict:
    """K-dependent layer: envelope-smoothing scales and the aggregates."""
    hd = p.hat_delta
    quarter = k ** 0.25
    tau = 1.0 / quarter
    out = dict(ns)
    out["eta1"] = ns["delta1"] / (96.0 * quarter)
    out["eta3"] = ns["delta5"] * tau / 192.0
    out["eta4"] = ns["delta8"] / (96.0 * quarter)
    out["eta5"] = min(out["eta3"], out["eta4"])
    out["eta6"] = ns["delta12"] / (96.0 * quarter)
    out["eta7"] = ns["delta16"] * tau / 192.0
    out["eta8"] = ns["delta19"] / (96.0 * quarter)
    out["eta9"] = min(out["eta7"], out["eta8"])
    out["eta10"] = ns["delta23"] * tau / 192.0
    out["eta11"] = ns["delta26"] / (96.0 * quarter)
    out["eta12"] = min(out["eta10"], out["eta11"])

    a = p.alpha_bar
    m1sq = p.m1 * p.m1
    out["eps_t1"] = min(
        ns["eps2"] ** 2 / (128.0 * m1sq), ns["eps3"] / (16.0 * p.m1),
        ns["eps7"] ** 2 / (128.0 * m1sq), ns["eps7"] / (16.0 * p.m1),
        ns["eps11"] ** 2 / (2.0 * m1sq), p.gamma / 2.0,
        hd(a * out["eta1"]) ** 2 / p.c1_prime, hd(a * out["eta1"]) / p.c2_prime,
        hd(a * ns["delta3"]) ** 2 / p.c1_prime, hd(a * ns["delta3"]) / p.c2_prime,
        p.gamma * ns["delta4"] ** 2 / 2.0, p.gamma * ns["delta4"] / 2.0,
        2.0 * (p.sigma_s * ns["eps9"]) ** 2 / p.c_max**2,
        2.0 * ns["eps5"] ** 2 / p.c_max**2,
        ns["eps6"] / 2.0, ns["eps6"] ** 2 / 2.0,
        ns["eps10"] / 2.0, ns["eps10"] ** 2 / 2.0,
        hd(a * out["eta5"]) ** 2 / p.c1_prime, hd(a * out["eta5"]) / p.c2_prime,
        ns["eps27"] ** 2 / (128.0 * m1sq), ns["eps27"] / (16.0 * p.m1),
        ns["eps28"] ** 2 / (2.0 * m1sq),
        hd(a * out["eta6"]) ** 2 / p.c1_prime, hd(a * out["eta6"]) / p.c2_prime,
        hd(a * ns["delta14"]) ** 2 / p.c1_prime, hd(a * ns["delta14"]) / p.c2_prime,
        ns["eps30"] ** 2 / 2.0, ns["eps30"] / 2.0,
        2.0 * ns["eps31"] ** 2 / p.c_max**2,
        hd(a * out["eta9"]) ** 2 / p.c1_prime, hd(a * out["eta9"]) / p.c2_prime,
        ns["eps34"] ** 2 / 2.0, ns["eps34"] / 2.0,
        hd(a * out["eta12"]) ** 2 / p.c1_prime, hd(a * out["eta12"]) / p.c2_prime,
        ns["eps35"] ** 2)
    out["eps_t2"] = min(
        p.gamma * ns["delta1"] ** 2 / 1152.0, p.gamma * ns["delta12"] ** 2 / 1152.0,
        p.gamma * ns["delta10"] / 2304.0, p.gamma * ns["delta21"] / 2304.0,
        p.gamma * ns["delta28"] / 2304.0)
    out["eps_t3"] = max(
        16.0 * m1sq / min(ns["eps3"] ** 2, ns["eps7"] ** 2),
        192.0 * m1sq / hd(a * out["eta1"]) ** 2,
        55296.0 * m1sq / (p.gamma * ns["delta1"] ** 2),
        24.0 * m1sq / hd(a * ns["delta3"]) ** 2,
        144.0 * m1sq / hd(a * out["eta5"]) ** 2,
        37440.0 * p.m0**2 / (p.gamma * ns["delta11"]),
        24.0 * m1sq / ns["eps27"] ** 2,
        192.0 * m1sq / hd(a * out["eta6"]) ** 2,
        55296.0 * p.m0**2 / (p.gamma * ns["delta12"] ** 2),
        24.0 * m1sq / hd(a * ns["delta14"]) ** 2,
        288.0 * m1sq / hd(a * out["eta9"]) ** 2,
        74880.0 * p.m0**2 / (p.gamma * ns["delta22"] ** 2),
        144.0 * m1sq / hd(a * out["eta12"]) ** 2,
        37440.0 * p.m0**2 / (p.gamma * ns["delta29"] ** 2))
    out["delta_exp"] = min(v for d in ("delta4", "delta7", "delta8", "delta15",
                                       "delta18", "delta19", "delta25", "delta26")
                           for v in (ns[d] ** 2 / 16.0, ns[d] / 4.0))
    return out


def _envelope_threshold(p: CascadeParams, delta: float, squared: bool) -> float:
    """Dimension above which the envelope smoothing step is admissible."""
    if squared:
        return (12.0 * p.m0**2 / p.alpha_bar * p.band_k / delta) ** 4
    base = 12.0 * math.sqrt(2.0 * p.m0**2 / p.alpha_bar * p.band_g)
    return (base / delta) ** 8


def interference_gain_tail(eps: float, k: int, p: CascadeParams) -> TailBound:
    """Tail bound for the interference gain leaving its limit by eps."""
    if not (math.isfinite(eps) and eps > 0) or k < 1:
        raise HypothesisError("finite eps > 0 and k >= 1 required")
    ns = _interference_k_layer(_interference_nodes(eps, p), k, p)
    terms = {
        "gaussian_block": 1594.0 * math.exp(-k * ns["eps_t1"]),
        "envelope_block": 224.0 * math.exp(-math.sqrt(k) * ns["eps_t2"]),
        "spectral_block": 17.0 * ns["eps_t3"] / k,
        "norm_block": 20.0 * math.exp(-0.5 * (p.gamma * k - 1.0) * ns["delta_exp"]),
    }
    threshold = max(
        _envelope_threshold(p, ns["delta1"], squared=False),
        _envelope_threshold(p, ns["delta5"], squared=True),
        _envelope_threshold(p, ns["delta8"], squared=False),
        _envelope_threshold(p, ns["delta6"], squared=False),
        _envelope_threshold(p, ns["delta16"], squared=True),
        _envelope_threshold(p, ns["delta19"], squared=False),
        _envelope_threshold(p, ns["delta23"], squared=True),
        _envelope_threshold(p, ns["delta26"], squared=False),
        1.0 / (p.gamma * ns["delta4"]),
        1.0 / (p.gamma * ns["delta8"]),
        1.0 / (p.gamma * ns["delta19"]))
    return TailBound(name="interference_gain_tail", eps=eps, k=k,
                     value=sum(terms.values()), threshold=threshold,
                     terms=terms, nodes=ns)


def signal_gain_tail(eps: float, k: int, p: CascadeParams) -> TailBound:
    """Tail bound for the signal gain leaving its limit by eps."""
    if not (math.isfinite(eps) and eps > 0) or k < 1:
        raise HypothesisError("finite eps > 0 and k >= 1 required")
    td = product_deviation_threshold
    hd = p.hat_delta
    ns: dict[str, float] = {}
    ns["eps36"] = td(p.mean_df, p.c1_abs, eps / 3.0)
    ns["eps37"] = td(p.c2, 0.0, eps / 3.0)
    ns["eps38"] = td(p.tg_bar, 0.0, eps / 3.0)
    ns["eps39"] = td(p.mean_df, 1.0, ns["eps36"])
    ns["eps40"] = ns["eps39"] / (1.0 + ns["eps39"])
    ns["eps41"] = td(0.0, 1.0 / p.sigma_s, ns["eps37"] / 2.0)
    ns["eps42"] = td(1.0, 1.0 / p.sigma_s, ns["eps41"])
    ns["eps43"] = td(0.0, 1.0 / p.sigma_s, ns["eps37"] / 2.0)
    ns["eps44"] = ns["eps42"] / (1.0 + ns["eps42"])
    ns["eps45"] = min(ns["eps41"], ns["eps42"], ns["eps43"])
    ns["eps46"] = ns["eps45"] * p.sigma_s / (1.0 + ns["eps45"] * p.sigma_s)
    ns["eps47"] = min(ns["eps40"], ns["eps45"])
    ns["delta30"] = td(p.ezq_abs, 1.0 / p.alpha_bar**2, ns["eps36"])
    ns["delta31"] = td(1.0, 1.0 / p.alpha_bar**2, ns["delta30"])
    ns["delta32"] = ns["delta31"] * p.alpha_bar / (1.0 + ns["delta31"] * p.alpha_bar)
    ns["delta33"] = ns["delta31"] / (1.0 + ns["delta31"])
    ns["delta34"] = td(1.0, p.c2**2, p.c2 * ns["eps37"])
    ns["delta35"] = td(1.0, p.ezq_abs**2, ns["delta34"])
    ns["delta36"] = ns["delta35"] / (1.0 + ns["delta35"])
    ns["delta37"] = min(math.sqrt(ns["delta35"] / 2.0), ns["delta35"] / (2.0 * p.ezq_abs))
    ns["delta38"] = 0.5 * (math.sqrt(1.0 + ns["delta34"]) - 1.0)
    ns["delta39"] = min(ns["delta34"] ** 2 / 2.0, 2.0 * ns["delta37"] ** 2)
    ns["delta40"] = min(ns["delta34"], ns["delta37"])

    sub = interference_gain_tail(ns["eps38"], k, p)
    quarter = k ** 0.25
    tau = 1.0 / quarter
    ns["eta13"] = ns["delta30"] / (96.0 * quarter)
    # As tabulated: the smoothing scale reuses the sub-cascade's delta5 and
    # eps4 (evaluated at eps38); the companion proof text drops the eps4/4
    # factor, but the tabulated version is the one implemented.
    ns["eta14"] = (sub.nodes["delta5"] * tau / 192.0) * (sub.nodes["eps4"] / 4.0)
    ns["eta15"] = ns["delta37"] / (96.0 * quarter)
    ns["eta16"] = min(ns["eta14"], ns["eta15"])

    a = p.alpha_bar
    m1sq = p.m1 * p.m1
    ns["eps_t4"] = min(
        ns["eps39"] ** 2 / (32.0 * m1sq), ns["eps39"] / (8.0 * p.m1),
        ns["eps41"] ** 2 / (2.0 * m1sq), ns["eps47"] / 2.0, ns["eps47"] ** 2 / 2.0,
        2.0 * (p.sigma_s * ns["eps46"]) ** 2 / p.c_max**2,
        hd(a * ns["eta13"]) ** 2 / p.c1_prime, hd(a * ns["eta13"]) / p.c2_prime,
        hd(a * ns["delta32"]) ** 2 / p.c1_prime, hd(a * ns["delta32"]) / p.c2_prime,
        p.gamma * ns["delta33"] ** 2 / 2.0, p.gamma * ns["delta33"] / 2.0,
        hd(a * ns["eta16"]) / p.c2_prime,
        hd(a * sub.nodes["delta16"]) ** 2 / p.c1_prime,
        ns["eps41"] ** 2, ns["eps44"] ** 2, p.gamma / 2.0)
    ns["eps_t5"] = min(p.gamma * ns["delta30"] ** 2 / 2304.0,
                       p.gamma * ns["delta39"] / 2304.0)
    ns["eps_t6"] = max(
        8.0 * m1sq / ns["eps39"] ** 2,
        64.0 * m1sq / hd(a * ns["eta13"]) ** 2,
        18432.0 * p.m0**2 / (p.gamma * ns["delta30"] ** 2),
        8.0 * m1sq / hd(a * ns["delta32"]) ** 2,
        144.0 * m1sq / hd(a * ns["eta16"]) ** 2,
        37440.0 * p.m0**2 / (p.gamma * ns["delta40"] ** 2))
    ns["delta_exp"] = min(v for d in ("delta33", "delta36", "delta37")
                          for v in (ns[d] ** 2 / 16.0, ns[d] / 4.0))

    terms = {
        "interference_block": sub.value,
        "gaussian_block": 255.0 * math.exp(-k * ns["eps_t4"]),
        "envelope_block": 26.0 * math.exp(-math.sqrt(k) * ns["eps_t5"]),
        "spectral_block": 6.0 * ns["eps_t6"] / k,
        "norm_block": 6.0 * math.exp(-0.5 * (p.gamma * k - 1.0) * ns["delta_exp"]),
    }
    threshold = max(
        sub.threshold,
        _envelope_threshold(p, ns["delta30"], squared=False),
        _envelope_threshold(p, ns["delta34"], squared=True),
        _envelope_threshold(p, ns["delta37"], squared=False),
        1.0 / (p.gamma * ns["delta37"]))
    return TailBound(name="signal_gain_tail", eps=eps, k=k,
                     value=sum(terms.values()), threshold=threshold,
                     terms=terms, nodes=ns)


def received_gap_tail(eps: float, k: int, p: CascadeParams, eta: float,
                      s_sup: float) -> TailBound:
    """Tail bound for the per-user received sample leaving its limit by eps.

    Composes the two gain cascades with the Gaussian factor tail
    exp(-eps / (2 eta)).
    """
    if eps <= 0 or k < 1 or eta <= 0 or s_sup <= 0:
        raise HypothesisError("eps, eta, s_sup > 0 and k >= 1 required")
    tg = interference_gain_tail(math.sqrt(eps / (2.0 * eta)), k, p)
    ts = signal_gain_tail(eps / (2.0 * eta * s_sup), k, p)
    terms = {
        "interference_gain": tg.value,
        "signal_gain": ts.value,
        "gaussian_factor": math.exp(-eps / (2.0 * eta)),
    }
    return TailBound(name="received_gap_tail", eps=eps, k=k,
                     value=sum(terms.values()),
                     threshold=max(tg.threshold, ts.threshold), terms=terms)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One named bound check, optionally against an empirical frequency."""

    name: str
    inputs: dict
    bound: float
    empirical: float | None = None

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("bound must be nonnegative")

    @property
    def holds(self) -> bool | None:
        if self.empirical is None:
            return None
        return bool(self.empirical <= self.bound)
