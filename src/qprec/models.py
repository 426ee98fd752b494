"""The three downlink models: finite original, Gaussian equivalent, scalar limit.

Original model
    y = eta * H q(P s) + n, with P = V f(D)^T U^H built from the channel SVD
    H = U D V^H and a shaping function f applied to the singular values.

Statistically equivalent model
    Replaces the Haar factors by independent Gaussian vectors via Householder
    complements; (y_hat, s) has exactly the law of (y, s) for N, K >= 3.  The
    received sample collapses to y_hat = eta*(Ts*s + Tg*g2) + n with random
    scalar gains Ts (signal) and Tg (interference-plus-distortion).

Scalar asymptotic model
    Ts, Tg are replaced by their deterministic large-system limits computed
    from the limiting singular-value law and the quantizer's Gaussian moments.

The power scale eta always enforces the transmit constraint with equality:
per draw for the finite models, in expectation for the scalar model.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .quantizer import GaussianMoments, QuantizerSpec, gaussian_moments, quantize
from .spectral import MpLaw, mp_moment, sample_channel, sample_singular_values, theta_interval
from .stochastic import (
    DegenerateDrawError,
    RngStream,
    complement_embed,
    reflect,
    sample_complex_gaussian,
    sample_constellation,
)

QPSK = tuple((a + 1j * b) / np.sqrt(2.0) for a, b in ((1, 1), (-1, 1), (-1, -1), (1, -1)))


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions, noise and symbol statistics, and the power budget."""

    n: int
    k: int
    sigma2_noise: float = 0.1
    constellation: tuple[complex, ...] = QPSK
    power_limit: float = 1.0

    def __post_init__(self) -> None:
        if self.k < 3 or self.n < self.k:
            raise ValueError("need N >= K >= 3")
        if self.n <= self.k:
            raise ValueError("aspect ratio N/K must exceed 1")
        if not np.isfinite(self.sigma2_noise) or self.sigma2_noise < 0:
            raise ValueError("noise variance must be finite and >= 0")
        if self.power_limit <= 0:
            raise ValueError("power limit must be positive")
        pts = np.asarray(self.constellation, dtype=complex)
        if pts.size == 0 or np.any(pts == 0):
            raise ValueError("constellation must be nonempty and exclude 0")

    @classmethod
    def with_gamma(cls, k: int, gamma: float, **kwargs) -> "SystemConfig":
        n = int(round(gamma * k))
        return cls(n=n, k=k, **kwargs)

    @property
    def gamma(self) -> float:
        return self.n / self.k

    @property
    def sigma2_sym(self) -> float:
        return float(np.mean(np.abs(np.asarray(self.constellation)) ** 2))

    @property
    def points(self) -> np.ndarray:
        return np.asarray(self.constellation, dtype=complex)

    @property
    def law(self) -> MpLaw:
        return MpLaw(self.gamma)


@dataclass(frozen=True)
class ShapingFunction:
    """Shaping function f applied to singular values inside the precoder.

    Families: matched filter f(d)=d, zero forcing f(d)=1/d, and regularized
    zero forcing f(d)=d/(d^2+rho).  All are positive, bounded, and Lipschitz
    on the padded bulk support, which is what the stability theory needs.
    """

    family: str
    rho: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in ("mf", "zf", "rzf"):
            raise ValueError("family must be one of 'mf', 'zf', 'rzf'")
        if self.family == "rzf" and self.rho <= 0:
            raise ValueError("rzf requires rho > 0")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def __call__(self, d: np.ndarray | float) -> np.ndarray | float:
        d = np.asarray(d, dtype=float)
        if self.family == "mf":
            out = d.copy()
        elif self.family == "zf":
            out = 1.0 / d
        else:
            out = d / (d * d + self.rho)
        out = self.scale * out
        return out if out.ndim else float(out)

    @property
    def label(self) -> str:
        base = self.family if self.family != "rzf" else f"rzf({self.rho:g})"
        return base if self.scale == 1.0 else f"{self.scale:g}*{base}"

    def sup_bound(self, gamma: float) -> float:
        lo, hi = theta_interval(gamma)
        grid = np.linspace(lo, hi, 4001)
        return float(np.max(np.abs(self(grid))))

    def lipschitz_bound(self, gamma: float) -> float:
        lo, hi = theta_interval(gamma)
        grid = np.linspace(lo, hi, 4001)
        vals = np.asarray(self(grid))
        return float(np.max(np.abs(np.diff(vals) / np.diff(grid))))


def mf() -> ShapingFunction:
    return ShapingFunction("mf")


def zf() -> ShapingFunction:
    return ShapingFunction("zf")


def rzf(rho: float) -> ShapingFunction:
    return ShapingFunction("rzf", rho=rho)


@dataclass(frozen=True)
class ShapedMoments:
    """Limiting moments of (d, f(d)) used throughout the scalar model."""

    mean_df: float      # E[d f(d)]
    var_df: float       # var[d f(d)]
    mean_f2: float      # E[f(d)^2]
    mean_d2f2: float    # E[d^2 f(d)^2]
    mean_d2: float      # E[d^2]


def shaped_moments(shaping: ShapingFunction, law: MpLaw) -> ShapedMoments:
    mean_df = mp_moment(lambda d: d * shaping(d), law)
    mean_d2f2 = mp_moment(lambda d: (d * shaping(d)) ** 2, law)
    mean_f2 = mp_moment(lambda d: shaping(d) ** 2, law)
    mean_d2 = mp_moment(lambda d: d * d, law)
    return ShapedMoments(mean_df=mean_df, var_df=mean_d2f2 - mean_df**2,
                         mean_f2=mean_f2, mean_d2f2=mean_d2f2, mean_d2=mean_d2)


@dataclass(frozen=True)
class ScalarModel:
    """Deterministic parameters of the large-system scalar channel."""

    input_scale: float        # limit of ||shaped precoder input|| / ||z||
    power_scale: float        # eta from the expected power constraint
    linear_gain: complex      # Bussgang-type gain of the quantizer
    distortion_rms: float     # residual quantization distortion (rms)
    signal_gain: float        # limit of the signal coefficient
    interference_gain: float  # limit of the interference coefficient
    moments: ShapedMoments
    sigma2_sym: float
    sigma2_noise: float

    def __post_init__(self) -> None:
        expected = np.sqrt(self.sigma2_sym * abs(self.linear_gain) ** 2 * self.moments.var_df
                           + self.distortion_rms**2)
        if abs(self.interference_gain - expected) > 1e-10 * max(1.0, expected):
            raise ValueError("interference gain inconsistent with its defining identity")


class DegenerateQuantizerError(RuntimeError):
    """The quantizer output power vanished; no power scale exists."""


def scalar_gains_at(moments: ShapedMoments, sigma2_sym: float,
                    gm: GaussianMoments) -> tuple[float, float, complex, float]:
    """(signal gain, interference gain, linear gain, distortion rms) at the scale of gm."""
    c1 = gm.linear_gain
    c2 = gm.distortion_rms
    ts = c1 * moments.mean_df
    tg = np.sqrt(sigma2_sym * abs(c1) ** 2 * moments.var_df + c2 * c2)
    return float(np.real(ts)), float(tg), c1, c2


def asymptotic_model(config: SystemConfig, shaping: ShapingFunction,
                     quant: QuantizerSpec) -> ScalarModel:
    """Scalar limit of the equivalent model for the given shaping/quantizer.

    Memoized: the arguments are frozen, and the solvers revisit members.
    """
    return _asymptotic_model(config, shaping, quant)


@lru_cache(maxsize=1024)
def _asymptotic_model(config: SystemConfig, shaping: ShapingFunction,
                      quant: QuantizerSpec) -> ScalarModel:
    law = config.law
    moments = shaped_moments(shaping, law)
    alpha_bar = float(np.sqrt(config.sigma2_sym * moments.mean_f2 / config.gamma))
    gm = gaussian_moments(quant, alpha_bar)
    if gm.eq2 <= 0:
        raise DegenerateQuantizerError("quantizer output power is zero at this scale")
    eta = float(np.sqrt(config.power_limit / gm.eq2))
    ts, tg, c1, c2 = scalar_gains_at(moments, config.sigma2_sym, gm)
    return ScalarModel(input_scale=alpha_bar, power_scale=eta, linear_gain=c1,
                       distortion_rms=c2, signal_gain=ts, interference_gain=tg,
                       moments=moments, sigma2_sym=config.sigma2_sym,
                       sigma2_noise=config.sigma2_noise)


# ---------------------------------------------------------------------------
# Finite-dimensional sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OriginalBatch:
    """Monte-Carlo samples from the original quantized-precoding model."""

    y: np.ndarray               # trials x K received vectors
    s: np.ndarray               # trials x K data vectors
    eta: np.ndarray             # per-draw power scales
    transmit_power: np.ndarray  # eta^2 ||q||^2 / N, the enforced budget


def simulate_original(config: SystemConfig, shaping: ShapingFunction,
                      quant: QuantizerSpec, rng: RngStream, trials: int) -> OriginalBatch:
    """Sample the original model; eta enforces the power budget per draw."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, k = config.n, config.k
    y = np.empty((trials, k), dtype=complex)
    s_out = np.empty((trials, k), dtype=complex)
    etas = np.empty(trials)
    power = np.empty(trials)
    for t in range(trials):
        ch = sample_channel(config, rng)
        s = sample_constellation(config.points, k, rng)
        noise = sample_complex_gaussian(k, config.sigma2_noise, rng)
        # P s = V f(D)^T U^H s, using only the thin factors.
        shaped = shaping(ch.d) * (ch.u.conj().T @ s)
        ps = ch.vh.conj().T @ shaped
        qx = np.asarray(quantize(quant, ps))
        qnorm = float(np.linalg.norm(qx))
        if qnorm <= 0:
            raise DegenerateDrawError("quantized transmit vector is identically zero")
        eta = np.sqrt(config.power_limit * n) / qnorm
        y[t] = eta * (ch.h @ qx) + noise
        s_out[t] = s
        etas[t] = eta
        power[t] = eta**2 * qnorm**2 / n
    return OriginalBatch(y=y, s=s_out, eta=etas, transmit_power=power)


@dataclass(frozen=True)
class EquivalentBatch:
    signal_gain: np.ndarray
    interference_gain: np.ndarray
    linear_gain: np.ndarray
    distortion_rms: np.ndarray
    input_scale: np.ndarray
    power_scale: np.ndarray
    transmit_power: np.ndarray
    y_hat: np.ndarray   # trials x K
    s: np.ndarray       # trials x K


@dataclass(frozen=True)
class RawDraw:
    """The randomness of one equivalent-model trial, before shaping and quantizing."""

    d: np.ndarray    # K singular values
    g1: np.ndarray   # K, direction of U^H s
    g2: np.ndarray   # K, interference direction
    z1: np.ndarray   # N, quantizer input direction
    z2: np.ndarray   # N, distortion direction
    s: np.ndarray    # K data symbols

    @cached_property
    def norms(self) -> tuple[float, float, float]:
        """(||s||, ||g1||, ||z1||), shared by every evaluation of this draw."""
        return tuple(float(np.linalg.norm(v)) for v in (self.s, self.g1, self.z1))


def sample_raw_draw(config: SystemConfig, rng: RngStream) -> RawDraw:
    n, k = config.n, config.k
    return RawDraw(d=sample_singular_values(n, k, rng),
                   g1=sample_complex_gaussian(k, 1.0, rng),
                   g2=sample_complex_gaussian(k, 1.0, rng),
                   z1=sample_complex_gaussian(n, 1.0, rng),
                   z2=sample_complex_gaussian(n, 1.0, rng),
                   s=sample_constellation(config.points, k, rng))


def scale_pair(draw: RawDraw, config: SystemConfig, shaping: ShapingFunction,
               quant: QuantizerSpec) -> tuple[float, float, np.ndarray, np.ndarray]:
    """First stage of an evaluation: (alpha, eta, q(alpha z1), shat) of one draw.

    shat is the shaped precoder input embedded in C^N, so alpha = ||shat|| / ||z1||
    and eta enforces the power budget on this draw.  Raises DegenerateDrawError
    when a norm vanishes.
    """
    n, k = config.n, config.k
    s_norm, g1_norm, z1_norm = draw.norms
    if min(s_norm, g1_norm, z1_norm) <= 0:
        raise DegenerateDrawError("degenerate draw in the equivalent model")
    shat = np.zeros(n, dtype=complex)
    shat[:k] = (s_norm / g1_norm) * np.asarray(shaping(draw.d)) * draw.g1
    shat_norm = float(np.linalg.norm(shat))
    alpha = shat_norm / z1_norm
    if shat_norm <= 0 or not np.isfinite(alpha):
        raise DegenerateDrawError("degenerate draw in the equivalent model")
    qz = np.asarray(quantize(quant, alpha * draw.z1))
    qz_norm = float(np.linalg.norm(qz))
    if qz_norm <= 0:
        raise DegenerateDrawError("degenerate quantized draw")
    return alpha, float(np.sqrt(config.power_limit * n) / qz_norm), qz, shat


@dataclass(frozen=True)
class Evaluation:
    """One raw draw evaluated under one (shaping, quantizer)."""

    alpha: float    # input scale
    eta: float      # power scale
    qnorm: float    # ||q(alpha z1)||
    c1: complex     # linear gain
    c2: float       # distortion rms
    t_s: complex    # signal gain
    t_g: float      # interference gain


def evaluate(draw: RawDraw, config: SystemConfig, shaping: ShapingFunction,
             quant: QuantizerSpec) -> Evaluation:
    """Equivalent-model gains of one draw; raises DegenerateDrawError on degeneracy."""
    alpha, eta, qz, shat = scale_pair(draw, config, shaping, quant)
    d, g1, z1, z2_tail, k = draw.d, draw.g1, draw.z1, draw.z2[1:], config.k
    s_norm, g1_norm, z1_norm = draw.norms
    c1 = complex(np.vdot(z1, qz) / (alpha * z1_norm**2))
    c2 = float(np.linalg.norm(reflect(z1, qz)[1:]) / np.linalg.norm(z2_tail))
    # w = C1 D shat + C2 D B(shat) z2[2:N], keeping the first K rows.
    mixed = complement_embed(shat, z2_tail)[:k]
    w = c1 * d * shat[:k] + c2 * d * mixed
    # R(s) g2 = (s^H g2 / ||s||, B(s)^H g2): the split of g2 along s and its complement.
    g2_rot = reflect(draw.s, draw.g2)
    denom = float(np.linalg.norm(g2_rot[1:]))
    if denom <= 0:
        raise DegenerateDrawError("degenerate rotated interference draw")
    t_g = float(np.linalg.norm(reflect(g1, w)[1:]) / denom)
    t_s = complex(np.vdot(g1, w) / (g1_norm * s_norm)
                  - t_g * g2_rot[0] / s_norm)
    return Evaluation(alpha=alpha, eta=eta, qnorm=float(np.linalg.norm(qz)),
                      c1=c1, c2=c2, t_s=t_s, t_g=t_g)


def _trials(config: SystemConfig, rng: RngStream, trials: int, users: int):
    """Per trial: one raw draw, then the noise of the first ``users`` users.

    A degenerate draw is not redrawn: ``evaluate`` raises DegenerateDrawError.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for _ in range(trials):
        draw = sample_raw_draw(config, rng)
        yield draw, sample_complex_gaussian(users, config.sigma2_noise, rng)


def simulate_equivalent(config: SystemConfig, shaping: ShapingFunction,
                        quant: QuantizerSpec, rng: RngStream,
                        trials: int) -> EquivalentBatch:
    """Sample the statistically equivalent model (full received vectors)."""
    k = config.k
    out = dict(signal_gain=np.empty(trials, dtype=complex),
               interference_gain=np.empty(trials),
               linear_gain=np.empty(trials, dtype=complex),
               distortion_rms=np.empty(trials),
               input_scale=np.empty(trials),
               power_scale=np.empty(trials),
               transmit_power=np.empty(trials),
               y_hat=np.empty((trials, k), dtype=complex),
               s=np.empty((trials, k), dtype=complex))
    for t, (draw, noise) in enumerate(_trials(config, rng, trials, users=k)):
        ev = evaluate(draw, config, shaping, quant)
        out["signal_gain"][t] = ev.t_s
        out["interference_gain"][t] = ev.t_g
        out["linear_gain"][t] = ev.c1
        out["distortion_rms"][t] = ev.c2
        out["input_scale"][t] = ev.alpha
        out["power_scale"][t] = ev.eta
        out["transmit_power"][t] = ev.eta ** 2 * ev.qnorm ** 2 / config.n
        out["y_hat"][t] = ev.eta * (ev.t_s * draw.s + ev.t_g * draw.g2) + noise
        out["s"][t] = draw.s
    return EquivalentBatch(**out)


def sample_scalar_outputs(model: ScalarModel, config: SystemConfig, rng: RngStream,
                          trials: int) -> tuple[np.ndarray, np.ndarray]:
    """i.i.d. draws (y_bar, s) from the scalar asymptotic channel."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    s = sample_constellation(config.points, trials, rng)
    g = sample_complex_gaussian(trials, 1.0, rng)
    noise = sample_complex_gaussian(trials, config.sigma2_noise, rng)
    y = model.power_scale * (model.signal_gain * s + model.interference_gain * g) + noise
    return y, s


# ---------------------------------------------------------------------------
# Coupled functional models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoupledSamples:
    """Per-user samples of the finite and limiting models on shared draws.

    ``y_mid`` evaluates the scalar model at the *finite-draw* scale pair
    (power scale and input scale of that draw); it isolates the parameter
    error from the gain-concentration error in optimizer diagnostics.
    ``g2_user`` is the shared unit Gaussian interference factor of the user.
    """

    s: np.ndarray
    y_hat: np.ndarray
    y_bar: np.ndarray
    y_mid: np.ndarray
    signal_gain: np.ndarray
    interference_gain: np.ndarray
    g2_user: np.ndarray
    input_scale: np.ndarray
    power_scale: np.ndarray


@dataclass(frozen=True)
class CoupledModel:
    """Finite equivalent model and its scalar limit on identical draws."""

    config: SystemConfig
    shaping: ShapingFunction
    quant: QuantizerSpec
    scalar: ScalarModel = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scalar",
                           asymptotic_model(self.config, self.shaping, self.quant))

    def sample(self, rng: RngStream, trials: int) -> CoupledSamples:
        """Samples of user 0; every user of a draw has the same law."""
        return sample_coupled([self], rng, trials)[0]


def sample_coupled(models: Sequence[CoupledModel], rng: RngStream,
                   trials: int) -> list[CoupledSamples]:
    """Samples of user 0 under every model, all on the same draws.

    Each trial draws one RawDraw and its noise, as one model's ``sample`` does,
    and evaluates every model on them: common random numbers, one spectrum.
    """
    config = models[0].config
    if any(m.config != config for m in models):
        raise ValueError("coupled models must share one system config")
    outs = [{name: np.empty(trials, dtype=complex)
             for name in ("s", "y_hat", "y_bar", "y_mid", "signal_gain", "g2_user")}
            | {name: np.empty(trials)
               for name in ("interference_gain", "input_scale", "power_scale")}
            for _ in models]
    for t, (draw, noise) in enumerate(_trials(config, rng, trials, users=1)):
        s_k, g2_k, n_k = draw.s[0], draw.g2[0], noise[0]
        for m, out in zip(models, outs):
            ev = evaluate(draw, config, m.shaping, m.quant)
            model = m.scalar
            ts_mid, tg_mid, _, _ = scalar_gains_at(model.moments, model.sigma2_sym,
                                                   gaussian_moments(m.quant, ev.alpha))
            out["s"][t] = s_k
            out["y_hat"][t] = ev.eta * (ev.t_s * s_k + ev.t_g * g2_k) + n_k
            out["y_bar"][t] = model.power_scale * (model.signal_gain * s_k
                                                   + model.interference_gain * g2_k) + n_k
            out["y_mid"][t] = ev.eta * (ts_mid * s_k + tg_mid * g2_k) + n_k
            out["signal_gain"][t] = ev.t_s
            out["g2_user"][t] = g2_k
            out["interference_gain"][t] = ev.t_g
            out["input_scale"][t] = ev.alpha
            out["power_scale"][t] = ev.eta
    return [CoupledSamples(**out) for out in outs]


def functional_models(config: SystemConfig, shaping: ShapingFunction,
                      quant: QuantizerSpec) -> CoupledModel:
    """Paired finite/asymptotic samplers fed by identical underlying draws."""
    return CoupledModel(config=config, shaping=shaping, quant=quant)
