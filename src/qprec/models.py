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

import math
from collections.abc import Sequence
from dataclasses import astuple, dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .quantizer import GaussianMoments, QuantizerSpec, gaussian_moments, quantize
from .spectral import MpLaw, mp_moment, sample_channel, sample_singular_values
from .stochastic import (
    DegenerateDrawError,
    RngStream,
    complement_embed,
    complement_project,
    complex_norm,
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
        if not (np.isfinite(self.power_limit) and self.power_limit > 0):
            raise ValueError("power limit must be finite and positive")
        pts = np.asarray(self.constellation, dtype=complex)
        if pts.size == 0 or np.any(pts == 0):
            raise ValueError("constellation must be nonempty and exclude 0")

    @classmethod
    def with_gamma(cls, k: int, gamma: float, **kwargs) -> "SystemConfig":
        if not (np.isfinite(gamma) and gamma > 0):
            raise ValueError("gamma must be finite and positive")
        n = int(round(gamma * k))
        return cls(n=n, k=k, **kwargs)

    @property
    def gamma(self) -> float:
        return self.n / self.k

    @property
    def sigma2_sym(self) -> float:
        return float(np.mean(np.abs(np.asarray(self.constellation)) ** 2))

    @cached_property
    def points(self) -> np.ndarray:
        """The constellation as a read-only array, built once per config."""
        points = np.asarray(self.constellation, dtype=complex)
        points.setflags(write=False)
        return points

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
        if self.family == "rzf" and not (np.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rzf requires a finite rho > 0")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be finite and positive")

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
    """(signal gain, interference gain, linear gain, distortion rms) at the scale of gm.

    gm may hold arrays of scales; the fields of ``moments`` then broadcast
    against them and the gains come back as arrays.
    """
    c1 = gm.linear_gain
    c2 = gm.distortion_rms
    ts = np.real(c1 * moments.mean_df)
    tg = np.sqrt(sigma2_sym * gm.gain_power * moments.var_df + c2 * c2)
    if np.ndim(tg):
        return ts, tg, c1, c2
    return float(ts), float(tg), c1, c2


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
        return tuple(complex_norm(v) for v in (self.s, self.g1, self.z1))


def sample_raw_draw(config: SystemConfig, rng: RngStream) -> RawDraw:
    n, k = config.n, config.k
    return RawDraw(d=sample_singular_values(n, k, rng),
                   g1=sample_complex_gaussian(k, 1.0, rng),
                   g2=sample_complex_gaussian(k, 1.0, rng),
                   z1=sample_complex_gaussian(n, 1.0, rng),
                   z2=sample_complex_gaussian(n, 1.0, rng),
                   s=sample_constellation(config.points, k, rng))


def scale_pair(draw: RawDraw, config: SystemConfig, shapings: Sequence[ShapingFunction],
               quant: QuantizerSpec) -> tuple[list[float], list[float], list[float],
                                              np.ndarray, np.ndarray]:
    """First stage of a block evaluation: (alpha, eta, ||q||, q(alpha z1), shat).

    Entry or row i belongs to ``shapings[i]``.  shat is the shaped precoder
    input embedded in C^N (zero past column K), so alpha = ||shat|| / ||z1||,
    and eta enforces the power budget on this draw.  One quantize call covers
    the block.  Raises DegenerateDrawError when a norm vanishes for any member.
    """
    n, k = config.n, config.k
    s_norm, g1_norm, z1_norm = draw.norms
    if min(s_norm, g1_norm, z1_norm) <= 0:
        raise DegenerateDrawError("degenerate draw in the equivalent model")
    shat = np.zeros((len(shapings), n), dtype=complex)
    for row, f in zip(shat, shapings):
        np.multiply((s_norm / g1_norm) * np.asarray(f(draw.d)), draw.g1, out=row[:k])
    shat_norm = complex_norm(shat)
    alpha = [x / z1_norm for x in shat_norm]
    if min(shat_norm) <= 0 or not all(map(math.isfinite, alpha)):
        raise DegenerateDrawError("degenerate draw in the equivalent model")
    qz = quantize(quant, np.multiply.outer(alpha, draw.z1))
    qz_norm = complex_norm(qz)
    if min(qz_norm) <= 0:
        raise DegenerateDrawError("degenerate quantized draw")
    budget = np.sqrt(config.power_limit * n)
    return alpha, [float(budget / x) for x in qz_norm], qz_norm, qz, shat


@dataclass(frozen=True)
class Evaluation:
    """One raw draw evaluated under a block of shapings; one entry per shaping."""

    alpha: list[float]    # input scale
    eta: list[float]      # power scale
    qnorm: list[float]    # ||q(alpha z1)||
    c1: list[complex]     # linear gain
    c2: list[float]       # distortion rms
    t_s: list[complex]    # signal gain
    t_g: list[float]      # interference gain


def evaluate(draw: RawDraw, config: SystemConfig, shapings: Sequence[ShapingFunction],
             quant: QuantizerSpec) -> Evaluation:
    """Equivalent-model gains of one draw under every shaping of a block.

    The shapings share ``quant``.  The vector work runs once over the block:
    one quantize call, one reflector set-up each for z1, g1 and s, and one
    np.vecdot call per dot product.  Each member's scalars follow the
    arithmetic of a block of one, so every entry equals its shaping's
    evaluation alone, bit for bit.  Raises DegenerateDrawError on degeneracy.
    """
    alpha, eta, qnorm, qz, shat = scale_pair(draw, config, shapings, quant)
    d, g1, z1, z2_tail, k = draw.d, draw.g1, draw.z1, draw.z2[1:], config.k
    s_norm, g1_norm, z1_norm = draw.norms
    z1_sq = z1_norm**2
    c1 = [complex(dot / (a * z1_sq)) for dot, a in zip(np.vecdot(z1, qz), alpha)]
    z2_norm = complex_norm(z2_tail)
    c2 = [x / z2_norm for x in complex_norm(complement_project(z1, qz))]
    del qz  # freed before the next (members x N) arrays, to bound peak memory
    # w = C1 D shat + C2 D B(shat) z2[2:N], keeping the first K rows.
    mixed = complement_embed(shat, z2_tail)[:, :k]
    w = np.multiply.outer(c1, d) * shat[:, :k] + np.multiply.outer(c2, d) * mixed
    # R(s) g2 = (s^H g2 / ||s||, B(s)^H g2): the split of g2 along s and its complement.
    g2_rot = reflect(draw.s, draw.g2)
    denom = complex_norm(g2_rot[1:])
    if denom <= 0:
        raise DegenerateDrawError("degenerate rotated interference draw")
    t_g = [x / denom for x in complex_norm(complement_project(g1, w))]
    t_s = [complex(dot / (g1_norm * s_norm) - tg * g2_rot[0] / s_norm)
           for dot, tg in zip(np.vecdot(g1, w), t_g)]
    return Evaluation(alpha=alpha, eta=eta, qnorm=qnorm, c1=c1, c2=c2, t_s=t_s, t_g=t_g)


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
        ev = evaluate(draw, config, [shaping], quant)
        (alpha, eta, qnorm, c1, c2, t_s, t_g), = zip(*vars(ev).values())
        out["signal_gain"][t] = t_s
        out["interference_gain"][t] = t_g
        out["linear_gain"][t] = c1
        out["distortion_rms"][t] = c2
        out["input_scale"][t] = alpha
        out["power_scale"][t] = eta
        out["transmit_power"][t] = eta ** 2 * qnorm ** 2 / config.n
        out["y_hat"][t] = eta * (t_s * draw.s + t_g * draw.g2) + noise
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
        return sample_coupled(self.config, self.quant, [self.shaping], rng, trials)[0]


def sample_coupled(config: SystemConfig, quant: QuantizerSpec,
                   shapings: Sequence[ShapingFunction], rng: RngStream,
                   trials: int) -> list[CoupledSamples]:
    """Samples of user 0 under every shaping, all on the same draws.

    Each trial draws one RawDraw and its noise, as ``CoupledModel.sample`` does,
    and evaluates every shaping on them as one block: common random numbers, one
    spectrum, one quantize call.  Each shaping's limit is its ``asymptotic_model``.
    ``y_mid``'s moments come from one call over all trials' scales.
    """
    if not shapings:
        raise ValueError("need at least one shaping")
    scalars = [asymptotic_model(config, f, quant) for f in shapings]
    # Row i of each (members x trials) array belongs to shapings[i].
    user = np.empty((3, trials), dtype=complex)  # s, g2 and noise of user 0
    alpha, eta, t_g = (np.empty((len(shapings), trials)) for _ in range(3))
    t_s, y_hat = (np.empty((len(shapings), trials), dtype=complex) for _ in range(2))
    for t, (draw, noise) in enumerate(_trials(config, rng, trials, users=1)):
        ev = evaluate(draw, config, shapings, quant)
        s_k, g2_k, n_k = draw.s[0], draw.g2[0], noise[0]
        user[:, t] = s_k, g2_k, n_k
        # Scalar by scalar: numpy's array product of complex arrays fuses
        # multiply-adds and rounds differently.
        y_hat[:, t] = [e * (ts * s_k + tg * g2_k) + n_k
                       for e, ts, tg in zip(ev.eta, ev.t_s, ev.t_g)]
        alpha[:, t], eta[:, t], t_s[:, t], t_g[:, t] = ev.alpha, ev.eta, ev.t_s, ev.t_g
    s, g2, noise = user
    # Each limit quantity as a (members x 1) column, broadcast over the trials.
    moments = ShapedMoments(*np.array([astuple(m.moments) for m in scalars]).T[..., None])
    ts_mid, tg_mid, _, _ = scalar_gains_at(moments, config.sigma2_sym,
                                           gaussian_moments(quant, alpha))
    y_mid = eta * (ts_mid * s + tg_mid * g2) + noise
    power, ts_bar, tg_bar = np.array([[m.power_scale, m.signal_gain, m.interference_gain]
                                      for m in scalars]).T[..., None]
    y_bar = power * (ts_bar * s + tg_bar * g2) + noise
    return [CoupledSamples(s=s, y_hat=y_hat[i], y_bar=y_bar[i], y_mid=y_mid[i],
                           signal_gain=t_s[i], g2_user=g2, interference_gain=t_g[i],
                           input_scale=alpha[i], power_scale=eta[i])
            for i in range(len(shapings))]


def functional_models(config: SystemConfig, shaping: ShapingFunction,
                      quant: QuantizerSpec) -> CoupledModel:
    """Paired finite/asymptotic samplers fed by identical underlying draws."""
    return CoupledModel(config=config, shaping=shaping, quant=quant)
