"""The three downlink models: finite original, Gaussian equivalent, scalar limit.

Original model
    y = eta * H q(P s) + n, with P = V f(D)^T U^H for the channel SVD
    H = U D V^H and a shaping function f applied to the singular values.
    P is built without the SVD: with H H^H = U diag(d^2) U^H, P s equals
    H^H U diag(f(d)/d) U^H s.

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
from dataclasses import astuple, dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .quantizer import GaussianMoments, QuantizerSpec, gaussian_moments, quantize
from .spectral import MpLaw, mp_moment, sample_singular_values
from .stochastic import (
    DegenerateDrawError,
    _complex_entries,
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
        if not self.n > self.k >= 3:
            raise ValueError("need N > K >= 3")
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
    """Sample the original model; eta enforces the power budget per draw.

    Each trial reads its channel H, then the indices of s, then the noise, in
    one generator call each, into the arrays of its chunk of
    ``_chunk_draws(config, K)`` trials.  A chunk is evaluated as one stack.
    The precoder comes from one stacked eigh of the Gram matrices H H^H, not
    from an SVD: P s = H^H U diag(f(d)/d) U^H s.  P s differs from the SVD
    form only in rounding, and the outputs see it only through the
    quantizer's decisions, so y, s, eta and the transmit power keep the
    SVD form's bits unless a decision flips.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, k = config.n, config.k
    generator, points = rng.generator, config.points
    m, noisy = len(points), config.sigma2_noise > 0
    y = np.empty((trials, k), dtype=complex)
    s = np.empty((trials, k), dtype=complex)
    etas = np.empty(trials)
    power = np.empty(trials)
    size = _chunk_draws(config, k)
    for start in range(0, trials, size):
        rows = slice(start, min(start + size, trials))
        count = rows.stop - start
        h, idx = np.empty((count, 2, k * n)), np.empty((count, k), dtype=int)
        e = np.zeros((count, 2, k))  # unread at noise variance 0: its entries are then +0
        for i in range(count):
            generator.standard_normal(out=h[i])
            idx[i] = generator.integers(0, m, size=k)
            if noisy:
                generator.standard_normal(out=e[i])
        h = _complex_entries(h, 1.0 / n).reshape(count, k, n)
        s[rows] = points[idx]
        h_adj = h.conj().swapaxes(1, 2)
        lam, u = np.linalg.eigh(h @ h_adj)
        d = np.sqrt(np.maximum(lam, 0.0))
        coef = (shaping(d) / d)[..., None] * (u.conj().swapaxes(1, 2) @ s[rows, :, None])
        qx = quantize(quant, h_adj @ (u @ coef))
        qnorm = complex_norm(qx[..., 0])
        if (qnorm <= 0).any():
            raise DegenerateDrawError("quantized transmit vector is identically zero")
        eta = np.sqrt(config.power_limit * n) / qnorm
        y[rows] = eta[:, None] * (h @ qx)[..., 0] + _complex_entries(e, config.sigma2_noise)
        etas[rows] = eta
        power[rows] = eta * eta * (qnorm * qnorm) / n
    return OriginalBatch(y=y, s=s, eta=etas, transmit_power=power)


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
    """The randomness of a block of equivalent-model trials, one row per trial.

    One trial is a block of one row.  ``norms`` = (||s||, ||g1||, ||z1||),
    each an array of the rows' norms; building a block where one of them
    vanishes raises DegenerateDrawError.
    """

    d: np.ndarray    # rows x K singular values
    g1: np.ndarray   # rows x K, direction of U^H s
    g2: np.ndarray   # rows x K, interference direction
    z1: np.ndarray   # rows x N, quantizer input direction
    z2: np.ndarray   # rows x N, distortion direction
    s: np.ndarray    # rows x K data symbols
    norms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        norms = tuple(complex_norm(v) for v in (self.s, self.g1, self.z1))
        if min(x.min() for x in norms) <= 0:
            raise DegenerateDrawError("degenerate draw in the equivalent model")
        object.__setattr__(self, "norms", norms)


# Complex entries in one (draws x members x N) array of a chunk: 256 KB, small
# enough that the chunks add no visible peak memory.
_CHUNK_ENTRIES = 2**14


def _chunk_draws(config: SystemConfig, members: int) -> int:
    """Draws per chunk: as many as keep draws * members * N <= _CHUNK_ENTRIES, at least one."""
    return max(1, _CHUNK_ENTRIES // (members * config.n))


def _read_draws(config: SystemConfig, rng: RngStream, count: int,
                users: int) -> tuple[RawDraw, np.ndarray]:
    """``count`` trials' raw draws as one RawDraw block, and their (count x users) noise.

    Trial i reads d, then (g1, g2) in one call, (z1, z2) in one call and the
    indices of s, then the noise of its first ``users`` users (nothing for 0
    users or noise variance 0), straight into the chunk's arrays.  A trial
    whose g1 or z1 is all zero raises before the next trial is read; the
    block's per-row norms are the exact check.
    """
    n, k = config.n, config.k
    generator, points = rng.generator, config.points
    m, noisy = len(points), users > 0 and config.sigma2_noise > 0
    d, idx = np.empty((count, k)), np.empty((count, k), dtype=int)
    g, z = np.empty((count, 2, 2, k)), np.empty((count, 2, 2, n))
    e = np.zeros((count, 2, users))  # unread at noise variance 0: its entries are then +0
    for i in range(count):
        d[i] = sample_singular_values(n, k, rng)
        generator.standard_normal(out=g[i])
        generator.standard_normal(out=z[i])
        idx[i] = generator.integers(0, m, size=k)
        if not (np.count_nonzero(g[i, 0]) and np.count_nonzero(z[i, 0])):
            raise DegenerateDrawError("degenerate draw in the equivalent model")
        if noisy:
            generator.standard_normal(out=e[i])
    block = RawDraw(d=d, g1=_complex_entries(g[:, 0], 1.0), g2=_complex_entries(g[:, 1], 1.0),
                    z1=_complex_entries(z[:, 0], 1.0), z2=_complex_entries(z[:, 1], 1.0),
                    s=points[idx])
    return block, _complex_entries(e, config.sigma2_noise)


def draw_chunks(config: SystemConfig, rng: RngStream, trials: int, members: int,
                users: int = 0):
    """The trials' raw draws, in chunks of ``_chunk_draws(config, members)``.

    Yields (the chunk's slice of the trials, its draws as one RawDraw block,
    their (rows x users) noise).  Each draw is followed by the noise of its
    first ``users`` users (none for 0), so the stream is read in the order of
    one trial at a time; a degenerate draw raises before the next is drawn.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    size = _chunk_draws(config, members)
    for start in range(0, trials, size):
        rows = slice(start, min(start + size, trials))
        yield (rows, *_read_draws(config, rng, rows.stop - start, users))


def scale_pair(block: RawDraw, config: SystemConfig,
               shapings: Sequence[ShapingFunction], quant: QuantizerSpec
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """First stage of a block evaluation: (alpha, eta, ||q||, q(alpha z1), shat).

    Entry [i, j] of each array belongs to row i of ``block`` under ``shapings[j]``:
    alpha, eta and ||q|| are (draws x members), q and shat (draws x members x N).
    shat is the shaped precoder input embedded in C^N (zero past column K), so
    alpha = ||shat|| / ||z1||, and eta enforces the power budget on each draw.
    One quantize call covers the block.  Raises DegenerateDrawError when a norm
    vanishes for any draw and member.
    """
    n, k = config.n, config.k
    s_norm, g1_norm, z1_norm = (x[:, None] for x in block.norms)
    shat = np.zeros((len(block.d), len(shapings), n), dtype=complex)
    for j, f in enumerate(shapings):
        np.multiply((s_norm / g1_norm) * np.asarray(f(block.d)), block.g1, out=shat[:, j, :k])
    shat_norm = complex_norm(shat)
    alpha = shat_norm / z1_norm
    if not (shat_norm > 0).all() or not np.isfinite(alpha).all():
        raise DegenerateDrawError("degenerate draw in the equivalent model")
    qz = quantize(quant, alpha[..., None] * block.z1[:, None])
    qz_norm = complex_norm(qz)
    if not (qz_norm > 0).all():
        raise DegenerateDrawError("degenerate quantized draw")
    return alpha, np.sqrt(config.power_limit * n) / qz_norm, qz_norm, qz, shat


@dataclass(frozen=True)
class Evaluation:
    """Raw draws evaluated under a block of shapings; entry [i, j] is draw i, shaping j."""

    alpha: np.ndarray    # input scale
    eta: np.ndarray      # power scale
    qnorm: np.ndarray    # ||q(alpha z1)||
    c1: np.ndarray       # linear gain
    c2: np.ndarray       # distortion rms
    t_s: np.ndarray      # signal gain
    t_g: np.ndarray      # interference gain


def evaluate(block: RawDraw, config: SystemConfig,
             shapings: Sequence[ShapingFunction], quant: QuantizerSpec) -> Evaluation:
    """Equivalent-model gains of each row of a block under every shaping.

    The shapings share ``quant``.  The vector work runs once over the
    (draws x members) block: one quantize call, one reflector set-up per draw
    each for z1, g1 and s, and one np.vecdot call per dot product.  Each entry
    follows the arithmetic of one draw and one shaping alone, so it equals that
    evaluation bit for bit.  Raises DegenerateDrawError on degeneracy.
    """
    alpha, eta, qnorm, qz, shat = scale_pair(block, config, shapings, quant)
    # A (draws x 1 x length) stack broadcasts a draw's vector over the members.
    d, g1, z1, z2_tail = block.d[:, None], block.g1[:, None], block.z1[:, None], block.z2[:, 1:]
    s_norm, g1_norm, z1_norm = (x[:, None] for x in block.norms)
    c1 = np.vecdot(z1, qz) / (alpha * (z1_norm * z1_norm))
    c2 = complex_norm(complement_project(z1, qz)) / complex_norm(z2_tail)[:, None]
    del qz  # freed before the next (draws x members x N) arrays, to bound peak memory
    # w = C1 D shat + C2 D B(shat) z2[2:N], keeping the first K entries.
    mixed = complement_embed(shat, z2_tail[:, None])[..., :config.k]
    w = c1[..., None] * d * shat[..., :config.k] + c2[..., None] * d * mixed
    # R(s) g2 = (s^H g2 / ||s||, B(s)^H g2): the split of g2 along s and its complement.
    g2_rot = reflect(block.s, block.g2)
    denom = complex_norm(g2_rot[:, 1:])
    if not (denom > 0).all():
        raise DegenerateDrawError("degenerate rotated interference draw")
    t_g = complex_norm(complement_project(g1, w)) / denom[:, None]
    t_s = np.vecdot(g1, w) / (g1_norm * s_norm) - t_g * g2_rot[:, :1] / s_norm
    return Evaluation(alpha=alpha, eta=eta, qnorm=qnorm, c1=c1, c2=c2, t_s=t_s, t_g=t_g)


def _collect(config: SystemConfig, quant: QuantizerSpec, shapings: Sequence[ShapingFunction],
             rng: RngStream, trials: int, users: int
             ) -> tuple[Evaluation, np.ndarray, np.ndarray, np.ndarray]:
    """Every trial evaluated under every shaping, one chunk of draws at a time.

    Returns the Evaluation with (members x trials) fields, row i belonging to
    ``shapings[i]``, and the s, g2 and noise of each trial's first ``users``
    users as (trials x users) arrays.
    """
    fields, (s, g2, noise) = {}, (np.empty((trials, users), dtype=complex) for _ in range(3))
    for rows, block, block_noise in draw_chunks(config, rng, trials, len(shapings), users):
        for name, x in vars(evaluate(block, config, shapings, quant)).items():
            if name not in fields:
                fields[name] = np.empty((len(shapings), trials), dtype=x.dtype)
            fields[name][:, rows] = x.T
        s[rows], g2[rows], noise[rows] = block.s[:, :users], block.g2[:, :users], block_noise
    return Evaluation(**fields), s, g2, noise


def simulate_equivalent(config: SystemConfig, shaping: ShapingFunction,
                        quant: QuantizerSpec, rng: RngStream,
                        trials: int) -> EquivalentBatch:
    """Sample the statistically equivalent model (full received vectors)."""
    ev, s, g2, noise = _collect(config, quant, [shaping], rng, trials, users=config.k)
    alpha, eta, qnorm, c1, c2, t_s, t_g = (x[0] for x in vars(ev).values())
    return EquivalentBatch(
        signal_gain=t_s, interference_gain=t_g, linear_gain=c1, distortion_rms=c2,
        input_scale=alpha, power_scale=eta,
        transmit_power=eta * eta * (qnorm * qnorm) / config.n,
        y_hat=eta[:, None] * (t_s[:, None] * s + t_g[:, None] * g2) + noise, s=s)


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

    Each trial draws one row of a RawDraw block and its noise, as
    ``CoupledModel.sample`` does; a chunk of trials is evaluated under every
    shaping as one block: common random numbers, one spectrum per trial, one
    quantize call per chunk.  Each shaping's limit is its ``asymptotic_model``.
    ``y_mid``'s moments come from one call over all trials' scales.
    """
    if not shapings:
        raise ValueError("need at least one shaping")
    scalars = [asymptotic_model(config, f, quant) for f in shapings]
    ev, *user = _collect(config, quant, shapings, rng, trials, users=1)
    s, g2, noise = (x[:, 0] for x in user)
    alpha, eta, t_s, t_g = ev.alpha, ev.eta, ev.t_s, ev.t_g
    y_hat = eta * (t_s * s + t_g * g2) + noise
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
