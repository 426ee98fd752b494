"""Piecewise-constant complex quantizers and their Gaussian statistics.

Three hardware-motivated families are modeled, all acting component-wise on
complex inputs and mapping onto a finite output set:

* ``one_bit``     -- sign per I/Q rail with a fixed output amplitude,
* ``uniform_iq``  -- mid-rise uniform quantizer per I/Q rail with clipping,
* ``phase_ce``    -- constant-envelope phase quantizer (nearest of M phases).

For each we track the discontinuity geometry (counts of lines and rays in
the plane), which drives the Lipschitz-envelope bounds, and compute the
Gaussian input/output moments that parameterize the asymptotic model: the
effective linear (Bussgang-type) gain and the residual distortion power.

Boundary tie rule: a point exactly on a decision boundary maps to the cell
whose center is lexicographically smaller in (Re, Im).  The boundary set has
measure zero; the rule only pins determinism for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
from scipy import integrate
from scipy.special import ndtr

_SQRT_PI = np.sqrt(np.pi)


@dataclass(frozen=True)
class QuantizerSpec:
    """A component-wise complex quantizer with recorded discontinuity geometry."""

    kind: str                 # "one_bit" | "uniform_iq" | "phase_ce"
    amplitude: float = 0.0    # one_bit: output level per rail
    levels: int = 0           # uniform_iq: output levels per rail
    step: float = 0.0         # uniform_iq: cell width
    clip: float = 0.0         # uniform_iq: saturation level (levels*step/2)
    phases: int = 0           # phase_ce: number of output phases
    radius: float = 0.0       # phase_ce: output modulus

    # -- geometry ----------------------------------------------------------

    @property
    def m0(self) -> float:
        """sup |q(z)| over the plane."""
        if self.kind == "one_bit":
            return self.amplitude * np.sqrt(2.0)
        if self.kind == "uniform_iq":
            return (self.clip - self.step / 2.0) * np.sqrt(2.0)
        return self.radius

    def line_count(self, component: str) -> int:
        _check_component(component)
        if self.kind == "one_bit":
            return 1
        if self.kind == "uniform_iq":
            return self.levels - 1
        return 0

    def ray_count(self, component: str) -> int:
        _check_component(component)
        if self.kind == "phase_ce":
            return self.phases
        return 0

    def band_constant(self, component: str) -> float:
        """Gaussian mass-per-width constant of the discontinuity set."""
        return (2.0 / _SQRT_PI) * self.line_count(component) \
            + (1.0 + 1.0 / _SQRT_PI) * self.ray_count(component)

    @property
    def squared_band_constant(self) -> float:
        """Same constant for |q|^2, whose jumps lie on both components' sets."""
        return (2.0 / _SQRT_PI) * (self.line_count("real") + self.line_count("imag")) \
            + (1.0 + 1.0 / _SQRT_PI) * (self.ray_count("real") + self.ray_count("imag"))

    # -- scalar rail structure (separable kinds) ----------------------------

    def rail_thresholds(self) -> np.ndarray:
        if self.kind == "one_bit":
            return np.array([0.0])
        if self.kind == "uniform_iq":
            half = self.levels // 2
            return self.step * np.arange(-(half - 1), half)
        raise ValueError("phase quantizers have no per-rail structure")

    def rail_values(self) -> np.ndarray:
        if self.kind == "one_bit":
            return np.array([-self.amplitude, self.amplitude])
        if self.kind == "uniform_iq":
            half = self.levels // 2
            return self.step * (np.arange(-half, half) + 0.5)
        raise ValueError("phase quantizers have no per-rail structure")


def _check_component(component: str) -> None:
    if component not in ("real", "imag"):
        raise ValueError("component must be 'real' or 'imag'")


def one_bit(amplitude: float = 1.0 / np.sqrt(2.0)) -> QuantizerSpec:
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    return QuantizerSpec(kind="one_bit", amplitude=float(amplitude))


def uniform_iq(levels: int, step: float, clip: float) -> QuantizerSpec:
    if levels < 2 or levels % 2:
        raise ValueError("levels must be an even integer >= 2")
    if step <= 0 or clip <= 0:
        raise ValueError("step and clip must be positive")
    if abs(clip - levels * step / 2.0) > 1e-9 * max(1.0, clip):
        raise ValueError("clip must equal levels*step/2 (saturated mid-rise grid)")
    return QuantizerSpec(kind="uniform_iq", levels=int(levels), step=float(step), clip=float(clip))


def phase_ce(phases: int, radius: float = 1.0) -> QuantizerSpec:
    if phases < 2:
        raise ValueError("need at least 2 phases")
    if radius <= 0:
        raise ValueError("radius must be positive")
    return QuantizerSpec(kind="phase_ce", phases=int(phases), radius=float(radius))


def identity_like(span: float = 32.0, step: float = 1e-3) -> QuantizerSpec:
    """Fine uniform quantizer approximating the identity on |Re|,|Im| < span."""
    levels = 2 * int(round(span / step / 2.0))
    return uniform_iq(levels=levels, step=step, clip=levels * step / 2.0)


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------


def _rail_quantize(spec: QuantizerSpec, x: np.ndarray) -> np.ndarray:
    if spec.kind == "one_bit":
        # x = 0 sits on the boundary; the negative cell center is smaller.
        return np.where(x > 0, spec.amplitude, -spec.amplitude)
    # Mid-rise: cell k = (step*k, step*(k+1)], center step*(k+1/2); using
    # ceil-1 sends threshold points to the lower cell (the tie rule).
    k = np.ceil(x / spec.step) - 1.0
    centers = spec.step * (k + 0.5)
    top = spec.clip - spec.step / 2.0
    return np.clip(centers, -top, top)


def _phase_sector(spec: QuantizerSpec, z: np.ndarray) -> np.ndarray:
    width = 2.0 * np.pi / spec.phases
    t = np.angle(z) / width
    m = np.floor(t + 0.5)
    on_boundary = (t + 0.5) == m
    if np.any(on_boundary):
        # Boundary angles: compare the two adjacent centers lexicographically.
        mb = m[on_boundary]
        lo, hi = mb - 1.0, mb
        c_lo = np.exp(1j * width * lo)
        c_hi = np.exp(1j * width * hi)
        lo_wins = (c_lo.real < c_hi.real) | (
            np.isclose(c_lo.real, c_hi.real) & (c_lo.imag < c_hi.imag))
        m[on_boundary] = np.where(lo_wins, lo, hi)
    return m


def quantize(spec: QuantizerSpec, z: np.ndarray | complex) -> np.ndarray | complex:
    """Apply the quantizer component-wise; scalar in, scalar out."""
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.all(np.isfinite(arr)):
        raise ValueError("quantizer input must be finite")
    if spec.kind == "phase_ce":
        m = _phase_sector(spec, arr)
        out = spec.radius * np.exp(1j * (2.0 * np.pi / spec.phases) * m)
    else:
        out = _rail_quantize(spec, arr.real) + 1j * _rail_quantize(spec, arr.imag)
    return out if np.ndim(z) else complex(out[0])


# ---------------------------------------------------------------------------
# Gaussian moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianMoments:
    """Input/output moments of the quantizer under CN(0, alpha^2) input.

    ``ezq`` is E[Z^dag q(alpha Z)] for Z ~ CN(0,1); ``eq2`` is E|q(alpha Z)|^2.
    ``linear_gain`` (ezq/alpha) is the effective Bussgang-type gain and
    ``distortion_rms`` the root residual power after removing it.
    """

    alpha: float
    ezq: complex
    eq2: float

    @property
    def linear_gain(self) -> complex:
        return self.ezq / self.alpha

    @property
    def distortion_rms(self) -> float:
        resid = self.eq2 - abs(self.ezq) ** 2
        if resid < -1e-12:
            raise ValueError("second moment below squared correlation")
        return float(np.sqrt(max(resid, 0.0)))


def _separable_rail_moments(spec: QuantizerSpec, alpha: float) -> tuple[float, float]:
    """(E[Y qr(Y)], E[qr(Y)^2]) for Y ~ N(0, alpha^2/2), in closed form."""
    s = alpha / np.sqrt(2.0)
    thr = spec.rail_thresholds()
    vals = spec.rail_values()
    edges = np.concatenate([[-np.inf], thr, [np.inf]])
    z = edges / s
    pdf = np.where(np.isfinite(z), np.exp(-0.5 * z * z) / (s * np.sqrt(2.0 * np.pi)), 0.0)
    cdf = ndtr(np.where(np.isfinite(z), z, np.sign(z) * 40.0))
    # int_{I_j} y phi(y) dy = s^2 (phi(lo) - phi(hi)) on each cell I_j.
    first = float(np.sum(vals * (s * s) * (pdf[:-1] - pdf[1:])))
    second = float(np.sum(vals * vals * (cdf[1:] - cdf[:-1])))
    return first, second


def gaussian_moments(spec: QuantizerSpec, alpha: float) -> GaussianMoments:
    """Moments of q under CN(0, alpha^2) input.

    Separable kinds use the analytic error-function pieces; phase quantizers
    have a closed form that does not depend on alpha.
    """
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValueError("alpha must be positive")
    if spec.kind in ("one_bit", "uniform_iq"):
        eyq, eq2_rail = _separable_rail_moments(spec, alpha)
        # E[Z^dag q(aZ)] = 2 E[X qr(aX)] = (2/a) E[Y qr(Y)], Y = aX.
        ezq = complex(2.0 * eyq / alpha)
        return GaussianMoments(alpha=alpha, ezq=ezq, eq2=2.0 * eq2_rail)

    # |q| = radius and the phase error is uniform on a sector, independent of
    # |Z|: E[Z^dag q(aZ)] = radius * E|Z| * E cos(error), E|Z| = sqrt(pi)/2.
    m = spec.phases
    ezq = spec.radius * (_SQRT_PI / 2.0) * (m / np.pi) * np.sin(np.pi / m)
    return GaussianMoments(alpha=alpha, ezq=complex(ezq), eq2=spec.radius**2)


# ---------------------------------------------------------------------------
# Lipschitz envelopes
#
# For a piecewise-constant component F the infimal convolution
#   l_tau(x) = inf_y { F(y) + |x - y| / tau }
# is attained on cell closures, so l_tau(x) = min_c { v_c + dist(x, c)/tau }
# in closed form from the recorded cell geometry (u_tau symmetrically).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """Evaluable lower/upper Lipschitz envelopes of one quantizer component."""

    spec: QuantizerSpec
    component: str
    tau: float

    def _cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        spec = self.spec
        thr = spec.rail_thresholds()
        vals = spec.rail_values()
        lo = np.concatenate([[-np.inf], thr])
        hi = np.concatenate([thr, [np.inf]])
        return lo, hi, vals

    def _rail_coordinate(self, x: np.ndarray) -> np.ndarray:
        return x.real if self.component == "real" else x.imag

    def _distances_separable(self, x: np.ndarray) -> np.ndarray:
        lo, hi, _ = self._cells()
        u = self._rail_coordinate(x)[..., None]
        return np.maximum(np.maximum(lo - u, u - hi), 0.0)

    def _sector_values(self) -> np.ndarray:
        spec = self.spec
        centers = 2.0 * np.pi * np.arange(spec.phases) / spec.phases
        comp = np.cos(centers) if self.component == "real" else np.sin(centers)
        return spec.radius * comp

    def _distances_phase(self, x: np.ndarray) -> np.ndarray:
        spec = self.spec
        width = 2.0 * np.pi / spec.phases
        centers = width * np.arange(spec.phases)
        ang = np.angle(x)[..., None]
        delta = np.abs((ang - centers + np.pi) % (2.0 * np.pi) - np.pi)
        gap = np.maximum(delta - width / 2.0, 0.0)
        r = np.abs(x)[..., None]
        return np.where(gap >= np.pi / 2.0, r, r * np.sin(gap))

    def _eval(self, x: np.ndarray | complex, which: str) -> np.ndarray | float:
        arr = np.atleast_1d(np.asarray(x, dtype=complex))
        if self.spec.kind == "phase_ce":
            vals = self._sector_values()
            dist = self._distances_phase(arr)
        else:
            _, _, vals = self._cells()
            dist = self._distances_separable(arr)
        if which == "lower":
            out = np.min(vals + dist / self.tau, axis=-1)
        else:
            out = np.max(vals - dist / self.tau, axis=-1)
        return out if np.ndim(x) else float(out[0])

    def lower(self, x: np.ndarray | complex) -> np.ndarray | float:
        return self._eval(x, "lower")

    def upper(self, x: np.ndarray | complex) -> np.ndarray | float:
        return self._eval(x, "upper")

    def component_value(self, x: np.ndarray | complex) -> np.ndarray | float:
        q = quantize(self.spec, x)
        return np.real(q) if self.component == "real" else np.imag(q)


def envelope(spec: QuantizerSpec, component: str, tau: float) -> Envelope:
    _check_component(component)
    if not np.isfinite(tau) or tau <= 0:
        raise ValueError("tau must be positive")
    return Envelope(spec=spec, component=component, tau=tau)


def _gauss_expect_1d(fn, sd: float, cutoff: float = 8.0, breaks=None) -> float:
    """E fn(U) for U ~ N(0, sd^2), adaptive on the truncated range.

    The envelope integrands live on bands of width tau around the
    discontinuity set, which a fixed-node rule cannot resolve for small tau;
    ``breaks`` lists band locations so refinement starts inside them.
    """
    norm = sd * np.sqrt(2.0 * np.pi)
    lo, hi = -cutoff * sd, cutoff * sd

    def weighted(u: float) -> float:
        return float(fn(np.asarray(u))) * np.exp(-u * u / (2.0 * sd * sd)) / norm

    pts = None
    if breaks is not None:
        pts = sorted({float(b) for b in breaks if lo < b < hi})
        if len(pts) > 100 or not pts:
            pts = None
    val, _ = integrate.quad(weighted, lo, hi, points=pts,
                            epsabs=1e-12, epsrel=1e-9, limit=500)
    return val


def _gauss_expect_complex(fn, cutoff: float = 6.0, n_radial: int = 400,
                          n_angle: int = 4096) -> float:
    """E fn(Z) for Z ~ CN(0,1) on a dense polar tensor grid.

    fn must be vectorized over complex arrays.  The angular trapezoid rule
    is second order through the (known, kink-only) sector boundaries, which
    is ample against the first-order bounds these values get compared to.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_radial)
    r = 0.5 * cutoff * (nodes + 1.0)
    wr = 0.5 * cutoff * weights * 2.0 * r * np.exp(-r * r)
    phi = np.linspace(0.0, 2.0 * np.pi, n_angle, endpoint=False)
    grid = r[:, None] * np.exp(1j * phi[None, :])
    vals = np.asarray(fn(grid), dtype=float)
    return float(np.sum(wr * vals.mean(axis=1)))


def _band_breaks(spec: QuantizerSpec, tau: float, alpha_bar: float) -> np.ndarray:
    """Kink locations of the envelope integrands along one rail."""
    thr = spec.rail_thresholds() / alpha_bar
    widths = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) * (
        2.0 * spec.m0 * tau / alpha_bar)
    return (thr[:, None] + widths[None, :]).ravel()


def envelope_gap_expectation(spec: QuantizerSpec, component: str, tau: float,
                             alpha_bar: float) -> tuple[float, float]:
    """(E|u_tau - l_tau| at CN(0, alpha_bar^2) input, proven bound C * tau).

    Requires 0 < tau <= alpha_bar, the regime the linear-in-tau bound covers.
    """
    env = envelope(spec, component, tau)
    if alpha_bar <= 0:
        raise ValueError("alpha_bar must be positive")
    if tau > alpha_bar:
        raise ValueError("tau must not exceed alpha_bar")
    if spec.kind == "phase_ce":
        value = _gauss_expect_complex(
            lambda z: np.abs(env.upper(alpha_bar * z) - env.lower(alpha_bar * z)))
    else:
        def gap(u: np.ndarray) -> np.ndarray:
            x = u + 0j if component == "real" else 1j * u
            return np.abs(env.upper(alpha_bar * x) - env.lower(alpha_bar * x))
        value = _gauss_expect_1d(gap, sd=np.sqrt(0.5),
                                 breaks=_band_breaks(spec, tau, alpha_bar))
    bound = (2.0 * spec.m0 / alpha_bar) * spec.band_constant(component) * tau
    return value, bound


def envelope_product_gap(spec: QuantizerSpec, component: str, tau: float,
                         alpha_bar: float) -> tuple[float, float]:
    """Gap |E L_tau - E G| for the signed-coordinate product, with its bound.

    G(z) = coord(z) * F(alpha_bar z) where coord is Re for the 'real'
    component and Im for 'imag'; L_tau replaces F by the lower envelope on
    the positive part and the upper envelope on the negative part.  The
    proven bound is sqrt(2) m0 sqrt(band_constant / alpha_bar) * sqrt(tau).
    """
    env = envelope(spec, component, tau)
    if alpha_bar <= 0 or tau <= 0 or tau > alpha_bar:
        raise ValueError("requires 0 < tau <= alpha_bar")

    def diff(z: np.ndarray) -> np.ndarray:
        coord = np.real(z) if component == "real" else np.imag(z)
        f = env.component_value(alpha_bar * z)
        low = env.lower(alpha_bar * z)
        up = env.upper(alpha_bar * z)
        l_term = np.maximum(coord, 0.0) * low + np.minimum(coord, 0.0) * up
        return l_term - coord * f

    if spec.kind == "phase_ce":
        gap = abs(_gauss_expect_complex(diff))
    else:
        def diff1d(u: np.ndarray) -> np.ndarray:
            z = u + 0j if component == "real" else 1j * u
            return diff(z)
        gap = abs(_gauss_expect_1d(diff1d, sd=np.sqrt(0.5),
                                   breaks=_band_breaks(spec, tau, alpha_bar)))
    bound = np.sqrt(2.0) * spec.m0 * np.sqrt(spec.band_constant(component) / alpha_bar) \
        * np.sqrt(tau)
    return gap, bound
