"""Piecewise-constant complex quantizers and their Gaussian statistics.

Two hardware-motivated families are modeled, both acting component-wise on
complex inputs and mapping onto a finite output set:

* ``uniform_iq``  -- mid-rise uniform quantizer per I/Q rail with clipping;
  the one-bit (sign) quantizer is its two-level member, built by ``one_bit``,
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
from functools import cached_property

import numpy as np
from scipy import integrate
from scipy.special import ndtr

_SQRT_PI = np.sqrt(np.pi)


@dataclass(frozen=True)
class QuantizerSpec:
    """A component-wise complex quantizer with recorded discontinuity geometry."""

    kind: str                 # "uniform_iq" | "phase_ce"
    levels: int = 0           # uniform_iq: output levels per rail
    step: float = 0.0         # uniform_iq: cell width
    phases: int = 0           # phase_ce: number of output phases
    radius: float = 0.0       # phase_ce: output modulus

    # -- geometry ----------------------------------------------------------

    @property
    def clip(self) -> float:
        """uniform_iq: saturation level of the mid-rise grid."""
        return self.levels * self.step / 2.0

    @property
    def m0(self) -> float:
        """sup |q(z)| over the plane."""
        if self.kind == "uniform_iq":
            return (self.clip - self.step / 2.0) * np.sqrt(2.0)
        return self.radius

    # Each component's discontinuity set has these counts; the two components agree.
    @property
    def line_count(self) -> int:
        if self.kind == "uniform_iq":
            return self.levels - 1
        return 0

    @property
    def ray_count(self) -> int:
        if self.kind == "phase_ce":
            return self.phases
        return 0

    @property
    def band_constant(self) -> float:
        """Gaussian mass-per-width constant of the discontinuity set."""
        return (2.0 / _SQRT_PI) * self.line_count \
            + (1.0 + 1.0 / _SQRT_PI) * self.ray_count

    @property
    def squared_band_constant(self) -> float:
        """Same constant for |q|^2, whose jumps lie on both components' sets."""
        return (2.0 / _SQRT_PI) * (2 * self.line_count) \
            + (1.0 + 1.0 / _SQRT_PI) * (2 * self.ray_count)

    # -- scalar rail structure (separable kinds) ----------------------------

    def rail_thresholds(self) -> np.ndarray:
        return self._rails[0]

    def rail_values(self) -> np.ndarray:
        return self._rails[1]

    @cached_property
    def _phase_points(self) -> np.ndarray:
        """phase_ce: the output at each sector index m in [-phases, phases], read-only."""
        m = np.arange(-self.phases, self.phases + 1, dtype=float)
        points = self.radius * np.exp(1j * (2.0 * np.pi / self.phases) * m)
        points.setflags(write=False)
        return points

    @cached_property
    def _rails(self) -> tuple[np.ndarray, np.ndarray]:
        """(thresholds, cell values) of one rail, built once per spec and read-only."""
        if self.kind != "uniform_iq":
            raise ValueError("phase quantizers have no per-rail structure")
        half = self.levels // 2
        rails = (self.step * np.arange(-(half - 1), half),
                 self.step * (np.arange(-half, half) + 0.5))
        for rail in rails:
            rail.setflags(write=False)
        return rails


def _check_component(component: str) -> None:
    if component not in ("real", "imag"):
        raise ValueError("component must be 'real' or 'imag'")


def one_bit(amplitude: float = 1.0 / np.sqrt(2.0)) -> QuantizerSpec:
    """Sign per I/Q rail with outputs +-amplitude: the two-level uniform quantizer."""
    if not (np.isfinite(amplitude) and amplitude > 0):
        raise ValueError("amplitude must be finite and positive")
    return uniform_iq(levels=2, step=2.0 * amplitude)


def uniform_iq(levels: int, step: float) -> QuantizerSpec:
    if levels < 2 or levels % 2:
        raise ValueError("levels must be an even integer >= 2")
    if not (np.isfinite(step) and step > 0):
        raise ValueError("step must be finite and positive")
    return QuantizerSpec(kind="uniform_iq", levels=int(levels), step=float(step))


def phase_ce(phases: int, radius: float = 1.0) -> QuantizerSpec:
    if phases < 2:
        raise ValueError("need at least 2 phases")
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError("radius must be finite and positive")
    return QuantizerSpec(kind="phase_ce", phases=int(phases), radius=float(radius))


def identity_like() -> QuantizerSpec:
    """Fine uniform quantizer (step 1e-3) approximating the identity on |Re|,|Im| < 32."""
    return uniform_iq(levels=32_000, step=1e-3)


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------


def _phase_sector(spec: QuantizerSpec, z: np.ndarray) -> np.ndarray:
    width = 2.0 * np.pi / spec.phases
    shifted = np.arctan2(z.imag, z.real) / width + 0.5  # np.angle(z) / width + 0.5
    m = np.floor(shifted)
    on_boundary = shifted == m
    if on_boundary.any():
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
    """Apply the quantizer component-wise (any array shape); scalar in, scalar out."""
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.isfinite(arr).all():
        raise ValueError("quantizer input must be finite")
    if spec.kind == "phase_ce":
        out = spec._phase_points[(_phase_sector(spec, arr) + spec.phases).astype(np.intp)]
    else:
        # Mid-rise: cell i is (t[i-1], t[i]] over the thresholds t, so a threshold
        # point goes to the lower cell (the tie rule), whatever the rounding of x/step.
        thr, vals = spec._rails
        out = np.empty(arr.shape, dtype=complex)
        for rail, part in ((out.real, arr.real), (out.imag, arr.imag)):
            vals.take(np.searchsorted(thr, part, side="left"), out=rail, mode="clip")
    return out if np.ndim(z) else complex(out[0])


# ---------------------------------------------------------------------------
# Gaussian moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianMoments:
    """Input/output moments of the quantizer under CN(0, alpha^2) input.

    ``ezq`` is E[Z^dag q(alpha Z)] for Z ~ CN(0,1); ``eq2`` is E|q(alpha Z)|^2.
    ``linear_gain`` (ezq/alpha) is the effective Bussgang-type gain and
    ``distortion_rms`` the root residual power after removing it.  Built from
    an array of alpha, every field is an array of its shape and ``ezq`` is
    real (it is real for every kind here).
    """

    alpha: float | np.ndarray
    ezq: complex | np.ndarray
    eq2: float | np.ndarray

    @property
    def linear_gain(self) -> complex | np.ndarray:
        return self.ezq / self.alpha

    @property
    def gain_power(self) -> float | np.ndarray:
        """|linear_gain|^2 as the product |c1| * |c1|: the same bits for a float and an array."""
        gain = abs(self.linear_gain)
        return gain * gain

    @property
    def distortion_rms(self) -> float | np.ndarray:
        corr = abs(self.ezq)
        resid = self.eq2 - corr * corr
        if np.any(resid < -1e-12):
            raise ValueError("second moment below squared correlation")
        rms = np.sqrt(np.maximum(resid, 0.0))
        return rms if np.ndim(rms) else float(rms)


def _separable_rail_moments(spec: QuantizerSpec,
                            alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E[Y qr(Y)], E[qr(Y)^2]) for Y ~ N(0, alpha^2/2), in closed form, per entry of alpha."""
    thr, vals = spec._rails
    edges = np.concatenate([[-np.inf], thr, [np.inf]])
    first, second = np.empty(alpha.shape), np.empty(alpha.shape)
    # Blocks of entries keep the (entries x cells) temporaries small.
    flat_alpha, flat_first, flat_second = alpha.reshape(-1), first.reshape(-1), second.reshape(-1)
    rows = max(1, 2**15 // edges.size)
    for lo in range(0, flat_alpha.size, rows):
        s = flat_alpha[lo:lo + rows, None] / np.sqrt(2.0)
        z = edges / s
        pdf = np.where(np.isfinite(z), np.exp(-0.5 * z * z) / (s * np.sqrt(2.0 * np.pi)), 0.0)
        cdf = ndtr(np.where(np.isfinite(z), z, np.sign(z) * 40.0))
        # int_{I_j} y phi(y) dy = s^2 (phi(lo) - phi(hi)) on each cell I_j.
        flat_first[lo:lo + rows] = np.sum(vals * (s * s) * (pdf[:, :-1] - pdf[:, 1:]), axis=-1)
        flat_second[lo:lo + rows] = np.sum(vals * vals * (cdf[:, 1:] - cdf[:, :-1]), axis=-1)
    return first, second


def gaussian_moments(spec: QuantizerSpec, alpha: float | np.ndarray) -> GaussianMoments:
    """Moments of q under CN(0, alpha^2) input, for one alpha or an array of them.

    Separable kinds use the analytic error-function pieces; phase quantizers
    have a closed form that does not depend on alpha.  One alpha goes through
    the same array arithmetic as many, so each entry of an array call equals
    the scalar call at that alpha bit for bit.
    """
    a = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(a)) or np.any(a <= 0):
        raise ValueError("alpha must be positive")
    if spec.kind == "uniform_iq":
        eyq, eq2_rail = _separable_rail_moments(spec, a)
        # E[Z^dag q(aZ)] = 2 E[X qr(aX)] = (2/a) E[Y qr(Y)], Y = aX.
        ezq, eq2 = 2.0 * eyq / a, 2.0 * eq2_rail
    else:
        # |q| = radius and the phase error is uniform on a sector, independent of
        # |Z|: E[Z^dag q(aZ)] = radius * E|Z| * E cos(error), E|Z| = sqrt(pi)/2.
        m = spec.phases
        ezq = np.full(a.shape, spec.radius * (_SQRT_PI / 2.0) * (m / np.pi) * np.sin(np.pi / m))
        eq2 = np.full(a.shape, spec.radius**2)
    if a.ndim:
        return GaussianMoments(alpha=a, ezq=ezq, eq2=eq2)
    return GaussianMoments(alpha=alpha, ezq=complex(ezq), eq2=float(eq2))


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


def _gauss_expect_1d(fn, breaks) -> float:
    """E fn(U) for U ~ N(0, 1/2) (one rail of CN(0, 1)), adaptive on |U| < 8 sd.

    The envelope integrands live on bands of width tau around the
    discontinuity set, which a fixed-node rule cannot resolve for small tau;
    ``breaks`` lists band locations so refinement starts inside them.
    """
    sd = np.sqrt(0.5)
    norm = sd * np.sqrt(2.0 * np.pi)
    lo, hi = -8.0 * sd, 8.0 * sd

    def weighted(u: float) -> float:
        return float(fn(np.asarray(u))) * np.exp(-u * u / (2.0 * sd * sd)) / norm

    pts = sorted({float(b) for b in breaks if lo < b < hi})
    if len(pts) > 100 or not pts:
        pts = None
    val, _ = integrate.quad(weighted, lo, hi, points=pts,
                            epsabs=1e-12, epsrel=1e-9, limit=500)
    return val


def _gauss_expect_complex(fn) -> float:
    """E fn(Z) for Z ~ CN(0,1) on a dense polar tensor grid (400 x 4096, |Z| < 6).

    fn must be vectorized over complex arrays.  The angular trapezoid rule
    is second order through the (known, kink-only) sector boundaries, which
    is ample against the first-order bounds these values get compared to.
    The angular nodes sit half a step off the axes, so none falls on a
    phase_ce sector boundary (where the tie rule would pick a side) and the
    grid is symmetric under conjugation.
    """
    cutoff, n_angle = 6.0, 4096
    nodes, weights = np.polynomial.legendre.leggauss(400)
    r = 0.5 * cutoff * (nodes + 1.0)
    wr = 0.5 * cutoff * weights * 2.0 * r * np.exp(-r * r)
    phi = (np.arange(n_angle) + 0.5) * (2.0 * np.pi / n_angle)
    grid = r[:, None] * np.exp(1j * phi[None, :])
    vals = np.asarray(fn(grid), dtype=float)
    return float(np.sum(wr * vals.mean(axis=1)))


def _band_breaks(spec: QuantizerSpec, tau: float, alpha_bar: float) -> np.ndarray:
    """Kink locations of the envelope integrands along one rail."""
    thr = spec.rail_thresholds() / alpha_bar
    widths = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) * (
        2.0 * spec.m0 * tau / alpha_bar)
    return (thr[:, None] + widths[None, :]).ravel()


def _check_scales(tau: float, alpha_bar: float) -> None:
    if not (np.isfinite(tau) and np.isfinite(alpha_bar) and 0 < tau <= alpha_bar):
        raise ValueError("requires finite 0 < tau <= alpha_bar")


def envelope_gap_expectation(spec: QuantizerSpec, component: str, tau: float,
                             alpha_bar: float) -> tuple[float, float]:
    """(E|u_tau - l_tau| at CN(0, alpha_bar^2) input, proven bound C * tau).

    Requires 0 < tau <= alpha_bar, the regime the linear-in-tau bound covers.
    """
    _check_scales(tau, alpha_bar)
    env = envelope(spec, component, tau)
    if spec.kind == "phase_ce":
        value = _gauss_expect_complex(
            lambda z: np.abs(env.upper(alpha_bar * z) - env.lower(alpha_bar * z)))
    else:
        def gap(u: np.ndarray) -> np.ndarray:
            x = u + 0j if component == "real" else 1j * u
            return np.abs(env.upper(alpha_bar * x) - env.lower(alpha_bar * x))
        value = _gauss_expect_1d(gap, _band_breaks(spec, tau, alpha_bar))
    bound = (2.0 * spec.m0 / alpha_bar) * spec.band_constant * tau
    return value, bound


def envelope_product_gap(spec: QuantizerSpec, component: str, tau: float,
                         alpha_bar: float) -> tuple[float, float]:
    """Gap |E L_tau - E G| for the signed-coordinate product, with its bound.

    G(z) = coord(z) * F(alpha_bar z) where coord is Re for the 'real'
    component and Im for 'imag'; L_tau replaces F by the lower envelope on
    the positive part and the upper envelope on the negative part.  The
    proven bound is sqrt(2) m0 sqrt(band_constant / alpha_bar) * sqrt(tau).
    """
    _check_scales(tau, alpha_bar)
    env = envelope(spec, component, tau)

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
        gap = abs(_gauss_expect_1d(diff1d, _band_breaks(spec, tau, alpha_bar)))
    bound = np.sqrt(2.0) * spec.m0 * np.sqrt(spec.band_constant / alpha_bar) \
        * np.sqrt(tau)
    return gap, bound
