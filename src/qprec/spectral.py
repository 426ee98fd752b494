"""Marchenko-Pastur law, channel sampling, and linear spectral statistics.

The limiting squared-singular-value density for an i.i.d. CN(0, 1/N) channel
with aspect ratio gamma = N/K > 1 is

    p(x) = sqrt((x - a)_+ (b - x)_+) / (2 pi c x),   c = 1/gamma,
    a = (1 - sqrt(c))^2,  b = (1 + sqrt(c))^2,

and singular values live on [sqrt(a), sqrt(b)].  Moments are computed after
the substitution x = m + r sin(theta), which absorbs the square-root edge
singularities, leaving a smooth integrand for adaptive quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, TYPE_CHECKING

import numpy as np
from scipy import integrate
from scipy.linalg import eigvalsh_tridiagonal

from .stochastic import RngStream, sample_complex_gaussian

if TYPE_CHECKING:  # pragma: no cover
    from .models import SystemConfig

_QUAD_RTOL = 1e-10


@dataclass(frozen=True)
class MpLaw:
    """Marchenko-Pastur law for aspect ratio gamma > 1."""

    gamma: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.gamma) or self.gamma <= 1.0:
            raise ValueError("gamma must be finite and > 1")

    @property
    def c(self) -> float:
        return 1.0 / self.gamma

    @property
    def lambda_edges(self) -> tuple[float, float]:
        rc = np.sqrt(self.c)
        return ((1.0 - rc) ** 2, (1.0 + rc) ** 2)

    @property
    def sv_edges(self) -> tuple[float, float]:
        a, b = self.lambda_edges
        return (np.sqrt(a), np.sqrt(b))


def theta_interval(gamma: float) -> tuple[float, float]:
    """Compact interval that almost surely contains all singular values.

    Padded bulk support [1/2 - 1/(2 sqrt(gamma)), 3/2 + 1/(2 sqrt(gamma))];
    shaping functions are certified (bounded, Lipschitz) on this interval.
    """
    if gamma <= 1.0:
        raise ValueError("gamma must be > 1")
    half = 0.5 / np.sqrt(gamma)
    return (0.5 - half, 1.5 + half)


def mp_moment(fn: Callable[[np.ndarray], np.ndarray], law: MpLaw) -> float:
    """E[fn(d)] for d distributed with the limiting singular-value law.

    fn must be bounded and piecewise continuous on [sqrt(a), sqrt(b)].
    """
    a, b = law.lambda_edges
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)

    def integrand(theta: float) -> float:
        lam = mid + rad * np.sin(theta)
        d = np.sqrt(lam)
        val = fn(np.asarray(d))
        val = float(np.asarray(val))
        if not np.isfinite(val):
            raise ValueError("moment integrand is nonfinite on the support")
        # sqrt((lam-a)(b-lam)) = rad*cos(theta); dlam = rad*cos(theta) dtheta
        return val * (rad * np.cos(theta)) ** 2 / (2.0 * np.pi * law.c * lam)

    val, _ = integrate.quad(integrand, -np.pi / 2, np.pi / 2,
                            epsabs=0.0, epsrel=_QUAD_RTOL, limit=200)
    return val


def mp_cdf_sv(x: float, law: MpLaw) -> float:
    """CDF of the limiting singular-value law at x, in closed form.

    With t = x^2 and R = sqrt((t - a)(b - t)), the squared-singular-value
    CDF is 1/2 + [R + (1 + c) atan2(t - 1 - c, R)
    - (1 - c) atan2((1 + c) t - (1 - c)^2, (1 - c) R)] / (2 pi c).
    """
    lo, hi = law.sv_edges
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    a, b = law.lambda_edges
    c, t = law.c, x * x
    root = np.sqrt(max(0.0, (t - a) * (b - t)))
    val = 0.5 + (root + (1.0 + c) * np.arctan2(t - 1.0 - c, root)
                 - (1.0 - c) * np.arctan2((1.0 + c) * t - (1.0 - c) ** 2,
                                          (1.0 - c) * root)) / (2.0 * np.pi * c)
    return float(min(1.0, max(0.0, val)))


# ---------------------------------------------------------------------------
# Channel sampling
# ---------------------------------------------------------------------------


def sample_channel(config: "SystemConfig", rng: RngStream) -> np.ndarray:
    """Singular values, descending, of one i.i.d. CN(0, 1/N) K x N channel draw."""
    h = sample_complex_gaussian(config.k * config.n, 1.0 / config.n, rng)
    return np.linalg.svd(h.reshape(config.k, config.n), compute_uv=False)


@lru_cache(maxsize=64)
def _chi_dofs(n: int, k: int) -> np.ndarray:
    """Degrees of freedom of the bidiagonal's diagonal, then its subdiagonal (read-only)."""
    dofs = np.concatenate((2.0 * (n - np.arange(k)), 2.0 * (k - 1 - np.arange(k - 1))))
    dofs.setflags(write=False)
    return dofs


def sample_singular_values(n: int, k: int, rng: RngStream) -> np.ndarray:
    """Singular values of a K x N i.i.d. CN(0, 1/N) matrix, descending.

    Uses the bidiagonal chi model for the complex Wishart eigenvalues
    (exact in distribution at every finite K, not an asymptotic shortcut),
    which costs O(K^2) instead of a dense O(K^2 N) decomposition.  Agreement
    with dense SVD sampling is covered by a distributional test.
    """
    if k > n or k < 1:
        raise ValueError("requires N >= K >= 1")
    # chi entries scaled by 1/sqrt(2): B B^T then matches the complex Wishart
    # with unit per-entry second moment (Gamma(N,1) marginal at K = 1).
    # One chisquare call reads the diagonal's K and then the subdiagonal's K - 1.
    chi = np.sqrt(rng.generator.chisquare(_chi_dofs(n, k)) / 2.0)
    diag, sub = chi[:k], chi[k:]
    main = diag**2
    if k > 1:
        main[1:] += sub**2
        off = diag[:-1] * sub
        lam = eigvalsh_tridiagonal(main, off, lapack_driver="sterf")
    else:
        lam = main
    # sterf returns the eigenvalues in ascending order; reversing them sorts them descending.
    return np.sqrt(np.maximum(lam, 0.0)[::-1] / n)


def lss_statistic(d: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]) -> float:
    """Linear spectral statistic (1/K) sum fn(d_i)."""
    d = np.asarray(d, dtype=float)
    if d.size == 0:
        raise ValueError("empty singular value vector")
    vals = np.asarray(fn(d), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("statistic function is nonfinite on the sample")
    return float(np.mean(vals))


def lss_variance(n: int, k: int, fn: Callable[[np.ndarray], np.ndarray], rngs) -> float:
    """Sample variance of the statistic over one K x N spectrum draw per stream."""
    return float(np.var([lss_statistic(sample_singular_values(n, k, rng), fn) for rng in rngs],
                        ddof=1))


def lss_variance_bound(m1: float, k: int) -> float:
    """Variance bound 2 M1^2 / K for a statistic bounded by M1."""
    if m1 <= 0 or k < 1:
        raise ValueError("m1 > 0 and k >= 1 required")
    return 2.0 * m1 * m1 / k


def lss_tail_bound(m1: float, k: int, eps: float) -> float:
    """Chebyshev tail 2 M1^2 / (K eps^2) for the same statistic."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return lss_variance_bound(m1, k) / (eps * eps)
