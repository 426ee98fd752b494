"""Seedable complex-Gaussian / constellation sampling and Householder utilities.

Everything downstream consumes randomness through :class:`RngStream`, which
maps a ``(seed, stream_id)`` pair to an independent counter-based generator.
One stream is owned by exactly one Monte-Carlo trial (or one (seed, K) cell),
so every trial can be replayed deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DegenerateDrawError(RuntimeError):
    """A sampled quantity that must be nonzero came out (numerically) zero."""


@dataclass
class RngStream:
    """Deterministic random stream keyed by ``(seed, stream_id)``.

    Identical keys reproduce identical draws; distinct keys give
    statistically independent streams (Philox keyed through a seed sequence,
    so streams never overlap).  The seed is taken modulo 2**64 and
    ``0 <= stream_id < 2**64``.  Seeds below 2**32 enter as the words
    (seed, stream_id), at most 3; larger seeds take stream_id as spawn key,
    at least 5 words, so zero padding never makes two keys meet.
    """

    seed: int
    stream_id: int = 0
    generator: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        seed, stream_id = int(self.seed) & 0xFFFFFFFFFFFFFFFF, int(self.stream_id)
        if not 0 <= stream_id < 2**64:
            raise ValueError("stream_id must lie in [0, 2**64)")
        if seed < 2**32:
            ss = np.random.SeedSequence((seed, stream_id))
        else:
            ss = np.random.SeedSequence(seed, spawn_key=(stream_id,))
        self.generator = np.random.Generator(np.random.Philox(ss))


def sample_complex_gaussian(n: int, variance: float, rng: RngStream) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussian entries.

    Each entry has independent real/imaginary parts of variance
    ``variance / 2``, so the per-entry second moment is ``variance``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not math.isfinite(variance) or variance < 0:
        raise ValueError("variance must be finite and nonnegative")
    if variance == 0.0:
        return np.zeros(n, dtype=complex)
    scale = np.sqrt(variance / 2.0)
    g = rng.generator
    return scale * (g.standard_normal(n) + 1j * g.standard_normal(n))


def sample_constellation(points: np.ndarray, n: int, rng: RngStream) -> np.ndarray:
    """i.i.d. uniform draws from a finite constellation (0 excluded)."""
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0:
        raise ValueError("constellation must be nonempty")
    if (pts == 0).any():
        raise ValueError("constellation must not contain 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = rng.generator.integers(0, pts.size, size=n)
    return pts[idx]


# ---------------------------------------------------------------------------
# Householder machinery.
#
# reflect(v, .) applies a unitary R with R v = ||v|| e1 exactly.  The stable
# branch reflects v onto -phase(v1) * ||v|| e1 (no cancellation when v is
# nearly aligned with e1) and a diagonal phase factor fixes the sign, so the
# contract R v = ||v|| e1 holds to machine precision.  complement_* expose the
# trailing rows/columns, which form an orthonormal basis of {v}^perp.
# ---------------------------------------------------------------------------


def complex_norm(x: np.ndarray) -> float | list[float]:
    """np.linalg.norm of a complex vector, or the list of those of a matrix's rows.

    The same dot products as np.linalg.norm (np.vecdot makes them row by
    row), so the same bits, without its dispatch.
    """
    re, im = x.real, x.imag
    if x.ndim == 1:
        return math.sqrt(re.dot(re) + im.dot(im))
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im)).tolist()


def _householder_parts(v: np.ndarray) -> tuple[np.ndarray, float, complex]:
    """(w, ||w||^2, sigma) of R(v); for a 2-D v, one row of w and one list entry
    of the other two per row of v."""
    v = np.asarray(v, dtype=complex)
    norm = complex_norm(v)
    if not all(0.0 < x < math.inf for x in (norm if v.ndim > 1 else [norm])):
        raise ValueError("reflector requires a nonzero finite vector")
    w = v.copy()
    # Each phase v1/|v1| stays on numpy's scalar path: the array abs rounds differently.
    if v.ndim == 1:
        v1 = v[0]
        sigma = v1 / abs(v1) if v1 != 0 else complex(1.0)
        w[0] = v1 + sigma * norm
        return w, float(np.vdot(w, w).real), sigma
    sigma, first = [], []
    for v1, n in zip(v[:, 0], norm):
        sigma.append(v1 / abs(v1) if v1 != 0 else complex(1.0))
        first.append(v1 + sigma[-1] * n)
    w[:, 0] = first
    return w, np.vecdot(w, w).real.tolist(), sigma


def reflect(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply R(v) to x without forming the matrix; R(v) v = ||v|| e1."""
    w, wnorm2, sigma = _householder_parts(v)
    x = np.asarray(x, dtype=complex)
    out = x - w * (2.0 * np.vdot(w, x) / wnorm2)
    out[0] = -np.conj(sigma) * out[0]
    return out


def reflect_adjoint(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row i is R(v_i)^H x, for every row v_i of a (rows x N) block; no matrix is formed."""
    w, wnorm2, sigma = _householder_parts(v)
    x = np.asarray(x, dtype=complex)
    rows = np.empty_like(w)
    rows[:, 1:] = x[1:]
    rows[:, 0] = [-phase * x[0] for phase in sigma]
    coef = [2.0 * dot / n for dot, n in zip(np.vecdot(w, rows), wnorm2)]
    w *= np.array(coef)[:, None]  # in place: one (rows x N) temporary fewer
    rows -= w
    return rows


def householder_reflector(v: np.ndarray) -> np.ndarray:
    """Dense unitary R with R v = ||v|| e1 (first standard basis vector)."""
    v = np.asarray(v, dtype=complex)
    n = v.size
    w, wnorm2, sigma = _householder_parts(v)
    r = np.eye(n, dtype=complex) - 2.0 * np.outer(w, np.conj(w)) / wnorm2
    r[0, :] *= -np.conj(sigma)
    return r


def complement_project(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """B(v)^H x, where B(v) spans the orthogonal complement of v.

    For a 2-D x, row i of the result is B(v)^H x_i; the rows share one set-up
    of the reflector.
    """
    w, wnorm2, _ = _householder_parts(v)
    x = np.asarray(x, dtype=complex)
    coef = 2.0 * np.vecdot(w, x) / wnorm2
    out = w[1:] * coef[..., None]
    return np.subtract(x[..., 1:], out, out=out)


def complement_embed(v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """B(v_i) y for every row v_i of a (rows x N) block; y has length N - 1."""
    y = np.asarray(y, dtype=complex)
    padded = np.concatenate([np.zeros(1, dtype=complex), y])
    return reflect_adjoint(v, padded)


def complement_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {v}^perp as a dense n x (n-1) matrix.

    Fixed to the trailing columns of R(v)^H so tests have one concrete basis;
    any orthonormal complement yields the same model distributions.
    """
    v = np.asarray(v, dtype=complex)
    if v.size < 2:
        raise ValueError("complement requires dimension >= 2")
    return householder_reflector(v).conj().T[:, 1:]
