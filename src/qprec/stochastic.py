"""Seedable complex-Gaussian / constellation sampling and Householder utilities.

Everything downstream consumes randomness through :class:`RngStream`, which
maps a ``(seed, stream_id)`` pair to an independent counter-based generator.
One stream is owned by exactly one Monte-Carlo trial (or one (seed, K) cell),
so every trial can be replayed deterministically.
"""

from __future__ import annotations

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
    if not np.isfinite(variance) or variance < 0:
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
    if np.any(pts == 0):
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


def _householder_parts(v: np.ndarray) -> tuple[np.ndarray, float, complex]:
    v = np.asarray(v, dtype=complex)
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("reflector requires a nonzero finite vector")
    v1 = v[0]
    sigma = v1 / abs(v1) if v1 != 0 else complex(1.0)
    w = v.copy()
    w[0] = v1 + sigma * norm
    wnorm2 = float(np.real(np.vdot(w, w)))
    return w, wnorm2, sigma


def reflect(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply R(v) to x without forming the matrix; R(v) v = ||v|| e1."""
    w, wnorm2, sigma = _householder_parts(v)
    x = np.asarray(x, dtype=complex)
    out = x - w * (2.0 * np.vdot(w, x) / wnorm2)
    out[0] = -np.conj(sigma) * out[0]
    return out


def reflect_adjoint(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply R(v)^H to x without forming the matrix."""
    w, wnorm2, sigma = _householder_parts(v)
    x = np.asarray(x, dtype=complex).copy()
    x[0] = -sigma * x[0]
    return x - w * (2.0 * np.vdot(w, x) / wnorm2)


def householder_reflector(v: np.ndarray) -> np.ndarray:
    """Dense unitary R with R v = ||v|| e1 (first standard basis vector)."""
    v = np.asarray(v, dtype=complex)
    n = v.size
    w, wnorm2, sigma = _householder_parts(v)
    r = np.eye(n, dtype=complex) - 2.0 * np.outer(w, np.conj(w)) / wnorm2
    r[0, :] *= -np.conj(sigma)
    return r


def complement_project(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """B(v)^H x, where B(v) spans the orthogonal complement of v."""
    return reflect(v, x)[1:]


def complement_embed(v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """B(v) y for coefficients y of length dim(v) - 1."""
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
