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
    """n i.i.d. circularly-symmetric complex Gaussian entries.

    Each entry has independent real/imaginary parts of variance
    ``variance / 2``, so the per-entry second moment is ``variance``.
    One generator call reads the n real parts and then the n imaginary
    parts.  Variance 0 gives zeros and reads nothing.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not math.isfinite(variance) or variance < 0:
        raise ValueError("variance must be finite and nonnegative")
    if variance == 0.0:
        return np.zeros(n, dtype=complex)
    return _complex_entries(rng.generator.standard_normal((2, n)), variance)


def _complex_entries(x: np.ndarray, variance: float) -> np.ndarray:
    """Complex entries of variance ``variance`` from a (..., 2, n) block of standard normals.

    Along the second-to-last axis, row 0 holds the real parts and row 1 the
    imaginary parts.  Each entry is computed on its own, so a block of many
    draws gives the bits of each draw converted alone.
    """
    return np.sqrt(variance / 2.0) * (x[..., 0, :] + 1j * x[..., 1, :])


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


def complex_norm(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each complex vector along x's last axis, without its dispatch.

    One np.vecdot call makes one dot product per vector, so a vector gets the
    same bits alone as in a stack.
    """
    re, im = x.real, x.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _householder_parts(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, ||w||^2, sigma) of R(v) for each vector along v's last axis.

    ||w||^2 and sigma have v's shape without its last axis, so they broadcast
    against the (..., N) operands of the reflectors.
    """
    v = np.asarray(v, dtype=complex)
    norm = complex_norm(v)
    if not ((0.0 < norm) & (norm < math.inf)).all():
        raise ValueError("reflector requires a nonzero finite vector")
    v1 = v[..., 0]
    sigma = np.divide(v1, np.abs(v1), out=np.ones_like(v1), where=v1 != 0)
    w = v.copy()
    w[..., 0] += sigma * norm
    return w, np.vecdot(w, w).real, sigma


def reflect(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply R(v) to x without forming the matrix; R(v) v = ||v|| e1.

    For (rows x N) v and x, row i of the result is R(v_i) x_i.
    """
    w, wnorm2, sigma = _householder_parts(v)
    x = np.asarray(x, dtype=complex)
    out = x - w * (2.0 * np.vecdot(w, x) / wnorm2)[..., None]
    out[..., 0] = -np.conj(sigma) * out[..., 0]
    return out


def complement_project(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """B(v)^H x, where B(v) spans the orthogonal complement of v.

    v and x are stacks of vectors along the last axis that broadcast against
    each other: a vector of v serves every row of x it meets, with one set-up
    of its reflector.
    """
    w, wnorm2, _ = _householder_parts(v)
    x = np.asarray(x, dtype=complex)
    coef = 2.0 * np.vecdot(w, x) / wnorm2
    out = w[..., 1:] * coef[..., None]
    return np.subtract(x[..., 1:], out, out=out)


def complement_embed(v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """B(v_i) y_i for every vector v_i of a stack v; y (length N - 1) broadcasts against v."""
    w, wnorm2, _ = _householder_parts(v)
    rows = np.zeros_like(w)  # row i becomes R(v_i)^H (0, y_i); the 0 drops R(v_i)'s phase
    rows[..., 1:] = y
    coef = 2.0 * np.vecdot(w, rows) / wnorm2
    w *= coef[..., None]  # in place: one (rows x N) temporary fewer
    rows -= w
    return rows

