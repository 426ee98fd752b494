import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprec import stochastic as sto
from qprec.models import QPSK


def _random_vector(seed: int, n: int) -> np.ndarray:
    return sto.sample_complex_gaussian(n, 1.0, sto.RngStream(seed, 0))


def test_zero_variance_gives_zero_vector():
    out = sto.sample_complex_gaussian(4, 0.0, sto.RngStream(0, 0))
    assert np.all(out == 0)


def test_second_moment_law_of_large_numbers():
    z = sto.sample_complex_gaussian(10**5, 1.0, sto.RngStream(1, 0))
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.015


def test_mean_is_near_zero():
    z = sto.sample_complex_gaussian(10**5, 1.0, sto.RngStream(2, 0))
    assert abs(np.mean(z)) < 0.02


def test_real_imag_covariance_split():
    z = sto.sample_complex_gaussian(2 * 10**5, 1.0, sto.RngStream(3, 0))
    assert abs(np.var(z.real) - 0.5) < 0.01
    assert abs(np.var(z.imag) - 0.5) < 0.01
    assert abs(np.mean(z.real * z.imag)) < 0.01


def test_reproducibility_bit_identical():
    a = sto.sample_complex_gaussian(1000, 2.0, sto.RngStream(7, 3))
    b = sto.sample_complex_gaussian(1000, 2.0, sto.RngStream(7, 3))
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    # (2**32, 0) and (0, 1) once joined to the same 32-bit entropy words.
    for key_a, key_b in (((7, 0), (7, 1)), ((2**32, 0), (0, 1))):
        a = sto.sample_complex_gaussian(64, 1.0, sto.RngStream(*key_a))
        b = sto.sample_complex_gaussian(64, 1.0, sto.RngStream(*key_b))
        assert not np.allclose(a, b)


def test_stream_id_must_fit_64_bits():
    for stream_id in (-1, 2**64):
        with pytest.raises(ValueError):
            sto.RngStream(0, stream_id)


def test_variance_must_be_finite():
    with pytest.raises(ValueError):
        sto.sample_complex_gaussian(4, float("nan"), sto.RngStream(0, 0))
    with pytest.raises(ValueError):
        sto.sample_complex_gaussian(4, -1.0, sto.RngStream(0, 0))


# -- Householder ------------------------------------------------------------


def test_reflector_of_basis_vector_is_identity():
    e1 = np.zeros(4, dtype=complex)
    e1[0] = 1.0
    r = sto.householder_reflector(e1)
    assert np.allclose(r, np.eye(4), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=24))
def test_reflector_contracts(seed, n):
    v = _random_vector(seed, n)
    r = sto.householder_reflector(v)
    target = np.zeros(n, dtype=complex)
    target[0] = np.linalg.norm(v)
    assert np.linalg.norm(r @ v - target) < 1e-10
    assert np.linalg.norm(r @ r.conj().T - np.eye(n)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=24))
def test_complement_contracts(seed, n):
    v = _random_vector(seed, n)
    b = sto.complement_basis(v)
    assert b.shape == (n, n - 1)
    assert np.linalg.norm(b.conj().T @ v) < 1e-10
    assert np.linalg.norm(b.conj().T @ b - np.eye(n - 1)) < 1e-10


def test_complement_of_e1_is_trailing_basis():
    e1 = np.zeros(3, dtype=complex)
    e1[0] = 1.0
    b = sto.complement_basis(e1)
    # columns span {e2, e3} up to phase
    assert abs(b[0, 0]) < 1e-12 and abs(b[0, 1]) < 1e-12
    assert np.allclose(np.abs(b[1:, :]), np.eye(2), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=16),
       st.integers(min_value=1, max_value=3))
def test_matrix_free_applications_match_dense(seed, n, rows):
    v = _random_vector(seed, n)
    x = _random_vector(seed + 1, n)
    r = sto.householder_reflector(v)
    b = sto.complement_basis(v)
    assert np.allclose(sto.reflect(v, x), r @ x, atol=1e-12)
    assert np.allclose(sto.complement_project(v, x), b.conj().T @ x, atol=1e-12)
    assert np.allclose(sto.complement_embed(v[None], x[1:])[0], b @ x[1:], atol=1e-12)
    # A (rows x n) block: row i matches the dense matrices of its own vector.
    block = np.array([_random_vector(seed + 2 + i, n) for i in range(rows)])
    assert sto.complex_norm(block).tolist() == [sto.complex_norm(row) for row in block]
    embedded = sto.complement_embed(block, x[1:])
    projected = sto.complement_project(v, block)
    for i, row in enumerate(block):
        b_i = sto.complement_basis(row)
        assert np.allclose(embedded[i], b_i @ x[1:], atol=1e-12)
        assert np.allclose(projected[i], b.conj().T @ row, atol=1e-12)


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        sto.householder_reflector(np.zeros(3, dtype=complex))


def test_dimension_one_has_no_complement():
    with pytest.raises(ValueError):
        sto.complement_basis(np.ones(1, dtype=complex))


# -- constellation sampling --------------------------------------------------


def test_qpsk_frequencies_uniform():
    pts = np.asarray(QPSK)
    s = sto.sample_constellation(pts, 10**5, sto.RngStream(5, 0))
    for p in pts:
        assert abs(np.mean(s == p) - 0.25) < 0.01


def test_singleton_constellation_constant():
    s = sto.sample_constellation(np.array([1.0 + 0j]), 50, sto.RngStream(0, 0))
    assert np.all(s == 1.0 + 0j)


def test_symbol_power_matches_constellation():
    pts = np.array([1.0 + 0j, 2.0 + 0j, 1j, -1.0 - 1j])
    target = np.mean(np.abs(pts) ** 2)
    s = sto.sample_constellation(pts, 10**5, sto.RngStream(6, 0))
    assert abs(np.mean(np.abs(s) ** 2) - target) < 0.01 * target


def test_constellation_rejects_zero_and_empty():
    with pytest.raises(ValueError):
        sto.sample_constellation(np.array([]), 4, sto.RngStream(0, 0))
    with pytest.raises(ValueError):
        sto.sample_constellation(np.array([0.0 + 0j, 1.0 + 0j]), 4, sto.RngStream(0, 0))
