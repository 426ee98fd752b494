import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from qprec import spectral as sp
from qprec.models import SystemConfig, mf
from qprec.stochastic import RngStream

LAW4 = sp.MpLaw(4.0)


def test_aspect_ratio_must_exceed_one():
    with pytest.raises(ValueError):
        sp.MpLaw(1.0)
    with pytest.raises(ValueError):
        sp.MpLaw(0.5)


def test_edges():
    a, b = LAW4.lambda_edges
    assert a == pytest.approx(0.25) and b == pytest.approx(2.25)
    lo, hi = LAW4.sv_edges
    assert lo == pytest.approx(0.5) and hi == pytest.approx(1.5)
    assert 0.0 < lo < hi < 2.0


def test_density_normalization_and_mean():
    # quadrature oracle: integrate the density directly
    total = sp.mp_moment(lambda d: np.ones_like(d), LAW4)
    mean = sp.mp_moment(lambda d: d * d, LAW4)
    assert abs(total - 1.0) < 1e-6
    assert abs(mean - 1.0) < 1e-6


def test_second_moment_of_squared_value():
    var = sp.mp_moment(lambda d: d**4, LAW4) - 1.0
    assert abs(var - 0.25) < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_moment_linearity(a, b, c):
    g1 = lambda d: a * d + b
    g2 = lambda d: c * d * d
    lhs = sp.mp_moment(lambda d: g1(d) + g2(d), LAW4)
    rhs = sp.mp_moment(g1, LAW4) + sp.mp_moment(g2, LAW4)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_moment_rejects_nonfinite_integrand():
    with pytest.raises(ValueError), np.errstate(divide="ignore"):
        sp.mp_moment(lambda d: d / 0.0, LAW4)


def test_cdf_endpoints_and_midpoint():
    lo, hi = LAW4.sv_edges
    assert sp.mp_cdf_sv(lo - 0.1, LAW4) == 0.0
    assert sp.mp_cdf_sv(hi + 0.1, LAW4) == 1.0
    mid = sp.mp_cdf_sv(1.0, LAW4)
    assert 0.4 < mid < 0.7


@pytest.mark.parametrize("gamma", [1.2, 2.0, 4.0, 10.0])
def test_cdf_closed_form_matches_quadrature(gamma):
    # Reference: the density integrated after lambda = m + r sin(theta), which
    # removes the square-root edge singularities.
    law = sp.MpLaw(gamma)
    (a, b), (lo, hi) = law.lambda_edges, law.sv_edges
    m, r = 0.5 * (a + b), 0.5 * (b - a)

    def reference(x):
        theta = np.arcsin(np.clip((x * x - m) / r, -1.0, 1.0))
        val, _ = integrate.quad(
            lambda q: (r * np.cos(q)) ** 2 / (2 * np.pi * law.c * (m + r * np.sin(q))),
            -np.pi / 2, theta, epsabs=1e-15, epsrel=1e-13, limit=500)
        return val

    to_edge = np.logspace(-12, -2, 11)
    xs = np.concatenate([np.linspace(lo, hi, 41)[1:-1], lo + to_edge, hi - to_edge])
    for x in xs:
        assert abs(sp.mp_cdf_sv(x, law) - reference(x)) < 1e-12


def test_theta_interval_contains_bulk():
    lo, hi = sp.theta_interval(4.0)
    assert lo == pytest.approx(0.25) and hi == pytest.approx(1.75)


# -- channel sampling ---------------------------------------------------------


def test_wide_matrices_rejected():
    with pytest.raises(ValueError):
        sp.sample_singular_values(4, 8, RngStream(0, 0))
    with pytest.raises(ValueError):
        SystemConfig(n=8, k=16)


def test_bulk_edges_at_desk_scale():
    cfg = SystemConfig.with_gamma(k=256, gamma=4.0)
    d = sp.sample_channel(cfg, RngStream(11, 0))
    assert np.all(d >= 0.45) and np.all(d <= 1.55)
    assert np.all(np.diff(d) <= 0)


def test_trace_identity_over_draws():
    cfg = SystemConfig.with_gamma(k=32, gamma=4.0)
    means = [np.mean(sp.sample_channel(cfg, RngStream(5, t)) ** 2) for t in range(40)]
    assert abs(np.mean(means) - 1.0) < 0.02


def test_fast_spectrum_matches_dense_svd():
    cfg = SystemConfig.with_gamma(k=48, gamma=4.0)
    fast = np.concatenate([sp.sample_singular_values(192, 48, RngStream(s, 0))
                           for s in range(50)])
    dense = np.concatenate([sp.sample_channel(cfg, RngStream(s, 1)) for s in range(50)])
    res = stats.ks_2samp(fast, dense)
    assert res.statistic < 0.04


def test_esd_kolmogorov_distance_shrinks():
    # single documented seed; tolerances 0.05 at K=256 and 0.03 at K=1024
    for k, tol in ((256, 0.05), (1024, 0.03)):
        d = sp.sample_singular_values(4 * k, k, RngStream(3, k))
        xs = np.sort(d)
        cdf = np.array([sp.mp_cdf_sv(x, LAW4) for x in xs])
        n = xs.size
        dist = np.max(np.maximum(np.abs(np.arange(1, n + 1) / n - cdf),
                                 np.abs(np.arange(n) / n - cdf)))
        assert dist < tol


# -- linear spectral statistics ----------------------------------------------


def test_lss_constant_statistic_exact():
    d = sp.sample_singular_values(64, 16, RngStream(1, 0))
    assert sp.lss_statistic(d, lambda x: np.full_like(x, 2.5)) == 2.5


def test_lss_variance_below_bound():
    from qprec.bounds import assumption_m1

    m1 = assumption_m1(mf(), 4.0)
    k = 256
    vals = [sp.lss_statistic(sp.sample_singular_values(4 * k, k, RngStream(9, r)),
                             lambda x: x * x) for r in range(200)]
    assert np.var(vals, ddof=1) <= sp.lss_variance_bound(m1, k)


def test_lss_chebyshev_tail():
    from qprec.bounds import assumption_m1

    m1 = assumption_m1(mf(), 4.0)
    k, eps = 256, 0.1
    vals = np.array([sp.lss_statistic(sp.sample_singular_values(4 * k, k, RngStream(10, r)),
                                      lambda x: x * x) for r in range(200)])
    freq = np.mean(np.abs(vals - np.mean(vals)) > eps)
    assert freq <= sp.lss_tail_bound(m1, k, eps)
