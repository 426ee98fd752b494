import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ive

from qprec import bounds as bnd
from qprec import models as md
from qprec import quantizer as qt
from qprec.spectral import lss_tail_bound
from qprec.stochastic import RngStream, sample_complex_gaussian

CFG = md.SystemConfig.with_gamma(k=64, gamma=4.0, sigma2_noise=0.1)
ONE_BIT = qt.one_bit(1.0 / math.sqrt(2.0))
RZF = md.rzf(0.25)


@pytest.fixture(scope="module")
def params():
    return bnd.cascade_params(CFG, RZF, ONE_BIT)


@pytest.fixture(scope="module")
def model():
    return md.asymptotic_model(CFG, RZF, ONE_BIT)


# -- threshold splitter --------------------------------------------------------


def test_threshold_splitter_direct_values():
    assert bnd.product_deviation_threshold(0.0, 1.0, 2.0) == pytest.approx(0.5)
    assert bnd.product_deviation_threshold(0.0, 0.0, 0.04) == pytest.approx(0.1)


def test_threshold_splitter_monotone_in_eps():
    lo = bnd.product_deviation_threshold(1.0, 1.0, 0.1)
    hi = bnd.product_deviation_threshold(1.0, 1.0, 1.0)
    assert 0.0 < lo < hi


@settings(max_examples=100, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10),
       st.floats(1e-6, 100.0))
def test_threshold_splitter_defining_quadratic(x, y, eps):
    d = bnd.product_deviation_threshold(x, y, eps)
    assert d > 0
    residual = (2.0 * d) * (abs(x) + abs(y) + 2.0 * d) - eps
    assert abs(residual) < 1e-10 * max(1.0, eps)


# -- concentration kernels ------------------------------------------------------


def test_kernels_reject_bad_hypotheses():
    with pytest.raises(bnd.HypothesisError):
        bnd.quad_form_bound(0.1, 0, 1.0)


def test_quad_form_empirical_tail():
    reports = bnd.form_tail_reports(4.0, 256, (RngStream(42, r) for r in range(400)), (0.2, 0.4))
    assert [r.name for r in reports if r.holds] == ["quad_tail_0.2", "cross_tail_0.2",
                                                    "quad_tail_0.4", "cross_tail_0.4"]


def test_lss_chebyshev_formula():
    assert lss_tail_bound(2.0, 256, 0.1) == pytest.approx(
        2.0 * 4.0 / (256 * 0.01))


# -- sensitivity constants --------------------------------------------------------


def test_sep_sensitivity_reference_point():
    # beta=1, eta=1, interference gain 1, unit noise, unit symbol
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0, sigma2_noise=1.0,
                                     constellation=(1 + 0j, -1 + 0j))
    base = md.asymptotic_model(cfg, md.mf(), ONE_BIT)
    mom = base.moments
    c1 = 1.0 / math.sqrt(mom.var_df)  # engineered so the gain comes out at 1
    model = md.ScalarModel(
        input_scale=1.0, power_scale=1.0, linear_gain=c1, distortion_rms=0.0,
        signal_gain=1.0, interference_gain=math.sqrt(c1**2 * mom.var_df),
        moments=mom, sigma2_sym=1.0, sigma2_noise=1.0)
    lm = bnd.sep_sensitivity(cfg, model, beta=1.0 + 0j)
    expected = (math.sqrt(math.pi) / 2.0 + 1.0) * 2.0
    assert lm[0] == pytest.approx(expected, rel=1e-12)
    assert all(v > 1.0 for v in lm)


def test_sep_sensitivity_nonincreasing_in_interference(model):
    rule_beta = 0.7 + 0.1j
    lm1 = bnd.sep_sensitivity(CFG, model, rule_beta)

    boosted = md.ScalarModel(
        input_scale=model.input_scale, power_scale=model.power_scale,
        linear_gain=model.linear_gain,
        distortion_rms=math.sqrt(model.distortion_rms**2 + 1.0),
        signal_gain=model.signal_gain,
        interference_gain=math.sqrt(model.interference_gain**2 + 1.0),
        moments=model.moments, sigma2_sym=model.sigma2_sym,
        sigma2_noise=model.sigma2_noise)
    lm2 = bnd.sep_sensitivity(CFG, boosted, rule_beta)
    assert all(b <= a for a, b in zip(lm1, lm2))


def test_sinr_sensitivity_scaling_identity(model):
    # re-evaluation after scaling the symbol power behaves per the formula
    val = bnd.sinr_sensitivity(CFG, model)
    again = bnd.sinr_sensitivity(CFG, model)
    assert val == pytest.approx(again, rel=1e-12)
    assert np.isfinite(val) and val > 0


@pytest.mark.parametrize("shaping,quant", [
    (md.mf(), ONE_BIT), (md.zf(), ONE_BIT), (md.rzf(0.25), ONE_BIT),
    (md.rzf(1.0), qt.phase_ce(8)),
    (md.rzf(0.25), qt.uniform_iq(levels=8, step=0.4)),
])
def test_sinr_sensitivity_finite_positive(shaping, quant):
    m = md.asymptotic_model(CFG, shaping, quant)
    val = bnd.sinr_sensitivity(CFG, m)
    assert np.isfinite(val) and val > 0


def _mean_abs_by_quadrature(model, cfg):
    """E|y| by adaptive quadrature over the Rice density of each |CN(eta Ts s, v)|."""
    v = model.power_scale**2 * model.interference_gain**2 + cfg.sigma2_noise
    total = 0.0
    for s in cfg.constellation:
        nu = abs(model.power_scale * model.signal_gain * s)

        def integrand(r):
            # Rice density with I0 exponentially rescaled.
            return r * (2.0 * r / v) * math.exp(-((r - nu) ** 2) / v) * ive(0, 2.0 * r * nu / v)

        val, _ = integrate.quad(integrand, 0.0, nu + 12.0 * math.sqrt(v),
                                epsabs=1e-12, epsrel=1e-10, limit=200)
        total += val
    return total / len(cfg.constellation)


@pytest.mark.parametrize("sigma2_noise", [1e-3, 0.1, 10.0])
def test_mean_abs_output_closed_form_matches_quadrature(sigma2_noise):
    cfg = md.SystemConfig.with_gamma(k=64, gamma=4.0, sigma2_noise=sigma2_noise)
    for quant in (ONE_BIT, qt.phase_ce(8), qt.uniform_iq(levels=8, step=0.4)):
        for shaping in (md.mf(), md.zf(), md.rzf(0.25)):
            m = md.asymptotic_model(cfg, shaping, quant)
            assert bnd.mean_abs_scalar_output(m, cfg) == pytest.approx(
                _mean_abs_by_quadrature(m, cfg), rel=1e-12)


def test_mean_abs_output_against_monte_carlo(model):
    direct = bnd.mean_abs_scalar_output(model, CFG)
    y, _ = md.sample_scalar_outputs(model, CFG, RngStream(1, 0), 400_000)
    assert abs(direct - np.mean(np.abs(y))) < 5e-3


# -- boundary measure --------------------------------------------------------------


def test_gaussian_boundary_direct_value():
    assert bnd.gaussian_boundary_bound(1.0, 0.01) == pytest.approx(
        (math.sqrt(math.pi) + 1.0) * 0.01)
    assert bnd.gaussian_boundary_bound(1.0, 1e-9) < 1e-8


def test_gaussian_boundary_annulus_mass():
    rng = RngStream(2, 0)
    y = sample_complex_gaussian(10**6, 1.0, rng)
    eps = 0.05
    mass = np.mean((np.abs(y) > 1.0) & (np.abs(y) <= 1.0 + eps))
    assert mass <= bnd.gaussian_boundary_bound(1.0, eps)


# -- tail cascades -----------------------------------------------------------------


def test_cascade_nodes_strictly_positive(params):
    tb = bnd.interference_gain_tail(0.5, 10**4, params)
    assert all(v > 0 for v in tb.nodes.values())
    ts = bnd.signal_gain_tail(0.5, 10**4, params)
    assert all(v > 0 for v in ts.nodes.values())


def test_cascades_decrease_along_dimension_ladder(params):
    ladder = [10**3, 10**4, 10**5, 10**6]
    tg = [bnd.interference_gain_tail(0.5, k, params).value for k in ladder]
    ts = [bnd.signal_gain_tail(0.5, k, params).value for k in ladder]
    assert all(b < a for a, b in zip(tg, tg[1:]))
    assert all(b < a for a, b in zip(ts, ts[1:]))
    assert all(v > 0 and np.isfinite(v) for v in tg + ts)


def test_cascades_vanish_in_the_limit(params):
    huge = [10**40, 10**50, 10**60, 10**70]
    tg = [bnd.interference_gain_tail(0.5, k, params).value for k in huge]
    assert all(b < a for a, b in zip(tg, tg[1:]))
    assert tg[-1] < 1e-6


def test_cascade_nonincreasing_in_eps(params):
    k = 10**4
    vals = [bnd.interference_gain_tail(e, k, params).value
            for e in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def test_cascade_threshold_reported(params):
    tb = bnd.interference_gain_tail(0.5, 10**3, params)
    assert tb.threshold > 10**3
    assert not tb.applicable  # below threshold: reported, not asserted


def test_received_gap_composition(params):
    rep = bnd.received_gap_tail(0.5, 10**4, params, eta=1.0, s_sup=1.0)
    assert set(rep.terms) == {"interference_gain", "signal_gain", "gaussian_factor"}
    assert rep.terms["gaussian_factor"] == pytest.approx(math.exp(-0.25))
    ladder = [10**4, 10**5, 10**6]
    vals = [bnd.received_gap_tail(0.5, k, params, eta=1.0, s_sup=1.0).value
            for k in ladder]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_received_gap_dominated_by_gaussian_factor_for_huge_k(params):
    rep = bnd.received_gap_tail(0.5, 10**72, params, eta=1.0, s_sup=1.0)
    assert rep.terms["gaussian_factor"] > 0.5 * rep.value


def test_received_gap_covers_empirical_tail(params, model):
    # at desk scale K sits below the cascade threshold and the bound is
    # hugely vacuous; the comparison still must come out covered
    coupled = md.functional_models(CFG, RZF, ONE_BIT)
    samples = coupled.sample(RngStream(30, 0), 400)
    eps = 0.5
    freq = float(np.mean(np.abs(samples.y_hat - samples.y_bar) >= eps))
    s_sup = max(abs(s) for s in CFG.constellation)
    rep = bnd.received_gap_tail(eps, CFG.k, params, eta=model.power_scale,
                                s_sup=s_sup)
    assert not rep.applicable
    assert freq <= rep.value


def test_cascade_rejects_bad_inputs(params):
    with pytest.raises(bnd.HypothesisError):
        bnd.interference_gain_tail(0.0, 100, params)
    with pytest.raises(bnd.HypothesisError):
        bnd.received_gap_tail(0.5, 100, params, eta=0.0, s_sup=1.0)
    for tail in (bnd.interference_gain_tail, bnd.signal_gain_tail):
        with pytest.raises(bnd.HypothesisError):
            tail(math.inf, 100, params)


# -- reporting ----------------------------------------------------------------------


def test_bound_report_holds_logic():
    rep = bnd.BoundReport(name="x", inputs={"k": 4}, bound=0.5, empirical=0.2)
    assert rep.holds is True
    rep2 = bnd.BoundReport(name="x", inputs={}, bound=0.1, empirical=0.2)
    assert rep2.holds is False
    rep3 = bnd.BoundReport(name="x", inputs={}, bound=0.1)
    assert rep3.holds is None
