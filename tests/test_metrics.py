import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from qprec import metrics as met
from qprec import models as md
from qprec import quantizer as qt
from qprec.stochastic import RngStream

QPSK_RULE = met.DecisionRule(constellation=md.QPSK, beta=1.0 + 0j)


def test_decide_nearest_quadrant():
    assert met.decide(QPSK_RULE, 0.9 + 0.8j) == pytest.approx((1 + 1j) / math.sqrt(2))


def test_decide_tie_goes_to_lowest_index():
    rule = met.DecisionRule(constellation=(1 + 0j, -1 + 0j), beta=1.0)
    assert met.decide(rule, 0.0 + 0.7j) == 1 + 0j


def test_decide_matches_brute_force():
    rng = np.random.default_rng(0)
    r = rng.standard_normal(10**4) + 1j * rng.standard_normal(10**4)
    fast = np.asarray(met.decide(QPSK_RULE, r))
    pts = QPSK_RULE.points
    brute = pts[np.argmin(np.abs(r[:, None] - pts) ** 2, axis=1)]
    assert np.array_equal(fast, brute)


def test_rule_validation():
    with pytest.raises(ValueError):
        met.DecisionRule(constellation=(), beta=1.0)
    with pytest.raises(ValueError):
        met.DecisionRule(constellation=md.QPSK, beta=0.0)


# -- SINR ----------------------------------------------------------------------


def _scalar_draws(model, cfg, seed, trials):
    return md.sample_scalar_outputs(model, cfg, RngStream(seed, 0), trials)


def test_sinr_plugin_matches_closed_form(one_bit_q, rzf_shaping):
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0, sigma2_noise=0.1)
    model = md.asymptotic_model(cfg, rzf_shaping, one_bit_q)
    y, s = _scalar_draws(model, cfg, 1, 200_000)
    est = met.sinr_from_samples(y, s, cfg.sigma2_sym)
    eta, ts, tg = model.power_scale, model.signal_gain, model.interference_gain
    closed = cfg.sigma2_sym * eta**2 * ts**2 / (eta**2 * tg**2 + cfg.sigma2_noise)
    assert abs(est.value - closed) < 3 * max(est.std_error, 1e-3)


def test_sinr_unstable_denominator_raises():
    s = np.asarray(md.QPSK * 64)
    with pytest.raises(met.UnstableEstimateError) as err:
        met.sinr_from_samples(s, s, 1.0)  # zero interference: denominator 0
    assert "m2" in err.value.moments


def test_sinr_estimate_permutation_invariant(one_bit_q, rzf_shaping):
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0, sigma2_noise=0.1)
    model = md.asymptotic_model(cfg, rzf_shaping, one_bit_q)
    y, s = _scalar_draws(model, cfg, 2, 4001)
    v1 = met.sinr_from_samples(y, s, cfg.sigma2_sym).value
    perm = np.random.default_rng(3).permutation(y.size)
    v2 = met.sinr_from_samples(y[perm], s[perm], cfg.sigma2_sym).value
    assert v1 == v2  # bit identical


@pytest.mark.parametrize("shaping,quant", [
    (md.mf(), qt.one_bit()),
    (md.zf(), qt.one_bit()),
    (md.rzf(0.25), qt.one_bit()),
    (md.rzf(0.25), qt.uniform_iq(levels=8, step=0.4)),
    (md.mf(), qt.phase_ce(8)),
])
def test_sinr_bar_two_forms_agree(shaping, quant):
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0, sigma2_noise=0.1)
    val = met.sinr_bar(cfg, shaping, quant)   # raises if the forms disagree
    assert val > 0


def test_sinr_bar_mf_closed_form(one_bit_q):
    # independent arithmetic: for the matched filter at gamma 4 the spectral
    # form collapses to 1 / (1/4 + phi/4) with phi from the sign quantizer.
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0, sigma2_noise=0.1)
    model = md.asymptotic_model(cfg, md.mf(), one_bit_q)
    eq2, ezq2 = 1.0, 2.0 / math.pi
    eta2 = cfg.power_limit / eq2
    phi = (eq2 - ezq2 + cfg.sigma2_noise / eta2) / ezq2
    expected = 1.0 / (0.25 + 0.25 * phi)
    assert met.sinr_bar(cfg, md.mf(), one_bit_q, model=model) == pytest.approx(
        expected, rel=1e-6)


def test_sinr_bar_monotone_in_power(one_bit_q, rzf_shaping):
    vals = []
    for p in (0.25, 0.5, 1.0, 2.0, 4.0):
        cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0, sigma2_noise=0.1,
                                         power_limit=p)
        vals.append(met.sinr_bar(cfg, rzf_shaping, one_bit_q))
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# -- SEP -----------------------------------------------------------------------


def test_sep_zero_for_perfect_channel():
    s = np.asarray(md.QPSK * 100)
    est = met.sep_from_samples(s, s, QPSK_RULE)
    assert est.value == 0.0


def test_sep_uniform_guess_level():
    rng = RngStream(4, 0)
    from qprec.stochastic import sample_complex_gaussian, sample_constellation
    y = sample_complex_gaussian(40_000, 1.0, rng)
    s = sample_constellation(np.asarray(md.QPSK), 40_000, rng)
    est = met.sep_from_samples(y, s, QPSK_RULE)
    assert abs(est.value - 0.75) < 4 * est.std_error + 1e-3


def test_sep_monotone_in_receiver_gain(one_bit_q, rzf_shaping):
    # common random numbers; growing signal scale can only reduce errors
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0, sigma2_noise=0.1)
    model = md.asymptotic_model(cfg, rzf_shaping, one_bit_q)
    from qprec.stochastic import sample_complex_gaussian, sample_constellation
    rng = RngStream(5, 0)
    s = sample_constellation(np.asarray(md.QPSK), 30_000, rng)
    g = sample_complex_gaussian(30_000, 1.0, rng)
    n = sample_complex_gaussian(30_000, cfg.sigma2_noise, rng)
    rule = met.default_rule(model, cfg)
    vals = []
    for eta in (0.5, 1.0, 2.0, 4.0):
        y = eta * (model.signal_gain * s + model.interference_gain * g) + n
        vals.append(met.sep_from_samples(y, s, met.DecisionRule(
            constellation=md.QPSK, beta=1.0 / (eta * model.signal_gain))).value)
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_sep_bar_orthant_oracle(one_bit_q, rzf_shaping):
    # semi-analytic QPSK probability via error-function products
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0, sigma2_noise=0.1)
    model = md.asymptotic_model(cfg, rzf_shaping, one_bit_q)
    rule = met.default_rule(model, cfg)
    est = met.sep_bar(model, rule, cfg, RngStream(6, 0), 400_000)
    beta = rule.beta.real
    v = beta**2 * (model.power_scale**2 * model.interference_gain**2 + cfg.sigma2_noise)
    margin = beta * model.power_scale * model.signal_gain / math.sqrt(2.0)
    p_ok = norm.cdf(margin / math.sqrt(v / 2.0)) ** 2
    assert abs(est.value - (1.0 - p_ok)) < 2e-3


def test_sep_bar_noiseless_degenerate(one_bit_q):
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0, sigma2_noise=0.0)
    base = md.asymptotic_model(cfg, md.mf(), one_bit_q)
    mom = md.ShapedMoments(mean_df=base.moments.mean_df, var_df=0.0,
                           mean_f2=base.moments.mean_f2,
                           mean_d2f2=base.moments.mean_df**2,
                           mean_d2=base.moments.mean_d2)
    model = md.ScalarModel(input_scale=base.input_scale, power_scale=base.power_scale,
                           linear_gain=base.linear_gain, distortion_rms=0.0,
                           signal_gain=base.signal_gain, interference_gain=0.0,
                           moments=mom, sigma2_sym=1.0, sigma2_noise=0.0)
    rule = met.default_rule(model, cfg)
    est = met.sep_bar(model, rule, cfg, RngStream(7, 0), 10_000)
    assert est.value == 0.0


def test_sep_per_symbol_symmetry(one_bit_q, rzf_shaping):
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0, sigma2_noise=0.1)
    model = md.asymptotic_model(cfg, rzf_shaping, one_bit_q)
    rule = met.default_rule(model, cfg)
    y, s = md.sample_scalar_outputs(model, cfg, RngStream(8, 0), 200_000)
    errs = np.asarray(met.decide(rule, rule.beta * y)) != s
    rates = []
    for p in md.QPSK:
        sel = s == p
        rates.append(np.mean(errs[sel]))
    se = math.sqrt(np.mean(rates) * (1 - np.mean(rates)) / (len(s) / 4))
    assert max(rates) - min(rates) < 5 * se


def test_sep_invariant_under_joint_phase_rotation(one_bit_q, rzf_shaping):
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0, sigma2_noise=0.1)
    model = md.asymptotic_model(cfg, rzf_shaping, one_bit_q)
    rule = met.default_rule(model, cfg)
    y, s = md.sample_scalar_outputs(model, cfg, RngStream(9, 0), 20_000)
    base = met.sep_from_samples(y, s, rule).value
    phase = np.exp(0.71j)
    rot_rule = met.DecisionRule(
        constellation=tuple(phase * np.asarray(md.QPSK)),
        beta=rule.beta)  # beta * (phase*y) lands in the rotated constellation
    rot = met.sep_from_samples(phase * y, phase * s, rot_rule).value
    assert rot == pytest.approx(base, abs=1e-12)


# -- Ky Fan / L2 ------------------------------------------------------------------


def test_ky_fan_identical_pairs():
    x = np.ones(100, dtype=complex)
    assert met.ky_fan_distance(x, x) == 0.0


@pytest.mark.parametrize("c", [0.3, 0.9, 1.7])
def test_ky_fan_constant_gap(c):
    x = np.zeros(500, dtype=complex)
    y = np.full(500, c, dtype=complex)
    assert met.ky_fan_distance(x, y) == pytest.approx(min(c, 1.0))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(0, 10**6))
def test_ky_fan_range_and_monotonicity(n, seed):
    rng = np.random.default_rng(seed)
    gaps = np.abs(rng.standard_normal(n))
    x = np.zeros(n, dtype=complex)
    d1 = met.ky_fan_distance(x, gaps.astype(complex))
    assert 0.0 <= d1 <= 1.0 + gaps.max()
    d2 = met.ky_fan_distance(x, (2.0 * gaps).astype(complex))
    assert d2 >= d1 - 1e-12  # pointwise domination cannot shrink the distance


def test_ky_fan_empty_rejected():
    with pytest.raises(ValueError):
        met.ky_fan_distance(np.array([]), np.array([]))


def test_l2_deviation_shift():
    x = np.zeros(64, dtype=complex)
    y = np.full(64, 0.37 - 0.11j)
    est = met.l2_deviation(x, y)
    assert est.value == pytest.approx(abs(0.37 - 0.11j), abs=1e-10)
    assert est.std_error < 1e-12
    ident = met.l2_deviation(y, y)
    assert ident.value == 0.0


def test_wilson_interval_contains_point_estimate():
    lo, hi = met.wilson_interval(3, 1000)
    assert 0.0 <= lo < 3 / 1000 < hi <= 1.0
