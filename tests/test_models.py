import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from qprec import models as md
from qprec import optimizer as opt
from qprec import quantizer as qt
from qprec.spectral import mp_moment
from qprec.stochastic import DegenerateDrawError, RngStream


def test_config_validation():
    with pytest.raises(ValueError):
        md.SystemConfig(n=8, k=2)             # K below 3
    with pytest.raises(ValueError):
        md.SystemConfig(n=8, k=8)             # aspect ratio must exceed 1
    with pytest.raises(ValueError):
        md.SystemConfig(n=16, k=4, constellation=(0j, 1 + 0j))
    with pytest.raises(ValueError):
        md.SystemConfig(n=16, k=4, power_limit=0.0)
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0)
    assert cfg.n == 32 and cfg.gamma == pytest.approx(4.0)
    assert cfg.sigma2_sym == pytest.approx(1.0)


@pytest.mark.parametrize("make", [
    lambda: md.SystemConfig(n=16, k=4, power_limit=math.nan),
    lambda: md.SystemConfig(n=16, k=4, power_limit=math.inf),
    lambda: md.SystemConfig.with_gamma(k=8, gamma=math.inf),
    lambda: md.ShapingFunction("rzf", rho=math.nan),
    lambda: md.ShapingFunction("rzf", rho=math.inf),
    lambda: opt.FamilyGrid(rho_min=math.nan),
    lambda: opt.FamilyGrid(rho_max=math.nan),
    lambda: opt.FamilyGrid(rho_max=math.inf),
    lambda: qt.one_bit(math.nan),
    lambda: qt.one_bit(math.inf),
    lambda: qt.uniform_iq(4, math.nan),
    lambda: qt.uniform_iq(4, math.inf),
    lambda: qt.phase_ce(8, math.nan),
    lambda: qt.phase_ce(8, math.inf),
], ids=["power_limit_nan", "power_limit_inf", "gamma_inf", "rho_nan", "rho_inf",
        "rho_min_nan", "rho_max_nan", "rho_max_inf", "amplitude_nan", "amplitude_inf",
        "step_nan", "step_inf", "radius_nan", "radius_inf"])
def test_constructors_reject_nonfinite(make):
    with pytest.raises(ValueError):
        make()


def test_shaping_families():
    d = np.array([0.5, 1.0, 1.5])
    assert np.allclose(md.mf()(d), d)
    assert np.allclose(md.zf()(d), 1.0 / d)
    assert np.allclose(md.rzf(1.0)(d), d / (d * d + 1.0))
    with pytest.raises(ValueError):
        md.rzf(0.0)


# -- scalar model ---------------------------------------------------------------


def test_shaped_moments_mf_gamma4(one_bit_q):
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0)
    model = md.asymptotic_model(cfg, md.mf(), one_bit_q)
    mom = model.moments
    assert abs(mom.mean_df - 1.0) < 1e-6       # E[d f(d)] = E[d^2] = 1
    assert abs(mom.var_df - 0.25) < 1e-6


@pytest.mark.parametrize("shaping", [md.mf(), md.zf(), md.rzf(0.25), md.rzf(1.0)])
def test_one_bit_correlation_identity_any_shaping(shaping, one_bit_q):
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0)
    model = md.asymptotic_model(cfg, shaping, one_bit_q)
    assert abs(abs(model.linear_gain) * model.input_scale
               - math.sqrt(2.0 / math.pi)) < 1e-6


@pytest.mark.parametrize("shaping,quant", [
    (md.mf(), qt.one_bit()),
    (md.zf(), qt.one_bit()),
    (md.rzf(0.25), qt.uniform_iq(levels=8, step=0.4)),
    (md.rzf(1.0), qt.phase_ce(8)),
    (md.mf(), qt.phase_ce(4)),
])
def test_interference_gain_identity(shaping, quant):
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0)
    model = md.asymptotic_model(cfg, shaping, quant)
    mom = model.moments
    expected = math.sqrt(cfg.sigma2_sym * abs(model.linear_gain) ** 2 * mom.var_df
                         + model.distortion_rms**2)
    assert abs(model.interference_gain - expected) <= 1e-10 * max(1.0, expected)


def test_alpha_formula_matches_direct_quadrature(one_bit_q):
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0)
    for f in (md.mf(), md.rzf(0.3)):
        model = md.asymptotic_model(cfg, f, one_bit_q)
        direct = math.sqrt(cfg.sigma2_sym * mp_moment(lambda d: f(d) ** 2, cfg.law)
                           / cfg.gamma)
        assert abs(model.input_scale - direct) < 1e-10
    alpha = md.asymptotic_model(cfg, md.mf(), one_bit_q).input_scale
    assert alpha == pytest.approx(0.5, abs=1e-9)


# -- original model ---------------------------------------------------------------


def test_original_power_constraint_exact(one_bit_q, rzf_shaping):
    cfg = md.SystemConfig.with_gamma(k=6, gamma=4.0, power_limit=2.5)
    batch = md.simulate_original(cfg, rzf_shaping, one_bit_q, RngStream(0, 0), 20)
    assert np.all(np.abs(batch.transmit_power - 2.5) < 1e-10)


def test_zero_noise_zf_identity_channel():
    cfg = md.SystemConfig.with_gamma(k=16, gamma=3.0, sigma2_noise=0.0)
    batch = md.simulate_original(cfg, md.zf(), qt.identity_like(), RngStream(1, 0), 10)
    resid = np.linalg.norm(batch.y / batch.eta[:, None] - batch.s)
    assert resid / np.linalg.norm(batch.s) < 1e-2


def test_statistical_equivalence_marginal(one_bit_q, rzf_shaping, small_config):
    orig = md.simulate_original(small_config, rzf_shaping, one_bit_q,
                                RngStream(10, 0), 4000)
    equiv = md.sample_coupled(small_config, one_bit_q, [rzf_shaping], RngStream(11, 0), 4000,
                              users=small_config.k)[0]
    ks = stats.ks_2samp(orig.y[:, 0].real, equiv.y_hat[:, 0].real).statistic
    assert ks < 0.05


def test_equivalent_received_power_matches_original(one_bit_q, rzf_shaping):
    # g2 must be rotated by R(s), not R(s)^H; the wrong one inflates E|y|^2 by O(1/K),
    # to 3.01 against the original model's 2.75 here.
    cfg = md.SystemConfig.with_gamma(k=4, gamma=4.0)
    orig = md.simulate_original(cfg, rzf_shaping, one_bit_q, RngStream(1, 0), 5000).y
    equiv = md.sample_coupled(cfg, one_bit_q, [rzf_shaping], RngStream(2, 0), 5000,
                              users=cfg.k)[0].y_hat
    # per-trial means: the K users of one draw are not independent
    power = [np.mean(np.abs(y) ** 2, axis=1) for y in (orig, equiv)]
    se = math.hypot(*(np.std(p, ddof=1) / math.sqrt(p.size) for p in power))
    assert abs(np.mean(power[0]) - np.mean(power[1])) < 5 * se


# -- equivalent model ---------------------------------------------------------------


def test_equivalent_gains_properties(one_bit_q, rzf_shaping, small_config):
    k = small_config.k
    batch = md.sample_coupled(small_config, one_bit_q, [rzf_shaping], RngStream(3, 0), 500,
                              users=k)[0]
    assert np.all(batch.interference_gain >= 0)
    assert np.all(batch.input_scale > 0)
    assert batch.y_hat.shape == (500, k)
    assert batch.s.shape == (500, k)
    # The distortion rms and the transmit power of the same draws, read off their blocks.
    for _, block, _ in md.draw_chunks(small_config, RngStream(3, 0), 500, 1, users=k):
        ev = md.evaluate(block, small_config, [rzf_shaping], one_bit_q)
        assert np.all(ev.c2 >= 0)
        power = ev.eta * ev.eta * (ev.qnorm * ev.qnorm) / small_config.n
        assert np.all(np.abs(power - small_config.power_limit) < 1e-10)


def test_gain_concentration_toward_limits(one_bit_q, rzf_shaping):
    cfg = md.SystemConfig.with_gamma(k=256, gamma=4.0)
    model = md.asymptotic_model(cfg, rzf_shaping, one_bit_q)
    batch = md.sample_coupled(cfg, one_bit_q, [rzf_shaping], RngStream(4, 0), 300,
                              users=cfg.k)[0]
    ts_mean = np.mean(batch.signal_gain.real)
    ts_se = np.std(batch.signal_gain.real, ddof=1) / math.sqrt(300)
    assert abs(ts_mean - model.signal_gain) < 3 * ts_se


def test_input_scale_std_shrinks(one_bit_q, rzf_shaping):
    stds = []
    for k in (64, 256):
        cfg = md.SystemConfig.with_gamma(k=k, gamma=4.0)
        batch = md.sample_coupled(cfg, one_bit_q, [rzf_shaping], RngStream(5, k), 250,
                                  users=k)[0]
        stds.append(np.std(batch.input_scale, ddof=1))
    assert stds[1] < stds[0]


def test_equivalent_requires_min_dimensions(one_bit_q, rzf_shaping):
    with pytest.raises(ValueError):
        md.SystemConfig(n=4, k=2)


# -- scalar outputs -----------------------------------------------------------------


def _degenerate_model(one_bit_q) -> md.ScalarModel:
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0)
    base = md.asymptotic_model(cfg, md.mf(), one_bit_q)
    mom = md.ShapedMoments(mean_df=base.moments.mean_df, var_df=0.0,
                           mean_f2=base.moments.mean_f2,
                           mean_d2f2=base.moments.mean_df**2)
    return md.ScalarModel(input_scale=base.input_scale, power_scale=base.power_scale,
                          linear_gain=base.linear_gain, distortion_rms=0.0,
                          signal_gain=base.signal_gain, interference_gain=0.0,
                          moments=mom, sigma2_sym=1.0, sigma2_noise=0.0)


def test_noiseless_degenerate_scalar_outputs(one_bit_q):
    model = _degenerate_model(one_bit_q)
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0, sigma2_noise=0.0)
    y, s = md.sample_scalar_outputs(model, cfg, RngStream(6, 0), 100)
    assert np.allclose(y / (model.power_scale * model.signal_gain), s)


def test_scalar_output_moments(one_bit_q, rzf_shaping):
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0, sigma2_noise=0.1)
    model = md.asymptotic_model(cfg, rzf_shaping, one_bit_q)
    y, s = md.sample_scalar_outputs(model, cfg, RngStream(7, 0), 10**6)
    eta, ts, tg = model.power_scale, model.signal_gain, model.interference_gain
    target_m2 = cfg.sigma2_sym * eta**2 * ts**2 + eta**2 * tg**2 + cfg.sigma2_noise
    assert abs(np.mean(np.abs(y) ** 2) - target_m2) < 0.01 * target_m2
    target_corr = eta * ts * cfg.sigma2_sym
    assert abs(np.mean(np.conj(s) * y) - target_corr) < 0.01 * target_corr


# -- coupled functional models ---------------------------------------------------------


def test_coupling_difference_estimates_l2(one_bit_q, rzf_shaping, mid_config):
    coupled = md.functional_models(mid_config, rzf_shaping, one_bit_q)
    samples = coupled.sample(RngStream(8, 0), 200)
    # both outputs share every underlying draw, so the noise cancels in the difference
    model = coupled.scalar
    diff = samples.y_hat - samples.y_bar
    manual = (samples.power_scale * (samples.signal_gain * samples.s
                                     + samples.interference_gain * samples.g2_user)
              - model.power_scale * (model.signal_gain * samples.s
                                     + model.interference_gain * samples.g2_user))
    assert np.allclose(diff, manual, atol=1e-12)


def test_l2_deviation_shrinks_with_k(one_bit_q, rzf_shaping):
    devs = []
    for k in (64, 256):
        cfg = md.SystemConfig.with_gamma(k=k, gamma=4.0)
        coupled = md.functional_models(cfg, rzf_shaping, one_bit_q)
        samples = coupled.sample(RngStream(9, k), 300)
        devs.append(float(np.mean(np.abs(samples.y_hat - samples.y_bar) ** 2)) ** 0.5)
    assert devs[1] < devs[0]


@pytest.mark.parametrize("quant", [qt.one_bit(1.0 / math.sqrt(2.0)), qt.phase_ce(8)],
                         ids=["one_bit", "phase_ce8"])
def test_shared_draw_sampler_matches_each_model_alone(quant):
    cfg = md.SystemConfig.with_gamma(k=16, gamma=4.0, sigma2_noise=0.1)
    shapings = [md.mf(), md.zf(), md.rzf(0.25)]
    coupled = [md.functional_models(cfg, f, quant) for f in shapings]
    for seed in (1, 2):
        together = md.sample_coupled(cfg, quant, shapings, RngStream(seed, 0), 30)
        for c, joint in zip(coupled, together):
            alone = c.sample(RngStream(seed, 0), 30)
            for f in dataclasses.fields(md.CoupledSamples):
                a, b = getattr(alone, f.name), getattr(joint, f.name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name


def test_degenerate_draw_raises_without_redrawing(one_bit_q, rzf_shaping, small_config,
                                                 monkeypatch, zeroed_stream):
    calls = []
    original = md.sample_singular_values

    def spectrum(n, k, rng):
        calls.append(1)
        return original(n, k, rng)

    monkeypatch.setattr(md, "sample_singular_values", spectrum)
    coupled = md.functional_models(small_config, rzf_shaping, one_bit_q)
    with pytest.raises(DegenerateDrawError):  # the first trial's g1 vanishes
        coupled.sample(zeroed_stream(3, 0, (2, 2, small_config.k), 1), 5)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["s", "g1", "z1"])
def test_raw_draw_with_a_vanishing_norm_raises_when_built(small_config, name, one_row):
    one = one_row(small_config, RngStream(4, 0))
    other = one_row(small_config, RngStream(4, 1))
    vectors = {f.name: getattr(one, f.name) for f in dataclasses.fields(one) if f.init}
    with pytest.raises(DegenerateDrawError):
        md.RawDraw(**vectors | {name: np.zeros_like(vectors[name])})
    block = {key: np.concatenate([v, getattr(other, key)]) for key, v in vectors.items()}
    # Per-row norms of a block, each equal to that trial's own norm.
    assert [x.tolist() for x in md.RawDraw(**block).norms] == \
        [a.tolist() + b.tolist() for a, b in zip(one.norms, other.norms)]
    block[name][1] = 0
    with pytest.raises(DegenerateDrawError):
        md.RawDraw(**block)


def test_coupled_sampler_rejects_an_empty_list(small_config, one_bit_q):
    with pytest.raises(ValueError):
        md.sample_coupled(small_config, one_bit_q, [], RngStream(1, 0), 5)


@pytest.mark.parametrize("users", [-1, 0, 9])
def test_coupled_sampler_rejects_users_outside_one_to_k(small_config, one_bit_q, users):
    assert small_config.k == 8  # so 9 is K + 1
    rng = RngStream(1, 0)
    state = repr(rng.generator.bit_generator.state)
    with pytest.raises(ValueError):
        md.sample_coupled(small_config, one_bit_q, [md.mf()], rng, 5, users=users)
    assert repr(rng.generator.bit_generator.state) == state  # raised before any draw


def test_coupled_sampler_takes_one_and_k_users(small_config, one_bit_q):
    """Both ends of 1 <= users <= K: per-user fields are (trials x users), gains (trials,)."""
    k = small_config.k
    for users in (1, k):
        out, = md.sample_coupled(small_config, one_bit_q, [md.mf()], RngStream(1, 0), 5,
                                 users=users)
        for name in ("s", "y_hat", "y_bar", "g2_user"):
            assert getattr(out, name).shape == (5, users), name
        for name in ("signal_gain", "interference_gain", "input_scale", "power_scale"):
            assert getattr(out, name).shape == (5,), name
    one_user = md.functional_models(small_config, md.mf(), one_bit_q).sample(RngStream(1, 0), 5)
    assert all(x.shape == (5,) for x in vars(one_user).values())
