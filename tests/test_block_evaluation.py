"""The chunked block evaluation against a draw-by-draw, member-by-member
reference, bit for bit.

The references below evaluate one draw and one shaping at a time: each with
its own reflector set-ups and quantize call, and one scalar
``gaussian_moments`` call per trial and member for ``sup_deviation``'s
``y_mid``; one SVD per trial of the original model; one generator call per
field of a raw draw.
They use the same array arithmetic as the blocks (phases from a one-element
slice, squares as products, ``y_hat`` from arrays of per-trial gains), with
their draws written out call by call and their own Householder helpers, so
the comparison does not lean on the code under test.
"""

import dataclasses
import math
import types

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from qprec import metrics as met
from qprec import models as md
from qprec import optimizer as opt
from qprec import quantizer as qt
from qprec.spectral import sample_singular_values
from qprec.stochastic import (DegenerateDrawError, RngStream, sample_complex_gaussian,
                              sample_constellation)

GRID = opt.FamilyGrid(points=9)
QUANTS = {"one_bit": qt.one_bit(), "phase_ce8": qt.phase_ce(8),
          "uniform_iq4": qt.uniform_iq(4, 0.5)}


# -- reference: one generator call per field -----------------------------------


def _complex_gaussian(n, variance, rng):
    g = rng.generator
    return np.sqrt(variance / 2.0) * (g.standard_normal(n) + 1j * g.standard_normal(n))


def _singular_values(n, k, rng):
    g = rng.generator
    diag = np.sqrt(g.chisquare(2.0 * (n - np.arange(k))) / 2.0)
    sub = np.sqrt(g.chisquare(2.0 * (k - 1 - np.arange(k - 1))) / 2.0)
    main = diag**2
    main[1:] += sub**2
    lam = eigvalsh_tridiagonal(main, diag[:-1] * sub, lapack_driver="sterf")
    return np.sqrt(np.sort(np.maximum(lam, 0.0))[::-1] / n)


def _raw_draw_fields(config, rng):
    n, k = config.n, config.k
    return dict(d=_singular_values(n, k, rng),
                g1=_complex_gaussian(k, 1.0, rng), g2=_complex_gaussian(k, 1.0, rng),
                z1=_complex_gaussian(n, 1.0, rng), z2=_complex_gaussian(n, 1.0, rng),
                s=sample_constellation(config.points, k, rng))


def _raw_draw(config, rng):
    return types.SimpleNamespace(**_raw_draw_fields(config, rng))


def _noise(users, variance, rng):
    """Noise that reads nothing at variance 0, as the samplers' noise does."""
    return np.zeros(users, dtype=complex) if variance == 0 else _complex_gaussian(users, variance, rng)


# -- reference: trial by trial --------------------------------------------------


def _simulate_original(config, shaping, quant, rng, trials):
    n, k = config.n, config.k
    y = np.empty((trials, k), dtype=complex)
    s_out = np.empty((trials, k), dtype=complex)
    etas = np.empty(trials)
    power = np.empty(trials)
    for t in range(trials):
        h = _complex_gaussian(k * n, 1.0 / n, rng).reshape(k, n)
        u, d, vh = np.linalg.svd(h, full_matrices=False)
        s = sample_constellation(config.points, k, rng)
        noise = _noise(k, config.sigma2_noise, rng)
        shaped = shaping(d) * (u.conj().T @ s)
        ps = vh.conj().T @ shaped
        qx = np.asarray(qt.quantize(quant, ps))
        qnorm = float(np.linalg.norm(qx))
        if qnorm <= 0:
            raise DegenerateDrawError("quantized transmit vector is identically zero")
        eta = np.sqrt(config.power_limit * n) / qnorm
        y[t] = eta * (h @ qx) + noise
        s_out[t] = s
        etas[t] = eta
        power[t] = eta * eta * (qnorm * qnorm) / n
    return md.OriginalBatch(y=y, s=s_out, eta=etas, transmit_power=power)


# -- reference: member by member ------------------------------------------------


def _householder_parts(v):
    v = np.asarray(v, dtype=complex)
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("reflector requires a nonzero finite vector")
    v1 = v[0]
    sigma = (v[:1] / np.abs(v[:1]))[0] if v1 != 0 else complex(1.0)
    w = v.copy()
    w[0] = v1 + sigma * norm
    wnorm2 = float(np.real(np.vdot(w, w)))
    return w, wnorm2, sigma


def _reflect(v, x):
    w, wnorm2, sigma = _householder_parts(v)
    x = np.asarray(x, dtype=complex)
    out = x - w * (2.0 * np.vdot(w, x) / wnorm2)
    out[:1] = -np.conj(np.atleast_1d(sigma)) * out[:1]
    return out


def _reflect_adjoint(v, x):
    w, wnorm2, sigma = _householder_parts(v)
    x = np.asarray(x, dtype=complex).copy()
    x[0] = -sigma * x[0]
    return x - w * (2.0 * np.vdot(w, x) / wnorm2)


def _complement_embed(v, y):
    y = np.asarray(y, dtype=complex)
    padded = np.concatenate([np.zeros(1, dtype=complex), y])
    return _reflect_adjoint(v, padded)


def _scale_pair(draw, config, shaping, quant):
    n, k = config.n, config.k
    s_norm, g1_norm, z1_norm = (float(np.linalg.norm(v)) for v in (draw.s, draw.g1, draw.z1))
    if min(s_norm, g1_norm, z1_norm) <= 0:
        raise DegenerateDrawError("degenerate draw in the equivalent model")
    shat = np.zeros(n, dtype=complex)
    shat[:k] = (s_norm / g1_norm) * np.asarray(shaping(draw.d)) * draw.g1
    shat_norm = float(np.linalg.norm(shat))
    alpha = shat_norm / z1_norm
    if shat_norm <= 0 or not np.isfinite(alpha):
        raise DegenerateDrawError("degenerate draw in the equivalent model")
    qz = np.asarray(qt.quantize(quant, alpha * draw.z1))
    qz_norm = float(np.linalg.norm(qz))
    if qz_norm <= 0:
        raise DegenerateDrawError("degenerate quantized draw")
    return alpha, float(np.sqrt(config.power_limit * n) / qz_norm), qz, shat


def _evaluate(draw, config, shaping, quant):
    alpha, eta, qz, shat = _scale_pair(draw, config, shaping, quant)
    d, g1, z1, z2_tail, k = draw.d, draw.g1, draw.z1, draw.z2[1:], config.k
    s_norm, g1_norm, z1_norm = (float(np.linalg.norm(v)) for v in (draw.s, draw.g1, draw.z1))
    c1 = complex(np.vdot(z1, qz) / (alpha * (z1_norm * z1_norm)))
    c2 = float(np.linalg.norm(_reflect(z1, qz)[1:]) / np.linalg.norm(z2_tail))
    mixed = _complement_embed(shat, z2_tail)[:k]
    w = c1 * d * shat[:k] + c2 * d * mixed
    g2_rot = _reflect(draw.s, draw.g2)
    denom = float(np.linalg.norm(g2_rot[1:]))
    if denom <= 0:
        raise DegenerateDrawError("degenerate rotated interference draw")
    t_g = float(np.linalg.norm(_reflect(g1, w)[1:]) / denom)
    t_s = complex(np.vdot(g1, w) / (g1_norm * s_norm)
                  - t_g * g2_rot[0] / s_norm)
    return dict(alpha=alpha, eta=eta, qnorm=float(np.linalg.norm(qz)),
                c1=c1, c2=c2, t_s=t_s, t_g=t_g)


def _sample_coupled(models, rng, trials, users=1):
    """The first ``users`` users of each trial; ``users = K`` is the whole K-user model."""
    config = models[0].config
    outs = [{name: np.empty((trials, users), dtype=complex)
             for name in ("s", "y_bar", "g2_user")}
            | {"signal_gain": np.empty(trials, dtype=complex)}
            | {name: np.empty(trials)
               for name in ("interference_gain", "input_scale", "power_scale")}
            for _ in models]
    noise = np.empty((trials, users), dtype=complex)
    for t in range(trials):
        draw = _raw_draw(config, rng)
        noise[t] = _noise(users, config.sigma2_noise, rng)
        s_k, g2_k, n_k = draw.s[:users], draw.g2[:users], noise[t]
        for m, out in zip(models, outs):
            ev = _evaluate(draw, config, m.shaping, m.quant)
            out["s"][t] = s_k
            out["y_bar"][t] = _y_bar(m.scalar, s_k, g2_k) + n_k
            out["signal_gain"][t] = ev["t_s"]
            out["g2_user"][t] = g2_k
            out["interference_gain"][t] = ev["t_g"]
            out["input_scale"][t] = ev["alpha"]
            out["power_scale"][t] = ev["eta"]
    for out in outs:
        eta, t_s, t_g = (out[name][:, None]
                         for name in ("power_scale", "signal_gain", "interference_gain"))
        out["y_hat"] = eta * (t_s * out["s"] + t_g * out["g2_user"]) + noise
    return [md.CoupledSamples(**out) for out in outs]


def _y_bar(model, s, g2):
    return model.power_scale * (model.signal_gain * s + model.interference_gain * g2)


def _mid_deviations(models, rng, trials):
    """Each member's ||y_mid - y_bar|| on user 0, y_mid from the scalar model at
    each trial's own (alpha, eta), both with the trial's noise."""
    config = models[0].config
    y_mid, y_bar = (np.empty((len(models), trials), dtype=complex) for _ in range(2))
    for t in range(trials):
        draw = _raw_draw(config, rng)
        n_0 = _noise(1, config.sigma2_noise, rng)[0]
        for i, m in enumerate(models):
            ev = _evaluate(draw, config, m.shaping, m.quant)
            ts_mid, tg_mid, _, _ = md.scalar_gains_at(
                m.scalar.moments, config.sigma2_sym, qt.gaussian_moments(m.quant, ev["alpha"]))
            y_mid[i, t] = ev["eta"] * (ts_mid * draw.s[0] + tg_mid * draw.g2[0]) + n_0
            y_bar[i, t] = _y_bar(m.scalar, draw.s[0], draw.g2[0]) + n_0
    return [met.l2_deviation(x, y).value for x, y in zip(y_mid, y_bar)]


def _evaluations(config, shaping, quant, rng, trials, users):
    """Each trial's gains (alpha, eta, qnorm, c1, c2, t_s, t_g), reading each
    trial's noise as the samplers do."""
    out = []
    for _ in range(trials):
        draw = _raw_draw(config, rng)
        _noise(users, config.sigma2_noise, rng)
        out.append(_evaluate(draw, config, shaping, quant))
    return out


def _feasibility_deviation(config, quant, grid, rng, trials):
    members = grid.members()
    limits = {f.label: md.asymptotic_model(config, f, quant) for f in members}
    total = 0.0
    for _ in range(trials):
        draw = _raw_draw(config, rng)
        worst = 0.0
        for f in members:
            alpha, eta, _, _ = _scale_pair(draw, config, f, quant)
            limit = limits[f.label]
            worst = max(worst, math.hypot(eta - limit.power_scale, alpha - limit.input_scale))
        total += worst
    return total / trials


# -- block against reference ----------------------------------------------------


def _assert_same_samples(block, reference):
    assert len(block) == len(reference)
    for b, r in zip(block, reference):
        for f in dataclasses.fields(md.CoupledSamples):
            x, y = getattr(b, f.name), getattr(r, f.name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name


@pytest.mark.parametrize("k", [16, 64, 1024])
@pytest.mark.parametrize("name", list(QUANTS))
def test_block_matches_member_by_member_reference(name, k):
    quant = QUANTS[name]
    cfg = md.SystemConfig.with_gamma(k=k, gamma=4.0, sigma2_noise=0.1)
    coupled = [md.functional_models(cfg, f, quant) for f in GRID.members()]
    assert len(coupled) == 11
    _assert_same_samples(md.sample_coupled(cfg, quant, GRID.members(), RngStream(k, 1), 12),
                         _sample_coupled(coupled, RngStream(k, 1), 12))
    _assert_same_samples([coupled[5].sample(RngStream(k, 2), 12)],
                         _sample_coupled([coupled[5]], RngStream(k, 2), 12))
    block = opt.feasibility_deviation(cfg, quant, GRID, RngStream(k, 3), 6)
    reference = _feasibility_deviation(cfg, quant, GRID, RngStream(k, 3), 6)
    assert block.hex() == reference.hex()


@pytest.mark.parametrize("name", list(QUANTS))
def test_sup_deviation_parameter_term_matches_the_trial_by_trial_reference(name, monkeypatch):
    """sup_deviation's ||y_mid - y_bar|| of each member, without the noise that
    cancels, against y_mid and y_bar formed per trial with it."""
    cfg = md.SystemConfig.with_gamma(k=16, gamma=4.0, sigma2_noise=0.1)
    members = GRID.members()
    values = []
    original = opt.l2_deviation

    def recorded(x, y):
        est = original(x, y)
        values.append(est.value)
        return est

    monkeypatch.setattr(opt, "l2_deviation", recorded)
    trials = _across_chunks(cfg, len(members))
    opt.sup_deviation(cfg, QUANTS[name], members, RngStream(16, 19), trials)
    reference = _mid_deviations([md.functional_models(cfg, f, QUANTS[name]) for f in members],
                                RngStream(16, 19), trials)
    assert len(values) == 2 * len(members)
    np.testing.assert_allclose(values[1::2], reference, rtol=1e-12, atol=0)


def _across_chunks(cfg, members):
    """Trials that fill two chunks and part of a third."""
    size = md._chunk_draws(cfg, members)
    return 2 * size + size // 2 + 1


@pytest.mark.parametrize("k", [16, 64])
@pytest.mark.parametrize("name", ["one_bit", "phase_ce8"])
def test_chunk_boundaries_match_the_reference(name, k):
    quant = QUANTS[name]
    cfg = md.SystemConfig.with_gamma(k=k, gamma=4.0, sigma2_noise=0.1)
    members = GRID.members()
    coupled = [md.functional_models(cfg, f, quant) for f in members]
    trials = _across_chunks(cfg, len(members))
    _assert_same_samples(md.sample_coupled(cfg, quant, members, RngStream(k, 4), trials),
                         _sample_coupled(coupled, RngStream(k, 4), trials))
    trials = _across_chunks(cfg, 1)
    _assert_same_samples([coupled[5].sample(RngStream(k, 5), trials)],
                         _sample_coupled([coupled[5]], RngStream(k, 5), trials))
    rng, ref = RngStream(k, 6), RngStream(k, 6)
    _assert_same_samples(md.sample_coupled(cfg, quant, [members[5]], rng, trials, users=k),
                         _sample_coupled([coupled[5]], ref, trials, users=k))
    assert _state(rng) == _state(ref)
    # The gains sample_coupled does not return, on the same K-user draws.
    chunks = md.draw_chunks(cfg, RngStream(k, 6), trials, 1, users=k)
    block = [md.evaluate(draw, cfg, [members[5]], quant) for _, draw, _ in chunks]
    reference = _evaluations(cfg, members[5], quant, RngStream(k, 6), trials, users=k)
    for f in dataclasses.fields(md.Evaluation):
        x = np.concatenate([getattr(ev, f.name)[:, 0] for ev in block])
        y = np.array([ev[f.name] for ev in reference])
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name
    trials = _across_chunks(cfg, len(members))
    block = opt.feasibility_deviation(cfg, quant, GRID, RngStream(k, 7), trials)
    reference = _feasibility_deviation(cfg, quant, GRID, RngStream(k, 7), trials)
    assert block.hex() == reference.hex()


def _state(rng):
    return repr(rng.generator.bit_generator.state)


@pytest.mark.parametrize("k", [8, 16, 64])
def test_one_call_draws_match_the_call_per_field_reference(k, one_row):
    """The same numbers in the same stream order, and the same generator state after."""
    cfg = md.SystemConfig.with_gamma(k=k, gamma=4.0)
    rng, ref = RngStream(k, 9), RngStream(k, 9)
    for _ in range(3):
        draw = one_row(cfg, rng)
        for name, x in _raw_draw_fields(cfg, ref).items():
            y = getattr(draw, name)[0]
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert sample_singular_values(cfg.n, k, rng).tobytes() == \
        _singular_values(cfg.n, k, ref).tobytes()
    assert sample_complex_gaussian(cfg.n, 0.1, rng).tobytes() == \
        _complex_gaussian(cfg.n, 0.1, ref).tobytes()
    assert _state(rng) == _state(ref)


def _original_config(k, geometry):
    """gamma = 4, or N = K + 1: the worst Gram conditioning a config allows."""
    if geometry == "gamma4":
        return md.SystemConfig.with_gamma(k=k, gamma=4.0, sigma2_noise=0.1)
    return md.SystemConfig(n=k + 1, k=k, sigma2_noise=0.1)


def _assert_same_batch(block, reference, batch_type):
    for f in dataclasses.fields(batch_type):
        x, y = getattr(block, f.name), getattr(reference, f.name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name


ORIGINAL_CASES = [(md.rzf(0.25), "gamma4"), (md.mf(), "gamma4"), (md.zf(), "gamma4"),
                  (md.zf(), "k_plus_1")]


@pytest.mark.parametrize("k", [8, 16, 64])
@pytest.mark.parametrize("name", list(QUANTS))
def test_original_model_chunks_match_the_trial_by_trial_reference(name, k):
    """The Gram-eigh precoder gives the SVD reference's bits, across chunk boundaries."""
    for shaping, geometry in ORIGINAL_CASES:
        cfg = _original_config(k, geometry)
        trials = _across_chunks(cfg, k)  # a chunk holds _chunk_draws(cfg, K) channels of K x N
        rng, ref = RngStream(k, 10), RngStream(k, 10)
        block = md.simulate_original(cfg, shaping, QUANTS[name], rng, trials)
        reference = _simulate_original(cfg, shaping, QUANTS[name], ref, trials)
        _assert_same_batch(block, reference, md.OriginalBatch)
        assert _state(rng) == _state(ref)


@pytest.mark.parametrize("shaping, geometry", ORIGINAL_CASES,
                         ids=["rzf", "mf", "zf", "zf_n_k_plus_1"])
@pytest.mark.parametrize("k", [8, 16, 64])
def test_original_model_precoder_matches_the_svd_reference(k, shaping, geometry):
    """Through a near-identity quantizer, y / eta shows the precoder itself."""
    cfg = _original_config(k, geometry)
    trials = _across_chunks(cfg, k)
    quant = qt.identity_like()
    block = md.simulate_original(cfg, shaping, quant, RngStream(k, 12), trials)
    reference = _simulate_original(cfg, shaping, quant, RngStream(k, 12), trials)
    assert block.s.tobytes() == reference.s.tobytes()
    x, y = block.y / block.eta[:, None], reference.y / reference.eta[:, None]
    assert np.abs(x - y).max() <= 1e-10 * np.abs(y).max()
    np.testing.assert_allclose(block.eta, reference.eta, rtol=1e-10)


def test_noiseless_configs_read_no_noise():
    """Noise variance 0 reads nothing: both chunk readers keep the reference's stream."""
    k = 16
    cfg = md.SystemConfig.with_gamma(k=k, gamma=4.0, sigma2_noise=0.0)
    trials = _across_chunks(cfg, k)
    rng, ref = RngStream(k, 13), RngStream(k, 13)
    _assert_same_batch(md.simulate_original(cfg, md.rzf(0.25), qt.one_bit(), rng, trials),
                       _simulate_original(cfg, md.rzf(0.25), qt.one_bit(), ref, trials),
                       md.OriginalBatch)
    assert _state(rng) == _state(ref)
    trials = _across_chunks(cfg, 1)
    rng, ref = RngStream(k, 14), RngStream(k, 14)
    coupled = md.functional_models(cfg, md.rzf(0.25), qt.one_bit())
    _assert_same_samples(md.sample_coupled(cfg, qt.one_bit(), [md.rzf(0.25)], rng, trials,
                                           users=k),
                         _sample_coupled([coupled], ref, trials, users=k))
    assert _state(rng) == _state(ref)


@pytest.mark.parametrize("k", [8, 64])
def test_each_row_of_a_block_is_that_trial_alone(k, one_row):
    """A one-trial chunk is row 0 of a 12-trial chunk, and each row of that block
    evaluates under the grid to the bits of the row evaluated alone."""
    cfg = md.SystemConfig.with_gamma(k=k, gamma=4.0)
    draw = one_row(cfg, RngStream(k, 15))
    (rows, block, noise), = md.draw_chunks(cfg, RngStream(k, 15), 12, 1)
    assert (rows, noise.shape) == (slice(0, 12), (12, 0))
    names = [f.name for f in dataclasses.fields(md.RawDraw) if f.init]
    for name in names:
        x, y = getattr(draw, name)[0], getattr(block, name)[0]
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    members = GRID.members()
    whole = md.evaluate(block, cfg, members, qt.phase_ce(8))
    for i in range(12):
        row = md.RawDraw(**{name: getattr(block, name)[i:i + 1] for name in names})
        alone = md.evaluate(row, cfg, members, qt.phase_ce(8))
        for name, x in vars(whole).items():
            assert x[i].tobytes() == getattr(alone, name)[0].tobytes(), (i, name)


def test_original_model_raises_on_a_vanishing_quantized_vector(monkeypatch):
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0)
    original = md.quantize

    def quantize(spec, z):
        out = original(spec, z)
        out[3] = 0  # one trial of the chunk
        return out

    monkeypatch.setattr(md, "quantize", quantize)
    with pytest.raises(DegenerateDrawError):
        md.simulate_original(cfg, md.rzf(0.25), qt.one_bit(), RngStream(8, 11), 10)


def test_chunk_size_bounds_the_block():
    """At most 2**14 complex entries per (draws x members x N) array, and one draw."""
    for k, one, grid in ((64, 64, 5), (256, 16, 1), (1024, 4, 1)):
        cfg = md.SystemConfig.with_gamma(k=k, gamma=4.0)
        assert (md._chunk_draws(cfg, 1), md._chunk_draws(cfg, 11)) == (one, grid)


# -- structure ------------------------------------------------------------------


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_draw_and_one_quantize_per_chunk_serve_the_grid_without_moment_calls(monkeypatch):
    """One draw per trial, one quantize call per chunk, and no moment call."""
    cfg = md.SystemConfig.with_gamma(k=16, gamma=4.0)
    for f in GRID.members():  # the limits are built (and cached) before counting
        md.asymptotic_model(cfg, f, qt.one_bit())
    size = md._chunk_draws(cfg, 11)
    trials = 2 * size + 1
    draws = _count_calls(monkeypatch, md, "sample_singular_values")
    quantizes = _count_calls(monkeypatch, md, "quantize")
    moments = _count_calls(monkeypatch, md, "gaussian_moments")
    md.sample_coupled(cfg, qt.one_bit(), GRID.members(), RngStream(4, 0), trials)
    assert (len(draws), len(quantizes), len(moments)) == (trials, 3, 0)


@pytest.mark.parametrize("name", ["one_bit", "uniform_iq4"])
def test_quantize_gets_one_row_per_draw_only_under_one_bit(monkeypatch, name):
    """One-bit quantizes each draw's z1 once; a multi-level quantizer each alpha z1."""
    cfg = md.SystemConfig.with_gamma(k=16, gamma=4.0)
    shapes = []
    original = md.quantize

    def recorded(spec, z):
        shapes.append(np.shape(z))
        return original(spec, z)

    monkeypatch.setattr(md, "quantize", recorded)
    (_, block, _), = md.draw_chunks(cfg, RngStream(16, 17), 5, 11)
    md.evaluate(block, cfg, GRID.members(), QUANTS[name])
    assert shapes == [(5, cfg.n) if name == "one_bit" else (5, 11, cfg.n)]


@pytest.mark.parametrize("name", list(QUANTS))
def test_every_scale_and_gain_is_per_draw_and_member(name):
    """A (draws x 1) eta would make feasibility_deviation's zip read member 0 alone."""
    cfg = md.SystemConfig.with_gamma(k=16, gamma=4.0)
    (_, block, _), = md.draw_chunks(cfg, RngStream(16, 18), 5, 11)
    alpha, eta, qnorm, _, shat = md.scale_pair(block, cfg, GRID.members(), QUANTS[name])
    assert alpha.shape == eta.shape == qnorm.shape == (5, 11)
    assert shat.shape == (5, 11, cfg.k)
    ev = md.evaluate(block, cfg, GRID.members(), QUANTS[name])
    for f in dataclasses.fields(md.Evaluation):
        assert getattr(ev, f.name).shape == (5, 11), f.name


def test_draw_chunks_draws_one_spectrum_per_trial(monkeypatch):
    """The tier-1 twin of the benchmark tracer's count of spectrum draws."""
    cfg = md.SystemConfig.with_gamma(k=16, gamma=4.0)
    trials = _across_chunks(cfg, 1)
    spectra = _count_calls(monkeypatch, md, "sample_singular_values")
    chunks = list(md.draw_chunks(cfg, RngStream(16, 16), trials, 1, users=1))
    assert (len(chunks), sum(len(block.d) for _, block, _ in chunks)) == (3, trials)
    assert len(spectra) == trials


def test_degenerate_draw_in_a_block_raises_after_one_draw(monkeypatch, zeroed_stream):
    cfg = md.SystemConfig.with_gamma(k=16, gamma=4.0)
    rng = zeroed_stream(5, 0, (2, 2, cfg.k), 1)  # the first trial's g1 vanishes
    calls = _count_calls(monkeypatch, md, "sample_singular_values")
    with pytest.raises(DegenerateDrawError):
        md.sample_coupled(cfg, qt.one_bit(), GRID.members(), rng, 5)
    assert len(calls) == 1


def test_block_rows_follow_the_shapings(one_row):
    cfg = md.SystemConfig.with_gamma(k=16, gamma=4.0)
    draw = one_row(cfg, RngStream(6, 0))
    members = GRID.members()
    block = md.evaluate(draw, cfg, members, qt.phase_ce(8))
    for i in (0, 4, 10):
        alone = md.evaluate(draw, cfg, [members[i]], qt.phase_ce(8))
        assert [getattr(block, f)[0, i] for f in ("alpha", "eta", "c1", "c2", "t_s", "t_g")] \
            == [getattr(alone, f)[0, 0] for f in ("alpha", "eta", "c1", "c2", "t_s", "t_g")]


def test_degenerate_draw_inside_a_chunk_raises_at_once(monkeypatch, zeroed_stream):
    cfg = md.SystemConfig.with_gamma(k=16, gamma=4.0)
    size = md._chunk_draws(cfg, 1)
    rng = zeroed_stream(7, 0, (2, 2, cfg.n), size + 3)  # that trial's z1 vanishes
    calls = _count_calls(monkeypatch, md, "sample_singular_values")
    with pytest.raises(DegenerateDrawError):
        md.sample_coupled(cfg, qt.one_bit(), [md.rzf(0.25)], rng, 3 * size)
    assert len(calls) == size + 3


@pytest.mark.parametrize("k, short", [(16, 200), (64, 50), (64, 65)])
def test_a_shorter_draw_is_a_prefix_of_a_longer_one(k, short):
    """What lets the acceptance battery slice one draw instead of drawing again;
    at K = 64 the long draw spans four chunks and the short one part of one,
    or one full chunk and a chunk of one row."""
    cfg = md.SystemConfig.with_gamma(k=k, gamma=4.0, sigma2_noise=0.1)
    coupled = md.functional_models(cfg, md.rzf(0.25), qt.one_bit())
    long, alone = (coupled.sample(RngStream(k, 8), trials) for trials in (250, short))
    for f in dataclasses.fields(md.CoupledSamples):
        x, y = getattr(long, f.name)[:short], getattr(alone, f.name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name
