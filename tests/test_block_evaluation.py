"""The block evaluation against a member-by-member reference, bit for bit.

The reference below is the member-by-member evaluation that the block
replaced: one ``scale_pair``/``evaluate`` per shaping, each with its own
reflector set-ups and quantize call, and one scalar ``gaussian_moments`` call
per trial and member for ``y_mid``.  It is kept verbatim (with the Householder
helpers it called) so the comparison does not lean on the code under test.
"""

import dataclasses

import numpy as np
import pytest

from qprec import models as md
from qprec import optimizer as opt
from qprec import quantizer as qt
from qprec.stochastic import DegenerateDrawError, RngStream

GRID = opt.FamilyGrid(points=9)
QUANTS = {"one_bit": qt.one_bit(), "phase_ce8": qt.phase_ce(8),
          "uniform_iq4": qt.uniform_iq(4, 0.5)}


# -- reference: member by member ------------------------------------------------


def _householder_parts(v):
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


def _reflect(v, x):
    w, wnorm2, sigma = _householder_parts(v)
    x = np.asarray(x, dtype=complex)
    out = x - w * (2.0 * np.vdot(w, x) / wnorm2)
    out[0] = -np.conj(sigma) * out[0]
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
    c1 = complex(np.vdot(z1, qz) / (alpha * z1_norm**2))
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


def _sample_coupled(models, rng, trials):
    config = models[0].config
    outs = [{name: np.empty(trials, dtype=complex)
             for name in ("s", "y_hat", "y_bar", "y_mid", "signal_gain", "g2_user")}
            | {name: np.empty(trials)
               for name in ("interference_gain", "input_scale", "power_scale")}
            for _ in models]
    for t in range(trials):
        draw = md.sample_raw_draw(config, rng)
        noise = md.sample_complex_gaussian(1, config.sigma2_noise, rng)
        s_k, g2_k, n_k = draw.s[0], draw.g2[0], noise[0]
        for m, out in zip(models, outs):
            ev = _evaluate(draw, config, m.shaping, m.quant)
            model = m.scalar
            ts_mid, tg_mid, _, _ = md.scalar_gains_at(
                model.moments, model.sigma2_sym, qt.gaussian_moments(m.quant, ev["alpha"]))
            out["s"][t] = s_k
            out["y_hat"][t] = ev["eta"] * (ev["t_s"] * s_k + ev["t_g"] * g2_k) + n_k
            out["y_bar"][t] = model.power_scale * (model.signal_gain * s_k
                                                   + model.interference_gain * g2_k) + n_k
            out["y_mid"][t] = ev["eta"] * (ts_mid * s_k + tg_mid * g2_k) + n_k
            out["signal_gain"][t] = ev["t_s"]
            out["g2_user"][t] = g2_k
            out["interference_gain"][t] = ev["t_g"]
            out["input_scale"][t] = ev["alpha"]
            out["power_scale"][t] = ev["eta"]
    return [md.CoupledSamples(**out) for out in outs]


def _feasibility_deviation(config, quant, grid, rng, trials):
    members = grid.members()
    limits = {f.label: opt.sigma_asymptotic(f, config, quant) for f in members}
    total = 0.0
    for _ in range(trials):
        draw = md.sample_raw_draw(config, rng)
        worst = 0.0
        for f in members:
            alpha, eta, _, _ = _scale_pair(draw, config, f, quant)
            worst = max(worst, opt.SigmaPair(eta=eta, alpha=alpha).distance(limits[f.label]))
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
    _assert_same_samples(md.sample_coupled(coupled, RngStream(k, 1), 12),
                         _sample_coupled(coupled, RngStream(k, 1), 12))
    _assert_same_samples([coupled[5].sample(RngStream(k, 2), 12)],
                         _sample_coupled([coupled[5]], RngStream(k, 2), 12))
    block = opt.feasibility_deviation(cfg, quant, GRID, RngStream(k, 3), 6)
    reference = _feasibility_deviation(cfg, quant, GRID, RngStream(k, 3), 6)
    assert block.hex() == reference.hex()


# -- structure ------------------------------------------------------------------


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_draw_one_quantize_and_one_moment_call_serve_the_grid(monkeypatch):
    cfg = md.SystemConfig.with_gamma(k=16, gamma=4.0)
    coupled = [md.functional_models(cfg, f, qt.one_bit()) for f in GRID.members()]
    draws = _count_calls(monkeypatch, md, "sample_raw_draw")
    quantizes = _count_calls(monkeypatch, md, "quantize")
    moments = _count_calls(monkeypatch, md, "gaussian_moments")
    md.sample_coupled(coupled, RngStream(4, 0), 7)
    assert (len(draws), len(quantizes), len(moments)) == (7, 7, 1)


def test_degenerate_draw_in_a_block_raises_after_one_draw(monkeypatch):
    cfg = md.SystemConfig.with_gamma(k=16, gamma=4.0)
    good = md.sample_raw_draw(cfg, RngStream(5, 0))
    bad = dataclasses.replace(good, g1=np.zeros_like(good.g1))
    calls = []
    monkeypatch.setattr(md, "sample_raw_draw", lambda config, rng: calls.append(1) or bad)
    coupled = [md.functional_models(cfg, f, qt.one_bit()) for f in GRID.members()]
    with pytest.raises(DegenerateDrawError):
        md.sample_coupled(coupled, RngStream(5, 0), 5)
    assert len(calls) == 1


def test_block_rows_follow_the_shapings():
    cfg = md.SystemConfig.with_gamma(k=16, gamma=4.0)
    draw = md.sample_raw_draw(cfg, RngStream(6, 0))
    members = GRID.members()
    block = md.evaluate(draw, cfg, members, qt.phase_ce(8))
    for i in (0, 4, 10):
        alone = md.evaluate(draw, cfg, [members[i]], qt.phase_ce(8))
        assert [getattr(block, f)[i] for f in ("alpha", "eta", "c1", "c2", "t_s", "t_g")] \
            == [getattr(alone, f)[0] for f in ("alpha", "eta", "c1", "c2", "t_s", "t_g")]
