"""Acceptance battery.

Each test is one exit criterion, run at its stated tolerance, printing one
pass/fail line (run pytest with -s to stream them).  The configuration used
throughout is the regularized-zero-forcing shaping with rho = 0.25, the sign
quantizer with amplitude 1/sqrt(2), QPSK symbols, aspect ratio 4, noise
variance 0.1 and unit power budget, matching the convergence/bound setup the
criteria specify.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import stats

from qprec import bounds as bnd
from qprec import metrics as met
from qprec import models as md
from qprec import optimizer as opt
from qprec import quantizer as qt
from qprec import spectral as sp
from qprec.stochastic import RngStream

GAMMA = 4.0
NOISE = 0.1
ONE_BIT = qt.one_bit(1.0 / math.sqrt(2.0))
RZF = md.rzf(0.25)
GRID = opt.FamilyGrid(rho_min=1e-3, rho_max=10.0, points=9)


def _config(k: int) -> md.SystemConfig:
    return md.SystemConfig.with_gamma(k=k, gamma=GAMMA, sigma2_noise=NOISE)


_started = 0.0


def _restart_clock() -> None:
    global _started
    _started = time.perf_counter()


@pytest.fixture(scope="module", autouse=True)
def _module_clock():
    _restart_clock()


@pytest.fixture(autouse=True)
def _criterion_clock():
    """Restart the clock after each criterion, so the set-up of a shared module
    fixture counts toward the first criterion that uses it."""
    yield
    _restart_clock()


def _report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    wall = time.perf_counter() - _started
    print(f"[{status}] criterion {criterion:2d}: {label}{suffix}  [{wall:.1f} s]")
    assert ok, f"criterion {criterion}: {label}{suffix}"


def _prefix(samples: md.CoupledSamples, trials: int) -> md.CoupledSamples:
    """The first ``trials`` trials, bitwise the samples of a draw of that many."""
    return md.CoupledSamples(**{f.name: getattr(samples, f.name)[:trials]
                                for f in dataclasses.fields(samples)})


@pytest.fixture(scope="module")
def ten_seed_k256():
    """Coupled per-user samples at K=256 for ten seeds (criteria 3, 5, 6 and 7)."""
    cfg = _config(256)
    coupled = md.functional_models(cfg, RZF, ONE_BIT)
    samples = {seed: coupled.sample(RngStream(seed, 256), 2500)
               for seed in range(1, 11)}
    return cfg, coupled.scalar, samples


def test_criterion_01_bulk_spectrum_support():
    cfg = _config(256)
    lo, hi = 0.45, 1.55
    ok = True
    worst = (np.inf, -np.inf)
    for seed in range(1, 21):
        d = sp.sample_channel(cfg, RngStream(seed, 0))
        worst = (min(worst[0], d.min()), max(worst[1], d.max()))
        ok &= bool(np.all((d >= lo) & (d <= hi)))
    _report(1, "all singular values inside [0.45, 1.55] for 20 seeds", ok,
            f"range [{worst[0]:.4f}, {worst[1]:.4f}]")


def test_criterion_02_statistical_equivalence():
    cfg = md.SystemConfig.with_gamma(k=8, gamma=4.0, sigma2_noise=NOISE)
    orig = md.simulate_original(cfg, RZF, ONE_BIT, RngStream(101, 0), 10_000)
    equiv = md.simulate_equivalent(cfg, RZF, ONE_BIT, RngStream(202, 0), 10_000)
    ks = stats.ks_2samp(orig.y[:, 0].real, equiv.y_hat[:, 0].real).statistic
    _report(2, "KS distance between matched real-part marginals < 0.03",
            ks < 0.03, f"ks = {ks:.4f}")


@pytest.fixture(scope="module")
def sinr_ladder(ten_seed_k256):
    """SINR gaps of seeds 1-3 at 2000 trials, and the samples behind them.

    At K = 256 the samples are the first 2000 trials of ``ten_seed_k256``'s,
    which come from the same streams.
    """
    _, _, k256_samples = ten_seed_k256
    gaps, samples = {}, {}
    for k in (16, 64, 256):
        cfg = _config(k)
        coupled = md.functional_models(cfg, RZF, ONE_BIT)
        limit = met.sinr_bar(cfg, RZF, ONE_BIT, model=coupled.scalar)
        per_seed = []
        for seed in (1, 2, 3):
            if k == 256:
                s = _prefix(k256_samples[seed], 2000)
            else:
                s = coupled.sample(RngStream(seed, k), 2000)
            samples[seed, k] = s
            est = met.sinr_hat_coupled(s, coupled.scalar, cfg)
            per_seed.append(abs(est.value - limit))
        gaps[k] = (float(np.mean(per_seed)), limit)
    return gaps, samples


def test_criterion_03_sinr_convergence(sinr_ladder):
    gaps, _ = sinr_ladder
    means = [gaps[k][0] for k in (16, 64, 256)]
    rel = gaps[256][0] / gaps[256][1]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    _report(3, "SINR gap strictly decreasing and < 5% relative at K=256",
            decreasing and rel < 0.05,
            "gaps " + " > ".join(f"{m:.4f}" for m in means) + f", rel {rel:.3%}")


def test_criterion_04_sep_convergence():
    gaps = {}
    for k, trials in ((16, 30_000), (256, 100_000)):
        cfg = _config(k)
        coupled = md.functional_models(cfg, RZF, ONE_BIT)
        model = coupled.scalar
        rule = met.default_rule(model, cfg)
        samples = coupled.sample(RngStream(404, k), trials)
        hat = met.sep_from_samples(samples.y_hat, samples.s, rule)
        bar = met.sep_bar(model, rule, cfg, RngStream(405, k), 400_000)
        gaps[k] = abs(hat.value - bar.value)
    _report(4, "SEP gap < 0.01 absolute at K=256 (1e5 trials), shrinking in K",
            gaps[256] < 0.01 and gaps[256] < gaps[16],
            f"gap {gaps[16]:.5f} (K=16) -> {gaps[256]:.5f} (K=256)")


def test_criterion_05_ky_fan_rate(sinr_ladder):
    """Seed 3 at 500 trials; at K = 64 and 256, the first trials of criterion 3's."""
    ks = (64, 256, 1024)
    dists = []
    for k in ks:
        cfg = _config(k)
        coupled = md.functional_models(cfg, RZF, ONE_BIT)
        if k in (64, 256):
            s = _prefix(sinr_ladder[1][3, k], 500)
        else:
            s = coupled.sample(RngStream(3, k), 500)
        dists.append(met.ky_fan_distance(
            s.signal_gain, np.full(len(s.s), coupled.scalar.signal_gain)))
    slope = float(np.polyfit(np.log(ks), np.log(dists), 1)[0])
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))
    _report(5, "Ky Fan distance decreasing with log-log slope <= -0.2",
            decreasing and slope <= -0.2,
            "d = " + " > ".join(f"{d:.4f}" for d in dists) + f", slope {slope:.3f}")


def test_criterion_06_sep_gap_bound(ten_seed_k256):
    cfg, model, samples = ten_seed_k256
    rule = met.default_rule(model, cfg)
    lm = bnd.sep_sensitivity(cfg, model, rule.beta)
    lm_mean = float(np.mean(lm))
    bar = met.sep_bar(model, rule, cfg, RngStream(606, 0), 200_000)
    holds = []
    detail = []
    for seed, s in samples.items():
        hat = met.sep_from_samples(s.y_hat, s.s, rule)
        d_sig = met.ky_fan_distance(s.signal_gain,
                                    np.full(len(s.s), model.signal_gain))
        d_int = met.ky_fan_distance(s.interference_gain * s.g2_user,
                                    model.interference_gain * s.g2_user)
        bound = lm_mean * (d_sig + d_int)
        gap = abs(hat.value - bar.value)
        holds.append(gap <= bound)
        detail.append(f"{gap:.4f}<={bound:.3f}")
    _report(6, "SEP gap bound holds on 10/10 seeds at K=256", all(holds),
            f"{sum(holds)}/10, e.g. {detail[0]}")


def test_criterion_07_sinr_gap_bound(ten_seed_k256):
    cfg, model, samples = ten_seed_k256
    limit = met.sinr_bar(cfg, RZF, ONE_BIT, model=model)
    lk = bnd.sinr_sensitivity(cfg, model)
    holds = []
    detail = []
    for seed, s in samples.items():
        est = met.sinr_hat_coupled(s, model, cfg)
        dev = met.l2_deviation(s.y_hat, s.y_bar)
        gap = abs(est.value - limit)
        bound = lk * dev.value
        holds.append(gap <= bound)
        detail.append(f"{gap:.4f}<={bound:.2f}")
    _report(7, "SINR gap bound holds on 10/10 seeds at K=256 (coupled draws)",
            all(holds), f"{sum(holds)}/10, e.g. {detail[0]}")


def test_criterion_08_lss_variance():
    m1 = bnd.assumption_m1(md.mf(), GAMMA)
    ok = True
    detail = []
    for k in (64, 256):
        vals = [sp.lss_statistic(sp.sample_singular_values(4 * k, k, RngStream(8, 1000 * k + r)),
                                 lambda d: d * d) for r in range(200)]
        var = float(np.var(vals, ddof=1))
        bound = sp.lss_variance_bound(m1, k)
        ok &= var <= bound
        detail.append(f"K={k}: {var:.2e}<={bound:.2e}")
    _report(8, "linear spectral statistic variance below 2 M1^2 / K", ok,
            "; ".join(detail))


def test_criterion_09_quadratic_form_tails():
    from qprec.stochastic import sample_complex_gaussian

    k = 256
    m1 = 1.75**2  # bound on the d^2 statistic over the padded bulk support
    reps = 500
    eps_grid = (0.2, 0.4)
    exceed = {e: 0 for e in eps_grid}
    cross = {e: 0 for e in eps_grid}
    for r in range(reps):
        rng = RngStream(9, r)
        d = sp.sample_singular_values(4 * k, k, rng)
        g1 = sample_complex_gaussian(k, 1.0, rng)
        g2 = sample_complex_gaussian(k, 1.0, rng)
        quad = np.real(np.vdot(g1, d * d * g1)) / k
        crossval = abs(np.vdot(g1, d * d * g2)) / k
        for e in eps_grid:
            exceed[e] += abs(quad - 1.0) >= e
            cross[e] += crossval >= e
    ok = True
    detail = []
    for e in eps_grid:
        qb = bnd.quad_form_bound(e, k, m1)
        cb = bnd.cross_form_bound(e, k, m1)
        ok &= exceed[e] / reps <= qb and cross[e] / reps <= cb
        detail.append(f"eps={e}: quad {exceed[e] / reps:.3f}<={qb:.3g}, "
                      f"cross {cross[e] / reps:.3f}<={cb:.3g}")
    _report(9, "quadratic/cross form tails below their explicit bounds", ok,
            "; ".join(detail))


def test_criterion_10_quantizer_moments_and_envelopes():
    target = math.sqrt(2.0 / math.pi)
    gm = qt.gaussian_moments(ONE_BIT, 0.77)
    quad_ok = abs(gm.ezq - target) < 1e-6

    rng = np.random.default_rng(10)
    z = (rng.standard_normal(10**6) + 1j * rng.standard_normal(10**6)) / math.sqrt(2)
    q = np.asarray(qt.quantize(ONE_BIT, 0.77 * z))
    mc_ok = abs(np.mean(np.conj(z) * q) - gm.ezq) < 3e-3

    env = qt.envelope(ONE_BIT, "real", 0.1)
    grid = np.linspace(-3, 3, 101)
    zz = grid[:, None] + 1j * grid[None, :]
    lo, hi, mid = env.lower(zz), env.upper(zz), env.component_value(zz)
    sandwich_ok = bool(np.all(lo <= mid + 1e-12) and np.all(mid <= hi + 1e-12))

    pts = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    pts2 = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    lip = np.abs(np.asarray(env.lower(pts)) - np.asarray(env.lower(pts2)))
    lip_ok = bool(np.all(lip <= np.abs(pts - pts2) / 0.1 + 1e-9))

    gap_ok = True
    for tau in (0.1, 0.01):
        val, bound = qt.envelope_gap_expectation(ONE_BIT, "real", tau, 1.0)
        gap_ok &= val <= bound
    ok = quad_ok and mc_ok and sandwich_ok and lip_ok and gap_ok
    _report(10, "quantizer moment identities and envelope checks", ok,
            f"quadrature {quad_ok}, MC {mc_ok}, sandwich {sandwich_ok}, "
            f"Lipschitz {lip_ok}, gap bounds {gap_ok}")


def test_criterion_11_optimizer_stability():
    asym = {k: opt.solve_asymptotic(_config(k), ONE_BIT, GRID) for k in (64, 256)}

    rel_gap = {}
    fin256 = {}
    for k, seeds in ((64, (1, 2, 3)), (256, tuple(range(1, 11)))):
        gaps = []
        for seed in seeds:
            fin = opt.solve_finite(_config(k), ONE_BIT, GRID, seed=seed, trials=1000)
            gaps.append(abs(fin.value - asym[k].value))
            if k == 256:
                fin256[seed] = fin
        rel_gap[k] = float(np.mean(gaps)) / asym[k].value

    cfg = _config(256)
    l_rho = 0.0
    models = {}
    for f in GRID.members():
        models[f.label] = md.asymptotic_model(cfg, f, ONE_BIT)
        l_rho = max(l_rho, bnd.sinr_sensitivity(cfg, models[f.label]))
    holds = []
    for seed, fin in fin256.items():
        sup_dev = 0.0
        for s in md.sample_coupled(cfg, ONE_BIT, GRID.members(), RngStream(seed, 7000), 250):
            dev = (float(np.sqrt(np.mean(np.abs(s.y_hat - s.y_bar) ** 2)))
                   + float(np.sqrt(np.mean(np.abs(s.y_mid - s.y_bar) ** 2))))
            sup_dev = max(sup_dev, dev)
        holds.append(abs(fin.value - asym[256].value) <= l_rho * sup_dev)

    fdev = {}
    for k in (64, 256):
        fdev[k] = opt.feasibility_deviation(_config(k), ONE_BIT, GRID,
                                            RngStream(11, k), 60)
    ok = (rel_gap[256] < 0.10 and rel_gap[256] < rel_gap[64]
          and all(holds) and fdev[256] < fdev[64])
    _report(11, "optimal value gap < 10% and shrinking; deviation bound 10/10",
            ok, f"rel gaps {rel_gap[64]:.3f}->{rel_gap[256]:.3f}, "
                f"bound {sum(holds)}/10, feas dev {fdev[64]:.4f}->{fdev[256]:.4f}")


def test_criterion_12_tail_cascades():
    cfg = _config(256)
    params = bnd.cascade_params(cfg, RZF, ONE_BIT)
    ladder = [10**3, 10**4, 10**5, 10**6]
    tg = [bnd.interference_gain_tail(0.5, k, params) for k in ladder]
    ts = [bnd.signal_gain_tail(0.5, k, params) for k in ladder]
    finite_positive = all(np.isfinite(b.value) and b.value > 0 for b in tg + ts)
    decreasing = (all(b.value < a.value for a, b in zip(tg, tg[1:]))
                  and all(b.value < a.value for a, b in zip(ts, ts[1:])))
    huge = [10**50, 10**60, 10**70, 10**80]
    tg_far = [bnd.interference_gain_tail(0.5, k, params).value for k in huge]
    ts_far = [bnd.signal_gain_tail(0.5, k, params).value for k in huge]
    vanishing = (all(b < a for a, b in zip(tg_far, tg_far[1:]))
                 and all(b < a for a, b in zip(ts_far, ts_far[1:]))
                 and tg_far[-1] < 1e-6 and ts_far[-1] < 1e-3)
    # the cascade thresholds sit far beyond desk scale, so the empirical
    # comparison is vacuously satisfied there; record that state honestly.
    applicable = [b.applicable for b in tg + ts]
    ok = finite_positive and decreasing and vanishing
    _report(12, "tail cascades finite, strictly decreasing, vanishing", ok,
            f"R: {tg[0].value:.3g}->{tg[-1].value:.3g}, "
            f"Rtilde: {ts[0].value:.3g}->{ts[-1].value:.3g}, "
            f"empirical checks applicable at desk scale: {any(applicable)}")
