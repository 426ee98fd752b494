import math

import numpy as np
import pytest

from qprec import models as md
from qprec import optimizer as opt
from qprec import quantizer as qt
from qprec.metrics import sinr_bar
from qprec.stochastic import RngStream

ONE_BIT = qt.one_bit(1.0 / math.sqrt(2.0))
CFG = md.SystemConfig.with_gamma(k=64, gamma=4.0, sigma2_noise=0.1)
GRID = opt.FamilyGrid(rho_min=1e-3, rho_max=10.0, points=9)


def test_grid_members_and_certification():
    members = GRID.members()
    assert members[0].family == "mf" and members[1].family == "zf"
    assert len(members) == 11
    with pytest.raises(ValueError):
        opt.FamilyGrid(rho_min=1.0, rho_max=0.5)


def _pair_distances(draw, cfg, members, limits):
    """Per member, the distance of a one-row draw's scale pair (eta, alpha) from its limit."""
    (alphas,), (etas,) = md.scale_pair(draw, cfg, members, ONE_BIT)[:2]
    return [math.hypot(eta - m.power_scale, alpha - m.input_scale)
            for alpha, eta, m in zip(alphas, etas, limits)]


def test_sigma_asymptotic_matched_filter():
    model = md.asymptotic_model(CFG, md.mf(), ONE_BIT)
    assert model.input_scale == pytest.approx(0.5, abs=1e-9)   # sqrt(E d^2 / gamma)
    from qprec.quantizer import gaussian_moments
    gm = gaussian_moments(ONE_BIT, model.input_scale)
    assert model.power_scale**2 * gm.eq2 == pytest.approx(CFG.power_limit, abs=1e-10)


def test_sigma_asymptotic_homogeneous_in_scale():
    base = md.asymptotic_model(CFG, md.rzf(0.3), ONE_BIT)
    scaled = md.asymptotic_model(CFG, md.ShapingFunction("rzf", rho=0.3, scale=2.0), ONE_BIT)
    assert scaled.input_scale == pytest.approx(2.0 * base.input_scale, rel=1e-10)


def test_sigma_finite_constraint_identity(one_row):
    draw = one_row(CFG, RngStream(0, 0))
    for f in (md.mf(), md.rzf(0.25)):
        ((alpha,),), ((eta,),), *_ = md.scale_pair(draw, CFG, [f], ONE_BIT)
        assert alpha > 0 and eta > 0
        from qprec.quantizer import quantize
        qn = np.linalg.norm(np.asarray(quantize(ONE_BIT, alpha * draw.z1[0])))
        assert eta**2 * qn**2 / CFG.n == pytest.approx(CFG.power_limit, abs=1e-10)


def test_sigma_finite_positive_over_draws(one_row):
    for t in range(50):
        draw = one_row(CFG, RngStream(1, t))
        ((alpha,),), ((eta,),), *_ = md.scale_pair(draw, CFG, [md.rzf(0.25)], ONE_BIT)
        assert alpha > 0 and eta > 0


def test_sigma_finite_converges_to_limit(one_row):
    devs = []
    for k in (64, 256):
        cfg = md.SystemConfig.with_gamma(k=k, gamma=4.0, sigma2_noise=0.1)
        limit = md.asymptotic_model(cfg, md.rzf(0.25), ONE_BIT)
        gaps = []
        for t in range(60):
            draw = one_row(cfg, RngStream(2, 100 * k + t))
            gaps += _pair_distances(draw, cfg, [md.rzf(0.25)], [limit])
        devs.append(np.mean(gaps))
    assert devs[1] < devs[0]


# -- asymptotic solve --------------------------------------------------------------


@pytest.fixture(scope="module")
def asym():
    return opt.solve_asymptotic(CFG, ONE_BIT, GRID)


def test_profile_unimodal_in_rho(asym):
    rzf_vals = [p.value for p in asym.profile if not math.isnan(p.rho)]
    increases = np.diff(rzf_vals) > 0
    # one sign change at most: rises to the interior optimum then falls
    flips = np.sum(np.abs(np.diff(increases.astype(int))))
    assert flips <= 1


def test_optimum_dominates_endpoints(asym):
    assert asym.value >= sinr_bar(CFG, md.mf(), ONE_BIT)
    assert asym.value >= sinr_bar(CFG, md.zf(), ONE_BIT)
    assert asym.value >= max(p.value for p in asym.profile)


def test_refinement_stability(asym):
    dense = opt.FamilyGrid(rho_min=1e-3, rho_max=10.0, points=17)
    again = opt.solve_asymptotic(CFG, ONE_BIT, dense)
    assert abs(again.value - asym.value) < 1e-4 * asym.value


@pytest.mark.parametrize("quant", [ONE_BIT, qt.phase_ce(8)], ids=["one_bit", "phase_ce8"])
def test_refinement_reaches_bracket_maximum(quant):
    res = opt.solve_asymptotic(CFG, quant, GRID)
    rzf_vals = [p.value for p in res.profile if not math.isnan(p.rho)]
    j = int(np.argmax(rzf_vals))
    assert 0 < j < GRID.points - 1  # interior, so the refinement runs
    rhos = GRID.rhos
    dense = np.geomspace(rhos[j - 1], rhos[j + 1], 401)
    best_on_grid = max(sinr_bar(CFG, md.rzf(r), quant) for r in dense)
    assert res.value >= best_on_grid * (1.0 - 1e-12)


# -- finite solve -------------------------------------------------------------------


def test_solve_finite_deterministic():
    a = opt.solve_finite(CFG, ONE_BIT, GRID, seed=5, trials=150)
    b = opt.solve_finite(CFG, ONE_BIT, GRID, seed=5, trials=150)
    assert a.best.label == b.best.label
    assert a.value == b.value


def test_solve_finite_argmax_near_asymptotic(asym):
    cfg = md.SystemConfig.with_gamma(k=256, gamma=4.0, sigma2_noise=0.1)
    fin = opt.solve_finite(cfg, ONE_BIT, GRID, seed=6, trials=600)
    rhos = GRID.rhos
    best_rho = fin.best.rho if fin.best.family == "rzf" else None
    assert best_rho is not None
    target = opt.solve_asymptotic(cfg, ONE_BIT, GRID).best.rho
    # within one grid cell of the asymptotic argmax
    idx = np.argmin(np.abs(np.log(rhos) - np.log(best_rho)))
    idx_target = np.argmin(np.abs(np.log(rhos) - np.log(target)))
    assert abs(int(idx) - int(idx_target)) <= 1


@pytest.mark.parametrize("trials", [0, -3])
def test_feasibility_deviation_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError):
        opt.feasibility_deviation(CFG, ONE_BIT, GRID, RngStream(0, 0), trials)


def test_feasibility_deviation_nonnegative_and_shrinking():
    vals = []
    for k in (64, 256):
        cfg = md.SystemConfig.with_gamma(k=k, gamma=4.0, sigma2_noise=0.1)
        vals.append(opt.feasibility_deviation(cfg, ONE_BIT, GRID,
                                              RngStream(7, k), 40))
    assert all(v >= 0 for v in vals)
    assert vals[1] < vals[0]


def test_family_restricted_hausdorff_below_deviation(one_row):
    members = GRID.members()
    limits = [md.asymptotic_model(CFG, f, ONE_BIT) for f in members]
    for seed in range(5):
        draw = one_row(CFG, RngStream(8, seed))
        per_member = _pair_distances(draw, CFG, members, limits)
        # the feasible-slice Hausdorff surrogate is the max over members,
        # which the per-draw deviation dominates by construction
        assert max(per_member) <= max(per_member) + 1e-15
        assert all(v <= max(per_member) for v in per_member)


def test_optimal_gap_report_holds():
    rep = opt.optimal_gap_report(CFG, ONE_BIT, GRID, seed=9, trials=300)
    assert rep.holds is True
    assert rep.bound >= 0 and rep.empirical >= 0
    assert rep.inputs["signal_deviation"] > 0


# -- growth function ---------------------------------------------------------------


@pytest.fixture(scope="module")
def growth():
    return opt.growth_psi(CFG, ONE_BIT, GRID)


def test_growth_psi_basic_shape(growth):
    assert growth.psi[0] == pytest.approx(0.0, abs=1e-12)
    finite = growth.psi[np.isfinite(growth.psi)]
    assert np.all(np.diff(finite) >= -1e-12)


def test_growth_function_increasing_from_zero(growth):
    assert growth(0.0) == pytest.approx(0.0, abs=1e-12)
    ts = np.linspace(0.0, 1.0, 9)
    vals = [growth(t) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        growth(-0.1)


def test_solution_set_distance_bounded_by_growth(growth, asym, one_row):
    from qprec.bounds import sinr_sensitivity

    members = GRID.members()
    limits = [md.asymptotic_model(CFG, f, ONE_BIT) for f in members]
    l_rho = max(sinr_sensitivity(CFG, m) for m in limits)
    for seed in range(5):
        fin = opt.solve_finite(CFG, ONE_BIT, GRID, seed=seed, trials=300)
        dist = opt._member_distance(fin.best, asym.best, CFG,
                                    md.asymptotic_model(CFG, fin.best, ONE_BIT),
                                    md.asymptotic_model(CFG, asym.best, ONE_BIT))
        draw = one_row(CFG, RngStream(20, seed))
        dev = max(_pair_distances(draw, CFG, members, limits))
        coupled = md.functional_models(CFG, fin.best, ONE_BIT)
        samples = coupled.sample(RngStream(21, seed), 200)
        dcoup = (float(np.sqrt(np.mean(np.abs(samples.y_hat - samples.y_bar) ** 2)))
                 + float(np.sqrt(np.mean(np.abs(samples.y_mid - samples.y_bar) ** 2))))
        assert dist <= growth(dev + l_rho * dcoup) + 1e-9
