import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprec import quantizer as qt

ONE_BIT = qt.one_bit(1.0 / math.sqrt(2.0))
UNIFORM = qt.uniform_iq(levels=4, step=0.5)
PHASE = qt.phase_ce(4, 1.0)
ALL_KINDS = [ONE_BIT, UNIFORM, PHASE, qt.phase_ce(3), qt.phase_ce(8)]

finite_complex = st.builds(complex,
                           st.floats(-50, 50, allow_nan=False),
                           st.floats(-50, 50, allow_nan=False))


def test_one_bit_quadrant_map():
    assert qt.quantize(ONE_BIT, 0.3 - 0.2j) == pytest.approx((1 - 1j) / math.sqrt(2))


@pytest.mark.parametrize("amplitude", [1.0 / math.sqrt(2.0), 1.0, 0.3, 2.5, 1e-3, 7.77])
def test_one_bit_is_two_level_uniform(amplitude):
    spec = qt.one_bit(amplitude)
    assert spec == qt.uniform_iq(levels=2, step=2.0 * amplitude)
    rng = np.random.default_rng(7)
    z = np.concatenate([rng.standard_normal(1000) + 1j * rng.standard_normal(1000),
                        rng.standard_normal(100) + 0j, 1j * rng.standard_normal(100),
                        [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]])

    def sign_rule(x):  # the one-bit rule per rail; 0 goes to the smaller center
        return np.where(x > 0, amplitude, -amplitude)

    q = np.asarray(qt.quantize(spec, z))
    assert np.array_equal(q.real, sign_rule(z.real))
    assert np.array_equal(q.imag, sign_rule(z.imag))


def test_uniform_saturates_to_top_cell_center():
    # hand evaluation of the clip/step rule: top center = clip - step/2
    assert qt.quantize(UNIFORM, 10 + 10j) == pytest.approx(0.75 + 0.75j)
    assert qt.quantize(UNIFORM, 0.3 + 0.1j) == pytest.approx(0.25 + 0.25j)
    assert qt.quantize(UNIFORM, -0.6 - 10j) == pytest.approx(-0.75 - 0.75j)


def test_phase_nearest_sector():
    assert qt.quantize(PHASE, np.exp(0.1j)) == pytest.approx(1.0 + 0j)
    assert qt.quantize(PHASE, 5 * np.exp(1j * (np.pi / 2 - 0.2))) == pytest.approx(1j)


def test_boundary_tie_goes_to_smaller_center():
    # on a rail threshold the lexicographically smaller center wins
    assert qt.quantize(ONE_BIT, 0.0 + 1j).real == pytest.approx(-1.0 / math.sqrt(2.0))
    assert qt.quantize(UNIFORM, 0.5 + 0.1j).real == pytest.approx(0.25)
    # angle pi is a boundary of phase_ce(3), between mirrored centers: Im < 0 wins
    # from either side, and the output is the sector's one point
    for z in (complex(-1.0, 0.0), complex(-1.0, -0.0)):
        once = qt.quantize(qt.phase_ce(3), z)
        assert once == pytest.approx(np.exp(-2j * np.pi / 3))
        assert qt.quantize(qt.phase_ce(3), once) == once


def test_tie_rule_holds_at_an_inexact_step():
    # 0.1 is not exact in binary: the threshold 0.1*3 rounds to 0.30000000000000004,
    # where x/step rounds up past 3.  Every threshold still goes to its lower cell.
    spec = qt.uniform_iq(8, 0.1)
    thresholds, values = spec.rail_thresholds(), spec.rail_values()
    q = np.asarray(qt.quantize(spec, thresholds + 1j * thresholds))
    assert np.array_equal(q.real, values[:-1])
    assert np.array_equal(q.imag, values[:-1])
    assert qt.quantize(spec, thresholds[-1] + 0j).real == values[-2] == 0.1 * 2.5


# Rail values whose products with a in [1e-6, 1e6] neither underflow to 0 nor overflow.
scalable_rail = st.floats(-1e290, 1e290).filter(lambda x: x == 0 or abs(x) >= 1e-290)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(complex, scalable_rail, scalable_rail), min_size=1, max_size=8),
       st.floats(1e-6, 1e6))
def test_one_bit_is_scale_free(z, a):
    """What lets a block evaluation quantize z1 once per draw under one-bit."""
    z = np.array(z)
    assert ONE_BIT.scale_free
    assert qt.quantize(ONE_BIT, a * z).tobytes() == qt.quantize(ONE_BIT, z).tobytes()


def test_only_one_bit_is_scale_free():
    z = 0.4 + 0.4j
    assert not UNIFORM.scale_free
    assert qt.quantize(UNIFORM, z) == 0.25 + 0.25j
    assert qt.quantize(UNIFORM, 2.0 * z) == 0.75 + 0.75j
    # phase_ce is scale-free in exact arithmetic, but arctan2 is not, in its last bit.
    assert not PHASE.scale_free and not qt.phase_ce(8).scale_free


def test_subnormal_input_keeps_its_sign():
    # x/step underflows to 0 here; the sign of x still picks the cell.
    spec = qt.one_bit(7.77)
    assert qt.quantize(spec, complex(5e-324, -5e-324)) == complex(7.77, -7.77)


@settings(max_examples=80, deadline=None)
@given(finite_complex, st.sampled_from(range(len(ALL_KINDS))))
def test_idempotence(z, kind_idx):
    spec = ALL_KINDS[kind_idx]
    once = qt.quantize(spec, z)
    assert qt.quantize(spec, once) == once


def test_idempotence_at_every_phase_count():
    # An even count has two centers at angle pi; each must quantize to itself.
    z = np.append(np.exp(1j * np.linspace(-np.pi, np.pi, 4001)), [-1.0, complex(-1.0, -0.0)])
    for spec in map(qt.phase_ce, range(2, 200)):
        once = qt.quantize(spec, z)
        assert qt.quantize(spec, once).tobytes() == once.tobytes(), spec.phases


def test_quantize_rejects_nonfinite():
    with pytest.raises(ValueError):
        qt.quantize(ONE_BIT, complex(float("inf"), 0.0))


def test_geometry_counts():
    assert ONE_BIT.line_count == 1 and ONE_BIT.ray_count == 0
    assert UNIFORM.line_count == 3
    assert PHASE.ray_count == 4 and PHASE.line_count == 0
    assert ONE_BIT.m0 == pytest.approx(1.0)
    assert PHASE.m0 == pytest.approx(1.0)


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        qt.one_bit(0.0)
    with pytest.raises(ValueError):
        qt.uniform_iq(levels=3, step=0.5)
    with pytest.raises(ValueError):
        qt.phase_ce(1)


# -- Gaussian moments ----------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 2.5])
def test_one_bit_correlation_is_scale_free(alpha):
    gm = qt.gaussian_moments(ONE_BIT, alpha)
    assert abs(gm.ezq - math.sqrt(2.0 / math.pi)) < 1e-6
    assert gm.eq2 == pytest.approx(1.0, abs=1e-12)


def test_one_bit_monte_carlo_cross_check():
    rng = np.random.default_rng(123)
    z = (rng.standard_normal(10**6) + 1j * rng.standard_normal(10**6)) / math.sqrt(2.0)
    q = np.asarray(qt.quantize(ONE_BIT, 1.0 * z))
    gm = qt.gaussian_moments(ONE_BIT, 1.0)
    assert abs(np.mean(np.conj(z) * q) - gm.ezq) < 3e-3
    assert abs(np.mean(np.abs(q) ** 2) - gm.eq2) < 3e-3


def test_phase_monte_carlo_cross_check():
    rng = np.random.default_rng(321)
    z = (rng.standard_normal(10**6) + 1j * rng.standard_normal(10**6)) / math.sqrt(2.0)
    q = np.asarray(qt.quantize(PHASE, 1.0 * z))
    gm = qt.gaussian_moments(PHASE, 1.0)
    assert abs(np.mean(np.conj(z) * q) - gm.ezq) < 3e-3
    assert abs(np.mean(np.abs(q) ** 2) - gm.eq2) < 3e-3


@pytest.mark.parametrize("phases", [2, 4, 8, 16])
def test_phase_closed_form_matches_polar_grid(phases):
    spec, alpha = qt.phase_ce(phases, 1.5), 0.7
    gm = qt.gaussian_moments(spec, alpha)

    def expect(part):
        return qt._gauss_expect_complex(
            lambda z: part(np.conj(z) * np.asarray(qt.quantize(spec, alpha * z))))

    assert abs(gm.ezq.real - expect(np.real)) < 1e-6
    assert abs(gm.ezq.imag - expect(np.imag)) < 1e-12
    assert gm.eq2 == pytest.approx(
        qt._gauss_expect_complex(lambda z: np.abs(qt.quantize(spec, alpha * z)) ** 2),
        abs=1e-12)


def test_identity_like_limit():
    gm = qt.gaussian_moments(qt.identity_like(), 1.0)
    assert abs(gm.linear_gain - 1.0) < 1e-3
    assert gm.distortion_rms < 1e-3


@pytest.mark.parametrize("spec", ALL_KINDS)
@pytest.mark.parametrize("alpha", [0.4, 1.3])
def test_residual_power_nonnegative(spec, alpha):
    gm = qt.gaussian_moments(spec, alpha)
    assert gm.eq2 - abs(gm.ezq) ** 2 >= -1e-12


def test_moments_reject_bad_alpha():
    with pytest.raises(ValueError):
        qt.gaussian_moments(ONE_BIT, 0.0)
    with pytest.raises(ValueError):
        qt.gaussian_moments(ONE_BIT, -1.0)
    with pytest.raises(ValueError):
        qt.gaussian_moments(ONE_BIT, np.array([0.5, 0.0]))


@pytest.mark.parametrize("spec", [qt.uniform_iq(levels, 0.4) for levels in (2, 4, 16, 64)]
                         + [qt.phase_ce(8)], ids=["uiq2", "uiq4", "uiq16", "uiq64", "phase8"])
def test_moments_over_an_array_equal_the_scalar_calls(spec):
    """Entry by entry over 2000 scales: a square by libm's pow fails this a few times."""
    alphas = np.geomspace(0.05, 3.0, 2000)
    block = qt.gaussian_moments(spec, alphas.reshape(1, 2000))
    for j, alpha in enumerate(alphas.tolist()):
        gm = qt.gaussian_moments(spec, alpha)
        assert gm.ezq.imag == 0.0
        pairs = [(block.ezq, gm.ezq.real), (block.eq2, gm.eq2),
                 (block.linear_gain, gm.linear_gain.real), (block.gain_power, gm.gain_power),
                 (block.distortion_rms, gm.distortion_rms)]
        for array, scalar in pairs:
            assert array.shape == (1, 2000) and array[0, j].hex() == scalar.hex()


def test_rail_arrays_are_built_once_and_read_only():
    spec = qt.uniform_iq(8, 0.1)
    assert spec.rail_thresholds() is spec.rail_thresholds()
    assert spec.rail_values() is spec.rail_values()
    for rail in (spec.rail_thresholds(), spec.rail_values()):
        with pytest.raises(ValueError):
            rail[0] = 0.0
    assert np.array_equal(spec.rail_values(), 0.1 * (np.arange(-4, 4) + 0.5))


# -- envelopes -----------------------------------------------------------------


def test_envelope_equals_component_far_from_jumps():
    env = qt.Envelope(ONE_BIT, "real", 0.1)
    x = 0.9 + 0.9j  # distance to the jump line exceeds tau * 2 m0
    assert env.lower(x) == env.upper(x) == env.component_value(x)


@pytest.mark.parametrize("spec", ALL_KINDS)
@pytest.mark.parametrize("component", ["real", "imag"])
def test_envelope_sandwich_on_grid(spec, component):
    grid = np.linspace(-3, 3, 101)
    assert qt.Envelope(spec, component, 0.1).sandwich_violation(
        grid[:, None] + 1j * grid[None, :]) <= qt.SANDWICH_TOLERANCE


def test_envelope_of_many_levels_runs_in_bounded_memory():
    env = qt.Envelope(qt.uniform_iq(2000, 0.003), "real", 0.1)
    grid = np.linspace(-3, 3, 101)
    zz = grid[:, None] + 1j * grid[None, :]
    tracemalloc.start()
    try:
        lower, upper, viol = env.lower(zz), env.upper(zz), env.sandwich_violation(zz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert viol <= qt.SANDWICH_TOLERANCE and peak < 64 * 2**20
    # A small grid splits into other blocks; every value keeps its bits.
    assert np.array_equal(env.lower(zz[::10, ::10]), lower[::10, ::10])
    assert np.array_equal(env.upper(zz[::10, ::10]), upper[::10, ::10])


@settings(max_examples=50, deadline=None)
@given(finite_complex, finite_complex, st.sampled_from(range(len(ALL_KINDS))))
def test_envelope_lipschitz(z1, z2, kind_idx):
    tau = 0.2
    env = qt.Envelope(ALL_KINDS[kind_idx], "real", tau)
    bound = abs(z1 - z2) / tau + 1e-9
    assert abs(env.lower(z1) - env.lower(z2)) <= bound
    assert abs(env.upper(z1) - env.upper(z2)) <= bound


def test_envelope_bounded_by_m0():
    env = qt.Envelope(PHASE, "imag", 0.05)
    grid = np.linspace(-4, 4, 41)
    zz = grid[:, None] + 1j * grid[None, :]
    assert np.all(np.abs(env.lower(zz)) <= PHASE.m0 + 1e-12)
    assert np.all(np.abs(env.upper(zz)) <= PHASE.m0 + 1e-12)


def test_envelope_gap_expectation_below_linear_bound():
    val, bound = qt.envelope_gap_expectation(ONE_BIT, "real", 0.1, 1.0)
    assert 0.0 < val <= bound
    val_half, bound_half = qt.envelope_gap_expectation(ONE_BIT, "real", 0.05, 1.0)
    assert bound_half == pytest.approx(bound / 2.0)
    assert val_half <= bound_half


def test_envelope_gap_requires_tau_in_range():
    with pytest.raises(ValueError):
        qt.envelope_gap_expectation(ONE_BIT, "real", 1.5, 1.0)
    for tau in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            qt.Envelope(ONE_BIT, "real", tau)
    with pytest.raises(ValueError):
        qt.Envelope(ONE_BIT, "up", 0.1)
    for tau, alpha_bar in ((0.1, math.nan), (math.nan, 1.0), (0.1, math.inf),
                           (math.inf, math.inf)):
        for check in (qt.envelope_gap_expectation, qt.envelope_product_gap):
            with pytest.raises(ValueError):
                check(ONE_BIT, "real", tau, alpha_bar)


def _midpoint_expectation(spec, tau, integrand):
    """E integrand(U) for U ~ N(0, 1/2) along the real rail, by a midpoint rule
    on [-6, 6] whose cell edges include every threshold (alpha_bar = 1), so the
    jumps of the quantized component fall between nodes."""
    h = spec.step / 1000
    u = (np.arange(-round(6.0 / h), round(6.0 / h)) + 0.5) * h
    env = qt.Envelope(spec, "real", tau)
    values = integrand(env, u, u + 0j)
    return float(np.sum(values * np.exp(-u * u)) * h / math.sqrt(math.pi))


@pytest.mark.parametrize("spec, tau", [(qt.uniform_iq(16, 0.25), 0.01),
                                       (qt.uniform_iq(32, 0.125), 0.1)])
def test_envelope_expectations_of_many_levels_match_a_dense_rule(spec, tau):
    """More than 100 band breaks: an adaptive rule without them read 0 for both."""
    gap = _midpoint_expectation(spec, tau, lambda env, u, z: env.upper(z) - env.lower(z))
    product = abs(_midpoint_expectation(
        spec, tau, lambda env, u, z: np.maximum(u, 0.0) * env.lower(z)
        + np.minimum(u, 0.0) * env.upper(z) - u * env.component_value(z)))
    assert qt.envelope_gap_expectation(spec, "real", tau, 1.0)[0] == pytest.approx(gap, rel=1e-4)
    assert qt.envelope_product_gap(spec, "real", tau, 1.0)[0] == pytest.approx(product, rel=1e-4)


@pytest.mark.parametrize("tau", [0.1, 0.01])
def test_signed_product_gap_below_sqrt_bound(tau):
    gap, bound = qt.envelope_product_gap(ONE_BIT, "real", tau, 1.0)
    assert 0.0 <= gap <= bound
    expected = math.sqrt(2.0) * ONE_BIT.m0 * math.sqrt(
        ONE_BIT.band_constant / 1.0) * math.sqrt(tau)
    assert bound == pytest.approx(expected)
