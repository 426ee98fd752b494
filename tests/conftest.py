import math

import pytest

from qprec import models as md
from qprec import quantizer as qt
from qprec.stochastic import RngStream


@pytest.fixture(scope="session")
def one_bit_q():
    return qt.one_bit(1.0 / math.sqrt(2.0))


@pytest.fixture(scope="session")
def rzf_shaping():
    return md.rzf(0.25)


@pytest.fixture(scope="session")
def small_config():
    return md.SystemConfig.with_gamma(k=8, gamma=4.0, sigma2_noise=0.1)


@pytest.fixture(scope="session")
def mid_config():
    return md.SystemConfig.with_gamma(k=64, gamma=4.0, sigma2_noise=0.1)


@pytest.fixture(scope="session")
def one_row():
    """make(config, rng): one trial's raw draw, as the one-row block ``draw_chunks`` yields."""
    def make(config, rng):
        (_, block, _), = md.draw_chunks(config, rng, 1, 1)
        return block
    return make


class _ZeroingGenerator:
    """A generator that zeroes row 0 of its ``nth`` standard_normal read of ``shape``.

    Every other call goes to the wrapped generator unchanged.  A raw draw
    reads (g1, g2) as one (2, 2, K) block and (z1, z2) as one (2, 2, N)
    block, so zeroing row 0 of one of them makes that trial's g1 or z1 vanish.
    """

    def __init__(self, generator, shape, nth):
        self._generator, self._shape, self._left = generator, shape, nth

    def __getattr__(self, name):
        return getattr(self._generator, name)

    def standard_normal(self, *args, out=None, **kwargs):
        result = self._generator.standard_normal(*args, out=out, **kwargs)
        if out is not None and out.shape == self._shape:
            self._left -= 1
            if self._left == 0:
                out[0] = 0.0
        return result


@pytest.fixture
def zeroed_stream():
    """make(seed, stream_id, shape, nth): an RngStream whose nth read of shape has row 0 zeroed."""
    def make(seed, stream_id, shape, nth):
        rng = RngStream(seed, stream_id)
        rng.generator = _ZeroingGenerator(rng.generator, shape, nth)
        return rng
    return make
