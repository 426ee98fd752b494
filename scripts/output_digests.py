#!/usr/bin/env python3
"""Print one SHA-256 line per output of the samplers, solvers, bound checks and tail bounds.

Each line names the quantizer, K, seed and output, then the digest of that
output's exact bytes (array dtype, shape and contents; float bits in hex).
Two trees that print the same lines give bitwise equal outputs on this grid,
so "bitwise against the parent" is a diff of two runs:

    PYTHONPATH=src python3 scripts/output_digests.py > change.txt
    # the same command in a checkout of the parent, into parent.txt
    diff parent.txt change.txt

The default grid is {one_bit, phase_ce(8), uniform_iq(4, 0.5)} x K in
{16, 64, 1024} x seeds {1, 2}.  At K = 1024 one seed of one quantizer
takes about 12 s on a 2-core host: optimal_gap_report about 6 s, and the
original model's two trials (a 1024 x 4096 channel each, with its Gram
matrix and eigh) about 4 s.  The default 12 trials fit in one chunk of draws
at K = 16 and 64, so a second run crosses the chunk boundaries of every
sampler there:

    PYTHONPATH=src python3 scripts/output_digests.py --k 16 64 --trials 150

The three tail cascades are hashed per quantizer and K (of the system their
constants come from) at eps 0.5, evaluated at K = 10^3 and 10^6.

The Lipschitz envelopes are hashed once per quantizer (``k=- seed=-``):
``lower``, ``upper`` and ``component_value`` of both components at tau 0.1,
on the 101 x 101 grid over [-3, 3]^2 and at one scalar point, and
``envelope_gap_expectation`` and ``envelope_product_gap`` of the real
component at tau 0.1 and alpha_bar 1.  They add about 3.5 s a run, nearly
all of it phase_ce(8)'s two expectations on the dense polar grid.

``sup_deviation`` (the sensitivity and the signal deviation of the gap
bound) is hashed per seed over the grid, on its own stream and the run's
trials, so the deviation term can be compared apart from
``optimal_gap_report``, which always takes at least 200 trials.

``sinr_gap_report`` and ``sep_gap_report`` are hashed per seed on the
``CoupledModel.sample`` output, ``form_tail_reports`` and ``lss_variance``
with the tail cascades, on six streams each: about 0.25 s at K = 1024.

Diffed against a tree whose ``ShapingFunction`` has a ``scale`` field, the
``solve_asymptotic`` and ``solve_finite`` lines differ, because their
``best`` member is hashed field by field; every other line is the same.
"""

import argparse
import dataclasses
import hashlib

import numpy as np

from qprec import bounds as bnd
from qprec import metrics as met
from qprec import models as md
from qprec import optimizer as opt
from qprec import quantizer as qt
from qprec import spectral as sp
from qprec.stochastic import RngStream

QUANTS = {"one_bit": qt.one_bit(), "phase_ce8": qt.phase_ce(8),
          "uniform_iq4": qt.uniform_iq(4, 0.5)}
GRID = opt.FamilyGrid(points=9)
SHAPING = md.rzf(0.25)
# Each trial of the original model is a dense K x 4K channel with its Gram
# matrix and eigh: about 2 s at K = 1024.
ORIGINAL_TRIALS = 2
TAIL_EPS = 0.5
TAIL_KS = (10**3, 10**6)
ENVELOPE_TAU = 0.1


def _feed(h, obj) -> None:
    """Hash obj's exact value: dataclasses by field, containers by item."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for key, value in obj.items():
            h.update(str(key).encode())
            _feed(h, value)
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, (np.ndarray, np.generic)):
        a = np.ascontiguousarray(obj)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    elif isinstance(obj, complex):
        h.update(f"{obj.real.hex()},{obj.imag.hex()}".encode())
    else:
        h.update(repr(obj).encode())


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def seeded_outputs(cfg: md.SystemConfig, quant: qt.QuantizerSpec, seed: int, trials: int):
    """(name, output) of every sampler, finite solver and gap check for one seed."""
    samples = md.CoupledModel(cfg, SHAPING, quant).sample(RngStream(seed, 1), trials)
    yield "CoupledModel.sample", samples
    yield "sample_coupled", md.sample_coupled(cfg, quant, GRID.members(), RngStream(seed, 2),
                                              trials)
    yield "sample_coupled users=K", md.sample_coupled(cfg, quant, [SHAPING], RngStream(seed, 3),
                                                      trials, users=cfg.k)
    yield "simulate_original", md.simulate_original(cfg, SHAPING, quant, RngStream(seed, 4),
                                                    ORIGINAL_TRIALS)
    yield "feasibility_deviation", opt.feasibility_deviation(cfg, quant, GRID,
                                                             RngStream(seed, 5), trials)
    yield "solve_finite", opt.solve_finite(cfg, quant, GRID, seed=seed, trials=trials)
    yield "optimal_gap_report", opt.optimal_gap_report(cfg, quant, GRID, seed=seed,
                                                       trials=trials)
    yield "sup_deviation", opt.sup_deviation(cfg, quant, GRID.members(), RngStream(seed, 9),
                                             trials)
    model = md.asymptotic_model(cfg, SHAPING, quant)
    yield "sinr_gap_report", bnd.sinr_gap_report(cfg, model, samples,
                                                 met.sinr_bar(cfg, SHAPING, quant, model=model))
    bar = met.sep_bar(model, met.default_rule(model, cfg), cfg, RngStream(seed, 6), 20_000)
    yield "sep_gap_report", bnd.sep_gap_report(cfg, model, samples, bar.value)


def tail_outputs(cfg: md.SystemConfig, quant: qt.QuantizerSpec):
    """(name, [TailBound at each of TAIL_KS]) of each tail cascade, then the spectral checks."""
    params = bnd.cascade_params(cfg, SHAPING, quant)
    eta = md.asymptotic_model(cfg, SHAPING, quant).power_scale
    s_sup = max(abs(s) for s in cfg.constellation)
    yield "interference_gain_tail", [bnd.interference_gain_tail(TAIL_EPS, k, params)
                                     for k in TAIL_KS]
    yield "signal_gain_tail", [bnd.signal_gain_tail(TAIL_EPS, k, params) for k in TAIL_KS]
    yield "received_gap_tail", [bnd.received_gap_tail(TAIL_EPS, k, params, eta, s_sup)
                                for k in TAIL_KS]
    yield "form_tail_reports", bnd.form_tail_reports(
        cfg.gamma, cfg.k, [RngStream(7, r) for r in range(6)], (0.2, 0.4))
    yield "lss_variance", sp.lss_variance(cfg.n, cfg.k, lambda d: d * d,
                                          [RngStream(8, r) for r in range(6)])


def envelope_outputs(quant: qt.QuantizerSpec):
    """(name, output) of the envelopes of both components and their two expectations."""
    grid = np.linspace(-3, 3, 101)
    points = (grid[:, None] + 1j * grid[None, :], 0.05 + 0.7j)
    values = []
    for component in ("real", "imag"):
        env = qt.Envelope(quant, component, ENVELOPE_TAU)
        values += [f(x) for x in points for f in (env.lower, env.upper, env.component_value)]
    yield "Envelope", values
    yield "envelope_gap_expectation", qt.envelope_gap_expectation(quant, "real", ENVELOPE_TAU,
                                                                  1.0)
    yield "envelope_product_gap", qt.envelope_product_gap(quant, "real", ENVELOPE_TAU, 1.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--k", type=int, nargs="+", default=[16, 64, 1024])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--trials", type=int, default=12)
    args = parser.parse_args()

    for name, quant in QUANTS.items():
        for output, value in envelope_outputs(quant):
            print(f"{name} k=- seed=- {output} {digest(value)}", flush=True)
        for k in args.k:
            cfg = md.SystemConfig.with_gamma(k=k, gamma=4.0, sigma2_noise=0.1)
            print(f"{name} k={k} seed=- solve_asymptotic "
                  f"{digest(opt.solve_asymptotic(cfg, quant, GRID))}")
            print(f"{name} k={k} seed=- growth_psi {digest(opt.growth_psi(cfg, quant, GRID))}")
            for output, value in tail_outputs(cfg, quant):
                print(f"{name} k={k} seed=- {output} {digest(value)}")
            for seed in args.seeds:
                for output, value in seeded_outputs(cfg, quant, seed, args.trials):
                    print(f"{name} k={k} seed={seed} {output} {digest(value)}", flush=True)


if __name__ == "__main__":
    main()
