#!/usr/bin/env python3
"""Print one SHA-256 line per output of the samplers, solvers and tail bounds.

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
"""

import argparse
import dataclasses
import hashlib

import numpy as np

from qprec import bounds as bnd
from qprec import models as md
from qprec import optimizer as opt
from qprec import quantizer as qt
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
    """(name, output) of every sampler and finite solver for one seed."""
    yield "CoupledModel.sample", md.CoupledModel(cfg, SHAPING, quant).sample(
        RngStream(seed, 1), trials)
    yield "sample_coupled", md.sample_coupled(cfg, quant, GRID.members(), RngStream(seed, 2),
                                              trials)
    yield "simulate_equivalent", md.simulate_equivalent(cfg, SHAPING, quant,
                                                        RngStream(seed, 3), trials)
    yield "simulate_original", md.simulate_original(cfg, SHAPING, quant, RngStream(seed, 4),
                                                    ORIGINAL_TRIALS)
    yield "feasibility_deviation", opt.feasibility_deviation(cfg, quant, GRID,
                                                             RngStream(seed, 5), trials)
    yield "solve_finite", opt.solve_finite(cfg, quant, GRID, seed=seed, trials=trials)
    yield "optimal_gap_report", opt.optimal_gap_report(cfg, quant, GRID, seed=seed,
                                                       trials=trials)


def tail_outputs(cfg: md.SystemConfig, quant: qt.QuantizerSpec):
    """(name, [TailBound at each of TAIL_KS]) of each tail cascade."""
    params = bnd.cascade_params(cfg, SHAPING, quant)
    eta = md.asymptotic_model(cfg, SHAPING, quant).power_scale
    s_sup = max(abs(s) for s in cfg.constellation)
    yield "interference_gain_tail", [bnd.interference_gain_tail(TAIL_EPS, k, params)
                                     for k in TAIL_KS]
    yield "signal_gain_tail", [bnd.signal_gain_tail(TAIL_EPS, k, params) for k in TAIL_KS]
    yield "received_gap_tail", [bnd.received_gap_tail(TAIL_EPS, k, params, eta, s_sup)
                                for k in TAIL_KS]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--k", type=int, nargs="+", default=[16, 64, 1024])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--trials", type=int, default=12)
    args = parser.parse_args()

    for name, quant in QUANTS.items():
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
