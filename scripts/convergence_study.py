#!/usr/bin/env python3
"""Finite-vs-asymptotic convergence study across a dimension ladder.

For each K on the ladder, samples the coupled finite/limiting models and
prints the SINR and SEP gap checks: each gap beside its bound, the
root-mean-square received-signal deviation behind the SINR bound, and the
Ky Fan distances of both gain coefficients behind the SEP bound, so the
decay rates can be eyeballed (or piped into `qprec plot`).
"""

import argparse
import math

from qprec import bounds as bnd
from qprec import metrics as met
from qprec import models as md
from qprec import quantizer as qt
from qprec.stochastic import RngStream


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ladder", type=int, nargs="+", default=[16, 64, 256, 1024])
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rho", type=float, default=0.25)
    parser.add_argument("--gamma", type=float, default=4.0)
    parser.add_argument("--noise", type=float, default=0.1)
    args = parser.parse_args()

    quant = qt.one_bit(1.0 / math.sqrt(2.0))
    shaping = md.rzf(args.rho)
    print(f"# shaping={shaping.label} gamma={args.gamma} noise={args.noise} "
          f"trials={args.trials}")
    print(f"{'K':>6} {'sinr_gap':>10} {'sinr_bnd':>10} {'sep_gap':>10} {'sep_bnd':>10} "
          f"{'l2_dev':>10} {'kf_signal':>10} {'kf_interf':>10}")
    for k in args.ladder:
        cfg = md.SystemConfig.with_gamma(k=k, gamma=args.gamma,
                                         sigma2_noise=args.noise)
        coupled = md.functional_models(cfg, shaping, quant)
        model = coupled.scalar
        samples = coupled.sample(RngStream(args.seed, k), args.trials)
        sinr = bnd.sinr_gap_report(cfg, model, samples,
                                   met.sinr_bar(cfg, shaping, quant, model=model))
        bar = met.sep_bar(model, met.default_rule(model, cfg), cfg,
                          RngStream(args.seed, 10**6 + k), 200_000)
        sep = bnd.sep_gap_report(cfg, model, samples, bar.value)
        print(f"{k:>6} {sinr.empirical:>10.5f} {sinr.bound:>10.4g} "
              f"{sep.empirical:>10.5f} {sep.bound:>10.4g} "
              f"{sinr.inputs['signal_deviation']:>10.5f} "
              f"{sep.inputs['kf_signal_gain']:>10.5f} {sep.inputs['kf_interference']:>10.5f}")


if __name__ == "__main__":
    main()
