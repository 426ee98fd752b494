#!/usr/bin/env python3
"""Run every experiment suite at a desk-scale configuration.

Writes config.ini, results.csv and summary.json per suite under --out/<suite>
and prints the per-check pass/fail lines.  Suite parameters here are sized for
minutes, not hours; the acceptance battery in tests/test_acceptance.py runs the
officially-tolerated versions.
"""

import argparse
import sys
from pathlib import Path

from qprec import cli

TEMPLATE = """
[experiment]
name = {name}
seeds = {seeds}
k_ladder = {ladder}
trials = {trials}
output_dir = {out}

[system]
gamma = 4.0
sigma2_noise = 0.1
constellation = qpsk
power_limit = 1.0

[quantizer]
kind = one_bit

[shaping]
family = rzf
rho = 0.25

[grid]
rho_min = 0.001
rho_max = 10.0
points = 9
"""

SUITE_ARGS = {
    "mp-check": dict(seeds="1 2 3 4 5", ladder="64 256", trials=100),
    "equivalence": dict(seeds="1 2", ladder="8", trials=5000),
    "converge-sinr": dict(seeds="1 2 3", ladder="16 64 256", trials=2000),
    "converge-sep": dict(seeds="1", ladder="64 256", trials=30000),
    "kyfan-rate": dict(seeds="3", ladder="64 256 1024", trials=400),
    "bounds-audit": dict(seeds="1 2 3", ladder="64 256", trials=1500),
    "optimize": dict(seeds="1 2 3", ladder="64 256", trials=1000),
    "tail-audit": dict(seeds="1", ladder="256", trials=1),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="qprec-out", help="output directory root")
    parser.add_argument("--suite", choices=sorted(SUITE_ARGS), default=None,
                        help="run a single suite instead of all")
    args = parser.parse_args()

    names = [args.suite] if args.suite else sorted(SUITE_ARGS)
    worst = 0
    for name in names:
        params = SUITE_ARGS[name]
        out_dir = Path(args.out) / name
        text = TEMPLATE.format(name=name, out=out_dir, **params)
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = out_dir / "config.ini"
        cfg_path.write_text(text)
        print(f"=== {name} -> {out_dir}")
        rc = cli.run(cfg_path)
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(main())
