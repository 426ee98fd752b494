"""Tests of the benchmark's own machinery: stream namespace and tracer.

Run from the repository root:  python3 -m pytest -q perfbench/test_bench.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from qprec import models, quantizer, spectral  # noqa: E402
from qprec.stochastic import RngStream  # noqa: E402


def _stream_seeds(seed: int, reps: int) -> list[int]:
    """Every stream seed the set-up and ``reps`` passes of every workload use."""
    seeds = [workloads.stream_seed(seed, "setup", "warm_up", 8, 0)]
    for name in workloads.SPEC["workloads"]:
        cells = workloads.build(name, ROOT / ".perfbench_out" / "tmp")
        seeds += [cell.seed(seed, purpose, rep)
                  for rep in range(reps) for cell in cells for purpose in cell.purposes]
    return seeds


def test_no_two_streams_collide():
    # Distinct (workload, purpose, K, rep) tuples within and across workload seeds.
    seeds = [s for seed in (0, 1, 2, 2**40 + 7) for s in _stream_seeds(seed, reps=25)]
    assert len(seeds) == len(set(seeds))


def test_cli_ladders_avoid_the_latent_offset_collisions():
    # bounds-audit's stream 10_000 + 200 K equals 40_000 at K = 150 and 50_000 at K = 200.
    for config in workloads.SPEC["workloads"]["audit"]["cli"]:
        assert not {150, 200} & set(config["k_ladder"])


def test_tracer_patches_binding_sites_and_accounts_for_time():
    original = spectral.sample_singular_values
    config = models.SystemConfig.with_gamma(k=8, gamma=4.0)
    coupled = models.functional_models(config, models.rzf(0.25), quantizer.one_bit())
    tracer = Tracer()
    tracer.run(0, lambda: coupled.sample(RngStream(1, 0), 4))
    assert spectral.sample_singular_values is original
    assert models.sample_singular_values is original
    summary = tracer.summary()
    names = summary["by_name"]
    assert names["models.CoupledModel.sample"]["calls"] == 1
    # models binds sample_singular_values by name; the draw must still be traced.
    assert names["spectral.sample_singular_values"]["calls"] == 4
    assert names["spectral.sterf"]["calls"] == 4
    self_total = sum(layer["self_s"] for layer in summary["by_layer"].values())
    assert abs(self_total - summary["top_s"]) < 1e-6
    assert summary["top_s"] <= tracer.traced_s
