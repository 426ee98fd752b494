#!/usr/bin/env python3
"""qprec benchmark: one workload, one seed, a fixed time budget.

Run from the root of a qprec checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

The workload is a fixed schedule of cells (see ``workloads.py`` and
``spec.json``), run by this single process as a closed loop: a cell starts
when the previous one returns.  Whole passes over the schedule repeat while
the next one still fits in ``--seconds``.  Pass ``rep`` draws from its own
streams, so no two cells share randomness.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` every pass is run twice, untraced and then traced on the same
streams, and the line carries the per-layer metrics from the traced copies.
The line before it is a JSON report: run manifest, output digests, replay
result, failed checks and (traced) the per-K layer rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5


def _cpu_s() -> float:
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def _setup_s(src: Path, seed: int) -> list[float]:
    """Wall time of fresh processes importing qprec and warming every layer."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), str(src), str(seed)],
                              capture_output=True, text=True, timeout=150, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _host_reference_s() -> float:
    """Time of a fixed numpy/LAPACK kernel that never calls qprec.

    Recorded before and after the timed section so that host speed drift can
    be told apart from a change in qprec when two runs are compared.
    """
    import numpy as np
    from scipy.linalg import eigvalsh_tridiagonal

    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for _ in range(4000):
        np.linalg.norm(rng.standard_normal(64))
    for _ in range(10):
        eigvalsh_tridiagonal(rng.random(1024), rng.random(1023), lapack_driver="sterf")
    return time.perf_counter() - t0


def _git_revision(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _manifest(root: Path, src: Path, workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    import workloads

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", "")
    max_threads = next((int(tok.split("=")[1]) for tok in config.split()
                        if tok.startswith("MAX_THREADS=")), None)
    env = {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
           if v in os.environ}
    nproc = len(os.sched_getaffinity(0))
    threads = int(next(iter(env.values()))) if env else min(nproc, max_threads or nproc)
    source = hashlib.sha256()
    for path in sorted((src / "qprec").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "config": config,
                 "threads": threads, "thread_env": env},
        "nproc": nproc, "git_revision": _git_revision(root), "src_sha256": source.hexdigest(),
        "workload": workload, "seed": seed,
        "workload_sha256": workloads.definition_sha256(workload),
    }


class Tally:
    """Attempted and failed operations, with the failures kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[dict] = []

    def add(self, cell: str, rep: int, checks) -> None:
        for name, ok, detail in checks:
            self.attempted += 1
            if not ok:
                self.failures.append({"cell": cell, "rep": rep, "check": name, "detail": detail})


def _run_cell(cell, seed: int, rep: int, skips, runner=None):
    """Run one cell; returns (outcome, wall seconds, cpu seconds)."""
    before = len(skips.skipped)
    t0, c0 = time.perf_counter(), _cpu_s()
    outcome = runner(cell.run, seed, rep) if runner else cell.run(seed, rep)
    wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
    outcome.checks += [("grid_member_stable", False, msg) for msg in skips.skipped[before:]]
    return outcome, wall, cpu


def _median_or_zero(values) -> float:
    values = list(values)
    return float(median(values)) if values else 0.0


def _layer_metrics(tracer, s: dict, cells, passes: int, untraced_s: float,
                   traced_s: float) -> dict:
    """Per-layer metrics from the traced passes, normalised to one pass."""
    from tracer import LAYERS

    by_name, by_layer, by_tag = s["by_name"], s["by_layer"], s["by_tag"]

    def calls(name):
        return by_name.get(name, {}).get("calls", 0) / passes

    def self_s(name):
        return by_name.get(name, {}).get("self_s", 0.0) / passes

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (by_layer[layer]["calls"] / passes, "count")
        m[f"{layer}.self_s"] = (by_layer[layer]["self_s"] / passes, "s")
    ssv, sample = "spectral.sample_singular_values", "models.CoupledModel.sample"
    m[f"{ssv}.calls"] = (calls(ssv), "count")
    for k in (64, 256, 1024):
        m[f"{ssv}.ms.k{k}"] = (1e3 * _median_or_zero(by_tag.get((ssv, k), [])), "ms")
    m["spectral.sterf.self_s"] = (self_s("spectral.sterf"), "s")
    m["spectral.floor_share"] = (by_name.get("spectral.sterf", {}).get("self_s", 0.0)
                                 / tracer.traced_s, "ratio")
    trials = passes * sum(c.trials for c in cells)
    draws = passes * (calls(ssv) + calls("spectral.sample_channel"))
    m["spectral.draws_per_trial"] = (draws / trials, "draws/trial")
    for name in ("spectral.sample_channel", "spectral.mp_cdf_sv", "spectral.quad",
                 "quantizer.gaussian_moments"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("spectral.mp_moment", "quantizer.quad", "models.asymptotic_model",
                 "models.shaped_moments", "stochastic.sample_complex_gaussian",
                 "metrics.sinr_bar", "bounds.quad"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("quantizer.quantize", "metrics.sep_bar", "cli.run"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["models.sample.self_s"] = (self_s(sample), "s")
    for k in (64, 256, 1024):
        per_trial = [d / tag[1] for (name, tag), ds in by_tag.items()
                     if name == sample and tag[0] == k for d in ds]
        m[f"models.sample.ms.k{k}"] = (1e3 * _median_or_zero(per_trial), "ms")
    m["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    m["trace.wall_s"] = (tracer.traced_s / passes, "s")
    m["trace.bench_self_s"] = ((tracer.traced_s - s["top_s"]) / passes, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def _layer_rows(by_tag: dict) -> dict:
    """Per-call medians by K or kind: the reference rows for later changes."""
    rows: dict[str, dict] = {}
    for (name, tag), durations in sorted(by_tag.items(), key=str):
        if name == "models.CoupledModel.sample":
            continue
        key = f"k{tag}" if isinstance(tag, int) else str(tag)
        rows.setdefault(f"{name} (ms/call)", {})[key] = 1e3 * _median_or_zero(durations)
    per_trial: dict[int, list[float]] = {}
    for (name, tag), durations in by_tag.items():
        if name == "models.CoupledModel.sample":
            per_trial.setdefault(tag[0], []).extend(d / tag[1] for d in durations)
    rows["models.CoupledModel.sample (ms/trial)"] = {
        f"k{k}": 1e3 * _median_or_zero(v) for k, v in sorted(per_trial.items())}
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workload_names = json.loads((BENCH_DIR / "spec.json").read_text())["workloads"]
    parser.add_argument("--workload", required=True, choices=sorted(workload_names))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "qprec" / "__init__.py").is_file():
        print("perfbench: src/qprec not found; run from the root of a qprec checkout",
              file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    sys.path.insert(0, str(src))

    setup = _setup_s(src, args.seed)

    import qprec
    import workloads
    from tracer import Tracer

    if Path(qprec.__file__).resolve().parent != (src / "qprec").resolve():
        print(f"perfbench: imported qprec from {qprec.__file__}, not {src}", file=sys.stderr)
        return 2
    cells = workloads.build(args.workload, out_dir / "tmp")
    skips = workloads.SkipCounter()
    logging.getLogger("qprec").addHandler(skips)
    workloads.warm_up(args.seed)

    host_before = _host_reference_s()
    tally = Tally()
    tracer = Tracer() if args.trace else None
    walls = [[] for _ in cells]
    cpus = [[] for _ in cells]
    pass0: list[str] = []
    untraced_s = traced_s = 0.0
    rep = 0
    t_start = time.perf_counter()
    while True:
        for i, cell in enumerate(cells):
            outcome, wall, cpu = _run_cell(cell, args.seed, rep, skips)
            walls[i].append(wall)
            cpus[i].append(cpu)
            untraced_s += wall
            tally.add(cell.name, rep, outcome.checks)
            plain = workloads.digest(outcome.outputs)
            if rep == 0:
                pass0.append(plain)
            if tracer:
                traced, wall, _ = _run_cell(cell, args.seed, rep, skips,
                                            runner=lambda fn, *a, i=i: tracer.run(i, fn, *a))
                traced_s += wall
                same = workloads.digest(traced.outputs) == plain
                tally.add(cell.name, rep, traced.checks + [("trace_transparent", same, "")])
        rep += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / rep > args.seconds:
            break

    replay_idx = workloads.SPEC["workloads"][args.workload]["replay_cell"]
    replay, _, _ = _run_cell(cells[replay_idx], args.seed, 0, skips)
    replay_digest = workloads.digest(replay.outputs)
    tally.add(cells[replay_idx].name, 0,
              replay.checks + [("replay_digest", replay_digest == pass0[replay_idx],
                                f"{replay_digest} vs {pass0[replay_idx]}")])

    host_after = _host_reference_s()
    # A cell's cost is its mean over the passes.  Pass times are bimodal on a
    # host whose speed switches between two states, and the median jumps from
    # one mode to the other as the share of slow passes crosses one half.
    mean_wall = [fmean(w) for w in walls]
    mean_cpu = [fmean(c) for c in cpus]
    report = {
        "manifest": _manifest(root, src, args.workload, args.seed),
        "passes": rep,
        "setup_samples_s": setup,
        "host_reference_s": [host_before, host_after],
        "cells": [{"name": c.name, "k": c.k, "trials": c.trials, "runs": len(walls[i]),
                   "mean_wall_s": mean_wall[i], "mean_cpu_s": mean_cpu[i],
                   "median_wall_s": median(walls[i]), "wall_s": walls[i]}
                  for i, c in enumerate(cells)],
        "workload_digest": hashlib.sha256("".join(pass0).encode()).hexdigest(),
        "cell_digests": pass0,
        "replay": {"cell": cells[replay_idx].name, "digest": replay_digest,
                   "match": replay_digest == pass0[replay_idx]},
        "degenerate_resamples": skips.resampled,
        "failures": tally.failures,
    }
    if tracer:
        summary = tracer.summary()
        metrics = _layer_metrics(tracer, summary, cells, rep, untraced_s, traced_s)
        report["layer_rows"] = _layer_rows(summary["by_tag"])
        spans = out_dir / f"spans-{args.workload}.jsonl"
        tracer.write(spans)
        report["spans_file"] = str(spans.relative_to(root))
    else:
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "wall_s": {"value": sum(mean_wall), "unit": "s"},
            "cpu_s": {"value": sum(mean_cpu), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        for k in workloads.K_REPORTED:
            idx = [i for i, c in enumerate(cells) if c.k == k and c.trials > 0]
            metrics[f"trials_per_s.k{k}"] = {
                "value": sum(cells[i].trials for i in idx) / sum(mean_wall[i] for i in idx),
                "unit": "1/s"}
    print(json.dumps({"report": report}, default=str))
    failed = len(tally.failures)
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
