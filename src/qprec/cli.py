"""Experiment runner: INI config in, CSV records + JSON summary out.

Suites cover the spectrum check, the finite/equivalent distributional match,
SINR/SEP convergence ladders, the Ky Fan rate fit, the bound audit battery,
the shaping-function optimization ladder, and the tail-cascade audit.  Runs
are deterministic for a fixed config file: cells run serially, every stream
is named by (seed, purpose, K, rep) through :func:`_stream`, and records are
written in sorted order.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from . import bounds as bnd
from . import metrics as met
from . import models as mdl
from . import optimizer as opt
from . import quantizer as qnt
from . import spectral as spc
from .stochastic import RngStream, sample_complex_gaussian

SCHEMA = "qprec-results v1"
CSV_COLUMNS = ["experiment", "seed", "k", "metric", "value", "std_error",
               "bound", "holds", "wall_time"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    seeds: tuple[int, ...]
    k_ladder: tuple[int, ...]
    trials: int
    output_dir: Path
    gamma: float
    sigma2_noise: float
    constellation: tuple[complex, ...]
    power_limit: float
    quantizer: qnt.QuantizerSpec
    shaping: mdl.ShapingFunction
    grid: opt.FamilyGrid
    eps: float = 0.5

    def system(self, k: int) -> mdl.SystemConfig:
        return mdl.SystemConfig.with_gamma(
            k=k, gamma=self.gamma, sigma2_noise=self.sigma2_noise,
            constellation=self.constellation, power_limit=self.power_limit)


SUITES: dict = {}


def suite(name: str):
    def register(fn):
        SUITES[name] = fn
        return fn
    return register


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


_CONSTELLATIONS = {
    "qpsk": mdl.QPSK,
    "bpsk": (1.0 + 0.0j, -1.0 + 0.0j),
    "8psk": tuple(np.exp(2j * np.pi * np.arange(8) / 8)),
}


def _require(cp: configparser.ConfigParser, section: str, key: str) -> str:
    if not cp.has_section(section):
        raise ConfigError(f"missing section [{section}]")
    if not cp.has_option(section, key):
        raise ConfigError(f"missing field '{key}' in section [{section}]")
    return cp.get(section, key)


def _parse_quantizer(cp: configparser.ConfigParser) -> qnt.QuantizerSpec:
    kind = _require(cp, "quantizer", "kind")
    q = cp["quantizer"]
    try:
        if kind == "one_bit":
            return qnt.one_bit(q.getfloat("amplitude", 1.0 / math.sqrt(2.0)))
        if kind == "uniform_iq":
            spec = qnt.uniform_iq(levels=q.getint("levels"), step=q.getfloat("step"))
            clip = q.getfloat("clip", spec.clip)
            if abs(clip - spec.clip) > 1e-9 * max(1.0, clip):
                raise ValueError("clip must equal levels*step/2 (saturated mid-rise grid)")
            return spec
        if kind == "phase_ce":
            return qnt.phase_ce(q.getint("phases"), q.getfloat("radius", 1.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad quantizer parameters: {exc}") from exc
    raise ConfigError(f"unknown quantizer kind '{kind}'")


def _parse_shaping(cp: configparser.ConfigParser) -> mdl.ShapingFunction:
    family = cp.get("shaping", "family", fallback="rzf")
    try:
        if family == "mf":
            return mdl.mf()
        if family == "zf":
            return mdl.zf()
        if family == "rzf":
            return mdl.rzf(cp.getfloat("shaping", "rho", fallback=0.25))
    except ValueError as exc:
        raise ConfigError(f"bad shaping parameters: {exc}") from exc
    raise ConfigError(f"unknown shaping family '{family}'")


def parse_config(path: str | Path) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    name = _require(cp, "experiment", "name")
    if name not in SUITES:
        raise ConfigError(f"unknown experiment '{name}'; have {sorted(SUITES)}")
    try:
        seeds = tuple(int(t) for t in _require(cp, "experiment", "seeds").split())
        k_ladder = tuple(int(t) for t in _require(cp, "experiment", "k_ladder").split())
        trials = cp.getint("experiment", "trials", fallback=2000)
        output_dir = Path(cp.get("experiment", "output_dir", fallback="qprec-out"))
        gamma = cp.getfloat("system", "gamma", fallback=4.0)
        sigma2_noise = cp.getfloat("system", "sigma2_noise", fallback=0.1)
        power_limit = cp.getfloat("system", "power_limit", fallback=1.0)
        eps = cp.getfloat("experiment", "eps", fallback=0.5)
    except ValueError as exc:
        raise ConfigError(f"bad numeric field: {exc}") from exc
    # RngStream reads a seed modulo 2**64, so a seed outside [0, 2**64) would alias another.
    if not seeds or len(set(seeds)) != len(seeds) or not all(0 <= s < 2**64 for s in seeds):
        raise ConfigError("field 'seeds' must list at least one seed in [0, 2**64), each once")
    # The suites that estimate from samples (an SINR, a SEP gap, a KS distance)
    # need two trials per cell.
    min_trials = 2 if name in ("converge-sinr", "converge-sep", "bounds-audit", "optimize",
                               "equivalence") else 1
    if trials < min_trials:
        raise ConfigError(f"field 'trials' must be at least {min_trials} for '{name}'")
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError("field 'eps' must be finite and positive")
    if not k_ladder or list(k_ladder) != sorted(set(k_ladder)):
        raise ConfigError("field 'k_ladder' must be nonempty and strictly increasing")
    cname = cp.get("system", "constellation", fallback=None)
    if cname is None:
        raise ConfigError("missing field 'constellation' in section [system]")
    if cname not in _CONSTELLATIONS:
        raise ConfigError(f"unknown constellation '{cname}'; have {sorted(_CONSTELLATIONS)}")
    try:
        grid = opt.FamilyGrid(
            rho_min=cp.getfloat("grid", "rho_min", fallback=1e-3),
            rho_max=cp.getfloat("grid", "rho_max", fallback=10.0),
            points=cp.getint("grid", "points", fallback=9))
    except ValueError as exc:
        raise ConfigError(f"bad [grid] fields: {exc}") from exc
    cfg = ExperimentConfig(
        name=name, seeds=seeds, k_ladder=k_ladder, trials=trials,
        output_dir=output_dir, gamma=gamma, sigma2_noise=sigma2_noise,
        constellation=_CONSTELLATIONS[cname], power_limit=power_limit,
        quantizer=_parse_quantizer(cp), shaping=_parse_shaping(cp),
        grid=grid, eps=eps)
    for k in k_ladder:
        try:
            cfg.system(k)
        except ValueError as exc:
            raise ConfigError(
                f"no valid system for 'k_ladder' entry {k} with [system] gamma = {gamma!r}, "
                f"sigma2_noise = {sigma2_noise!r}, power_limit = {power_limit!r}: {exc}") from exc
    return cfg


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass
class Record:
    experiment: str
    seed: int
    k: int
    metric: str
    value: float
    std_error: float = float("nan")
    bound: float = float("nan")
    holds: bool | None = None
    wall_time: float = 0.0

    def row(self) -> list:
        return [self.experiment, self.seed, self.k, self.metric,
                repr(float(self.value)), repr(float(self.std_error)),
                repr(float(self.bound)), "" if self.holds is None else str(self.holds),
                f"{self.wall_time:.3f}"]


_PURPOSES = ("channel", "original", "equivalent", "coupled", "sep_bar", "lss",
             "form_tail", "collar", "feasibility")
_FIELD_BITS = 20


def _stream(seed: int, purpose: str, k: int, rep: int = 0) -> RngStream:
    """The one stream of (seed, purpose, K, rep).

    The id packs (purpose index + 1, K, rep) into disjoint bit fields, so no
    two names share an id, and every id is >= 2**40, clear of the library's
    own streams 0 and 1 under the same seed.
    """
    if not (0 <= k < 2**_FIELD_BITS and 0 <= rep < 2**_FIELD_BITS):
        raise ConfigError(f"stream field out of range: K={k}, rep={rep} "
                          f"(each must be below 2**{_FIELD_BITS})")
    index = _PURPOSES.index(purpose) + 1
    return RngStream(seed, index << (2 * _FIELD_BITS) | k << _FIELD_BITS | rep)


def _lap(records: list[Record], mark: tuple[float, int] | None = None) -> tuple[float, int]:
    """Stamp the records made since ``mark`` with the time since it; return the next mark."""
    now = time.perf_counter()
    if mark is not None:
        for r in records[mark[1]:]:
            r.wall_time = now - mark[0]
    return now, len(records)


def _record(cfg: ExperimentConfig, seed: int, k: int, report: bnd.BoundReport) -> Record:
    """One bound check's record: its empirical value against its bound."""
    return Record(cfg.name, seed, k, report.name, report.empirical, bound=report.bound,
                  holds=report.holds)


def _run_cells(cfg: ExperimentConfig, cell_fn) -> list[Record]:
    """Run the (seed, K) cells in order, stamping each record with its cell's time."""
    records: list[Record] = []
    mark = _lap(records)
    for seed in cfg.seeds:
        for k in cfg.k_ladder:
            records += cell_fn(seed, k)
            mark = _lap(records, mark)
    return records


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


@suite("mp-check")
def _suite_mp_check(cfg: ExperimentConfig):
    slack = 0.05
    lo = 1.0 - 1.0 / math.sqrt(cfg.gamma) - slack
    hi = 1.0 + 1.0 / math.sqrt(cfg.gamma) + slack

    def cell(seed: int, k: int) -> list[Record]:
        system = cfg.system(k)
        law = system.law
        xs = np.sort(spc.sample_channel(system, _stream(seed, "channel", k)))
        cdf = np.array([spc.mp_cdf_sv(x, law) for x in xs])
        n = xs.size
        ks = float(np.max(np.maximum(np.abs(np.arange(1, n + 1) / n - cdf),
                                     np.abs(np.arange(n) / n - cdf))))
        return [
            Record(cfg.name, seed, k, "sv_min", float(xs[0]), bound=lo, holds=bool(xs[0] >= lo)),
            Record(cfg.name, seed, k, "sv_max", float(xs[-1]), bound=hi, holds=bool(xs[-1] <= hi)),
            Record(cfg.name, seed, k, "ks_to_limit", ks),
        ]

    records = _run_cells(cfg, cell)
    contained = all(r.holds for r in records if r.metric in ("sv_min", "sv_max"))
    return records, {"edge_containment": contained}


@suite("equivalence")
def _suite_equivalence(cfg: ExperimentConfig):
    def cell(seed: int, k: int) -> list[Record]:
        system = cfg.system(k)
        orig = mdl.simulate_original(system, cfg.shaping, cfg.quantizer,
                                     _stream(seed, "original", k), cfg.trials)
        equiv = mdl.sample_coupled(system, cfg.quantizer, [cfg.shaping],
                                   _stream(seed, "equivalent", k), cfg.trials, users=k)[0]
        ks = stats.ks_2samp(orig.y[:, 0].real, equiv.y_hat[:, 0].real).statistic
        return [Record(cfg.name, seed, k, "ks_real_part", float(ks),
                       bound=0.03, holds=bool(ks < 0.03))]

    records = _run_cells(cfg, cell)
    return records, {"distribution_match": all(r.holds for r in records)}


@suite("converge-sinr")
def _suite_converge_sinr(cfg: ExperimentConfig):
    def cell(seed: int, k: int) -> list[Record]:
        system = cfg.system(k)
        coupled = mdl.functional_models(system, cfg.shaping, cfg.quantizer)
        limit = met.sinr_bar(system, cfg.shaping, cfg.quantizer, model=coupled.scalar)
        samples = coupled.sample(_stream(seed, "coupled", k), cfg.trials)
        est = met.sinr_hat_coupled(samples, coupled.scalar, system)
        gap = abs(est.value - limit)
        return [
            Record(cfg.name, seed, k, "sinr_hat", est.value, std_error=est.std_error),
            Record(cfg.name, seed, k, "sinr_bar", limit),
            Record(cfg.name, seed, k, "sinr_gap", gap),
            Record(cfg.name, seed, k, "sinr_rel_gap", gap / limit),
        ]

    records = _run_cells(cfg, cell)
    means = _ladder_means(records, "sinr_gap", cfg)
    rel = _ladder_means(records, "sinr_rel_gap", cfg)
    checks = {"final_rel_gap_below_5pct": rel[-1] < 0.05}
    if len(means) > 1:
        checks["gap_decreasing"] = all(a > b for a, b in zip(means, means[1:]))
    return records, checks


@suite("converge-sep")
def _suite_converge_sep(cfg: ExperimentConfig):
    def cell(seed: int, k: int) -> list[Record]:
        system = cfg.system(k)
        coupled = mdl.functional_models(system, cfg.shaping, cfg.quantizer)
        model = coupled.scalar
        rule = met.default_rule(model, system)
        samples = coupled.sample(_stream(seed, "coupled", k), cfg.trials)
        hat = met.sep_from_samples(samples.y_hat, samples.s, rule)
        bar = met.sep_bar(model, rule, system, _stream(seed, "sep_bar", k),
                          max(cfg.trials, 100_000))
        gap = abs(hat.value - bar.value)
        return [
            Record(cfg.name, seed, k, "sep_hat", hat.value, std_error=hat.std_error),
            Record(cfg.name, seed, k, "sep_bar", bar.value, std_error=bar.std_error),
            Record(cfg.name, seed, k, "sep_gap", gap),
        ]

    records = _run_cells(cfg, cell)
    means = _ladder_means(records, "sep_gap", cfg)
    return records, {"final_gap_below_1e-2": means[-1] < 0.01}


@suite("kyfan-rate")
def _suite_kyfan_rate(cfg: ExperimentConfig):
    def cell(seed: int, k: int) -> list[Record]:
        system = cfg.system(k)
        coupled = mdl.functional_models(system, cfg.shaping, cfg.quantizer)
        samples = coupled.sample(_stream(seed, "coupled", k), cfg.trials)
        d_sig, d_int = met.gain_ky_fan(samples, coupled.scalar)
        return [
            Record(cfg.name, seed, k, "kf_signal_gain", d_sig),
            Record(cfg.name, seed, k, "kf_interference", d_int),
        ]

    if len(cfg.k_ladder) < 2:
        raise ConfigError("field 'k_ladder' needs at least two entries for a log-log slope")
    records = _run_cells(cfg, cell)
    means = _ladder_means(records, "kf_signal_gain", cfg)
    slope = _loglog_slope(cfg.k_ladder, means)
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    return records, {"kf_decreasing": decreasing, "loglog_slope_below_-0.2": slope <= -0.2}


@suite("bounds-audit")
def _suite_bounds_audit(cfg: ExperimentConfig):
    records: list[Record] = []
    checks: dict[str, bool] = {}
    mark = _lap(records)  # each section's records get that section's time
    k_big = cfg.k_ladder[-1]
    system = cfg.system(k_big)
    coupled = mdl.functional_models(system, cfg.shaping, cfg.quantizer)
    model = coupled.scalar

    # Quantizer moment identity for the sign quantizer.
    gm = qnt.gaussian_moments(qnt.one_bit(1.0 / math.sqrt(2.0)), model.input_scale)
    target = math.sqrt(2.0 / math.pi)
    records.append(Record(cfg.name, 0, k_big, "one_bit_corr_quadrature",
                          float(abs(gm.ezq)), bound=target + 1e-6,
                          holds=abs(abs(gm.ezq) - target) < 1e-6))
    checks["one_bit_correlation"] = abs(abs(gm.ezq) - target) < 1e-6
    mark = _lap(records, mark)

    # Envelope sandwich on a grid.
    grid = np.linspace(-3, 3, 101)
    viol = qnt.Envelope(cfg.quantizer, "real", 0.1).sandwich_violation(
        grid[:, None] + 1j * grid[None, :])
    checks["envelope_sandwich"] = sandwich = viol <= qnt.SANDWICH_TOLERANCE
    records.append(Record(cfg.name, 0, k_big, "envelope_sandwich_viol", viol,
                          bound=qnt.SANDWICH_TOLERANCE, holds=sandwich))
    mark = _lap(records, mark)

    # Linear spectral statistic variance against its bound, per ladder K.
    m1 = bnd.assumption_m1(cfg.shaping, cfg.gamma)
    for k in cfg.k_ladder:
        var = spc.lss_variance(int(round(cfg.gamma * k)), k, lambda x: x * x,
                               (_stream(cfg.seeds[0], "lss", k, rep) for rep in range(200)))
        bound = spc.lss_variance_bound(m1, k)
        records.append(Record(cfg.name, cfg.seeds[0], k, "lss_variance", var,
                              bound=bound, holds=var <= bound))
        mark = _lap(records, mark)
    checks["lss_variance"] = all(r.holds for r in records if r.metric == "lss_variance")

    # Quadratic/cross form empirical tails against the explicit bounds.
    records += [_record(cfg, cfg.seeds[0], k_big, report) for report in bnd.form_tail_reports(
        cfg.gamma, k_big, (_stream(cfg.seeds[0], "form_tail", k_big, r) for r in range(300)),
        (0.2, 0.4))]
    mark = _lap(records, mark)
    checks["form_tails"] = all(r.holds for r in records
                               if r.metric.startswith(("quad_tail", "cross_tail")))

    # Boundary-collar mass of a complex Gaussian against the Lipschitz bound.
    y = sample_complex_gaussian(200_000, 1.0, _stream(cfg.seeds[0], "collar", k_big))
    eps = 0.05
    mass = float(np.mean((np.abs(y) > 1.0) & (np.abs(y) <= 1.0 + eps)))
    collar = bnd.gaussian_boundary_bound(1.0, eps)
    checks["boundary_collar"] = mass <= collar
    records.append(Record(cfg.name, cfg.seeds[0], k_big, "boundary_collar_mass",
                          mass, bound=collar, holds=mass <= collar))
    mark = _lap(records, mark)

    # SEP and SINR gap bounds at the largest ladder point, one record each per seed.
    limit = met.sinr_bar(system, cfg.shaping, cfg.quantizer, model=model)
    rule = met.default_rule(model, system)
    for seed in cfg.seeds:
        samples = coupled.sample(_stream(seed, "coupled", k_big), cfg.trials)
        bar = met.sep_bar(model, rule, system, _stream(seed, "sep_bar", k_big), 100_000).value
        records += [_record(cfg, seed, k_big, bnd.sinr_gap_report(system, model, samples, limit)),
                    _record(cfg, seed, k_big, bnd.sep_gap_report(system, model, samples, bar))]
        mark = _lap(records, mark)
    checks["sinr_gap_bound"] = all(r.holds for r in records if r.metric == "sinr_gap_vs_bound")
    checks["sep_gap_bound"] = all(r.holds for r in records if r.metric == "sep_gap_vs_bound")
    return records, checks


def _write_profile_csv(path: Path, asym, fin) -> None:
    """Per-grid-point profile: parameter, limiting SINR, estimated SINR."""
    hat = {p.label: p for p in fin.profile}
    with open(path, "w", newline="") as fh:
        fh.write(f"# {SCHEMA} optimizer-profile\n")
        writer = csv.writer(fh)
        writer.writerow(["label", "rho", "sinr_bar", "sinr_hat", "sinr_hat_std_error"])
        for p in asym.profile:
            h = hat.get(p.label)
            writer.writerow([p.label, repr(p.rho), repr(p.value),
                             repr(h.value) if h else "",
                             repr(h.std_error) if h else ""])


@suite("optimize")
def _suite_optimize(cfg: ExperimentConfig):
    records: list[Record] = []
    checks: dict[str, bool] = {}
    gaps = []
    mark = _lap(records)
    for k in cfg.k_ladder:
        system = cfg.system(k)
        asym = opt.solve_asymptotic(system, cfg.quantizer, cfg.grid)
        per_seed = []
        for seed in cfg.seeds:
            report = opt.optimal_gap_report(system, cfg.quantizer, cfg.grid,
                                            seed=seed, trials=cfg.trials)
            per_seed.append(report)
            records.append(_record(cfg, seed, k, report))
        fin = opt.solve_finite(system, cfg.quantizer, cfg.grid,
                               seed=cfg.seeds[0], trials=cfg.trials)
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        _write_profile_csv(cfg.output_dir / f"profile_k{k}.csv", asym, fin)
        fdev = opt.feasibility_deviation(system, cfg.quantizer, cfg.grid,
                                         _stream(cfg.seeds[0], "feasibility", k),
                                         max(50, cfg.trials // 10))
        records.append(Record(cfg.name, cfg.seeds[0], k, "feasibility_deviation", fdev))
        records.append(Record(cfg.name, cfg.seeds[0], k, "asymptotic_value", asym.value))
        mark = _lap(records, mark)
        gaps.append(float(np.mean([r.empirical for r in per_seed])) / asym.value)
    checks["bound_holds"] = all(r.holds for r in records
                                if r.metric == "optimal_value_gap")
    checks["final_rel_gap_below_10pct"] = gaps[-1] < 0.10
    if len(gaps) > 1:
        checks["gap_decreasing"] = gaps[-1] < gaps[0]
    fdevs = [r.value for r in records if r.metric == "feasibility_deviation"]
    if len(fdevs) > 1:
        checks["feasibility_decreasing"] = fdevs[-1] < fdevs[0]
    return records, checks


@suite("tail-audit")
def _suite_tail_audit(cfg: ExperimentConfig):
    records: list[Record] = []
    system = cfg.system(cfg.k_ladder[-1])
    params = bnd.cascade_params(system, cfg.shaping, cfg.quantizer)
    ladder = [1_000, 10_000, 100_000, 1_000_000]
    tg_vals, ts_vals = [], []
    mark = _lap(records)
    for k in ladder:
        tg = bnd.interference_gain_tail(cfg.eps, k, params)
        ts = bnd.signal_gain_tail(cfg.eps, k, params)
        tg_vals.append(tg.value)
        ts_vals.append(ts.value)
        records.append(Record(cfg.name, 0, k, "interference_tail", tg.value,
                              bound=tg.threshold, holds=tg.applicable))
        records.append(Record(cfg.name, 0, k, "signal_tail", ts.value,
                              bound=ts.threshold, holds=ts.applicable))
        mark = _lap(records, mark)
    far = [bnd.interference_gain_tail(cfg.eps, 10**p, params).value
           for p in (50, 60, 70)]
    checks = {
        "interference_tail_decreasing": all(a > b for a, b in zip(tg_vals, tg_vals[1:])),
        "signal_tail_decreasing": all(a > b for a, b in zip(ts_vals, ts_vals[1:])),
        "positive": all(v > 0 for v in tg_vals + ts_vals),
        "vanishing": all(a > b for a, b in zip(far, far[1:])) and far[-1] < 1e-3,
    }
    return records, checks


def _ladder_means(records: list[Record], metric: str, cfg: ExperimentConfig) -> list[float]:
    out = []
    for k in cfg.k_ladder:
        vals = [r.value for r in records if r.metric == metric and r.k == k]
        out.append(float(np.mean(vals)))
    return out


def _loglog_slope(ks, values) -> float:
    x = np.log(np.asarray(ks, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run(config_path: str | Path) -> int:
    try:
        cfg = parse_config(config_path)
        records, checks = SUITES[cfg.name](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    records.sort(key=lambda r: (r.experiment, r.seed, r.k, r.metric))
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.output_dir / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write(f"# {SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(r.row())
    passed = all(checks.values())
    summary = {"experiment": cfg.name, "schema": SCHEMA, "checks": checks,
               "passed": passed, "records": len(records)}
    with open(cfg.output_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, ok in sorted(checks.items()):
        print(f"[{'PASS' if ok else 'FAIL'}] {cfg.name}: {name}")
    return 0 if passed else 1


def _read_records(csv_path: str | Path) -> list[dict]:
    with open(csv_path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(io.StringIO("".join(lines)))
    return list(reader)


def emit_plotdata(csv_path: str | Path, metric: str, loglog: bool = False,
                  out_path: str | Path | None = None, svg: bool = False) -> Path:
    rows = _read_records(csv_path)
    available = sorted({r["metric"] for r in rows})
    chosen = [r for r in rows if r["metric"] == metric]
    if rows and not chosen:
        raise ValueError(f"unknown metric '{metric}'; available: {', '.join(available)}")
    out = Path(out_path) if out_path else Path(csv_path).with_suffix(f".{metric}.dat")
    series: dict[int, list[tuple[int, float]]] = {}
    for r in chosen:
        series.setdefault(int(r["seed"]), []).append((int(r["k"]), float(r["value"])))
    lines = [f"# {SCHEMA} plot-data metric={metric}"]
    mean_acc: dict[int, list[float]] = {}
    for seed in sorted(series):
        pts = sorted(series[seed])
        lines.append(f"# seed={seed}")
        for k, v in pts:
            lines.append(f"{k} {v!r}")
            mean_acc.setdefault(k, []).append(v)
        lines.append("")
    if mean_acc:
        ks = sorted(mean_acc)
        means = [float(np.mean(mean_acc[k])) for k in ks]
        if loglog and not all(v > 0 for v in means):
            raise ValueError(f"--loglog needs every mean of '{metric}' to be positive")
        if loglog and len(ks) > 1:
            slope = _loglog_slope(ks, means)
            lines.insert(1, f"# loglog_slope={slope!r}")
        lines.append("# mean")
        for k, v in zip(ks, means):
            lines.append(f"{k} {v!r}")
        lines.append("")
    out.write_text("\n".join(lines))
    if svg and mean_acc:
        _write_svg(out.with_suffix(".svg"), ks, means, metric, loglog)
    return out


def _write_svg(path: Path, ks, values, metric: str, loglog: bool) -> None:
    w, h, pad = 480, 320, 40
    xs = np.log(ks) if loglog else np.asarray(ks, dtype=float)
    ys = np.log(values) if loglog else np.asarray(values, dtype=float)
    xr = (xs.max() - xs.min()) or 1.0
    yr = (ys.max() - ys.min()) or 1.0
    px = pad + (xs - xs.min()) / xr * (w - 2 * pad)
    py = h - pad - (ys - ys.min()) / yr * (h - 2 * pad)
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    path.write_text(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">'
        f'<rect width="{w}" height="{h}" fill="white"/>'
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>'
        f'<text x="{pad}" y="{pad / 2}" font-size="12">{metric}'
        f'{" (log-log)" if loglog else ""}</text></svg>\n')


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qprec",
                                     description="quantized-precoding experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a named experiment suite")
    p_run.add_argument("config")
    p_plot = sub.add_parser("plot", help="emit plot-ready data from a results CSV")
    p_plot.add_argument("csv")
    p_plot.add_argument("--metric", required=True)
    p_plot.add_argument("--loglog", action="store_true")
    p_plot.add_argument("--out", default=None)
    p_plot.add_argument("--svg", action="store_true")
    sub.add_parser("list-suites", help="list available experiment suites")
    args = parser.parse_args(argv)

    if args.command == "list-suites":
        for name in sorted(SUITES):
            print(name)
        return 0
    if args.command == "run":
        return run(args.config)
    if args.command == "plot":
        try:
            out = emit_plotdata(args.csv, args.metric, loglog=args.loglog,
                                out_path=args.out, svg=args.svg)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(out)
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
