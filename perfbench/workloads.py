"""The benchmark's workloads as fixed lists of cells, and their output checks.

A cell is one closed-loop unit of work: it runs to completion before the next
one starts.  Sizes and tolerances live in ``spec.json`` next to this file.
Every random stream a cell uses is derived from (workload seed, workload,
purpose, K, rep) by :func:`stream_seed`; the library receives only that
derived seed, and chooses its own sub-stream ids under it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import logging
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from qprec import bounds as bnd
from qprec import cli
from qprec import metrics as met
from qprec import models as md
from qprec import optimizer as opt
from qprec import quantizer as qt
from qprec import spectral as sp
from qprec import stochastic as st

SPEC = json.loads(Path(__file__).with_name("spec.json").read_text())
K_REPORTED = (64, 256, 1024)

# Raised errors that count as failed operations rather than crashing the run.
FAILURES = (met.UnstableEstimateError, st.DegenerateDrawError, md.DegenerateQuantizerError)


def stream_seed(seed: int, workload: str, purpose: str, k: int | None, rep: int) -> int:
    """63-bit stream seed owned by one (seed, workload, purpose, K, rep) tuple."""
    payload = json.dumps([int(seed), workload, purpose, k, int(rep)]).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") >> 1


def digest(outputs: dict) -> str:
    """SHA-256 over the names, dtypes, shapes and bytes of the output arrays."""
    h = hashlib.sha256()
    for name in sorted(outputs):
        arr = np.ascontiguousarray(np.asarray(outputs[name]))
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@dataclass
class Outcome:
    outputs: dict
    checks: list  # (name, ok, detail)


@dataclass(frozen=True)
class Cell:
    """One unit of work and the purposes it draws streams for.

    ``trials`` counts the finite-model trial evaluations (one trial of one
    shaping member) the cell requests.  A body may only seed the declared
    ``purposes``, so the stream test sees every stream a cell opens.
    """

    workload: str
    name: str
    k: int | None
    trials: int
    purposes: tuple
    body: Callable

    def seed(self, seed: int, purpose: str, rep: int) -> int:
        assert purpose in self.purposes, f"cell {self.name} declares no purpose '{purpose}'"
        return stream_seed(seed, self.workload, purpose, self.k, rep)

    def run(self, seed: int, rep: int) -> Outcome:
        """Run the cell on pass ``rep``'s streams; a FAILURES error is one failed check."""
        try:
            return self.body(lambda purpose: self.seed(seed, purpose, rep))
        except FAILURES as exc:
            return Outcome({}, [("raised", False, f"{type(exc).__name__}: {exc}")])


class SkipCounter(logging.Handler):
    """Counts the grid members solve_finite drops on an unstable estimate."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.skipped: list[str] = []
        self.resampled = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("skipping grid point"):
            self.skipped.append(record.getMessage())
        elif "resampling" in record.msg:
            self.resampled += 1


# ---------------------------------------------------------------------------
# Shared configuration
# ---------------------------------------------------------------------------

_SYS = SPEC["system"]
_CONSTELLATIONS = {"qpsk": md.QPSK}


def _system(k: int) -> md.SystemConfig:
    return md.SystemConfig.with_gamma(
        k=k, gamma=_SYS["gamma"], sigma2_noise=_SYS["sigma2_noise"],
        constellation=_CONSTELLATIONS[_SYS["constellation"]],
        power_limit=_SYS["power_limit"])


def _one_bit() -> qt.QuantizerSpec:
    return qt.one_bit(_SYS["one_bit_amplitude"])


def _phase_ce() -> qt.QuantizerSpec:
    return qt.phase_ce(_SYS["phase_ce_phases"])


def _rzf() -> md.ShapingFunction:
    return md.rzf(_SYS["rzf_rho"])


def _grid() -> opt.FamilyGrid:
    g = _SYS["grid"]
    return opt.FamilyGrid(rho_min=g["rho_min"], rho_max=g["rho_max"], points=g["points"])


def _finite(name: str, *values) -> tuple:
    ok = bool(np.all(np.isfinite(np.asarray(values, dtype=complex))))
    return (f"{name}_finite", ok, "" if ok else repr(values))


def _within(name: str, value: float, lo: float, hi: float) -> tuple:
    ok = bool(lo <= value <= hi)
    return (name, ok, f"{value:.6g} in [{lo}, {hi}]")


def _arrays(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


_REL_GAP = SPEC["tolerances"]["sinr_rel_gap"]["max"]


def _rel_gap_check(gap: float, limit: float, name: str = "sinr_rel_gap") -> tuple:
    rel = gap / limit
    return (name, bool(rel < _REL_GAP), f"{rel:.4g} < {_REL_GAP}")


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------


def _ladder_cell(k: int, trials: int, sep_bar_trials: int, check_bounds: bool) -> Cell:
    cfg, shaping, quant = _system(k), _rzf(), _one_bit()

    def body(seed_for) -> Outcome:
        coupled = md.functional_models(cfg, shaping, quant)
        model = coupled.scalar
        limit = met.sinr_bar(cfg, shaping, quant, model=model)
        samples = coupled.sample(st.RngStream(seed_for("coupled"), 0), trials)
        est = met.sinr_hat_coupled(samples, model, cfg)
        rule = met.default_rule(model, cfg)
        hat = met.sep_from_samples(samples.y_hat, samples.s, rule)
        bar = met.sep_bar(model, rule, cfg, st.RngStream(seed_for("sep_bar"), 0), sep_bar_trials)
        d_sig = met.ky_fan_distance(samples.signal_gain, np.full(trials, model.signal_gain))
        d_int = met.ky_fan_distance(samples.interference_gain * samples.g2_user,
                                    model.interference_gain * samples.g2_user)
        dev = met.l2_deviation(samples.y_hat, samples.y_bar)
        gap, sep_gap = abs(est.value - limit), abs(hat.value - bar.value)
        checks = [_finite("sinr", limit, est.value, dev.value),
                  _within("sep_hat", hat.value, 0.0, 1.0), _within("sep_bar", bar.value, 0.0, 1.0),
                  _within("kyfan_signal", d_sig, 0.0, 1.0),
                  _within("kyfan_interference", d_int, 0.0, 1.0)]
        if check_bounds:
            lk = bnd.sinr_sensitivity(cfg, model)
            lm = float(np.mean(bnd.sep_sensitivity(cfg, model, rule.beta)))
            checks += [
                _rel_gap_check(gap, limit),
                ("sinr_gap_bound", bool(gap <= lk * dev.value), f"{gap:.4g} <= {lk * dev.value:.4g}"),
                ("sep_gap_bound", bool(sep_gap <= lm * (d_sig + d_int)),
                 f"{sep_gap:.4g} <= {lm * (d_sig + d_int):.4g}"),
            ]
        outputs = _arrays(samples)
        outputs["estimates"] = np.array([limit, est.value, est.std_error, hat.value,
                                         bar.value, d_sig, d_int, dev.value])
        return Outcome(outputs, checks)

    return Cell("ladder", f"k{k}", k, trials, ("coupled", "sep_bar"), body)


def _limit_check(cfg, quant, asym, seed: int, trials: int) -> tuple[tuple, list]:
    """Criterion-3 check of the limit side at the asymptotic argmax.

    A coupled Monte-Carlo estimate of the finite SINR at ``asym.best`` must lie
    within the relative-gap tolerance of the optimum ``asym.value``.
    """
    coupled = md.functional_models(cfg, asym.best, quant)
    samples = coupled.sample(st.RngStream(seed, 0), trials)
    est = met.sinr_hat_coupled(samples, coupled.scalar, cfg)
    check = _rel_gap_check(abs(est.value - asym.value), asym.value, "limit_sinr_rel_gap")
    return check, [est.value, est.std_error]


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def _profile(result) -> np.ndarray:
    return np.array([(p.rho, p.value, p.std_error) for p in result.profile])


def _optimize_cell(k: int, trials: int, feasibility_trials: int, gap_report: bool,
                   limit_trials: int) -> Cell:
    cfg, quant, grid = _system(k), _one_bit(), _grid()
    members = len(grid.members())
    # feasibility_deviation evaluates every member on each of its draws.
    requested = members * (trials + feasibility_trials) + limit_trials
    purposes = ("solve_finite", "feasibility")
    if gap_report:
        requested += members * trials + members * max(200, trials // 4)
        purposes += ("gap_report",)
    if limit_trials:
        purposes += ("limit",)

    def body(seed_for) -> Outcome:
        asym = opt.solve_asymptotic(cfg, quant, grid)
        checks = []
        outputs = {"asymptotic": _profile(asym), "asymptotic_best": [asym.value, asym.best.rho]}
        if limit_trials:
            check, outputs["limit_estimate"] = _limit_check(cfg, quant, asym, seed_for("limit"),
                                                            limit_trials)
            checks.append(check)
        if gap_report:
            report = opt.optimal_gap_report(cfg, quant, grid, seed=seed_for("gap_report"),
                                            trials=trials)
            checks.append(("optimal_gap_bound", bool(report.holds),
                           f"{report.empirical:.4g} <= {report.bound:.4g}"))
            outputs["gap_report"] = [report.empirical, report.bound]
        fin = opt.solve_finite(cfg, quant, grid, seed=seed_for("solve_finite"), trials=trials)
        fdev = opt.feasibility_deviation(cfg, quant, grid,
                                         st.RngStream(seed_for("feasibility"), 0),
                                         feasibility_trials)
        checks += [_finite("solve_finite", fin.value),
                   ("feasibility_positive", bool(np.isfinite(fdev) and fdev > 0), repr(fdev))]
        outputs.update(finite=_profile(fin), finite_best=[fin.value, fin.best.rho],
                       feasibility=fdev)
        return Outcome(outputs, checks)

    return Cell("optimize", f"k{k}", k, requested, purposes, body)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

_CLI_TEMPLATE = """\
[experiment]
name = {suite}
seeds = {seed}
k_ladder = {ladder}
trials = {trials}
output_dir = {out}

[system]
gamma = {gamma!r}
sigma2_noise = {sigma2_noise!r}
constellation = {constellation}
power_limit = {power_limit!r}

[quantizer]
kind = one_bit
amplitude = {amplitude!r}

[shaping]
family = rzf
rho = {rho!r}
"""

def _strip_wall_time(text: str) -> bytes:
    """results.csv without its wall_time column, the only non-deterministic one."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    keep = [i for i, col in enumerate(rows[0]) if col != "wall_time"]
    return "\n".join(",".join(row[i] for i in keep) for row in rows).encode()


def _cli_cell(suite: str, k_ladder: list, trials: int, scratch: Path) -> Cell:
    purpose = f"cli:{suite}"
    # Finite-model trials: equivalence draws `trials` from each of two models.
    requested = 2 * trials * len(k_ladder) if suite == "equivalence" else 0

    def body(seed_for) -> Outcome:
        scratch.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            out = Path(tmp) / "out"
            path = Path(tmp) / f"{suite}.ini"
            path.write_text(_CLI_TEMPLATE.format(
                suite=suite, seed=seed_for(purpose), ladder=" ".join(map(str, k_ladder)),
                trials=trials, out=out, gamma=_SYS["gamma"], sigma2_noise=_SYS["sigma2_noise"],
                constellation=_SYS["constellation"], power_limit=_SYS["power_limit"],
                amplitude=_SYS["one_bit_amplitude"], rho=_SYS["rzf_rho"]))
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.run(path)
            summary_text = (out / "summary.json").read_text()
            results = _strip_wall_time((out / "results.csv").read_text())
        summary = json.loads(summary_text)
        checks = [("cli_exit_code", rc == 0, f"rc={rc}")]
        checks += [(f"cli_{name}", bool(ok), "") for name, ok in sorted(summary["checks"].items())]
        outputs = {"results": np.frombuffer(results, dtype=np.uint8),
                   "summary": np.frombuffer(summary_text.encode(), dtype=np.uint8)}
        return Outcome(outputs, checks)

    return Cell("audit", purpose, None, requested, (purpose,), body)


def _limit_cell(k: int, trials: int) -> Cell:
    cfg, quant, grid = _system(k), _phase_ce(), _grid()

    def body(seed_for) -> Outcome:
        asym = opt.solve_asymptotic(cfg, quant, grid)
        growth = opt.growth_psi(cfg, quant, grid)
        check, estimate = _limit_check(cfg, quant, asym, seed_for("limit:phase_ce"), trials)
        outputs = {"asymptotic": _profile(asym), "asymptotic_best": [asym.value, asym.best.rho],
                   "limit_estimate": estimate, "taus": growth.taus, "psi": growth.psi}
        return Outcome(outputs, [check])

    return Cell("audit", "limit:phase_ce", k, trials, ("limit:phase_ce",), body)


def _coupled_cell(k: int, trials: int, check_gap: bool) -> Cell:
    cfg, shaping, quant = _system(k), _rzf(), _phase_ce()

    def body(seed_for) -> Outcome:
        coupled = md.functional_models(cfg, shaping, quant)
        limit = met.sinr_bar(cfg, shaping, quant, model=coupled.scalar)
        samples = coupled.sample(st.RngStream(seed_for("coupled:phase_ce"), 0), trials)
        est = met.sinr_hat_coupled(samples, coupled.scalar, cfg)
        checks = [_finite("sinr", limit, est.value)]
        if check_gap:
            checks.append(_rel_gap_check(abs(est.value - limit), limit))
        outputs = _arrays(samples)
        outputs["estimates"] = np.array([limit, est.value, est.std_error])
        return Outcome(outputs, checks)

    return Cell("audit", f"coupled:phase_ce:k{k}", k, trials, ("coupled:phase_ce",), body)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def build(workload: str, scratch: Path) -> list[Cell]:
    """The fixed cell schedule of one pass of ``workload``."""
    spec = SPEC["workloads"][workload]
    if workload == "ladder":
        cells = [_ladder_cell(c["k"], c["trials"], c["sep_bar_trials"], c["k"] == spec["bound_k"])
                 for c in spec["cells"]]
    elif workload == "optimize":
        cells = [_optimize_cell(c["k"], c["trials"], c["feasibility_trials"], c["gap_report"],
                                c["limit_trials"]) for c in spec["cells"]]
    elif workload == "audit":
        cells = [_cli_cell(c["suite"], c["k_ladder"], c["trials"], scratch) for c in spec["cli"]]
        cells.append(_limit_cell(spec["limit"]["k"], spec["limit"]["trials"]))
        cells += [_coupled_cell(c["k"], c["trials"], c["k"] == spec["bound_k"])
                  for c in spec["coupled"]]
    else:
        raise KeyError(f"unknown workload '{workload}'")
    missing = set(K_REPORTED) - {c.k for c in cells if c.trials > 0}
    if missing:
        raise ValueError(f"workload {workload} has no trials at K = {sorted(missing)}")
    return cells


def definition_sha256(workload: str) -> str:
    """Hash of everything that defines ``workload``'s inputs and checks."""
    payload = {"system": SPEC["system"], "workload": SPEC["workloads"][workload],
               "tolerances": SPEC["tolerances"]}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def warm_up(seed: int) -> None:
    """One call into each layer at the smallest size, so lazy set-up is done."""
    cfg = _system(8)
    rng = st.RngStream(stream_seed(seed, "setup", "warm_up", 8, 0), 0)
    st.sample_complex_gaussian(8, 1.0, rng)
    sp.sample_singular_values(cfg.n, cfg.k, rng)
    qt.gaussian_moments(_phase_ce(), 0.5)
    coupled = md.functional_models(cfg, _rzf(), _one_bit())
    samples = coupled.sample(rng, 16)
    met.sinr_hat_coupled(samples, coupled.scalar, cfg)
    bnd.sinr_sensitivity(cfg, coupled.scalar)
    small = opt.FamilyGrid(points=2, include_endpoints=False)
    opt.feasibility_deviation(cfg, _one_bit(), small, rng, 1)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["list-suites"])

