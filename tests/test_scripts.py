"""Smoke runs of the study scripts at tiny sizes, so API changes cannot break them silently."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


# Output of each (script, args) run so far: cases with the same arguments share one run.
_OUTPUTS = {}


@pytest.mark.parametrize("script,args,expected", [
    ("convergence_study.py", ["--ladder", "8", "--trials", "20"], ["sinr_gap"]),
    ("optimize_shaping.py", ["--k", "8", "--trials", "20", "--points", "3"],
     ["value-gap bound"]),
    ("output_digests.py", ["--k", "8", "--seeds", "1", "--trials", "3"],
     ["phase_ce8 k=8 seed=1 optimal_gap_report ", "uniform_iq4 k=8 seed=1 sinr_gap_report ",
      "one_bit k=8 seed=1 sample_coupled users=K ", "one_bit k=8 seed=1 sep_gap_report ",
      "phase_ce8 k=8 seed=1 sup_deviation "]),
    ("output_digests.py", ["--k", "8", "--seeds", "1", "--trials", "3"],
     ["uniform_iq4 k=8 seed=- received_gap_tail ", "one_bit k=8 seed=- form_tail_reports ",
      "phase_ce8 k=- seed=- envelope_product_gap ", "phase_ce8 k=8 seed=- lss_variance "]),
], ids=["convergence_study", "optimize_shaping", "output_digests", "output_digests_tails"])
def test_script_runs(script, args, expected, monkeypatch, capsys):
    key = (script, tuple(args))
    if key not in _OUTPUTS:
        monkeypatch.setattr(sys, "argv", [script] + args)
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
        _OUTPUTS[key] = capsys.readouterr().out
    for line in expected:
        assert line in _OUTPUTS[key]

def test_run_all_suites_keeps_config_beside_results(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["run_all_suites.py", "--suite", "tail-audit",
                                      "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "run_all_suites.py"), run_name="__main__")
    assert exc.value.code == 0
    for name in ("config.ini", "results.csv", "summary.json"):
        assert (tmp_path / "tail-audit" / name).is_file()
