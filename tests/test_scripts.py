"""Smoke runs of the study scripts at tiny sizes, so API changes cannot break them silently."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,args,expected", [
    ("convergence_study.py", ["--ladder", "8", "--trials", "20"], "sinr_gap"),
    ("optimize_shaping.py", ["--k", "8", "--trials", "20", "--points", "3"],
     "value-gap bound"),
], ids=["convergence_study", "optimize_shaping"])
def test_script_runs(script, args, expected, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script] + args)
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert expected in capsys.readouterr().out
