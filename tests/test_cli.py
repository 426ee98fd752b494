import json
from pathlib import Path

import pytest

from qprec import cli


def _write_config(tmp_path: Path, name: str, *, k_ladder="16 32", seeds="1 2",
                  trials=120, extra_system="", body="") -> Path:
    text = f"""
[experiment]
name = {name}
seeds = {seeds}
k_ladder = {k_ladder}
trials = {trials}
output_dir = {tmp_path / 'out'}

[system]
gamma = 4.0
sigma2_noise = 0.1
constellation = qpsk
{extra_system}

[quantizer]
kind = one_bit

[shaping]
family = rzf
rho = 0.25
{body}
"""
    path = tmp_path / "config.ini"
    path.write_text(text)
    return path


def _strip_wall_time(csv_path: Path) -> str:
    lines = csv_path.read_text().splitlines()
    return "\n".join(",".join(ln.split(",")[:-1]) for ln in lines)


def test_list_suites(capsys):
    assert cli.main(["list-suites"]) == 0
    out = capsys.readouterr().out.split()
    assert "mp-check" in out and "optimize" in out and "tail-audit" in out


def test_missing_constellation_is_config_error(tmp_path, capsys):
    path = _write_config(tmp_path, "mp-check")
    text = path.read_text().replace("constellation = qpsk\n", "")
    path.write_text(text)
    assert cli.main(["run", str(path)]) == 2
    assert "constellation" in capsys.readouterr().err


def test_unknown_suite_is_config_error(tmp_path, capsys):
    path = _write_config(tmp_path, "no-such-suite")
    assert cli.main(["run", str(path)]) == 2
    assert "no-such-suite" in capsys.readouterr().err


def test_unsorted_ladder_rejected(tmp_path, capsys):
    path = _write_config(tmp_path, "mp-check", k_ladder="64 16")
    assert cli.main(["run", str(path)]) == 2
    assert "k_ladder" in capsys.readouterr().err


@pytest.mark.parametrize("field, edit", [
    ("'trials'", lambda text: text.replace("trials = 120", "trials = 0")),
    ("'k_ladder'", lambda text: text.replace("k_ladder = 16 32", "k_ladder = 2")),
    ("gamma", lambda text: text.replace("gamma = 4.0", "gamma = 0.5")),
    ("'eps'", lambda text: text.replace("trials = 120", "trials = 120\neps = 0")),
    ("'eps'", lambda text: text.replace("trials = 120", "trials = 120\neps = inf")),
    ("[grid]", lambda text: text + "[grid]\npoints = 1\n"),
    ("'k_ladder'", lambda text: text.replace("k_ladder = 16 32", "k_ladder =")),
    ("'seeds'", lambda text: text.replace("seeds = 1 2", "seeds = 1 1")),
    ("'seeds'", lambda text: text.replace("seeds = 1 2", "seeds = -1 2")),
    ("'seeds'", lambda text: text.replace("seeds = 1 2", "seeds = 1 18446744073709551616")),
    ("gamma must be finite", lambda text: text.replace("gamma = 4.0", "gamma = inf")),
    ("power limit must be finite", lambda text: text.replace("gamma = 4.0",
                                                             "gamma = 4.0\npower_limit = nan")),
    ("rho", lambda text: text.replace("rho = 0.25", "rho = nan")),
    ("[grid]", lambda text: text + "[grid]\nrho_min = nan\n"),
    ("amplitude", lambda text: text.replace("kind = one_bit", "kind = one_bit\namplitude = nan")),
    ("radius", lambda text: text.replace("kind = one_bit",
                                         "kind = phase_ce\nphases = 8\nradius = nan")),
    ("step", lambda text: text.replace("kind = one_bit",
                                       "kind = uniform_iq\nlevels = 4\nstep = nan")),
], ids=["trials", "k_ladder", "gamma", "eps", "eps_inf", "grid", "empty_k_ladder", "repeated_seed",
        "negative_seed", "seed_2_64", "gamma_inf", "power_limit_nan", "rho_nan", "rho_min_nan",
        "amplitude_nan", "radius_nan", "step_nan"])
def test_out_of_range_field_is_config_error(tmp_path, capsys, field, edit):
    path = _write_config(tmp_path, "mp-check")
    path.write_text(edit(path.read_text()))
    assert cli.main(["run", str(path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["converge-sinr", "bounds-audit", "optimize",
                                   "converge-sep", "equivalence"])
def test_one_trial_is_config_error_where_sinr_is_estimated(tmp_path, capsys, suite):
    path = _write_config(tmp_path, suite, k_ladder="8 16", seeds="1", trials=1)
    assert cli.main(["run", str(path)]) == 2
    assert "'trials'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_kyfan_rate_needs_two_ladder_entries(tmp_path, capsys):
    path = _write_config(tmp_path, "kyfan-rate", k_ladder="16", seeds="1", trials=20)
    assert cli.main(["run", str(path)]) == 2
    assert "'k_ladder'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_uniform_clip_must_match_grid(tmp_path, capsys):
    path = _write_config(tmp_path, "tail-audit", k_ladder="64", seeds="1")
    text = path.read_text().replace("kind = one_bit", "kind = uniform_iq\nlevels = 4\nstep = 0.5")
    path.write_text(text.replace("step = 0.5", "step = 0.5\nclip = 2.0"))
    assert cli.main(["run", str(path)]) == 2
    assert "clip" in capsys.readouterr().err
    path.write_text(text.replace("step = 0.5", "step = 0.5\nclip = 1.0"))
    assert cli.main(["run", str(path)]) == 0


def test_mp_check_end_to_end(tmp_path):
    path = _write_config(tmp_path, "mp-check", k_ladder="64", seeds="1 2 3")
    assert cli.main(["run", str(path)]) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["checks"]["edge_containment"] is True
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0].startswith("# qprec-results")
    assert len(rows) > 3


def test_run_is_deterministic_modulo_wall_time(tmp_path):
    path = _write_config(tmp_path, "mp-check", k_ladder="32", seeds="5")
    assert cli.main(["run", str(path)]) == 0
    first = _strip_wall_time(tmp_path / "out" / "results.csv")
    assert cli.main(["run", str(path)]) == 0
    second = _strip_wall_time(tmp_path / "out" / "results.csv")
    assert first == second


def test_no_stream_is_opened_twice_in_a_run(tmp_path, monkeypatch):
    keys = []

    class RecordingStream(cli.RngStream):
        def __post_init__(self):
            keys.append((self.seed, self.stream_id))
            super().__post_init__()

    monkeypatch.setattr(cli, "RngStream", RecordingStream)
    # bounds-audit at K = 150 and 200 is where additive ids such as
    # 10_000 + 200 K + rep land on the form-tail and collar streams; the
    # small grid keeps optimize cheap.
    ladders = {"mp-check": "16 32", "equivalence": "8 16", "converge-sinr": "16 32",
               "converge-sep": "16 32", "kyfan-rate": "16 32", "bounds-audit": "150 200",
               "optimize": "8 16"}
    for name, ladder in ladders.items():
        keys.clear()
        path = _write_config(tmp_path, name, k_ladder=ladder, seeds="1 2", trials=40,
                             body="[grid]\npoints = 2")
        assert cli.main(["run", str(path)]) in (0, 1)
        assert keys, name
        assert len(keys) == len(set(keys)), name
    with pytest.raises(cli.ConfigError):
        cli._stream(1, "coupled", 2**20)


@pytest.mark.parametrize("name, ladder", [("optimize", "8 16"), ("bounds-audit", "8 16"),
                                           ("tail-audit", "64")])
def test_suites_outside_the_cell_engine_time_every_record(tmp_path, name, ladder):
    path = _write_config(tmp_path, name, k_ladder=ladder, seeds="1 2", trials=40,
                         body="[grid]\npoints = 2")
    records, _ = cli.SUITES[name](cli.parse_config(path))
    assert records and all(r.wall_time > 0 for r in records)


def test_converge_sinr_small_ladder(tmp_path):
    path = _write_config(tmp_path, "converge-sinr", k_ladder="16 64",
                         seeds="1 2", trials=500)
    rc = cli.main(["run", str(path)])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "gap_decreasing" in summary["checks"]
    assert rc in (0, 1)  # pass/fail is a numerical outcome; plumbing must work
    rows = (tmp_path / "out" / "results.csv").read_text()
    assert "sinr_gap" in rows


def test_converge_sinr_one_entry_ladder_has_no_trend_check(tmp_path):
    path = _write_config(tmp_path, "converge-sinr", k_ladder="16", seeds="1", trials=50)
    cli.main(["run", str(path)])
    checks = json.loads((tmp_path / "out" / "summary.json").read_text())["checks"]
    assert "gap_decreasing" not in checks
    assert "final_rel_gap_below_5pct" in checks


def test_tail_audit_suite(tmp_path):
    path = _write_config(tmp_path, "tail-audit", k_ladder="64", seeds="1")
    assert cli.main(["run", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["checks"]["interference_tail_decreasing"] is True
    assert summary["checks"]["positive"] is True


def test_plot_roundtrip_and_determinism(tmp_path):
    path = _write_config(tmp_path, "mp-check", k_ladder="16 32", seeds="1 2")
    assert cli.main(["run", str(path)]) == 0
    csv_path = tmp_path / "out" / "results.csv"
    out1 = tmp_path / "plot.dat"
    assert cli.main(["plot", str(csv_path), "--metric", "sv_max",
                     "--out", str(out1)]) == 0
    text1 = out1.read_text()
    assert cli.main(["plot", str(csv_path), "--metric", "sv_max",
                     "--out", str(out1)]) == 0
    assert out1.read_text() == text1  # byte identical regeneration
    assert "# seed=1" in text1 and "# mean" in text1


def test_plot_loglog_slope_header(tmp_path):
    path = _write_config(tmp_path, "mp-check", k_ladder="16 32 64", seeds="3")
    assert cli.main(["run", str(path)]) == 0
    out = tmp_path / "slope.dat"
    assert cli.main(["plot", str(tmp_path / "out" / "results.csv"),
                     "--metric", "ks_to_limit", "--loglog",
                     "--out", str(out), "--svg"]) == 0
    header = out.read_text().splitlines()[1]
    assert header.startswith("# loglog_slope=")
    float(header.split("=")[1])  # parses as a number
    assert out.with_suffix(".svg").exists()


def test_plot_loglog_rejects_a_nonpositive_mean(tmp_path, capsys):
    csv_path = tmp_path / "results.csv"
    rows = [["bounds-audit", 1, k, "cross_tail_0.5", v, "nan", "nan", "", 0.0]
            for k, v in ((64, 0.01), (256, 0.0))]
    csv_path.write_text("# qprec-results v1\n" + ",".join(cli.CSV_COLUMNS) + "\n"
                        + "".join(",".join(map(str, r)) + "\n" for r in rows))
    out = tmp_path / "tail.dat"
    assert cli.main(["plot", str(csv_path), "--metric", "cross_tail_0.5", "--loglog",
                     "--out", str(out), "--svg"]) == 2
    assert "positive" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".svg").exists()


def test_plot_unknown_metric_lists_available(tmp_path, capsys):
    path = _write_config(tmp_path, "mp-check", k_ladder="16", seeds="1")
    assert cli.main(["run", str(path)]) == 0
    rc = cli.main(["plot", str(tmp_path / "out" / "results.csv"),
                   "--metric", "bogus", "--out", str(tmp_path / "x.dat")])
    assert rc == 2
    assert "sv_max" in capsys.readouterr().err


def test_plot_empty_results_header_only(tmp_path):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("# qprec-results v1\n" + ",".join(cli.CSV_COLUMNS) + "\n")
    out = tmp_path / "empty.dat"
    assert cli.main(["plot", str(csv_path), "--metric", "whatever",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#") and len(lines) == 1
