"""Config schema, CLI subcommands, output formats, determinism, exit codes."""

import json
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mesocat as mc
from mesocat import cli, runner
from mesocat.config import apply_sweep_value, load_scenario, parse_scenario


def base_config(tmp_path, **overrides):
    cfg = {
        "case": "a",
        "alpha0": {"re": math.sqrt(2.0), "im": 0.0},
        "phi": math.pi,
        "engine": "master",
        "master": {"gamma": 1.0},
        "time": {"t_max_over_tc": 2.0, "points": 21},
        "output": {"format": "csv", "path": str(tmp_path / "out.csv")},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(
            {
                k: (v == "true" if v in ("true", "false") else float(v))
                for k, v in zip(header, cells)
            }
        )
    return header, rows


# ---------------------------------------------------------------------------
# schema validation


def test_parse_minimal_master_config(tmp_path):
    cfg = parse_scenario(base_config(tmp_path))
    assert cfg.engine == "master"
    assert cfg.alpha0 == complex(math.sqrt(2.0), 0.0)
    assert cfg.decay_rate() == 1.0


def test_phi_from_coupling_triple(tmp_path):
    raw = base_config(tmp_path, phi={"rabi": 2.0, "detuning": 8.0, "t_int": 1.5})
    assert parse_scenario(raw).phi == pytest.approx(0.75)


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda c: c.update(case="c"), "case"),
        (lambda c: c.update(engine="exact"), "engine"),
        (lambda c: c.update(extra=1), "extra"),
        (lambda c: c.pop("time"), "time"),
        (lambda c: c["time"].update(points=1), "time.points"),
        (lambda c: c["time"].update(points=2.5), "time.points"),
        (lambda c: c["output"].update(format="tsv"), "output.format"),
        (lambda c: c["alpha0"].pop("im"), "alpha0.im"),
        (lambda c: c.update(bath={"modes": 51, "half_bandwidth": 20.0, "gamma": 1.0}), "bath"),
        (lambda c: c.update(engine="fock", fock={"n_max": 19, "dt": 0.0}), "fock.dt"),
        (lambda c: c.update(engine="fock", fock={"n_max": 19, "dt": math.inf}), "fock.dt"),
        (lambda c: c.update(engine="fock", fock={"n_max": 19, "dt": "4e-5"}), "fock.dt"),
    ],
)
def test_parse_rejections(tmp_path, mutate, field):
    raw = base_config(tmp_path)
    mutate(raw)
    with pytest.raises(mc.ConfigError) as err:
        parse_scenario(raw)
    assert err.value.field_path == field


def test_engine_section_requirements(tmp_path):
    raw = base_config(tmp_path, engine="microscopic")
    with pytest.raises(mc.ConfigError) as err:
        parse_scenario(raw)  # bath section missing, master present
    assert err.value.field_path in ("bath", "master")

    raw = base_config(tmp_path, engine="fock")
    with pytest.raises(mc.ConfigError) as err:
        parse_scenario(raw)
    assert err.value.field_path == "fock"


def test_even_mode_count_rejected(tmp_path):
    raw = base_config(
        tmp_path,
        engine="microscopic",
        bath={"modes": 50, "half_bandwidth": 20.0, "gamma": 1.0},
    )
    raw.pop("master")
    with pytest.raises(mc.ConfigError) as err:
        parse_scenario(raw)
    assert err.value.field_path == "bath.modes"


def test_compare_mode_requires_both_sections(tmp_path):
    raw = base_config(tmp_path)
    with pytest.raises(mc.ConfigError):
        parse_scenario(raw, for_compare=True)
    raw = base_config(
        tmp_path, bath={"modes": 51, "half_bandwidth": 20.0, "gamma": 1.0}
    )
    cfg = parse_scenario(raw, for_compare=True)
    assert cfg.bath is not None and cfg.master is not None


def test_apply_sweep_value(tmp_path):
    cfg = parse_scenario(base_config(tmp_path))
    assert apply_sweep_value(cfg, "phi", 1.0).phi == 1.0
    assert apply_sweep_value(cfg, "alpha0_re", 0.5).alpha0 == 0.5 + 0j
    assert apply_sweep_value(cfg, "gamma", 2.0).master.gamma == 2.0
    with pytest.raises(mc.ConfigError):
        apply_sweep_value(cfg, "bogus", 1.0)


# ---------------------------------------------------------------------------
# run subcommand


def test_run_master_csv(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["run", "--config", path]) == 0
    header, rows = read_csv(tmp_path / "out.csv")
    assert header == list(runner.ROW_FIELDS)
    assert len(rows) == 21
    assert rows[0]["eta"] == pytest.approx(1.0, abs=1e-9)
    etas = [row["eta"] for row in rows]
    assert all(a >= b - 1e-12 for a, b in zip(etas, etas[1:]))  # monotone decreasing
    for row in rows:
        assert row["p_ee"] + row["p_eg"] == pytest.approx(1.0, abs=1e-9)


def test_run_is_byte_deterministic(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["run", "--config", path]) == 0
    first = (tmp_path / "out.csv").read_bytes()
    assert cli.main(["run", "--config", path]) == 0
    assert (tmp_path / "out.csv").read_bytes() == first


def test_run_microscopic_json_conserves_occupation(tmp_path):
    cfg = base_config(
        tmp_path,
        engine="microscopic",
        bath={"modes": 51, "half_bandwidth": 20.0, "gamma": 1.0},
        output={"format": "json", "path": str(tmp_path / "out.json")},
    )
    cfg.pop("master")
    cfg["time"] = {"t_max_over_tc": 1.5, "points": 7}
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == 0
    rows = json.loads((tmp_path / "out.json").read_text())
    assert len(rows) == 7
    totals = [row["n_field"] + row["n_bath"] for row in rows]
    assert max(totals) - min(totals) < 1e-8
    assert not rows[0]["recurrence_warning"]


def test_run_recurrence_warning_flagged(tmp_path):
    cfg = base_config(
        tmp_path,
        engine="microscopic",
        bath={"modes": 11, "half_bandwidth": 10.0, "gamma": 1.0},
    )
    cfg.pop("master")
    # recurrence = 2 pi / 2 = pi, so half is ~1.57: a grid to 3 crosses it
    cfg["time"] = {"t_max_over_tc": 3.0, "points": 7}
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == 0
    _, rows = read_csv(tmp_path / "out.csv")
    assert rows[0]["recurrence_warning"] is False
    assert rows[-1]["recurrence_warning"] is True


def test_run_fock_engine_matches_master(tmp_path):
    out_fock = tmp_path / "fock.csv"
    cfg = base_config(
        tmp_path,
        alpha0={"re": 1.0, "im": 0.0},
        engine="fock",
        fock={"n_max": 19, "dt": 4e-5},
        output={"format": "csv", "path": str(out_fock)},
    )
    cfg["time"] = {"t_max_over_tc": 0.3, "points": 4}
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == 0

    cfg_me = base_config(tmp_path, alpha0={"re": 1.0, "im": 0.0})
    cfg_me["time"] = {"t_max_over_tc": 0.3, "points": 4}
    path_me = write_config(tmp_path, cfg_me, name="me.json")
    assert cli.main(["run", "--config", path_me]) == 0

    _, rows_fock = read_csv(out_fock)
    _, rows_me = read_csv(tmp_path / "out.csv")
    for rf, rm in zip(rows_fock, rows_me):
        for col in ("eta", "p_ee", "purity_e", "gamma_b_abs", "lam_e_minus"):
            assert rf[col] == pytest.approx(rm[col], abs=2e-6)


def test_fock_dt_is_optional_and_ignored(tmp_path):
    # dt = 0.5 t_c was far beyond the former stepping rule dt <= 1e-3 / (n_max + 1)
    written = []
    for name, section in (("with", {"n_max": 19, "dt": 0.5}), ("without", {"n_max": 19})):
        out = tmp_path / f"{name}.csv"
        cfg = base_config(
            tmp_path,
            alpha0={"re": 1.0, "im": 0.0},
            engine="fock",
            fock=section,
            output={"format": "csv", "path": str(out)},
        )
        cfg["time"] = {"t_max_over_tc": 0.3, "points": 4}
        assert cli.main(["run", "--config", write_config(tmp_path, cfg, f"{name}.json")]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_cli_import_leaves_scipy_unloaded():
    code = (
        "import sys, mesocat.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# near-vacuum and long-time runs against the case-A closed forms


def case_a_closed_forms(alpha, g, depletion):
    """Every column of a case-A, phi = pi row from g and B, with 1 - G = -expm1(...).

    With s = |alpha|^2, x = s |g|^2 and c = exp(-2 s B) the odd cat (E) has
    even/odd populations (1 - c)(1 + e^{-2x}) and (1 + c)(1 - e^{-2x}) over
    2 (1 - e^{-2s}), the even cat (G) the same with c and e^{-2s} negated.
    """
    s, x = alpha * alpha, alpha * alpha * abs(g) ** 2
    den_e, den_g = -2.0 * math.expm1(-2.0 * s), 2.0 * (1.0 + math.exp(-2.0 * s))
    even_e = -math.expm1(-2.0 * s * depletion) * (1.0 + math.exp(-2.0 * x)) / den_e
    odd_e = (1.0 + math.exp(-2.0 * s * depletion)) * -math.expm1(-2.0 * x) / den_e
    even_g = (1.0 + math.exp(-2.0 * s * depletion)) * (1.0 + math.exp(-2.0 * x)) / den_g
    odd_g = math.expm1(-2.0 * s * depletion) * math.expm1(-2.0 * x) / den_g
    n_odd = s * (1.0 + math.exp(-2.0 * s)) / -math.expm1(-2.0 * s)
    return {
        "gamma_a": math.exp(-2.0 * x), "gamma_b_abs": math.exp(-2.0 * s * depletion),
        "gamma_b_arg": 0.0,
        "p_ee": odd_e, "p_eg": even_e, "p_ge": odd_g, "p_gg": even_g, "eta": odd_e - odd_g,
        "lam_e_plus": even_e, "lam_e_minus": odd_e, "lam_g_plus": even_g, "lam_g_minus": odd_g,
        "purity_e": even_e**2 + odd_e**2, "purity_g": even_g**2 + odd_g**2,
        "defect_e": 2.0 * even_e * odd_e, "defect_g": 2.0 * even_g * odd_g,
        "n_field": abs(g) ** 2 * n_odd, "n_bath": depletion * n_odd,
    }


@pytest.mark.parametrize(
    "engine,alpha0,t_max,points",
    [
        ("master", math.sqrt(3.3), 40.0, 201),  # labels 7e-9 apart at the end
        ("master", 1e-6, 2.0, 21),
        ("master", 3e-7, 2.0, 21),
        ("master", 1e-5, 2.0, 21),
        ("microscopic", 1e-6, 2.0, 21),
    ],
)
def test_near_vacuum_and_long_time_runs_match_closed_forms(tmp_path, engine, alpha0, t_max, points):
    cfg = base_config(
        tmp_path, engine=engine, alpha0={"re": alpha0, "im": 0.0},
        time={"t_max_over_tc": t_max, "points": points},
    )
    if engine == "microscopic":
        del cfg["master"]
        cfg["bath"] = {"modes": 201, "half_bandwidth": 50.0, "gamma": 1.0}
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    _, rows = read_csv(tmp_path / "out.csv")
    times = np.array([row["t"] for row in rows])
    if engine == "master":
        g, depletion = mc.me_response(mc.MasterParams(1.0), times)
    else:
        g, depletion = mc.response(mc.discretize_flat_band(1.0, 201, 50.0), times)
    for row, g_t, b_t in zip(rows, g, depletion):
        for name, expected in case_a_closed_forms(alpha0, complex(g_t), float(b_t)).items():
            assert abs(row[name] - expected) <= 1e-14, (name, row["t"])


def test_exit_3_below_the_norm_floor(tmp_path):
    # P(E) ~ |alpha0|^2 = 1e-16: a true zero-probability detection
    cfg = base_config(tmp_path, alpha0={"re": 1e-8, "im": 0.0})
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 3


# ---------------------------------------------------------------------------
# exit codes


def test_exit_2_on_schema_violation(tmp_path, capsys):
    cfg = base_config(tmp_path, engine="microscopic")  # missing bath
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == 2
    assert "bath" in capsys.readouterr().err


def test_exit_2_on_unknown_sweep_param(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["sweep", "--config", path, "--param", "nope", "--values", "1"]) == 2
    assert cli.main(["sweep", "--config", path, "--param", "phi", "--values", ""]) == 2


def test_exit_3_on_zero_probability_preparation(tmp_path, capsys):
    cfg = base_config(tmp_path, alpha0={"re": 0.0, "im": 0.0})
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == 3
    assert "zero-probability" in capsys.readouterr().err


def test_exit_4_on_positivity_violation(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, base_config(tmp_path))

    def explode(cfg):
        raise mc.PositivityError("injected for handler coverage")

    monkeypatch.setattr(cli, "run_scenario", explode)
    assert cli.main(["run", "--config", path]) == 4
    assert "positivity" in capsys.readouterr().err


def test_exit_1_on_other_domain_error(tmp_path, capsys):
    # fock cutoff far below the truncation rule for alpha0
    cfg = base_config(
        tmp_path,
        alpha0={"re": 2.0, "im": 0.0},
        engine="fock",
        fock={"n_max": 10, "dt": 4e-5},
    )
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare subcommand


def test_compare_outputs_joint_table_and_summary(tmp_path):
    out = tmp_path / "cmp.csv"
    cfg = base_config(
        tmp_path,
        engine="microscopic",
        bath={"modes": 51, "half_bandwidth": 20.0, "gamma": 1.0},
        output={"format": "csv", "path": str(out)},
    )
    cfg["time"] = {"t_max_over_tc": 1.0, "points": 6}
    path = write_config(tmp_path, cfg)
    assert cli.main(["compare", "--config", path]) == 0

    header, rows = read_csv(out)
    assert header[0] == "t"
    assert "eta_micro" in header and "eta_me" in header
    assert len(rows) == 6

    summary = json.loads((out.parent / "cmp.csv.summary.json").read_text())
    measured = max(abs(r["eta_micro"] - r["eta_me"]) for r in rows)
    assert summary["max_abs_eta_gap"] == pytest.approx(measured, abs=1e-12)
    assert summary["defect_slope_micro"] == pytest.approx(2.0, abs=0.1)
    assert summary["defect_slope_master"] == pytest.approx(1.0, abs=0.1)


def test_compare_rejects_fock_engine(tmp_path):
    cfg = base_config(
        tmp_path,
        engine="fock",
        fock={"n_max": 19, "dt": 4e-5},
        bath={"modes": 51, "half_bandwidth": 20.0, "gamma": 1.0},
    )
    path = write_config(tmp_path, cfg)
    assert cli.main(["compare", "--config", path]) == 2


# ---------------------------------------------------------------------------
# sweep subcommand


def test_sweep_orders_rows_by_value(tmp_path):
    cfg = base_config(tmp_path, case="b")
    cfg["time"] = {"t_max_over_tc": 0.2, "points": 3}
    path = write_config(tmp_path, cfg)
    values = "1.5707963267948966,0.39269908169872414,0.7853981633974483"
    assert cli.main(["sweep", "--config", path, "--param", "phi", "--values", values]) == 0
    header, rows = read_csv(tmp_path / "out.csv")
    assert header[0] == "sweep_value"
    assert len(rows) == 9
    seen = [row["sweep_value"] for row in rows]
    assert seen == sorted(seen)


def test_sweep_case_b_eta_scales_with_phi(tmp_path):
    # the initial decay of eta accelerates with sin^2(phi); generic phi only
    # (phi = pi/2 makes the detection operators trivial and eta vanish)
    phis = (math.pi / 8, math.pi / 4, 3 * math.pi / 8)
    cfg = base_config(tmp_path, case="b", alpha0={"re": 5.0, "im": 0.0})
    cfg["time"] = {"t_max_over_tc": 0.02, "points": 2}
    path = write_config(tmp_path, cfg)
    values = ",".join(repr(p) for p in phis)
    assert cli.main(["sweep", "--config", path, "--param", "phi", "--values", values]) == 0
    _, rows = read_csv(tmp_path / "out.csv")
    drops = {}
    for value in phis:
        chunk = [r for r in rows if r["sweep_value"] == pytest.approx(value)]
        drops[value] = chunk[0]["eta"] - chunk[1]["eta"]
    assert drops[phis[0]] < drops[phis[1]] < drops[phis[2]]


def test_sweep_single_value_equals_run(tmp_path):
    out_sweep = tmp_path / "sweep.csv"
    cfg = base_config(tmp_path, output={"format": "csv", "path": str(out_sweep)})
    cfg["time"] = {"t_max_over_tc": 1.0, "points": 5}
    path = write_config(tmp_path, cfg)
    assert cli.main(["sweep", "--config", path, "--param", "gamma", "--values", "1.0"]) == 0

    cfg_run = base_config(tmp_path)
    cfg_run["time"] = {"t_max_over_tc": 1.0, "points": 5}
    path_run = write_config(tmp_path, cfg_run, name="run.json")
    assert cli.main(["run", "--config", path_run]) == 0

    _, sweep_rows = read_csv(out_sweep)
    _, run_rows = read_csv(tmp_path / "out.csv")
    for srow, rrow in zip(sweep_rows, run_rows):
        assert srow["sweep_value"] == 1.0
        for key in runner.ROW_FIELDS:
            assert srow[key] == rrow[key]


# ---------------------------------------------------------------------------
# self-audit and writers


def test_audit_catches_corrupted_file(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["run", "--config", path]) == 0
    out = tmp_path / "out.csv"
    lines = out.read_text().splitlines()
    cells = lines[1].split(",")
    cells[runner.ROW_FIELDS.index("p_ee")] = "0.75"  # break p_ee + p_eg = 1
    lines[1] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    cfg = load_scenario(path)
    with pytest.raises(mc.AuditError):
        cli._audit_output(cfg.output, runner.ROW_FIELDS, [("", False)])


def test_audit_failure_exits_1(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, base_config(tmp_path))
    monkeypatch.setattr(cli, "_read_back", lambda cfg_output, fieldnames: [])
    assert cli.main(["run", "--config", path]) == 1
    assert "error: self-audit: no rows written" in capsys.readouterr().err


@pytest.mark.parametrize("value, reported", [("loud", True), ("debug", False), ("INFO", False)])
def test_invalid_log_level_is_reported(tmp_path, monkeypatch, caplog, value, reported):
    path = write_config(tmp_path, base_config(tmp_path))
    monkeypatch.setenv("MESOCAT_LOG", value)
    with caplog.at_level(logging.WARNING, logger="mesocat"):
        assert cli.main(["run", "--config", path]) == 0
    assert ("MESOCAT_LOG" in caplog.text) is reported


def test_csv_floats_round_trip(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["run", "--config", path]) == 0
    _, rows = read_csv(tmp_path / "out.csv")
    recomputed = runner.run_scenario(load_scenario(path))
    for parsed, exact in zip(rows, recomputed):
        assert parsed["eta"] == exact.eta  # 17 significant digits round-trip
        assert parsed["p_gg"] == exact.p_gg
