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
from mesocat.config import OutputConfig, apply_sweep_value, load_scenario, parse_scenario


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


def test_exit_2_on_unknown_sweep_param(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["sweep", "--config", path, "--param", "nope", "--values", "1"]) == 2
    assert cli.main(["sweep", "--config", path, "--param", "phi", "--values", ""]) == 2
    for param in ("phi", "alpha0_re", "gamma"):
        for values in ("nan", "inf,0.5", "1e400"):
            assert cli.main(["sweep", "--config", path, "--param", param, "--values", values]) == 2
            assert "sweep.values: must be finite" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "corrupt, message",
    [
        ("short", "line 3 has 17 cells, not 20: column n_field is missing"),
        ("extra", "line 4 has 21 cells, not 20: a cell past the last column"),
        ("text", "line 5, column p_ge: not a number: 'abc'"),
        ("blank", "line 3 has 1 cells, not 20: column gamma_a is missing"),
    ],
)
def test_malformed_read_back_exits_1_naming_line_and_column(
    tmp_path, monkeypatch, capsys, corrupt, message
):
    # a short row used to pass the audit (zip truncates it); a bad cell escaped as a ValueError
    write = cli._write_table

    def corrupting(cfg_output, table):
        write(cfg_output, table)
        with open(cfg_output.path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if corrupt == "short":
            lines[2] = ",".join(lines[2].split(",")[:-3])
        elif corrupt == "extra":
            lines[3] += ",0.5"
        elif corrupt == "text":
            cells = lines[4].split(",")
            cells[runner.ROW_FIELDS.index("p_ge")] = "abc"
            lines[4] = ",".join(cells)
        else:
            lines.insert(2, "")
        with open(cfg_output.path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))

    monkeypatch.setattr(cli, "_write_table", corrupting)
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["run", "--config", path]) == 1
    assert capsys.readouterr().err.strip() == f"error: self-audit: {message}"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        ("missing", "unreadable JSON rows (KeyError('p_ge'))"),
        ("text", "JSON column p_ge holds a non-number"),
        ("null", "JSON column p_ge holds a non-number"),
    ],
)
def test_malformed_json_read_back_exits_1(tmp_path, monkeypatch, capsys, corrupt, message):
    write = cli._write_table

    def corrupting(cfg_output, table):
        write(cfg_output, table)
        with open(cfg_output.path, encoding="utf-8") as fh:
            rows = json.load(fh)
        if corrupt == "missing":
            del rows[2]["p_ge"]
        else:
            rows[4]["p_ge"] = "abc" if corrupt == "text" else None
        with open(cfg_output.path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)

    monkeypatch.setattr(cli, "_write_table", corrupting)
    cfg = base_config(tmp_path, output={"format": "json", "path": str(tmp_path / "out.json")})
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err.strip() == f"error: self-audit: {message}"


def test_writer_formats_like_the_scalar_cells(tmp_path):
    # nan, signed zeros, infinities and subnormals exactly as f"{v:.17g}"; bools as true/false
    values = [0.1, -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -2.5, 1 / 3]
    table = {"flag": np.arange(len(values)) % 3 == 0, "x": np.array(values)}
    fieldnames = ["flag", "x"]
    for fmt in ("csv", "json"):
        cfg_output = OutputConfig(fmt, str(tmp_path / f"t.{fmt}"))
        cli._write_table(cfg_output, table)
        text = (tmp_path / f"t.{fmt}").read_text()
        rows = [{"flag": bool(f), "x": x} for f, x in zip(table["flag"], values)]
        if fmt == "csv":
            lines = [f"{scalar_cell(row['flag'])},{scalar_cell(row['x'])}\n" for row in rows]
            assert text == "flag,x\n" + "".join(lines)
        else:
            assert text == json.dumps(rows, indent=1) + "\n"
        back = cli._read_back(cfg_output, fieldnames)
        np.testing.assert_array_equal(back["x"], values)
        assert list(np.signbit(back["x"])) == [math.copysign(1.0, v) < 0 for v in values]
        np.testing.assert_array_equal(back["flag"], table["flag"].astype(float))


def scalar_cell(value):
    """One CSV cell as the writer formatted it value by value (reference)."""
    return ("true" if value else "false") if isinstance(value, bool) else f"{value:.17g}"


def library_rows(command, cfg, param=None, values=None):
    """The rows a command writes, built one row at a time from the library's tables (reference)."""

    def as_dicts(table):
        return [dict(zip(table, row)) for row in zip(*(col.tolist() for col in table.values()))]

    if command == "run":
        return as_dicts(runner.run_scenario(cfg))
    if command == "compare":
        micro, master, _ = runner.run_compare(cfg)
        return [
            {"t": a["t"], **{k + "_micro": v for k, v in a.items() if k != "t"},
             **{k + "_me": v for k, v in b.items() if k != "t"}}
            for a, b in zip(as_dicts(micro), as_dicts(master))
        ]
    swept = runner.run_sweep(cfg, param, values)
    return [{"sweep_value": value, **row} for value, table in swept for row in as_dicts(table)]


BAND_51 = {"modes": 51, "half_bandwidth": 20.0, "gamma": 1.0}
WRITER_CASES = {
    "master": ("run", dict(case="b", phi=0.7), None),
    "recurrence": (
        "run", dict(engine="microscopic", bath={"modes": 21, "half_bandwidth": 10.0, "gamma": 1.0},
                    time={"t_max_over_tc": 4.0, "points": 17}), None),
    "fock-nan": (
        "run", dict(engine="fock", alpha0={"re": 1.0, "im": 0.0}, fock={"n_max": 19},
                    time={"t_max_over_tc": 36.0, "points": 73}), None),
    "compare": ("compare", dict(engine="microscopic", bath=BAND_51), None),
    "sweep-phi": ("sweep", dict(engine="microscopic", case="b", bath=BAND_51), "phi"),
    "sweep-gamma": ("sweep", dict(case="b", phi=0.7), "gamma"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(WRITER_CASES))
def test_written_cells_equal_the_library_values(tmp_path, name, fmt):
    command, overrides, param = WRITER_CASES[name]
    raw = base_config(tmp_path, **overrides)
    raw["output"] = {"format": fmt, "path": str(tmp_path / f"out.{fmt}")}
    if raw["engine"] == "microscopic" and command != "compare":
        raw.pop("master")
    path = write_config(tmp_path, raw)
    values = [0.4, 1.1, 0.7, 0.5, 0.9, 0.6, 1.0, 0.8]
    extra = ["--param", param, "--values", ",".join(map(str, values))] if param else []
    assert cli.main([command, "--config", path, *extra]) == 0
    cfg = load_scenario(path, for_compare=command == "compare")
    rows = library_rows(command, cfg, param, values)
    text = (tmp_path / f"out.{fmt}").read_text()
    if fmt == "json":
        assert text == json.dumps(rows, indent=1) + "\n"
    else:
        lines = [",".join(rows[0])] + [",".join(map(scalar_cell, row.values())) for row in rows]
        assert text == "\n".join(lines) + "\n"
    flags = [v for row in rows for k, v in row.items() if k.startswith("recurrence_warning")]
    nans = [v for row in rows for v in row.values() if isinstance(v, float) and math.isnan(v)]
    assert any(flags) == (name == "recurrence") and bool(nans) == (name == "fock-nan")


def scalar_audit(path, groups):
    """The self-audit one row at a time over row dicts, as the CLI once ran it (reference)."""
    _, rows = read_csv(path)
    chunks = {}
    for row in rows:
        chunks.setdefault(row.get("sweep_value"), []).append(row)
    for chunk in chunks.values():
        for suffix, conserved in groups:
            n0 = None
            for idx, row in enumerate(chunk):
                p_ee, p_eg = row["p_ee" + suffix], row["p_eg" + suffix]
                p_ge, p_gg = row["p_ge" + suffix], row["p_gg" + suffix]
                for name in ("p_ee", "p_eg", "p_ge", "p_gg"):
                    if not -1e-9 <= row[name + suffix] <= 1.0 + 1e-9:
                        raise mc.AuditError(f"self-audit: {name}{suffix} out of range in row {idx}")
                if abs(p_ee + p_eg - 1.0) > 1e-9 or abs(p_ge + p_gg - 1.0) > 1e-9:
                    raise mc.AuditError(
                        f"self-audit: probability rows do not sum to 1 in row {idx}"
                    )
                if abs(row["eta" + suffix] - (p_ee - p_ge)) > 1e-9:
                    raise mc.AuditError(f"self-audit: eta inconsistent in row {idx}")
                if conserved:
                    total = row["n_field" + suffix] + row["n_bath" + suffix]
                    if n0 is None:
                        n0 = total
                    elif abs(total - n0) > 1e-8:
                        raise mc.AuditError(f"self-audit: occupation drifts in row {idx}")


def shifted(delta):
    return lambda v: v + delta


AUDIT_FAULTS = {
    "range": [("p_eg", 3, lambda v: 1.5)],
    "row-sum": [("p_eg", 3, shifted(1e-6))],
    "eta": [("eta", 3, shifted(1e-6))],
    "drift": [("n_bath", 3, shifted(1e-6))],
    "drift-from-row-0": [("n_field", 0, shifted(1e-6))],
    "nan-probability": [("p_gg", 3, lambda v: math.nan)],
    "nan-eta-passes": [("eta", 3, lambda v: math.nan)],
    "nan-occupation-passes": [("n_bath", 3, lambda v: math.nan)],
    "nan-first-occupation-passes": [
        ("n_field", 0, lambda v: math.nan), ("n_bath", 4, shifted(1.0))
    ],
    "first-row-wins": [("p_ee", 4, lambda v: -0.5), ("n_bath", 2, shifted(1e-6))],
    "first-check-wins": [("n_bath", 3, shifted(1e-6)), ("eta", 3, shifted(1e-6))],
    "last-row": [("eta", 5, shifted(1e-3))],
}


@pytest.mark.parametrize("fault", list(AUDIT_FAULTS))
def test_column_audit_matches_the_scalar_audit(tmp_path, fault):
    # faults in the second chunk of a sweep file: same verdict, message and in-chunk row index
    raw = base_config(tmp_path, engine="microscopic", case="b", phi=0.7, bath=BAND_51)
    raw.pop("master")
    raw["time"] = {"t_max_over_tc": 2.0, "points": 6}
    path = write_config(tmp_path, raw)
    argv = ["sweep", "--config", path, "--param", "phi", "--values", "0.5,0.7,0.9"]
    assert cli.main(argv) == 0
    out = tmp_path / "out.csv"
    header, *lines = out.read_text().splitlines()
    for column, row, change in AUDIT_FAULTS[fault]:
        cells = lines[6 + row].split(",")
        j = header.split(",").index(column)
        cells[j] = f"{change(float(cells[j])):.17g}"
        lines[6 + row] = ",".join(cells)
    out.write_text("\n".join([header, *lines]) + "\n")
    cfg_output, fieldnames = load_scenario(path).output, header.split(",")
    verdicts = []
    for audit in (lambda: scalar_audit(out, [("", True)]),
                  lambda: cli._audit_output(cfg_output, fieldnames, [("", True)])):
        try:
            audit()
            verdicts.append("passes")
        except mc.AuditError as exc:
            verdicts.append(str(exc))
    assert verdicts[0] == verdicts[1]
    assert (verdicts[0] == "passes") == ("passes" in fault)


@pytest.mark.parametrize(
    "command, engine, extra",
    [
        ("run", "master", []),
        ("run", "microscopic", []),
        ("run", "fock", []),
        ("compare", "microscopic", []),
        ("sweep", "microscopic", ["--param", "phi", "--values", "0.5,1,2"]),
        ("sweep", "master", ["--param", "gamma", "--values", "0.5,1,2"]),
    ],
)
def test_cli_path_makes_no_python_call_per_row(tmp_path, command, engine, extra):
    # the same Python function calls at 11 and 201 grid points: no per-row objects or
    # dicts, no per-cell formatting and no per-row audit between the engine and the file
    def calls(points):
        raw = base_config(tmp_path, engine=engine, alpha0={"re": 1.0, "im": 0.0})
        raw["time"] = {"t_max_over_tc": 2.0, "points": points}
        if engine == "microscopic":
            raw["bath"] = BAND_51
            if command != "compare":
                raw.pop("master")
        if engine == "fock":
            raw["fock"] = {"n_max": 19}
        argv = [command, "--config", write_config(tmp_path, raw), *extra]
        assert cli.main(argv) == 0  # warm: lazy imports and caches
        counts = {}

        def profile(frame, event, arg):
            if event == "call":
                key = (frame.f_code.co_filename, frame.f_code.co_name)
                counts[key] = counts.get(key, 0) + 1

        sys.setprofile(profile)
        try:
            code = cli.main(argv)
        finally:
            sys.setprofile(None)
        assert code == 0
        return counts

    assert calls(11) == calls(201)


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
    table = runner.run_scenario(load_scenario(path))
    for parsed, eta, p_gg in zip(rows, table["eta"], table["p_gg"]):
        assert parsed["eta"] == eta  # 17 significant digits round-trip
        assert parsed["p_gg"] == p_gg
