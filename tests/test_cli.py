"""Config schema, CLI subcommands, output formats, determinism, exit codes."""

import argparse
import ast
import cmath
import functools
import gc
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mesocat as mc
from mesocat import bath as bathmod
from mesocat import cli, fock, protocol, runner
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
        (lambda c: c.update(alpha0=1.0), "alpha0"),
        (lambda c: c.update(phi=True), "phi"),
        (lambda c: c.update(phi="pi"), "phi"),
        (lambda c: c.update(phi={"rabi": 2.0, "detuning": 0.0, "t_int": 1.5}), "phi.detuning"),
        # coupling triples whose phi overflows: rabi**2, or the division by a subnormal detuning
        (lambda c: c.update(phi={"rabi": 1e200, "detuning": 1, "t_int": 1}), "phi"),
        (lambda c: c.update(phi={"rabi": 1, "detuning": 1e-320, "t_int": 1e10}), "phi"),
        (lambda c: c["output"].update(path=""), "output.path"),
    ],
)
def test_parse_rejections(tmp_path, mutate, field):
    raw = base_config(tmp_path)
    mutate(raw)
    with pytest.raises(mc.ConfigError) as err:
        parse_scenario(raw)
    assert err.value.field_path == field


@pytest.mark.parametrize("text, field, message", [
    (None, "<file>", "cannot read"),  # no such file
    ('{"case": "a",', "<file>", "invalid JSON"),
    ("[1, 2]", "<root>", "config must be a JSON object"),
    # Python's JSON reader takes the non-standard token NaN
    (json.dumps(base_config(Path("."), phi=math.nan)), "phi", "must be finite"),
])
def test_load_rejections(tmp_path, text, field, message):
    path = tmp_path / "scenario.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(mc.ConfigError, match=message) as err:
        load_scenario(str(path))
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


def test_no_library_module_imports_scipy():
    # scipy is a test dependency only: no module of the package may import it, at any depth
    found = []
    for path in sorted(Path(mc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "scipy"]
    assert found == []


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
        g, depletion = mc.me_response(1.0, times)
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
# nearly coincident labels: every valid run exits 0 with the Fock oracle's columns


def exact_norm(params):
    """The smaller squared norm of the two prepared states, from their float branches, in
    60-digit arithmetic."""
    norms = []
    with mpmath.workdps(60):
        for outcome in mc.DetectionOutcome:
            weights, labels = protocol._unnormalized_prepared(params, outcome).tolist()
            terms = [(mpmath.mpc(w), mpmath.mpc(x)) for w, x in zip(weights, labels)]
            norms.append(sum(wi * mpmath.conj(wj) * mpmath.exp(
                mpmath.conj(lj) * li - (abs(li) ** 2 + abs(lj) ** 2) / 2)
                for wi, li in terms for wj, lj in terms).real)
    return float(min(norms))


def exact_superposition_vector(state, n_max):
    """fock.superposition_vector with the branches summed in 60-digit arithmetic.

    Near the norm floor the prepared weights, of size W ~ 0.5 / |psi|, cancel over nearly
    coincident labels: a plain float sum of the branches would leave errors of about eps W
    in every amplitude (3e-10 in the probabilities at |psi|^2 = 2e-14).
    """
    weights, labels = mc.coherent._state(state)
    vector = np.empty(weights.shape[:-1] + (n_max + 1,), dtype=complex)
    with mpmath.workdps(60):
        for index in np.ndindex(weights.shape[:-1]):
            terms = [(mpmath.mpc(w), mpmath.mpc(x)) for w, x in zip(weights[index], labels[index])]
            for n in range(n_max + 1):
                vector[index + (n,)] = complex(sum(w * mpmath.exp(-abs(x) ** 2 / 2) * x**n
                                                   for w, x in terms) / mpmath.sqrt(mpmath.factorial(n)))
    return vector


def oracle_gaps(path):
    """Per column, the largest gap between a run's written table and the Fock oracle's table at
    the run's own response (g, B).  Rows where the oracle's gamma_b is NaN are excepted, and
    the gamma_b gaps are scaled so that the oracle's own accuracy there, FOCK_GAMMA_B_RTOL
    (relative, |gamma_b| <= 1), reads 1e-10."""
    cfg = load_scenario(path)
    grid = runner.time_grid(cfg)
    n_max = int(fock.required_n_max(abs(cfg.alpha0)))
    oracle = runner._stack_tables([runner.scenario_params(cfg)], grid, [runner._response(cfg, grid)],
                                  functools.partial(runner._fock, n_max))[0]
    _, rows = read_csv(Path(cfg.output.path))
    gaps = {}
    for name in runner.ROW_FIELDS[1:]:
        run = np.array([row[name] for row in rows], dtype=float)
        kept = ~np.isnan(oracle[name].astype(float))
        gap = np.abs(run - oracle[name])[kept]
        if name.startswith("gamma_b"):  # |gamma_b| <= 1, and its argument errs by the same ratio
            gap *= 1e-10 / runner.FOCK_GAMMA_B_RTOL
        gaps[name] = float(np.max(gap, initial=0.0))
    return gaps


#: the configs of two false exit 4s, with labels 1e-5 and 3.7e-6 apart
NEAR_COINCIDENT = {
    "case A, phi = 1e-4": dict(case="a", alpha0={"re": 0.0953, "im": 0.0515}, phi=1e-4),
    "case B, phi = 1e-6": dict(case="b", alpha0={"re": -1.847, "im": 1.5e-4}, phi=1e-6),
}


@pytest.mark.parametrize("engine", ["master", "microscopic"])
@pytest.mark.parametrize("config", list(NEAR_COINCIDENT))
def test_nearly_coincident_labels_match_the_fock_oracle(tmp_path, engine, config):
    raw = base_config(tmp_path, engine=engine, master={"gamma": 0.124},
                      time={"t_max_over_tc": 2.72, "points": 7}, **NEAR_COINCIDENT[config])
    if engine == "microscopic":
        raw["bath"] = {"modes": 201, "half_bandwidth": 50.0, "gamma": 0.124}
        del raw["master"]
    path = write_config(tmp_path, raw)
    assert cli.main(["run", "--config", path]) == 0
    gaps = oracle_gaps(path)
    assert max(gaps.values()) <= 1e-10, gaps


#: phi within 1e-3 of 0, pi or 2 pi, down to 1e-8: below the norm floor for every alpha0 drawn
near_coincident_phi = st.builds(lambda base, sign, offset: base + sign * 10.0**offset,
                                st.sampled_from([0.0, math.pi, 2.0 * math.pi]),
                                st.sampled_from([-1.0, 1.0]), st.floats(-8.0, -3.0))
#: |alpha0| from 1e-2 to 2, any phase
alpha0_strategy = st.builds(lambda modulus, angle: 10.0**modulus * cmath.exp(1j * angle),
                            st.floats(-2.0, 0.3), st.floats(-math.pi, math.pi))


@settings(max_examples=100)  # about one draw in 25 lands within a decade above the floor
@given(case=st.sampled_from(["a", "b"]), phi=near_coincident_phi, alpha0=alpha0_strategy,
       gamma=st.floats(0.1, 1.5), t_max=st.floats(0.3, 3.0))
@example(case="a", phi=1e-4, alpha0=0.0953 + 0.0515j, gamma=0.124, t_max=2.72)
@example(case="b", phi=1e-6, alpha0=-1.847 + 1.5e-4j, gamma=0.124, t_max=2.72)
def test_valid_runs_near_coincident_labels_exit_0_on_the_fock_oracle(
        tmp_path_factory, case, phi, alpha0, gamma, t_max):
    # the two branch labels (case A: phi near 0 and 2 pi; case B: all three) and the
    # measurement phases nearly coincide; a run must fail only below the norm floor
    tmp = tmp_path_factory.mktemp("near")
    raw = base_config(tmp, case=case, phi=phi, alpha0={"re": alpha0.real, "im": alpha0.imag},
                      master={"gamma": gamma}, time={"t_max_over_tc": t_max, "points": 7})
    path = write_config(tmp, raw)
    norm = exact_norm(protocol.ProtocolParams(protocol.ProtocolCase(case), alpha0, phi))
    code = cli.main(["run", "--config", path])
    if norm > 1.001 * mc.coherent.NORM_FLOOR:
        assert code == 0, (norm, phi)
        gaps = oracle_gaps(path)
        assert max(gaps.values()) <= 1e-10, gaps
    elif norm < 0.999 * mc.coherent.NORM_FLOOR:
        assert code == 3, (norm, phi)


def near_floor_configs(count, seed=24):
    """Seeded case-A configs near the norm floor: phi = +-10^U(-7.5, -6) and |alpha0| at a
    uniform phase such that |alpha0 phi|^2 / 4 is 10^U(-14, -13), kept where |Re|, |Im| <= 2.
    The outcome-e state's |psi|^2 is (1 + |alpha0|^2) times that to leading order."""
    rng, drawn = np.random.default_rng(seed), []
    while len(drawn) < count:
        phi = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.5, -6.0)
        alpha0 = 2.0 * 10.0 ** (0.5 * rng.uniform(-14.0, -13.0)) / abs(phi) * cmath.exp(
            1j * rng.uniform(-math.pi, math.pi))
        if max(abs(alpha0.real), abs(alpha0.imag)) <= 2.0:
            drawn.append((float(phi), complex(alpha0)))
    return drawn


#: the false exit 4 of the Fock engine at 7 points to 1 t_c, n_max 33, then seeded draws
NEAR_FLOOR = [(6.099755035274791e-08, 1.3268065013999122 - 1.7473403197660713j)]
NEAR_FLOOR += near_floor_configs(11)


@pytest.mark.parametrize("phi, alpha0", NEAR_FLOOR)
def test_fock_engine_near_the_norm_floor_matches_the_master_engine(tmp_path, phi, alpha0):
    # the prepared weights, of size 0.5 / |psi| ~ 5e6, cancel over labels |alpha0 phi| apart:
    # the oracle's vector, pivoted on the first label, keeps its digits and exits 0
    tables = {}
    for engine in ("master", "fock"):
        raw = base_config(tmp_path, engine=engine, phi=phi,
                          alpha0={"re": alpha0.real, "im": alpha0.imag},
                          time={"t_max_over_tc": 1.0, "points": 7},
                          output={"format": "csv", "path": str(tmp_path / f"{engine}.csv")})
        if engine == "fock":
            raw["fock"] = {"n_max": max(33, int(fock.required_n_max(abs(alpha0)))), "dt": 1e-3}
        assert cli.main(["run", "--config", write_config(tmp_path, raw)]) == 0, engine
        _, rows = read_csv(tmp_path / f"{engine}.csv")
        tables[engine] = {name: np.array([row[name] for row in rows], dtype=float)
                          for name in runner.ROW_FIELDS[1:]}
    for name, oracle in tables["fock"].items():
        kept = ~np.isnan(oracle)
        gap = np.abs(tables["master"][name] - oracle)[kept]
        # the oracle's gamma_b is good to FOCK_GAMMA_B_RTOL by design, NaN beyond it
        bound = runner.FOCK_GAMMA_B_RTOL if name.startswith("gamma_b") else 1e-10
        assert np.max(gap, initial=0.0) <= bound, (name, np.max(gap, initial=0.0))


def test_prepared_fock_vectors_near_the_norm_floor_match_a_60_digit_sum():
    states = protocol._prepare_stack([protocol.ProtocolParams(protocol.ProtocolCase.CASE_A, a, p)
                                      for p, a in NEAR_FLOOR[:4]])
    n_max = int(np.max(fock.required_n_max(np.abs(states[..., 1, :]))))
    vectors = fock.superposition_vector(states, n_max)
    assert np.max(np.abs(vectors - exact_superposition_vector(states, n_max))) <= 1e-14


# ---------------------------------------------------------------------------
# exit codes


def test_large_amplitudes_away_from_phi_pi_exit_0(tmp_path, capsys):
    # the phase forms' pivot on the first bra label alone overflowed at |alpha0| = 25 (exit 4)
    cfg = base_config(tmp_path, phi=2.1, alpha0={"re": 25.0, "im": 0.0},
                      time={"t_max_over_tc": 1.0, "points": 3})
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""


def test_exit_2_on_schema_violation(tmp_path, capsys):
    cfg = base_config(tmp_path, engine="microscopic")  # missing bath
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == 2
    assert "bath" in capsys.readouterr().err


@pytest.mark.parametrize("phi", [{"rabi": 1e200, "detuning": 1, "t_int": 1},
                                 {"rabi": 1, "detuning": 1e-320, "t_int": 1e10}])
def test_exit_2_on_a_coupling_triple_whose_phi_overflows(tmp_path, capsys, phi):
    path = write_config(tmp_path, base_config(tmp_path, phi=phi))
    assert cli.main(["run", "--config", path]) == 2
    assert capsys.readouterr().err.strip() == f"error: config {path}: phi: must be finite"


@pytest.mark.parametrize("case", ["a", "b"])
def test_exit_2_on_a_phi_whose_double_overflows(tmp_path, capsys, case):
    # U^dag U's phases differ by up to 2 phi, which the largest finite phi overflows; the largest
    # phi whose double is finite runs
    for phi in (1.7e308, -1.7e308):
        path = write_config(tmp_path, base_config(tmp_path, case=case, phi=phi))
        assert cli.main(["run", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: config {path}: phi: 2 phi must be finite\n"
    path = write_config(tmp_path, base_config(tmp_path, case=case, phi=sys.float_info.max / 2))
    assert cli.main(["run", "--config", path]) == 0


def test_sweep_over_a_negative_first_value_takes_the_equals_form(tmp_path, capsys):
    # argparse reads "-0.5,0.5" after a space as an option; "--values=-0.5,0.5" is the value
    path = write_config(tmp_path, base_config(tmp_path, case="b"))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["sweep", "--config", path, "--param", "phi", "--values", "-0.5,0.5"])
    assert exit_info.value.code == 2
    assert "--values: expected one argument" in capsys.readouterr().err
    assert cli.main(["sweep", "--config", path, "--param", "phi", "--values=-0.5,0.5"]) == 0
    _, rows = read_csv(tmp_path / "out.csv")
    assert sorted({row["sweep_value"] for row in rows}) == [-0.5, 0.5]


def test_exit_2_on_unknown_sweep_param(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["sweep", "--config", path, "--param", "nope", "--values", "1"]) == 2
    assert cli.main(["sweep", "--config", path, "--param", "phi", "--values", ""]) == 2
    for param in ("phi", "alpha0_re", "gamma"):
        for values in ("nan", "inf,0.5", "1e400"):
            assert cli.main(["sweep", "--config", path, "--param", param, "--values", values]) == 2
            assert "sweep.values: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("param, values, message", [
    ("gamma", "0", "sweep.values: gamma must stay positive"),
    ("phi", "1,abc", "sweep.values: not a number: 'abc'"),
    ("phi", "0.5,1.7e308", "sweep.values: 2 phi must be finite"),
])
def test_exit_2_on_a_bad_sweep_value(tmp_path, capsys, param, values, message):
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["sweep", "--config", path, "--param", param, "--values", values]) == 2
    assert capsys.readouterr().err.strip() == f"error: config {path}: {message}"


def test_exit_3_on_zero_probability_preparation(tmp_path, capsys):
    cfg = base_config(tmp_path, alpha0={"re": 0.0, "im": 0.0})
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == 3
    assert "zero-probability" in capsys.readouterr().err


def test_a_failed_preparation_names_the_swept_value(tmp_path, capsys):
    # case B at phi = pi maps the e branch onto zero: only that value of the sweep fails
    path = write_config(tmp_path, base_config(tmp_path, case="b"))
    argv = ["sweep", "--config", path, "--param", "phi", "--values", "1.0,3.141592653589793,2.0"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: zero-probability preparation: state norm^2 = ")
    assert err.endswith(f"(phi = 3.141592653589793, alpha0 = {complex(math.sqrt(2.0), 0.0)!r})")


def test_one_parser_serves_every_call_as_fresh_processes_do(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process; repeated calls, an argparse failure and
    # --help among them, must act as each call does in a fresh `python -m mesocat`
    micro = base_config(tmp_path, engine="microscopic", bath=BAND_51,
                        output={"format": "csv", "path": str(tmp_path / "cmp.csv")})
    argvs = [
        ["run", "--config", write_config(tmp_path, base_config(tmp_path), "run.json")],
        ["compare", "--config", write_config(tmp_path, micro, "cmp.json")],
        ["sweep", "--config", write_config(tmp_path, base_config(tmp_path), "sweep.json"),
         "--param", "phi", "--values", "2,1"],
        ["sweep", "--param", "phi", "--values", "1"],  # --config missing: argparse exits 2
        ["--help"],
    ]
    outputs = [tmp_path / "out.csv", tmp_path / "cmp.csv", tmp_path / "out.csv", None, None]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "COLUMNS": "80"}
    env.pop("MESOCAT_LOG", None)
    fresh = []
    for argv, output in zip(argvs, outputs):
        done = subprocess.run([sys.executable, "-m", "mesocat", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        fresh.append((done.returncode, done.stdout, done.stderr, output and output.read_bytes()))

    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("MESOCAT_LOG", raising=False)
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    capsys.readouterr()
    for repeat in range(2):
        for (argv, output), want in zip(zip(argvs, outputs), fresh):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out, err, output and output.read_bytes()) == want, (repeat, argv)
    assert [code for code, *_ in fresh] == [0, 0, 0, 2, 0]
    assert built == ["mesocat", "mesocat run", "mesocat compare", "mesocat sweep"]


def test_exit_4_on_positivity_violation(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, base_config(tmp_path))

    def explode(cfg):
        raise mc.PositivityError("injected for handler coverage")

    monkeypatch.setattr(cli, "run_scenario", explode)
    assert cli.main(["run", "--config", path]) == 4
    assert "positivity" in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["residue", "stalled"])
def test_exit_1_on_a_corrupted_bath_spectrum(tmp_path, monkeypatch, capsys, fault):
    # one residue off by 1e-9 breaks sum r = 1; one sweep leaves the roots unconverged
    solve, residues = bathmod._solve_block, []

    def corrupted(w, c2, j):
        origin, tau, residue, slack = solve(w, c2, j)
        if j[0] == 0:
            residue[25] += 1e-9
        residues.append(residue)
        return origin, tau, residue, slack

    if fault == "residue":
        monkeypatch.setattr(bathmod, "_solve_block", corrupted)
    else:
        monkeypatch.setattr(bathmod, "MAX_SWEEPS", 1)
    cfg = base_config(tmp_path, engine="microscopic", bath=BAND_51)
    del cfg["master"]
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 1
    if fault == "residue":  # the sum as the audit forms it, printed as a Python float
        message = f"moment 0 is {float(np.sum(np.concatenate(residues)))!r}, not 1.0"
    else:
        message = "roots not converged after 1 sweeps"
    assert capsys.readouterr().err == f"error: bath spectrum: {message}\n"
    assert not (tmp_path / "out.csv").exists()


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


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_unwritable_output_exits_1_naming_the_file(tmp_path, capsys, command, where):
    # a table path that is a directory or lies in a missing one; for compare, the table is
    # written and its summary path is a directory
    out = tmp_path / ("out.csv" if where == "directory" else "missing/out.csv")
    unwritable = out.parent / (out.name + ".summary.json") if command == "compare" else out
    if where == "directory":
        unwritable.mkdir()
    cfg = base_config(tmp_path, output={"format": "csv", "path": str(out)})
    if command == "compare":
        cfg.update(engine="microscopic", bath={"modes": 51, "half_bandwidth": 20.0, "gamma": 1.0})
    argv = [command, "--config", write_config(tmp_path, cfg)]
    assert cli.main(argv + (["--param", "phi", "--values", "1,2"] if command == "sweep" else [])) == 1
    err, named = capsys.readouterr().err, unwritable if where == "directory" else out
    assert err.startswith(f"error: output file {named}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unwritable_output_reports_no_traceback_from_a_process(tmp_path):
    (tmp_path / "out.csv").mkdir()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-m", "mesocat", "run", "--config",
         write_config(tmp_path, base_config(tmp_path))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: output file {tmp_path / 'out.csv'}: ")
    assert "Traceback" not in done.stderr


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


@pytest.mark.parametrize("alpha0", [0.0, 1e-200])
def test_compare_on_a_state_that_stays_pure_writes_null_slopes(tmp_path, capsys, alpha0):
    # defect_e is 0 across the slope grid: no log(0) warning, and no NaN in the summary
    out = tmp_path / "cmp.csv"
    cfg = base_config(tmp_path, case="b", phi=0.7, alpha0={"re": alpha0, "im": 0.0},
                      engine="microscopic", bath=BAND_51)
    cfg["output"]["path"] = str(out)
    assert cli.main(["compare", "--config", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""

    def reject(token):
        raise ValueError(f"not RFC 8259 JSON: {token}")

    summary = json.loads((tmp_path / "cmp.csv.summary.json").read_text(), parse_constant=reject)
    assert summary["defect_slope_micro"] is None and summary["defect_slope_master"] is None
    assert summary["max_abs_eta_gap"] == 0.0


def test_microscopic_run_path_forms_no_one_excitation_matrix(tmp_path, monkeypatch):
    # the library has no (M+1)^2 matrix to build, and in compare and an 8-value phi
    # sweep no Hermitian eigensolver sees an operand the size of the band
    assert not hasattr(mc.bath, "one_excitation_matrix")
    sizes = []

    def recording(solver):
        def solve(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return solver(a, *args, **kwargs)
        return solve

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    cfg = base_config(tmp_path, engine="microscopic", bath=BAND_51)
    assert cli.main(["compare", "--config", write_config(tmp_path, cfg)]) == 0
    del cfg["master"]
    values = "0.4,1.1,0.7,0.5,0.9,0.6,1.0,0.8"
    assert cli.main(["sweep", "--config", write_config(tmp_path, cfg), "--param", "phi",
                     "--values", values]) == 0
    assert max(sizes, default=0) < BAND_51["modes"]


@pytest.mark.parametrize("case, phi", [("a", math.pi), ("b", math.pi / 4)])
def test_microscopic_time_zero_row_writes_the_master_row(tmp_path, case, phi):
    # the bath response gives B(0) = +0, as the master's 1 - e^0 does: no -0 cell at t = 0
    g, depletion = mc.response(mc.discretize_flat_band(1.0, 51, 10.0), [0.0])
    assert g[0] == 1.0 and depletion[0] == 0.0 and not np.signbit(depletion[0])
    rows = {}
    for engine in ("microscopic", "master"):
        raw = base_config(tmp_path, engine=engine, case=case, phi=phi)
        if engine == "microscopic":
            raw["bath"] = BAND_51
            raw.pop("master")
        assert cli.main(["run", "--config", write_config(tmp_path, raw)]) == 0
        header, first = (tmp_path / "out.csv").read_text().split("\n")[:2]
        rows[engine] = dict(zip(header.split(","), first.split(",")))
    assert rows["microscopic"]["n_bath"] == "0"
    assert rows["microscopic"] == rows["master"]


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
        cli._audit_output(cfg.output, runner.ROW_FIELDS, [""])


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


@pytest.mark.parametrize("lines, message", [
    (lambda lines: ["t,gamma_a"] + lines[1:], "header mismatch"),
    (lambda lines: lines[:1] + [""], "no rows written"),  # the header and its newline
])
def test_read_back_rejects_a_csv_without_its_header_or_rows(tmp_path, lines, message):
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["run", "--config", path]) == 0
    out = tmp_path / "out.csv"
    out.write_text("\n".join(lines(out.read_text().split("\n"))))
    with pytest.raises(mc.AuditError, match=f"^self-audit: {message}$"):
        cli._audit_output(load_scenario(path).output, runner.ROW_FIELDS, [""])


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


READ_BACK_FAULTS = {
    # (line index, column, new cell, or None to insert a blank line): the AuditError text
    "hash": ((3, "p_ge", "{}#x"), "line 4, column p_ge: not a number: '{}#x'"),
    "blank": ((3, None, None), "line 4 has 1 cells, not 20: column gamma_a is missing"),
    "true-numeric": ((4, "eta", "true"), "line 5, column eta: not a number: 'true'"),
    # a column of true/false cells holding a number is read as numbers: its first
    # true/false cell fails
    "number-flag": ((2, "recurrence_warning", "0"),
                    "line 2, column recurrence_warning: not a number: 'false'"),
    "short": ((5, "", None), "line 6 has 19 cells, not 20: column recurrence_warning is missing"),
    "text": ((2, "purity_e", "abc"), "line 3, column purity_e: not a number: 'abc'"),
    "nan": ((3, "n_bath", "nan"), None),
    "underscore": ((3, "gamma_a", "1_0"), None),  # float() reads it as 10
}


@pytest.mark.parametrize("fault", list(READ_BACK_FAULTS))
def test_read_back_names_the_cell_the_cell_parser_named(tmp_path, fault):
    # numpy's reader parses the file; a file it rejects is read cell by cell, as before
    (line, column, cell), message = READ_BACK_FAULTS[fault]
    cfg = parse_scenario(base_config(tmp_path, time={"t_max_over_tc": 2.0, "points": 6}))
    table = runner.run_scenario(cfg)
    cli._write_table(cfg.output, table)
    lines = (tmp_path / "out.csv").read_text().split("\n")
    j = list(table).index(column) if column else -1
    if column is None:
        lines.insert(line, "")
    elif cell is None:
        lines[line] = lines[line].rsplit(",", 1)[0]
    else:
        cells = lines[line].split(",")
        old, cells[j] = cells[j], cell.format(cells[j])
        lines[line] = ",".join(cells)
        message = message and message.format(old)
    (tmp_path / "out.csv").write_text("\n".join(lines))
    if message is None:
        back = cli._read_back(cfg.output, list(table))
        assert back[column][line - 1] == float(cell) or math.isnan(float(cell))
        assert all(np.array_equal(back[name], table[name].astype(float), equal_nan=True)
                   for name in table if name != column)
    else:
        with pytest.raises(mc.AuditError) as err:
            cli._read_back(cfg.output, list(table))
        assert str(err.value) == f"self-audit: {message}"


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


def scalar_audit(path, suffixes):
    """The self-audit one row at a time over row dicts, as the CLI once ran it (reference)."""
    _, rows = read_csv(path)
    chunks = {}
    for row in rows:
        chunks.setdefault(row.get("sweep_value"), []).append(row)
    for chunk in chunks.values():
        for suffix in suffixes:
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


def shifted(delta):
    return lambda v: v + delta


AUDIT_FAULTS = {
    "range": [("p_eg", 3, lambda v: 1.5)],
    "row-sum": [("p_eg", 3, shifted(1e-6))],
    "eta": [("eta", 3, shifted(1e-6))],
    # occupations are not audited: B = 1 - |g|^2 by construction, and the bath
    # spectrum's moment check stands in for the old drift check
    "drift-passes": [("n_bath", 3, shifted(1e-6))],
    "drift-from-row-0-passes": [("n_field", 0, shifted(1e-6))],
    "nan-probability": [("p_gg", 3, lambda v: math.nan)],
    "nan-eta-passes": [("eta", 3, lambda v: math.nan)],
    "nan-occupation-passes": [("n_bath", 3, lambda v: math.nan)],
    "nan-first-occupation-passes": [
        ("n_field", 0, lambda v: math.nan), ("n_bath", 4, shifted(1.0))
    ],
    "first-row-wins": [("p_ee", 4, lambda v: -0.5), ("eta", 2, shifted(1e-6))],
    "first-check-wins": [("eta", 3, shifted(1e-6)), ("p_eg", 3, shifted(1e-6))],
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
    for audit in (lambda: scalar_audit(out, [""]),
                  lambda: cli._audit_output(cfg_output, fieldnames, [""])):
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

        # a collection run in the window would add the gc callbacks of whatever is imported
        gc.disable()
        sys.setprofile(profile)
        try:
            code = cli.main(argv)
        finally:
            sys.setprofile(None)
            gc.enable()
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
