"""Scenario engines: the shared row builder against the per-mode reference, the Fock engine."""

import json
import math

import numpy as np
import pytest

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import cli, fock, runner
from mesocat.config import parse_scenario


def scenario(tmp_path, engine, alpha0=math.sqrt(2.0), case="a", phi=math.pi, t_max=1.0, points=5):
    raw = {
        "case": case,
        "alpha0": {"re": alpha0, "im": 0.0},
        "phi": phi,
        "engine": engine,
        "time": {"t_max_over_tc": t_max, "points": points},
        "output": {"format": "csv", "path": str(tmp_path / "out.csv")},
    }
    if engine == "microscopic":
        raw["bath"] = {"modes": 201, "half_bandwidth": 50.0, "gamma": 1.0}
    else:
        raw["master"] = {"gamma": 1.0}
    if engine == "fock":
        raw["fock"] = {"n_max": 19, "dt": 5e-5}
    return raw


@pytest.mark.parametrize("case, phi", [("a", math.pi), ("b", math.pi / 4)])
def test_microscopic_rows_match_per_mode_reference(tmp_path, flat_band_201, case, phi):
    cfg = parse_scenario(scenario(tmp_path, "microscopic", 1.5, case, phi, t_max=1.7, points=6))
    params = runner.scenario_params(cfg)
    state_e = mc.prepare(params, Out.E)
    for row in runner.run_scenario(cfg):
        evolved = mc.evolve(state_e, flat_band_201, row.t)
        g_b = mc.gamma_b(evolved)
        n_field, n_bath = mc.occupations(evolved)
        assert abs(row.gamma_a - mc.gamma_a(evolved)) < 1e-13
        assert abs(row.gamma_b_abs - abs(g_b)) < 1e-13
        assert abs(row.gamma_b_arg - math.atan2(g_b.imag, g_b.real)) < 1e-13
        assert abs(row.n_field - n_field) < 1e-13
        assert abs(row.n_bath - n_bath) < 1e-13
        assert abs(row.purity_e - mc.purity(mc.reduce(evolved))) < 1e-13


def test_master_rows_match_me_reduce(tmp_path):
    cfg = parse_scenario(scenario(tmp_path, "master", 1.5, "b", 0.7, t_max=2.0, points=6))
    params = runner.scenario_params(cfg)
    state_e = mc.prepare(params, Out.E)
    labels = [br.field for br in state_e.branches]
    mp = mc.MasterParams(1.0)
    n_field_0 = mc.mean_photon(mc.reduce(state_e))
    for row in runner.run_scenario(cfg):
        rho_e = mc.me_reduce(state_e, mp, row.t)
        rho_g = mc.me_reduce(mc.prepare(params, Out.G), mp, row.t)
        rec = mc.conditional_probabilities(rho_e, rho_g, params)
        g_b = mc.me_dyad_factor(labels[0], labels[1], mp, row.t)
        assert abs(row.eta - rec.eta) < 1e-13
        assert abs(row.gamma_b_abs - abs(g_b)) < 1e-13
        assert abs(row.n_field - mc.mean_photon(rho_e)) < 1e-13
        assert abs(row.n_bath - (n_field_0 - mc.mean_photon(rho_e))) < 1e-13
        assert not row.recurrence_warning


def test_run_scenario_is_deterministic(tmp_path):
    cfg = parse_scenario(scenario(tmp_path, "microscopic", points=7))
    assert runner.run_scenario(cfg) == runner.run_scenario(cfg)


@pytest.mark.parametrize("alpha0", np.linspace(0.5, 1.0, 11))
def test_fock_labels_eigenvalues_by_parity_at_time_zero(tmp_path, alpha0):
    # the odd cat after E is pure: all but one eigenvalue vanish, and the
    # plus/minus labels must not depend on eigh's choice inside that zero space
    cfg = parse_scenario(scenario(tmp_path, "fock", alpha0, t_max=0.001, points=2))
    row = runner.run_scenario(cfg)[0]
    ga0 = math.exp(-2.0 * alpha0**2)
    lam_e = mc.eigenvalues_case_a(ga0, 1.0, ga0, Out.E)
    lam_g = mc.eigenvalues_case_a(ga0, 1.0, ga0, Out.G)
    assert (row.lam_e_plus, row.lam_e_minus) == pytest.approx(lam_e, abs=1e-10)
    assert (row.lam_g_plus, row.lam_g_minus) == pytest.approx(lam_g, abs=1e-10)


@pytest.mark.parametrize("phi", [math.pi / 2, -math.pi / 2, 1.5 * math.pi])
def test_fock_eigenvalues_of_a_non_parity_antipodal_pair(tmp_path, phi):
    # case B at phi = pi/2 (mod pi) prepares |beta> -+ i|-beta>: antipodal labels,
    # but no parity eigenstate, so the parity blocks do not hold its spectrum
    fock_rows = runner.run_scenario(
        parse_scenario(scenario(tmp_path, "fock", 1.0, "b", phi, t_max=0.3, points=4))
    )
    master_rows = runner.run_scenario(
        parse_scenario(scenario(tmp_path, "master", 1.0, "b", phi, t_max=0.3, points=4))
    )
    assert fock_rows[0].lam_e_plus == pytest.approx(1.0, abs=1e-12)
    for f, m in zip(fock_rows, master_rows):
        assert f.lam_e_plus + f.lam_e_minus == pytest.approx(1.0, abs=1e-12)
        assert f.lam_e_plus**2 + f.lam_e_minus**2 == pytest.approx(f.purity_e, abs=1e-12)
        for name in ("lam_e_plus", "lam_e_minus", "lam_g_plus", "lam_g_minus"):
            assert getattr(f, name) == pytest.approx(getattr(m, name), abs=1e-10)


@pytest.mark.parametrize("alpha0", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize(
    "case,phi", [("a", math.pi), ("a", math.pi / 2), ("b", math.pi / 4), ("b", math.pi / 2)]
)
def test_master_and_fock_agree_near_the_vacuum(tmp_path, alpha0, case, phi):
    # odd-cat weights ~ 1/|alpha0| cancel in every norm, trace and expectation
    def rows(engine):
        raw = scenario(tmp_path, engine, alpha0, case, phi, t_max=2.0, points=11)
        if engine == "fock":
            raw["fock"] = {"n_max": 12}
        return runner.run_scenario(parse_scenario(raw))

    names = [n for n in runner.ROW_FIELDS if n == "eta" or n.startswith(("p_", "lam_", "purity_"))]
    for f, m in zip(rows("fock"), rows("master")):
        for name in names:
            assert abs(getattr(f, name) - getattr(m, name)) <= 1e-13, (name, f.t)


@pytest.mark.parametrize("bad", [1.1 + 0j, 0.5 + 1e-6j])
def test_fock_probabilities_are_checked_before_clamping(tmp_path, monkeypatch, capsys, bad):
    path = tmp_path / "fock.json"
    path.write_text(json.dumps(scenario(tmp_path, "fock", 1.0, t_max=0.001, points=2)))
    monkeypatch.setattr(fock, "fock_measure", lambda op, rho: bad)
    assert cli.main(["run", "--config", str(path)]) == 4
    assert "probability" in capsys.readouterr().err
