"""Scenario engines: the shared table builder against the per-mode reference, the Fock engine."""

import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import bath as bathmod
from mesocat import cli, config, fock, runner
from mesocat.config import parse_scenario
from reference import (
    evolve,
    fock_vector_per_branch,
    gamma_a,
    gamma_b,
    joint,
    label_eigenpairs,
    mean_photon,
    occupations,
    phase_op_matrix_element,
    reduce,
    trace_of_square,
)


def as_rows(table):
    """A column table as one namespace per time, for attribute access."""
    values = zip(*(col.tolist() for col in table.values()))
    return [SimpleNamespace(**dict(zip(table, row))) for row in values]


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
    for row in as_rows(runner.run_scenario(cfg)):
        evolved = evolve(state_e, flat_band_201, row.t)
        g_b = gamma_b(evolved)
        n_field, n_bath = occupations(evolved)
        assert abs(row.gamma_a - gamma_a(evolved)) < 1e-13
        assert abs(row.gamma_b_abs - abs(g_b)) < 1e-13
        assert abs(row.gamma_b_arg - math.atan2(g_b.imag, g_b.real)) < 1e-13
        assert abs(row.n_field - n_field) < 1e-13
        assert abs(row.n_bath - n_bath) < 1e-13
        assert abs(row.purity_e - mc.purity(reduce(evolved))) < 1e-13


def test_master_rows_match_me_reduce(tmp_path):
    cfg = parse_scenario(scenario(tmp_path, "master", 1.5, "b", 0.7, t_max=2.0, points=6))
    params = runner.scenario_params(cfg)
    state_e = mc.prepare(params, Out.E)
    n_field_0 = mean_photon(mc.damped_density(state_e, 1.0, 0.0))
    for row in as_rows(runner.run_scenario(cfg)):
        rho_e = mc.damped_density(state_e, *mc.me_response(1.0, row.t))
        rho_g = mc.damped_density(mc.prepare(params, Out.G), *mc.me_response(1.0, row.t))
        rec = mc.conditional_probabilities(joint(rho_e, rho_g), params)
        g_b = np.exp(rho_e.expo[1, 0])
        assert abs(row.eta - rec.eta) < 1e-13
        assert abs(row.gamma_b_abs - abs(g_b)) < 1e-13
        assert abs(row.n_field - mean_photon(rho_e)) < 1e-13
        assert abs(row.n_bath - (n_field_0 - mean_photon(rho_e))) < 1e-13
        assert not row.recurrence_warning


@pytest.mark.parametrize("engine", ["microscopic", "master", "fock"])
def test_response_flags_times_beyond_the_recurrence_fraction(tmp_path, flat_band_201, engine):
    # the band of `scenario`; only a discrete bath recurs
    limit = bathmod.RECURRENCE_FRACTION * mc.recurrence_time(flat_band_201)
    cfg = parse_scenario(scenario(tmp_path, engine))
    _, _, flags = runner._response(cfg, np.array([0.0, 0.9 * limit, 1.1 * limit]))
    assert flags.tolist() == [False, False, engine == "microscopic"]


@pytest.mark.parametrize("engine", ["master", "fock"])
def test_master_gamma_only_sets_the_time_unit(tmp_path, engine):
    # the grid is in t_c = 1/gamma and g, B depend on gamma t alone: every gamma gives one table
    cfg = parse_scenario(scenario(tmp_path, engine, 1.0, "b", 0.7, t_max=3.0, points=13))
    tables = [runner.run_scenario(replace(cfg, master=replace(cfg.master, gamma=gamma)))
              for gamma in (0.37, 1.0, 12.5)]
    polar = lambda table: table["gamma_b_abs"] * np.exp(1j * table["gamma_b_arg"])
    for table in tables[::2]:
        for name in runner.ROW_FIELDS:
            if engine == "fock" and name.startswith("gamma_b"):
                continue
            gap = np.abs(np.subtract(table[name], tables[1][name], dtype=float))
            assert np.max(gap) <= 1e-13, name
        if engine == "fock":  # good to FOCK_GAMMA_B_RTOL by design, or NaN on the same rows
            nan = np.isnan(tables[1]["gamma_b_abs"])
            assert np.array_equal(np.isnan(table["gamma_b_abs"]), nan)
            gap = np.abs(polar(table) - polar(tables[1]))[~nan]
            assert np.all(gap <= runner.FOCK_GAMMA_B_RTOL * np.abs(polar(tables[1]))[~nan])


def test_run_scenario_is_deterministic(tmp_path):
    cfg = parse_scenario(scenario(tmp_path, "microscopic", points=7))
    assert as_rows(runner.run_scenario(cfg)) == as_rows(runner.run_scenario(cfg))


@pytest.mark.parametrize("alpha0", np.linspace(0.5, 1.0, 11))
def test_fock_labels_eigenvalues_by_parity_at_time_zero(tmp_path, alpha0):
    # the odd cat after E is pure: all but one eigenvalue vanish, and the
    # plus/minus labels must not depend on eigh's choice inside that zero space
    cfg = parse_scenario(scenario(tmp_path, "fock", alpha0, t_max=0.001, points=2))
    row = as_rows(runner.run_scenario(cfg))[0]
    lam_e = mc.eigenvalues_case_a(alpha0, 1.0, 0.0, Out.E)
    lam_g = mc.eigenvalues_case_a(alpha0, 1.0, 0.0, Out.G)
    assert (row.lam_e_plus, row.lam_e_minus) == pytest.approx(lam_e, abs=1e-10)
    assert (row.lam_g_plus, row.lam_g_minus) == pytest.approx(lam_g, abs=1e-10)


@pytest.mark.parametrize("phi", [math.pi / 2, -math.pi / 2, 1.5 * math.pi])
def test_fock_eigenvalues_of_a_non_parity_antipodal_pair(tmp_path, phi):
    # case B at phi = pi/2 (mod pi) prepares |beta> -+ i|-beta>: antipodal labels,
    # but no parity eigenstate, so the parity blocks do not hold its spectrum
    fock_rows, master_rows = (
        as_rows(runner.run_scenario(
            parse_scenario(scenario(tmp_path, engine, 1.0, "b", phi, t_max=0.3, points=4))
        ))
        for engine in ("fock", "master")
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
        return as_rows(runner.run_scenario(parse_scenario(raw)))

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


# ---------------------------------------------------------------------------
# the stacked table builder


@pytest.mark.parametrize("case, phi", [("a", math.pi), ("b", math.pi / 4)])
def test_stacked_rows_match_per_time_reference(tmp_path, case, phi):
    # every column against the per-mode reduce(evolve(...)) at each time on a 21-mode band;
    # lam_plus of antipodal labels is the eigenvalue of the even-parity eigenvector
    raw = scenario(tmp_path, "microscopic", 1.5, case, phi)
    raw["bath"] = {"modes": 21, "half_bandwidth": 10.0, "gamma": 1.0}
    cfg = parse_scenario(raw)
    params = runner.scenario_params(cfg)
    band = mc.discretize_flat_band(1.0, 21, 10.0)
    times = np.linspace(0.0, 4.0, 17)  # recurrence flags from t > 3.14
    rows = as_rows(runner._analytic_tables([params], times, [runner._response(cfg, times)])[0])
    states = [mc.prepare(params, o) for o in (Out.E, Out.G)]
    parity = (np.array([1.0 + 0j]), np.array([math.pi]))

    def lam_pair(rho):
        lams, vecs = label_eigenpairs(rho)
        if case == "a":
            even = [phase_op_matrix_element(parity, rho.labels, c, c).real for c in vecs]
            return tuple(lams[np.argsort(even)[::-1]])
        return tuple(lams)

    for row, t in zip(rows, times):
        evolved = [evolve(s, band, t) for s in states]
        rho_e, rho_g = (reduce(e) for e in evolved)
        rec = mc.conditional_probabilities(joint(rho_e, rho_g), params)
        g_b = gamma_b(evolved[0])
        expected = dict(
            t=t, gamma_a=gamma_a(evolved[0]), gamma_b_abs=abs(g_b),
            gamma_b_arg=math.atan2(g_b.imag, g_b.real),
            p_ee=rec.p_ee, p_eg=rec.p_eg, p_ge=rec.p_ge, p_gg=rec.p_gg, eta=rec.eta,
            purity_e=mc.purity(rho_e), purity_g=mc.purity(rho_g),
            defect_e=mc.idempotency_defect(rho_e), defect_g=mc.idempotency_defect(rho_g),
            recurrence_warning=bool(t > bathmod.RECURRENCE_FRACTION * mc.recurrence_time(band)),
        )
        expected["lam_e_plus"], expected["lam_e_minus"] = lam_pair(rho_e)
        expected["lam_g_plus"], expected["lam_g_minus"] = lam_pair(rho_g)
        expected["n_field"], expected["n_bath"] = occupations(evolved[0])
        assert set(expected) == set(runner.ROW_FIELDS)
        for name, value in expected.items():
            assert abs(getattr(row, name) - value) <= 1e-13, (name, t)


@pytest.mark.parametrize("points", [11, 201])
def test_compare_checks_whole_grids_not_rows(tmp_path, monkeypatch, points):
    # both engines' responses and both conditioned densities share one density
    # stack, so each checked routine runs once, whatever the grid length
    calls = {"eigenvalues": 0, "conditional_probabilities": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(mc.coherent, "eigenvalues")
    counted(mc.protocol, "conditional_probabilities")
    raw = scenario(tmp_path, "microscopic", 1.5, points=points)
    raw["master"] = {"gamma": 1.0}
    micro, master, _ = runner.run_compare(parse_scenario(raw, for_compare=True))
    assert len(micro["t"]) == len(master["t"]) == points
    assert calls == {"eigenvalues": 1, "conditional_probabilities": 1}


# (scenario arguments, bath replacing the 201-mode band); a 21-mode band over
# W = 5 recurs near 12.6 t_c, so its late rows are flagged
COMPARE_CASES = {
    "case-a-pi": (dict(case="a", phi=math.pi), None),
    "case-b-pi-4": (dict(case="b", phi=math.pi / 4), None),
    "band-21-recurring": (dict(case="a", phi=math.pi / 2, t_max=12.0, points=25),
                          {"modes": 21, "half_bandwidth": 5.0, "gamma": 1.0}),
    "case-b-1.3": (dict(case="b", phi=1.3, points=31), None),
}


@pytest.mark.filterwarnings("ignore:half_bandwidth below")
@pytest.mark.parametrize("case", list(COMPARE_CASES))
def test_compare_stack_equals_each_engine_table_bit_for_bit(tmp_path, case):
    kwargs, bath = COMPARE_CASES[case]
    raw = scenario(tmp_path, "microscopic", 1.5, **kwargs)
    raw["master"] = {"gamma": 1.0}
    if bath:
        raw["bath"] = bath
    cfg = parse_scenario(raw, for_compare=True)
    micro, master, summary = runner.run_compare(cfg)
    params, n = runner.scenario_params(cfg), cfg.time.points
    times = np.concatenate([runner.time_grid(cfg), runner.SLOPE_GRID])
    alone = {engine: runner._analytic_tables(
        [params], times, [runner._response(replace(cfg, engine=engine), times)])[0]
        for engine in ("microscopic", "master")}
    for table, own in ((micro, alone["microscopic"]), (master, alone["master"])):
        assert list(table) == list(own)
        for name, column in table.items():  # bytes, so NaN and signed zeros count
            assert column.dtype == own[name].dtype, name
            assert column.tobytes() == own[name][:n].tobytes(), name
    gap = np.max(np.abs(alone["microscopic"]["eta"][:n] - alone["master"]["eta"][:n]))
    assert summary["max_abs_eta_gap"] == gap
    assert summary["defect_slope_micro"] == runner._defect_slope(alone["microscopic"]["defect_e"][n:])
    assert summary["defect_slope_master"] == runner._defect_slope(alone["master"]["defect_e"][n:])
    assert micro["recurrence_warning"].any() == (bath is not None)


@pytest.mark.parametrize("points", [11, 201])
def test_fock_evolves_whole_grids_not_rows(tmp_path, monkeypatch, points):
    # one damping-map call per first-atom outcome and two number-state recurrences,
    # one for the branch labels of both prepared states and one for the damped
    # labels, whatever the grid length
    calls, expanded = [], []
    damp, coherent_to_fock = fock.damp, fock.coherent_to_fock

    def counted(ket, bra, g, depletion):
        calls.append(np.shape(depletion))
        return damp(ket, bra, g, depletion)

    def expand(label, n_max, batch=0, pivoted=False):
        expanded.append(np.shape(label))
        return coherent_to_fock(label, n_max, batch, pivoted)

    monkeypatch.setattr(fock, "damp", counted)
    monkeypatch.setattr(fock, "coherent_to_fock", expand)
    table = runner.run_scenario(parse_scenario(scenario(tmp_path, "fock", 1.0, points=points)))
    assert len(table["t"]) == points
    assert calls == [(points,), (points,)]
    assert expanded == [(1, 2, 2), (points, 1, 2)]


@pytest.mark.parametrize("case, phi", [("a", math.pi), ("b", math.pi / 4)])
def test_batched_recurrences_keep_the_per_branch_table_bits(tmp_path, monkeypatch, case, phi):
    # the Fock table from two batched recurrences against the route that expands
    # each branch label on its own and takes Tr(rho rho) from the matrix product:
    # equal bits but in purity and defect, which sum in another order: within
    # (n_max + 1) eps sum|rho_ij|^2, and sum|rho_ij|^2 = purity <= 1
    cfg = parse_scenario(scenario(tmp_path, "fock", 1.0, case, phi, t_max=2.0, points=21))
    table = runner.run_scenario(cfg)
    monkeypatch.setattr(fock, "superposition_vector", lambda states, n_max: np.array(
        [[fock_vector_per_branch(state, n_max) for state in pair] for pair in states]))
    monkeypatch.setattr(fock, "fock_purity", lambda rho: trace_of_square(rho).real)
    per_branch = runner.run_scenario(cfg)
    bound = (cfg.fock.n_max + 1) * np.finfo(float).eps
    for name, column in table.items():
        if name.startswith(("purity", "defect")):
            assert np.max(np.abs(column - per_branch[name])) <= bound, name
        else:
            assert column.tobytes() == per_branch[name].tobytes(), name


def fock_rows_per_time(cfg):
    """Fock-engine columns built one grid time at a time from scalar calls (test reference)."""
    params = runner.scenario_params(cfg)
    n_max = cfg.fock.n_max
    states = [mc.prepare(params, o) for o in (Out.E, Out.G)]
    vecs0 = [fock.superposition_vector(s, n_max) for s in states]
    ops = [mc.measurement_product(params, o) for o in (Out.E, Out.G)]
    weights = states[0][0]
    parity = 1.0 - 2.0 * (np.arange(n_max + 1) % 2)
    n_field_0 = fock.fock_mean_photon(fock.density_from_vector(vecs0[0]))
    blocks_used, columns = [], []
    for t in runner.time_grid(cfg):
        response = mc.me_response(1.0, t)
        rho = [fock.damp(v, v, *response) for v in vecs0]
        p = [fock.fock_measure(op, r) for r in rho for op in ops]
        labels = states[0][1] * math.exp(-t / 2)
        vecs = [fock.coherent_to_fock(label, n_max) for label in labels]
        products = np.array([[v1.conj() @ rho[0] @ v2 for v2 in vecs] for v1 in vecs])
        g_b = runner._fock_gamma_b(products, labels, np.array(weights), n_max)
        lams = []
        for matrix in rho:
            antipodal = abs(labels[0] + labels[1]) < 1e-9 * max(1.0, *np.abs(labels))
            blocks = antipodal and np.linalg.norm(matrix[0::2, 1::2]) < runner.PARITY_BLOCK_TOL
            blocks_used.append(blocks)
            if blocks:
                top = [np.linalg.eigvalsh(matrix[k::2, k::2])[-1] for k in (0, 1)]
            else:
                values, vectors = np.linalg.eigh(matrix)
                top = list(values[::-1][:2])
                signs = parity @ np.abs(vectors[:, ::-1][:, :2]) ** 2
                if antipodal and signs[0] < 0.0:
                    top = top[::-1]
            lams += [min(max(v, 0.0), 1.0) for v in top]
        purity = [fock.fock_purity(r) for r in rho]
        n_field = fock.fock_mean_photon(rho[0])
        columns.append(dict(
            gamma_b_abs=abs(g_b), gamma_b_arg=math.atan2(g_b.imag, g_b.real),
            p_ee=p[0].real, p_eg=p[1].real, p_ge=p[2].real, p_gg=p[3].real,
            eta=p[0].real - p[2].real,
            lam_e_plus=lams[0], lam_e_minus=lams[1], lam_g_plus=lams[2], lam_g_minus=lams[3],
            purity_e=purity[0], purity_g=purity[1], defect_e=1 - purity[0], defect_g=1 - purity[1],
            n_field=n_field, n_bath=n_field_0 - n_field,
        ))
    return columns, blocks_used


@pytest.mark.parametrize(
    "case, phi, blocks", [("a", math.pi, True), ("b", math.pi / 4, False), ("b", math.pi / 2, False)]
)
def test_stacked_fock_rows_match_per_time_reference(tmp_path, case, phi, blocks):
    # case A at pi takes the parity-block path; case B at pi/2 is antipodal but
    # not parity-block-diagonal, so it takes the eigh path with the parity swap
    cfg = parse_scenario(scenario(tmp_path, "fock", 1.0, case, phi, t_max=2.0, points=9))
    expected, blocks_used = fock_rows_per_time(cfg)
    assert set(blocks_used) == {blocks}
    for row, want in zip(as_rows(runner.run_scenario(cfg)), expected):
        for name, value in want.items():
            assert abs(getattr(row, name) - value) <= 1e-13, (name, row.t)


def test_fock_assign_picks_the_branch_per_time():
    # one stack: time 0 is parity-block-diagonal (block path); time 1 carries an
    # off-parity coherence (eigh path) and its mostly odd top vector is "minus"
    v_plus, v_minus = (fock.coherent_to_fock(1.0, 19).real,
                       fock.coherent_to_fock(-1.0, 19).real)
    even, odd = v_plus + v_minus, v_plus - v_minus
    even, odd = even / np.linalg.norm(even), odd / np.linalg.norm(odd)
    blocks = 0.3 * np.outer(even, even) + 0.7 * np.outer(odd, odd)
    coherent = blocks + 0.05 * (np.outer(even, odd) + np.outer(odd, even))
    plus, minus = runner._fock_assign(np.array([blocks, coherent]), np.array([[1.0, -1.0]] * 2)).T
    low, high = np.linalg.eigvalsh([[0.3, 0.05], [0.05, 0.7]])
    assert (plus[0], minus[0]) == pytest.approx((0.3, 0.7), abs=1e-14)
    assert (plus[1], minus[1]) == pytest.approx((low, high), abs=1e-14)


def both_engines_lams(monkeypatch, weights, labels, g):
    """(analytic, Fock) (lam_plus, lam_minus), each (state, g, 2), of the antipodal states
    w1 |l> + w2 |-l> (one per row of weights and entry of labels) damped at real g, B = 1 - g^2.

    The analytic side is the run path's table, its prepared states swapped for these."""
    g = np.asarray(g, dtype=float)
    depletion = 1.0 - g * g
    states = mc.normalize([[[w1, w2], [l, -l]] for (w1, w2), l in zip(weights, labels)])
    swept = [mc.ProtocolParams(mc.ProtocolCase.CASE_A, 1.0, 0.1 * (k + 1)) for k in range(len(states))]
    # every protocol prepares its state for both outcomes
    monkeypatch.setattr(runner.proto, "_prepare_stack", lambda swept: np.stack([states] * 2, 1))
    tables = runner._analytic_tables(swept, np.zeros(len(g)), [(g, depletion, np.zeros(len(g), bool))])
    analytic = [np.stack([t["lam_e_plus"], t["lam_e_minus"]], axis=-1) for t in tables]
    n_max = int(fock.required_n_max(np.max(np.abs(labels))))
    oracle = []
    for state, l in zip(states, labels):
        vec = fock.superposition_vector(state, n_max)
        rho = fock.damp(vec, vec, g, depletion)
        oracle.append(runner._fock_assign(rho, np.multiply.outer(g, [l, -l])))
    return np.array(analytic), np.array(oracle)


def test_both_engines_label_a_pinned_antipodal_state_alike(monkeypatch):
    # the top eigenvector is odd, and so is the next one by its coefficients over the labels:
    # a rule that also asks the next one to be even by that measure keeps the descending order
    analytic, oracle = both_engines_lams(
        monkeypatch, [(0.886 - 1.864j, -1.824 - 0.45j)], [0.177 - 1.068j], [0.991])
    assert oracle[0, 0] == pytest.approx((0.0210, 0.9790), abs=1e-4)
    assert np.max(np.abs(analytic - oracle)) <= 1e-10


def test_both_engines_label_random_antipodal_states_alike(monkeypatch):
    # one parity rule: where the labels are antipodal and the top eigenvector is odd,
    # lam_plus is the smaller eigenvalue, in the analytic table and in the Fock engine
    rng = np.random.default_rng(19)
    weights = rng.normal(size=(300, 2)) + 1j * rng.normal(size=(300, 2))
    labels = 1.5 * np.sqrt(rng.uniform(size=300)) * np.exp(2j * np.pi * rng.uniform(size=300))
    analytic, oracle = both_engines_lams(monkeypatch, weights, labels, [0.2, 0.6, 0.9, 0.991])
    assert np.max(np.abs(analytic - oracle)) <= 1e-10


@pytest.mark.parametrize("index", [0, 4])
def test_fock_bad_probability_exits_4_naming_the_time_index(tmp_path, monkeypatch, capsys, index):
    path = tmp_path / "fock.json"
    path.write_text(json.dumps(scenario(tmp_path, "fock", 1.0, t_max=0.5, points=6)))
    measure = fock.fock_measure

    def faulty(op, rho):
        values = np.array(measure(op, rho))
        values[index] = 1.5
        return values

    monkeypatch.setattr(fock, "fock_measure", faulty)
    assert cli.main(["run", "--config", str(path)]) == 4
    assert capsys.readouterr().err.rstrip().endswith(f"outside [0, 1]: 1.5 at time index {index}")


def test_fock_truncation_failure_names_the_time_index(tmp_path, monkeypatch, capsys):
    # a field label far beyond the cutoff at one grid time of one response; a gamma sweep
    # concatenates its values' grids, so its second value's row 3 is time index points + 3
    path = tmp_path / "fock.json"
    path.write_text(json.dumps(scenario(tmp_path, "fock", 1.0, t_max=0.5, points=6)))
    response = mc.lindblad.me_response
    sweep = ["--param", "gamma", "--values", "1.0,2.0"]
    for command, faulted, index in (["run"], 0, 3), (["sweep", *sweep], 1, 6 + 3):
        calls = []

        def faulty(gamma, times):
            g, depletion = response(gamma, times)
            if len(calls) == faulted:
                g[3] = 5.0
            calls.append(gamma)
            return g, depletion

        monkeypatch.setattr(mc.lindblad, "me_response", faulty)
        assert cli.main([command[0], "--config", str(path), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert "truncation rule" in err and err.rstrip().endswith(f"at time index {index}")


@pytest.mark.parametrize("engine", ["microscopic", "master", "fock"])
def test_a_sweep_failing_twice_reports_the_zero_state_on_every_engine(tmp_path, capsys, engine):
    # case B at phi = pi leaves the outcome-g state with zero probability, and |alpha0| = 1.78
    # needs n_max 28: every engine prepares every value's states before it damps any, so all
    # exit 3, the Fock engine before its truncation rule fails
    raw = scenario(tmp_path, engine, 1.7, "b", math.pi / 4)
    raw["alpha0"]["im"] = 0.51
    if engine == "fock":
        raw["fock"]["n_max"] = 27
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    argv = ["sweep", "--config", str(path), "--param", "phi", "--values", f"0.3,{math.pi!r}"]
    assert cli.main(argv) == 3
    assert "zero-probability preparation" in capsys.readouterr().err


@pytest.mark.parametrize("engine, param, responses", [
    pytest.param(engine, param, responses, id=f"{param}-{responses}" if engine == "microscopic"
                 else f"{engine}-{param}-{responses}")
    for engine in ("microscopic", "fock")
    for param, responses in (("phi", 1), ("alpha0_re", 1), ("gamma", 8))
])
def test_sweep_computes_the_response_once_per_band(tmp_path, monkeypatch, engine, param, responses):
    # phi and alpha0_re leave the band alone, so one eigendecomposition serves every value;
    # the fock engine damps at the master response, so it counts me_response calls, and it
    # damps every value's prepared vectors of one outcome in one call
    calls, damps = [], []
    module, name = (bathmod, "response") if engine == "microscopic" else (mc.lindblad, "me_response")
    response = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return response(*args)

    raw = scenario(tmp_path, engine, 1.2, "b", 0.7, t_max=2.0, points=21)
    if engine == "fock":
        raw["fock"]["n_max"] = 29  # alpha0 1.2 needs 22
    cfg = parse_scenario(raw)
    values = [0.4 + 0.1 * k for k in range(8)]
    monkeypatch.setattr(module, name, counted)
    damp = fock.damp
    monkeypatch.setattr(fock, "damp", lambda *args: damps.append(args) or damp(*args))
    swept = runner.run_sweep(cfg, param, values)
    assert len(calls) == responses
    assert len(damps) == (2 if engine == "fock" else 0)
    fresh = [runner.run_scenario(config.apply_sweep_value(cfg, param, v)) for v in values]
    assert [v for v, _ in swept] == values
    assert [as_rows(table) for _, table in swept] == [as_rows(table) for table in fresh]


@pytest.mark.parametrize("case, phi", [("a", math.pi), ("b", math.pi / 4)])
@pytest.mark.parametrize("engine, param", [
    (engine, param) for engine in ("microscopic", "master", "fock")
    for param in ("phi", "alpha0_re", "gamma")
])
def test_sweep_stack_equals_each_run_bit_for_bit(tmp_path, engine, param, case, phi):
    # one table stack over every swept value, against one run per value; the phi
    # values mix merged terms at pi (case A at pi, case B at pi/2) with three-term operators
    raw = scenario(tmp_path, engine, 1.2, case, phi, t_max=2.0, points=11)
    if engine == "fock":
        raw["fock"]["n_max"] = 29
    merged = {"a": math.pi, "b": math.pi / 2}[case]
    values = {"phi": [0.4, 2.0, merged, -1.1], "alpha0_re": [0.3, 1.2, 1.9],
              "gamma": [0.5, 1.0, 2.5]}[param]
    cfg = parse_scenario(raw)
    swept = runner.run_sweep(cfg, param, values)
    for value, table in swept:
        own = runner.run_scenario(config.apply_sweep_value(cfg, param, value))
        assert list(table) == list(own)
        for name, column in table.items():  # bytes, so NaN and signed zeros count
            assert column.dtype == own[name].dtype, name
            assert column.tobytes() == own[name].tobytes(), (value, name)


@pytest.mark.parametrize("fault, index", [("exponent", 6), ("trace", 3)])
def test_failed_check_exits_4_naming_the_time_index(tmp_path, monkeypatch, capsys, fault, index):
    path = tmp_path / "master.json"
    path.write_text(json.dumps(scenario(tmp_path, "master", 1.2, t_max=2.0, points=9)))
    if fault == "exponent":  # a positive real coherence exponent: |exp(K12)| > 1
        density = mc.coherent.damped_density

        def faulty(states, g, depletion):  # one stack (time, protocol, outcome)
            rho = density(states, g, depletion)
            expo = np.array(rho.expo)
            expo[index, ..., 0, 1] = expo[index, ..., 1, 0] = 2.0
            return mc.ReducedDensity(rho.labels, rho.weights, expo, rho.batch)

        monkeypatch.setattr(mc.coherent, "damped_density", faulty)
    else:  # a depletion that breaks |g|^2 + B = 1, and so the trace, at one time
        response = mc.lindblad.me_response

        def faulty(gamma, times):
            g, depletion = response(gamma, times)
            depletion[index] *= 0.5
            return g, depletion

        monkeypatch.setattr(mc.lindblad, "me_response", faulty)
    assert cli.main(["run", "--config", str(path)]) == 4
    assert capsys.readouterr().err.rstrip().endswith(f"at time index {index}")


@pytest.mark.parametrize("engine, index", [
    ("microscopic", 2), ("microscopic", 9 + 3), ("master", 2), ("master", 9 + 3),
])
def test_compare_names_a_failed_row_by_its_index_in_the_stack(
        tmp_path, monkeypatch, capsys, engine, index):
    # rows count the micro grid, the micro slope grid, then the same two for master;
    # index 9 + 3 is the fourth slope-grid time after the 9-point grid
    raw = scenario(tmp_path, "microscopic", 1.2, t_max=2.0, points=9)
    raw["master"] = {"gamma": 1.0}
    path = tmp_path / "compare.json"
    path.write_text(json.dumps(raw))
    module, name = (bathmod, "response") if engine == "microscopic" else (mc.lindblad, "me_response")
    response = getattr(module, name)

    def faulty(params, times):  # a depletion that breaks |g|^2 + B = 1, and so the trace
        g, depletion = response(params, times)
        depletion[index] *= 0.5
        return g, depletion

    monkeypatch.setattr(module, name, faulty)
    assert cli.main(["compare", "--config", str(path)]) == 4
    stacked = index + (9 + len(runner.SLOPE_GRID) if engine == "master" else 0)
    assert capsys.readouterr().err.rstrip().endswith(f"at time index {stacked}")


@pytest.mark.parametrize("case, phi", [("a", math.pi), ("b", math.pi / 4)])
def test_fock_gamma_b_is_accurate_or_nan_to_36_tc(tmp_path, case, phi):
    # the label-basis coherence loses digits like eps / det(S)^2 as the labels
    # damp together; the engine writes NaN rather than a value off by more than 1e-6
    def rows(engine):
        return as_rows(runner.run_scenario(
            parse_scenario(scenario(tmp_path, engine, 1.0, case, phi, t_max=36.0, points=73))
        ))

    finite = 0
    for f, m in zip(rows("fock"), rows("master")):
        if math.isnan(f.gamma_b_abs):
            assert math.isnan(f.gamma_b_arg) and f.t > 4.0
            continue
        finite += 1
        assert abs(f.gamma_b_abs - m.gamma_b_abs) <= 1e-6 * m.gamma_b_abs, f.t
        assert abs(f.gamma_b_arg - m.gamma_b_arg) <= 1e-6, f.t
    assert 8 < finite < 73
