"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s or look at captured
output).  Criterion 9 compares the exact flat band (201 modes, half-width
W = 50 gamma) with the master equation of that band's own Markov limit:
eta_me at rate gamma' = gamma / (1 - eps), evaluated at t - tau with the
initial slip tau = ln(Z^2) / gamma', Z = 1 / (1 - eps), eps = gamma / (pi W).
Both come from the band's second-sheet decay pole, computed from gamma and
W alone; the gap is 0.0085 against the bound 0.02.  The bare master
equation at rate gamma is still reported: its gap is 0.032 near
t = 0.14 t_c, where the ~1.3 percent offset Z^2 in |g|^2 is amplified by
2|alpha0|^2 = 6.6, and it shrinks like 1/W (see the acceptance-status
section of the README).
"""

import json
import math

import numpy as np
import pytest

import mesocat as mc
from mesocat import cli, fock
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case

GAMMA = 1.0
HALF_BANDWIDTH = 50.0  # of the flat_band_201 fixture, in units of gamma
ALPHA33 = complex(math.sqrt(3.3), 0.0)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status} {detail}")
    assert ok, f"{criterion}: {detail}"


def case_a_pi(alpha0):
    return mc.ProtocolParams(Case.CASE_A, alpha0, math.pi)


def evolved_density(params, outcome, spec, t):
    return mc.reduce(mc.evolve(mc.prepare(params, outcome), spec, t))


# ---------------------------------------------------------------------------


def test_criterion_1_trace_and_positivity(flat_band_201):
    rng = np.random.default_rng(42)
    mp = mc.MasterParams(GAMMA)
    checked = 0
    worst_trace = 0.0
    while checked < 200:
        case = Case.CASE_A if rng.random() < 0.5 else Case.CASE_B
        alpha0 = complex(*rng.uniform(-math.sqrt(2), math.sqrt(2), 2))
        phi = rng.uniform(1e-3, math.pi)
        t = rng.uniform(0.0, 3.0) / GAMMA
        engine = "microscopic" if rng.random() < 0.5 else "master"
        params = mc.ProtocolParams(case, alpha0, phi)
        try:
            states = [mc.prepare(params, out) for out in (Out.E, Out.G)]
        except mc.ZeroStateError:
            continue
        for state in states:
            if engine == "microscopic":
                rho = mc.reduce(mc.evolve(state, flat_band_201, t))
            else:
                rho = mc.damped_density(state, *mc.me_response(mp, t))
            worst_trace = max(worst_trace, abs(rho.trace() - 1.0))
            spectrum = mc.eigenvalues(rho)  # raises PositivityError below -1e-10
            assert all(0.0 <= lam <= 1.0 for lam in spectrum.eigenvalues)
        checked += 1
    report(
        "1 trace/positivity (200 scenarios)",
        worst_trace <= 1e-10,
        f"max |trace-1| = {worst_trace:.2e}",
    )


def test_criterion_2_conservation(flat_band_201):
    params = case_a_pi(1.3 + 0.2j)
    state = mc.prepare(params, Out.E)
    ga_0 = mc.gamma_a(mc.evolve(state, flat_band_201, 0.0))
    worst_gamma = worst_unitarity = 0.0
    for t in np.linspace(0.0, 3.0, 61):
        out = mc.evolve(state, flat_band_201, t)
        worst_gamma = max(worst_gamma, abs(mc.gamma_a(out) * abs(mc.gamma_b(out)) - ga_0))
        g, f = mc.propagate(flat_band_201, t)
        worst_unitarity = max(worst_unitarity, abs(abs(g) ** 2 + np.sum(np.abs(f) ** 2) - 1.0))
    report(
        "2 conservation identities",
        worst_gamma <= 1e-10 and worst_unitarity <= 1e-9,
        f"max |Ga*|Gb|-Ga0| = {worst_gamma:.2e}, max unitarity defect = {worst_unitarity:.2e}",
    )


def test_criterion_3_closed_form_eigenvalues(flat_band_201):
    worst = 0.0
    for alpha0 in (0.8 + 0j, 1.3 + 0j, 1.8 + 0j):
        params = case_a_pi(alpha0)
        ga_0 = math.exp(-2.0 * abs(alpha0) ** 2)
        for outcome in (Out.E, Out.G):
            state = mc.prepare(params, outcome)
            # exact {0, 1} at t = 0
            lam0 = mc.eigenvalues_case_a(ga_0, 1.0, ga_0, outcome)
            assert abs(sorted(lam0)[0] - 0.0) <= 1e-12 and abs(sorted(lam0)[1] - 1.0) <= 1e-12
            numeric0 = mc.eigenvalues(mc.reduce(state)).eigenvalues
            assert abs(numeric0[0] - 1.0) <= 1e-12 and abs(numeric0[1]) <= 1e-12
            for t in np.linspace(0.0, 3.0, 31):
                evolved = mc.evolve(state, flat_band_201, t)
                closed = mc.eigenvalues_case_a(
                    mc.gamma_a(evolved), abs(mc.gamma_b(evolved)), ga_0, outcome
                )
                numeric = mc.eigenvalues(mc.reduce(evolved)).eigenvalues
                diff = max(
                    abs(a - b)
                    for a, b in zip(sorted(closed, reverse=True), numeric[:2])
                )
                worst = max(worst, diff)
    report("3 closed-form eigenvalues", worst <= 1e-9, f"max deviation = {worst:.2e}")


def test_criterion_4_measurement_identities(flat_band_201):
    from mesocat.coherent import phase_op_matrix_element

    worst_prob = worst_elem = 0.0
    for alpha0 in (1.0 + 0j, 1.6 + 0j):
        params = case_a_pi(alpha0)
        ga_0 = math.exp(-2.0 * abs(alpha0) ** 2)
        mp_e = mc.measurement_product(params, Out.E)
        st_e, st_g = mc.prepare(params, Out.E), mc.prepare(params, Out.G)
        for t in np.linspace(0.0, 2.5, 11):
            se, sg = mc.evolve(st_e, flat_band_201, t), mc.evolve(st_g, flat_band_201, t)
            rho_e, rho_g = mc.reduce(se), mc.reduce(sg)
            rec = mc.conditional_probabilities(rho_e, rho_g, params)
            lam_e = mc.eigenvalues_case_a(mc.gamma_a(se), abs(mc.gamma_b(se)), ga_0, Out.E)[1]
            lam_g = mc.eigenvalues_case_a(mc.gamma_a(sg), abs(mc.gamma_b(sg)), ga_0, Out.G)[1]
            worst_prob = max(
                worst_prob,
                abs(rec.p_ee - lam_e),
                abs(rec.p_ge - lam_g),
                abs(rec.eta - (lam_e - lam_g)),
            )
            for rho in (rho_e, rho_g):
                spec = mc.eigenvalues(rho)
                elems = sorted(
                    phase_op_matrix_element(mp_e, spec.labels, c, c).real
                    for c in spec.eigenvectors
                )
                worst_elem = max(worst_elem, abs(elems[0]), abs(elems[1] - 1.0))
    report(
        "4 measurement identities (case a, phi=pi)",
        worst_prob <= 1e-9 and worst_elem <= 1e-10,
        f"max prob dev = {worst_prob:.2e}, max matrix-element dev = {worst_elem:.2e}",
    )


def test_criterion_5_master_equation_closed_form():
    mp = mc.MasterParams(GAMMA)
    params = case_a_pi(ALPHA33)
    st_e, st_g = mc.prepare(params, Out.E), mc.prepare(params, Out.G)
    worst = 0.0
    for t in np.linspace(0.0, 0.5, 26):
        rec = mc.conditional_probabilities(
            mc.damped_density(st_e, *mc.me_response(mp, t)),
            mc.damped_density(st_g, *mc.me_response(mp, t)),
            params,
        )
        target = math.exp(-2.0 * 3.3 * (1.0 - math.exp(-GAMMA * t)))
        worst = max(worst, abs(rec.eta - target))

    fit_ts = np.linspace(1e-3, 0.02, 10)
    etas = []
    for t in fit_ts:
        rec = mc.conditional_probabilities(
            mc.damped_density(st_e, *mc.me_response(mp, t)),
            mc.damped_density(st_g, *mc.me_response(mp, t)),
            params,
        )
        etas.append(rec.eta)
    slope = np.polyfit(fit_ts, np.log(etas), 1)[0]
    t_d = -1.0 / slope  # in units of t_c
    target_ratio = 1.0 / (2.0 * 3.3)
    ratio_err = abs(t_d - target_ratio) / target_ratio
    report(
        "5 master-equation closed form",
        worst <= 1e-4 and ratio_err <= 0.02,
        f"max |eta - closed form| = {worst:.2e}, t_d/t_c off by {100 * ratio_err:.2f}%",
    )


def test_criterion_6_oracle_equivalence(resonant_single_mode):
    worst = 0.0
    two_mode = mc.BathSpec(np.array([0.0, 1.2]), np.array([0.45, 0.35]), target_gamma=1.0)
    scenarios = [
        (case_a_pi(1.2 + 0j), resonant_single_mode, 0.9),
        (case_a_pi(1.4 + 0j), two_mode, 0.7),
        (mc.ProtocolParams(Case.CASE_B, 1.1 + 0j, 0.8), resonant_single_mode, 1.1),
    ]
    for params, spec, t in scenarios:
        n_max = fock.required_n_max(params.alpha0)
        rhos_exact, rhos_oracle = {}, {}
        for outcome in (Out.E, Out.G):
            state = mc.prepare(params, outcome)
            rhos_exact[outcome] = mc.reduce(mc.evolve(state, spec, t))
            vec = fock.superposition_vector(state, n_max)
            out = fock.hamiltonian_evolve(vec, spec, t, n_max_per_mode=n_max)
            rhos_oracle[outcome] = out.reduced_field_density()
        for outcome in (Out.E, Out.G):
            for second in (Out.E, Out.G):
                op = mc.measurement_product(params, second)
                p_exact = mc.expectation(op, rhos_exact[outcome]).real
                p_oracle = fock.fock_measure(op, rhos_oracle[outcome]).real
                worst = max(worst, abs(p_exact - p_oracle))
            lam_exact = mc.eigenvalues(rhos_exact[outcome]).eigenvalues
            lam_oracle = np.linalg.eigvalsh(rhos_oracle[outcome].matrix)[::-1][:2]
            worst = max(worst, max(abs(a - b) for a, b in zip(lam_exact, lam_oracle)))
            worst = max(
                worst,
                abs(mc.purity(rhos_exact[outcome]) - fock.fock_purity(rhos_oracle[outcome])),
            )
        rec = mc.conditional_probabilities(rhos_exact[Out.E], rhos_exact[Out.G], params)
        eta_oracle = (
            fock.fock_measure(mc.measurement_product(params, Out.E), rhos_oracle[Out.E]).real
            - fock.fock_measure(mc.measurement_product(params, Out.E), rhos_oracle[Out.G]).real
        )
        worst = max(worst, abs(rec.eta - eta_oracle))

    # master-equation closed form vs the brute-force Lindblad Kraus map
    mp = mc.MasterParams(GAMMA)
    params = case_a_pi(1.2 + 0j)
    n_max = fock.required_n_max(params.alpha0)
    for outcome in (Out.E, Out.G):
        state = mc.prepare(params, outcome)
        rho0 = fock.density_from_vector(fock.superposition_vector(state, n_max))
        for t in (0.25, 0.6):
            rho_me = mc.damped_density(state, *mc.me_response(mp, t))
            rho_oracle = fock.damp(rho0, *mc.me_response(mp, t))
            for second in (Out.E, Out.G):
                op = mc.measurement_product(params, second)
                worst = max(
                    worst,
                    abs(mc.expectation(op, rho_me).real - fock.fock_measure(op, rho_oracle).real),
                )
            lam_me = mc.eigenvalues(rho_me).eigenvalues
            lam_oracle = np.linalg.eigvalsh(rho_oracle.matrix)[::-1][:2]
            worst = max(worst, max(abs(a - b) for a, b in zip(lam_me, lam_oracle)))
            worst = max(worst, abs(mc.purity(rho_me) - fock.fock_purity(rho_oracle)))
    report("6 oracle equivalence", worst <= 1e-6, f"max deviation = {worst:.2e}")


def test_criterion_7_short_time_contrast(flat_band_201):
    params = case_a_pi(ALPHA33)
    state = mc.prepare(params, Out.E)
    ts = np.logspace(-3, -2, 9)
    micro = [
        mc.idempotency_defect(mc.reduce(mc.evolve(state, flat_band_201, t))) for t in ts
    ]
    mp = mc.MasterParams(GAMMA)
    master = [mc.idempotency_defect(mc.damped_density(state, *mc.me_response(mp, t))) for t in ts]
    slope_micro = np.polyfit(np.log(ts), np.log(micro), 1)[0]
    slope_master = np.polyfit(np.log(ts), np.log(master), 1)[0]
    report(
        "7 short-time contrast",
        abs(slope_micro - 2.0) <= 0.1 and abs(slope_master - 1.0) <= 0.1,
        f"micro slope = {slope_micro:.3f}, master slope = {slope_master:.3f}",
    )


def test_criterion_8_small_overlap_case_b(flat_band_201):
    params = mc.ProtocolParams(Case.CASE_B, 3.0 + 0j, math.pi / 4)
    st_e, st_g = mc.prepare(params, Out.E), mc.prepare(params, Out.G)
    worst = 0.0
    checked = 0
    for t in np.linspace(0.0, 0.25, 11):
        se = mc.evolve(st_e, flat_band_201, t)
        sg = mc.evolve(st_g, flat_band_201, t)
        if abs(mc.overlap(se.branches[0].field, se.branches[1].field)) >= 1e-3:
            continue
        rec = mc.conditional_probabilities(mc.reduce(se), mc.reduce(sg), params)
        eta_approx = mc.small_overlap_case_b(mc.excitation_sum(se), params.phi)[0]
        worst = max(worst, abs(rec.eta - eta_approx))
        checked += 1

    params_half = mc.ProtocolParams(Case.CASE_B, 1.5 + 0j, math.pi / 2)
    mp_e = mc.measurement_product(params_half, Out.E)
    worst_half = 0.0
    st_half = mc.prepare(params_half, Out.E)
    for t in np.linspace(0.0, 2.0, 9):
        rho = mc.reduce(mc.evolve(st_half, flat_band_201, t))
        worst_half = max(worst_half, abs(mc.expectation(mp_e, rho).real - 0.5))
    report(
        "8 small-overlap case b",
        checked >= 10 and worst <= 5e-3 and worst_half <= 1e-10,
        f"max |eta - approx| = {worst:.2e} over {checked} pts, max |P_ee - 1/2| = {worst_half:.2e}",
    )


def test_criterion_9_regime_agreement(flat_band_201):
    """Exact flat band against the master equation of its own Markov limit.

    A flat band of half-width W with golden-rule couplings has a decay pole
    on the second sheet: with eps = gamma / (pi W) the self-energy near
    resonance is -i gamma / 2 + eps z, so |g(t)|^2 ~ Z^2 exp(-gamma' t) with
    gamma' = gamma / (1 - eps) and residue Z = 1 / (1 - eps).  This is the
    bare master equation at rate gamma' delayed by the initial slip
    tau = ln(Z^2) / gamma' (Suarez, Silbey & Oppenheim, J. Chem. Phys. 97,
    5101 (1992)).  Both come from (gamma, W) alone, never from engine
    output.  The gap to the bare master equation at rate gamma (about
    0.032 here, shrinking like 1/W) is reported alongside.
    """
    eps = GAMMA / (math.pi * HALF_BANDWIDTH)
    gamma_markov = GAMMA / (1.0 - eps)
    slip = -2.0 * math.log1p(-eps) / gamma_markov  # ln(Z^2) / gamma'
    mp_bare = mc.MasterParams(GAMMA)
    mp_markov = mc.MasterParams(gamma_markov)
    params = case_a_pi(ALPHA33)
    st_e, st_g = mc.prepare(params, Out.E), mc.prepare(params, Out.G)
    gap = bare_gap = 0.0
    for t in np.linspace(0.1, 2.0, 39):
        eta_micro = mc.conditional_probabilities(
            mc.reduce(mc.evolve(st_e, flat_band_201, t)),
            mc.reduce(mc.evolve(st_g, flat_band_201, t)),
            params,
        ).eta
        eta_me = mc.conditional_probabilities(
            mc.damped_density(st_e, *mc.me_response(mp_markov, t - slip)),
            mc.damped_density(st_g, *mc.me_response(mp_markov, t - slip)),
            params,
        ).eta
        eta_bare = mc.conditional_probabilities(
            mc.damped_density(st_e, *mc.me_response(mp_bare, t)),
            mc.damped_density(st_g, *mc.me_response(mp_bare, t)),
            params,
        ).eta
        gap = max(gap, abs(eta_micro - eta_me))
        bare_gap = max(bare_gap, abs(eta_micro - eta_bare))
    report(
        "9 regime agreement",
        gap < 0.02,
        f"max |eta_micro - eta_me(gamma', t - tau)| = {gap:.4f} "
        f"(gamma' = {gamma_markov:.4f}, tau = {slip:.4f} t_c); "
        f"bare max |eta_micro - eta_me(gamma, t)| = {bare_gap:.4f}",
    )


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path, monkeypatch, capsys):
    out_path = tmp_path / "series.csv"
    good = {
        "case": "a",
        "alpha0": {"re": math.sqrt(2.0), "im": 0.0},
        "phi": math.pi,
        "engine": "master",
        "master": {"gamma": 1.0},
        "time": {"t_max_over_tc": 2.0, "points": 31},
        "output": {"format": "csv", "path": str(out_path)},
    }
    good_path = tmp_path / "good.json"
    good_path.write_text(json.dumps(good))
    assert cli.main(["run", "--config", str(good_path)]) == 0
    first = out_path.read_bytes()
    assert cli.main(["run", "--config", str(good_path)]) == 0
    identical = out_path.read_bytes() == first

    bad_schema = dict(good)
    bad_schema["engine"] = "microscopic"  # bath section missing
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad_schema))
    code_schema = cli.main(["run", "--config", str(bad_path)])

    zero_state = dict(good)
    zero_state["alpha0"] = {"re": 0.0, "im": 0.0}
    zero_path = tmp_path / "zero.json"
    zero_path.write_text(json.dumps(zero_state))
    code_zero = cli.main(["run", "--config", str(zero_path)])

    # positivity violations cannot be produced by any valid configuration
    # (both analytic engines are exactly positive), so the handler is
    # exercised by injecting the error under an otherwise-valid config
    def inject(cfg):
        raise mc.PositivityError("injected")

    monkeypatch.setattr(cli, "run_scenario", inject)
    code_positivity = cli.main(["run", "--config", str(good_path)])
    monkeypatch.undo()
    capsys.readouterr()

    report(
        "10 CLI determinism and exit codes",
        identical and code_schema == 2 and code_zero == 3 and code_positivity == 4,
        f"byte-identical={identical}, codes: schema={code_schema}, zero={code_zero}, "
        f"positivity={code_positivity} (injected; unreachable from valid configs)",
    )
