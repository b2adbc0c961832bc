"""Bath discretization, exact amplitude flow, and damping diagnostics."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case
from mesocat import bath as bathmod
from reference import excitation_sum, gamma_a, gamma_b, occupations


def odd_cat(alpha0=1.0 + 0j):
    params = mc.ProtocolParams(Case.CASE_A, alpha0, math.pi)
    return mc.prepare(params, Out.E)


# ---------------------------------------------------------------------------
# discretization


def test_flat_band_canonical_values():
    spec = mc.discretize_flat_band(1.0, 201, 50.0)
    assert spec.couplings[0] == pytest.approx(math.sqrt(0.5 / (2 * math.pi)), rel=1e-12)
    assert spec.couplings[0] == pytest.approx(0.282095, abs=1e-6)
    assert spec.recurrence_time == pytest.approx(4 * math.pi, rel=1e-12)
    assert spec.detunings[100] == 0.0
    assert np.all(np.diff(spec.detunings) > 0)


def test_flat_band_narrow_is_valid_but_warns():
    with pytest.warns(UserWarning):
        spec = mc.discretize_flat_band(1.0, 3, 5.0)
    assert spec.recurrence_time == pytest.approx(2 * math.pi / 5.0, rel=1e-12)


@pytest.mark.parametrize(
    "gamma,modes,width",
    [(1.0, 2, 1.0), (1.0, 4, 20.0), (1.0, 1, 20.0), (1.0, 201, 0.0), (-1.0, 201, 50.0)],
)
def test_flat_band_invalid_arguments(gamma, modes, width):
    with pytest.raises(mc.InvalidArgumentError):
        mc.discretize_flat_band(gamma, modes, width)


# ---------------------------------------------------------------------------
# exact propagation


def test_propagate_initial_conditions(flat_band_201):
    g, f = mc.propagate(flat_band_201, 0.0)
    assert g == 1.0 + 0.0j
    assert np.all(f == 0.0)


def test_propagate_single_resonant_mode_analytic(resonant_single_mode):
    for t in (0.1, 0.7, 2.3):
        g, f = mc.propagate(resonant_single_mode, t)
        assert g == pytest.approx(math.cos(0.7 * t), abs=1e-12)
        assert f[0] == pytest.approx(-1j * math.sin(0.7 * t), abs=1e-12)


def test_propagate_unitarity(flat_band_201):
    for t in np.linspace(0.0, 3.0, 13):
        g, f = mc.propagate(flat_band_201, t)
        assert abs(g) ** 2 + np.sum(np.abs(f) ** 2) == pytest.approx(1.0, abs=1e-9)


def test_response_matches_propagate_over_a_grid(flat_band_201):
    times = np.array([0.0, 0.01, 0.3, 1.7, 40.0])
    g, depletion = mc.response(flat_band_201, times)
    assert g[0] == 1.0 and depletion[0] == 0.0
    for t, g_t, b_t in zip(times, g, depletion):
        g_ref, f_ref = mc.propagate(flat_band_201, t)
        assert abs(g_t - g_ref) < 1e-13
        assert abs(b_t - np.sum(np.abs(f_ref) ** 2)) < 1e-13
        assert abs(g_t) ** 2 + b_t == pytest.approx(1.0, abs=1e-12)


def eigh_response(spec, times):
    """(g, B) from eigh of the one-excitation matrix, B summed over the modes (reference).

    eigh's eigenvalues are off by about eps |H|, a phase error that grows with t.
    Each is replaced by the Rayleigh quotient v^T H v / v^T v of its vector, in
    long double, whose error is second order in the vector's; the phases are
    taken there too.  The arrowhead H = (0, c^T; c, diag(w)) gives Hv in O(M^2).
    """
    h = spec.one_excitation_matrix()
    _, v = np.linalg.eigh(h)
    hl, vl = h.astype(np.longdouble), v.astype(np.longdouble)
    hv = np.diag(hl)[:, None] * vl
    hv[0] += hl[0, 1:] @ vl[1:]
    hv[1:] += np.multiply.outer(hl[1:, 0], vl[0])
    lam = (vl * hv).sum(axis=0) / (vl * vl).sum(axis=0)
    phases = np.exp(-1j * np.multiply.outer(lam, np.asarray(times, dtype=np.longdouble)))
    amp = v @ (phases.astype(complex) * v[0][:, None])
    return amp[0], np.sum(np.abs(amp[1:]) ** 2, axis=0)


# detunings out of order; COINCIDENT repeats 0.5 and -1.0 twice and 3.0 three times
UNSORTED = (np.array([3.0, -1.0, 0.5, 2.0, -2.5, 0.0, 1.5]),
            np.array([0.3, 0.2, 0.4, 0.1, 0.5, 0.25, 0.15]))
COINCIDENT = (np.array([0.5, 3.0, -1.0, 0.5, 3.0, 2.0, -1.0, 3.0]),
              np.array([0.3, 0.2, 0.4, 0.1, 0.5, 0.25, 0.15, 0.35]))
RESPONSE_CASES = {
    "1-mode": lambda: mc.BathSpec(np.array([0.0]), np.array([0.7]), 1.0),
    "11-modes": lambda: mc.discretize_flat_band(1.0, 11, 12.0),
    "201-modes": lambda: mc.discretize_flat_band(1.0, 201, 50.0),
    # eigh's residues v_0^2 put its g off by 3.6e-14 here, and by 8e-14 at W = 500
    "2001-modes": lambda: mc.discretize_flat_band(1.0, 2001, 50.0),
    "unsorted": lambda: mc.BathSpec(*UNSORTED, 1.0),
    "coincident": lambda: mc.BathSpec(*COINCIDENT, 1.0),
}


@pytest.mark.parametrize("case", list(RESPONSE_CASES))
def test_response_matches_eigh_of_the_one_excitation_matrix(case):
    spec = RESPONSE_CASES[case]()
    times = np.linspace(0.0, 40.0, 81)
    g, depletion = mc.response(spec, times)
    g_ref, b_ref = eigh_response(spec, times)
    assert np.max(np.abs(g - g_ref)) < 1e-13
    assert np.max(np.abs(depletion - b_ref)) < 1e-13
    assert g[0] == 1.0 and depletion[0] == 0.0
    if case == "1-mode":
        np.testing.assert_allclose(g, np.cos(0.7 * times), rtol=0, atol=1e-13)
        np.testing.assert_allclose(depletion, np.sin(0.7 * times) ** 2, rtol=0, atol=1e-13)


# roots far from their nearest detuning, or next to a weakly coupled one; a moment bound
# of 32 ulps of r_j lam_j^n fails on far-band and far-mode (n = 1) and on weak-poles (n = 0)
HARD_BATHS = {
    "far-band": (np.linspace(997.0, 1003.0, 41), np.full(41, 0.05)),
    "far-mode": (np.array([300.0]), np.array([0.01])),
    "cluster": (np.array([-1.0, -1.0 + 1e-10, -1.0 + 2e-10, 2.0, 2.0 + 1e-11, 5.0]),
                np.array([0.3, 0.2, 0.1, 0.4, 0.5, 0.05])),
    "weak-poles": (np.array([56.064, -1.014, 71.218, -0.179, 0.129, -1.149]),
                   np.array([2.7539, 0.1044, 0.0004, 0.9542, 0.0051, 0.0007])),
}


@pytest.mark.parametrize("case", list(HARD_BATHS))
def test_moment_check_passes_roots_that_are_hard_to_place(case):
    # eigh itself is good to a few eps ||H|| in each eigenvalue, so to that times t in g
    spec = mc.BathSpec(*HARD_BATHS[case], 1.0)
    times = np.linspace(0.0, 20.0, 41)
    g, depletion = mc.response(spec, times)
    g_ref, b_ref = eigh_response(spec, times)
    norm = np.abs(np.linalg.eigvalsh(spec.one_excitation_matrix())).max()
    bound = 4.0 * np.finfo(float).eps * norm * times[-1]
    assert np.max(np.abs(g - g_ref)) < bound and np.max(np.abs(depletion - b_ref)) < bound


def test_coincident_detunings_act_as_one_merged_mode():
    det, cpl = COINCIDENT
    merged_det = np.unique(det)
    merged_cpl = np.array([math.sqrt(np.sum(cpl[det == d] ** 2)) for d in merged_det])
    times = np.linspace(0.0, 40.0, 81)
    g, depletion = mc.response(mc.BathSpec(det, cpl, 1.0), times)
    g_merged, b_merged = mc.response(mc.BathSpec(merged_det, merged_cpl, 1.0), times)
    assert np.max(np.abs(g - g_merged)) < 1e-14
    assert np.max(np.abs(depletion - b_merged)) < 1e-14


def test_response_blocks_join_across_block_boundaries(monkeypatch):
    # roots in three blocks, the last one shorter; a zero time after the first
    modes = 2 * bathmod.ROOT_BLOCK + 1
    times = np.linspace(0.0, 3.0, 13)
    times[7] = 0.0
    g, depletion = mc.response(mc.discretize_flat_band(1.0, modes, 40.0), times)
    assert g[7] == 1.0 and depletion[7] == 0.0
    monkeypatch.setattr(bathmod, "ROOT_BLOCK", modes + 1)
    spec = mc.discretize_flat_band(1.0, modes, 40.0)
    g_one, b_one = mc.response(spec, times)  # every root in one block
    g_ref, b_ref = eigh_response(spec, times)
    assert np.max(np.abs(g - g_one)) < 1e-15 and np.max(np.abs(depletion - b_one)) < 1e-15
    assert np.max(np.abs(g - g_ref)) < 1e-13 and np.max(np.abs(depletion - b_ref)) < 1e-13


def test_response_memory_stays_below_one_dense_matrix():
    import tracemalloc

    spec = mc.discretize_flat_band(1.0, 2001, 500.0)
    times = np.linspace(0.0, 4.0, 201)
    tracemalloc.start()
    try:
        mc.response(spec, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (spec.n_modes + 1) ** 2 * 8


@pytest.mark.parametrize("times", [[-0.1, 0.5], [0.2, math.inf], [[0.1]]])
def test_response_rejects_bad_grids(flat_band_201, times):
    with pytest.raises(mc.InvalidArgumentError):
        mc.response(flat_band_201, times)


def test_propagate_negative_time_rejected(flat_band_201):
    with pytest.raises(mc.InvalidArgumentError):
        mc.propagate(flat_band_201, -0.1)


def test_flat_band_wigner_weisskopf_decay(flat_band_201):
    for t in np.linspace(0.1, 3.0, 30):
        g, _ = mc.propagate(flat_band_201, t)
        assert abs(g) == pytest.approx(math.exp(-0.5 * t), rel=0.02)


# ---------------------------------------------------------------------------
# matrix-exponential cross-check


def expm_response(spec, t):
    """(g, f): column zero of exp(-i H t) for the one-excitation matrix, by scipy's expm."""
    column = expm(-1j * t * spec.one_excitation_matrix())[:, 0]
    return column[0], column[1:]


def test_integrator_matches_exact(flat_band_201, resonant_single_mode):
    small = mc.discretize_flat_band(1.0, 11, 12.0)
    coincident = mc.BathSpec(*COINCIDENT, 1.0)
    cases = ((resonant_single_mode, 1.3), (small, 0.8), (flat_band_201, 0.7), (coincident, 2.1))
    for spec, t in cases:
        g_ref, f_ref = expm_response(spec, t)
        g, f = mc.propagate(spec, t)
        assert abs(g - g_ref) < 1e-12
        assert np.max(np.abs(f - f_ref)) < 1e-12


def test_integrator_resonant_quarter_period(resonant_single_mode):
    t = (math.pi / 2) / 0.7
    g_ref, f_ref = expm_response(resonant_single_mode, t)
    assert abs(g_ref) < 1e-12
    assert abs(mc.propagate(resonant_single_mode, t)[0]) < 1e-12
    assert abs(f_ref[0]) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# state evolution


def test_evolve_identity_at_zero(resonant_single_mode):
    state = odd_cat()
    out = mc.evolve(state, resonant_single_mode, 0.0)
    for before, after in zip(state.branches, out.branches):
        assert after.field == pytest.approx(before.field, abs=1e-14)
        assert after.weight == before.weight
    assert out.normalized


def test_evolve_single_branch_stays_pure(flat_band_201):
    state = mc.normalize(mc.FieldBathSuperposition((mc.Branch(1.0, 1.2 + 0.3j),)))
    out = mc.evolve(state, flat_band_201, 0.9)
    rho = mc.reduce(out)
    assert mc.purity(rho) == pytest.approx(1.0, abs=1e-12)


def test_evolve_resonant_quarter_period_swaps_field_into_bath(resonant_single_mode):
    alpha0 = 1.0 + 0j
    t = (math.pi / 2) / 0.7
    out = mc.evolve(odd_cat(alpha0), resonant_single_mode, t)
    for br in out.branches:
        assert abs(br.field) < 1e-12
        assert abs(br.bath[0]) == pytest.approx(1.0, abs=1e-12)
    assert gamma_b(out) == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_evolve_norm_and_occupation_conserved(flat_band_201):
    state = odd_cat(1.5 + 0j)
    n0 = abs(1.5) ** 2  # both branches carry |alpha0|^2 quanta
    for t in (0.2, 0.8, 1.9):
        out = mc.evolve(state, flat_band_201, t)
        assert mc.coherent.squared_norm(out) == pytest.approx(1.0, abs=1e-10)
        n_field, n_bath = occupations(out)
        assert n_field + n_bath == pytest.approx(
            sum(occupations(mc.evolve(state, flat_band_201, 0.0))), abs=1e-8
        )


def test_evolve_rejects_occupied_bath(resonant_single_mode):
    state = mc.normalize(
        mc.FieldBathSuperposition((mc.Branch(1.0, 1.0, (0.5 + 0j,)),))
    )
    with pytest.raises(mc.UnsupportedInputError):
        mc.evolve(state, resonant_single_mode, 0.1)


def test_evolve_rejects_mismatched_bath_size(resonant_single_mode):
    state = mc.normalize(
        mc.FieldBathSuperposition((mc.Branch(1.0, 1.0, (0j, 0j)),))
    )
    with pytest.raises(mc.UnsupportedInputError):
        mc.evolve(state, resonant_single_mode, 0.1)


def test_evolve_requires_normalized(resonant_single_mode):
    state = mc.FieldBathSuperposition((mc.Branch(1.0, 1.0),))
    with pytest.raises(mc.InvalidArgumentError):
        mc.evolve(state, resonant_single_mode, 0.1)


# ---------------------------------------------------------------------------
# damping diagnostics


def test_gammas_at_time_zero(resonant_single_mode):
    out = mc.evolve(odd_cat(), resonant_single_mode, 0.0)
    assert gamma_b(out) == pytest.approx(1.0, abs=1e-14)
    assert excitation_sum(out) == pytest.approx(0.0, abs=1e-14)
    assert gamma_a(out) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_gamma_conservation_identity(flat_band_201):
    state = odd_cat(1.4 + 0j)
    ga_0 = gamma_a(mc.evolve(state, flat_band_201, 0.0))
    for t in np.linspace(0.0, 2.5, 11):
        out = mc.evolve(state, flat_band_201, t)
        assert gamma_a(out) * abs(gamma_b(out)) == pytest.approx(ga_0, abs=1e-10)


def test_gamma_diagnostics_need_two_branches(resonant_single_mode):
    single = mc.normalize(mc.FieldBathSuperposition((mc.Branch(1.0, 1.0, (0j,)),)))
    for fn in (gamma_a, gamma_b, excitation_sum):
        with pytest.raises(mc.InvalidArgumentError):
            fn(single)


def test_short_time_coherence_loss_is_quadratic(flat_band_201):
    ts = np.logspace(-3, -2, 9)
    losses = []
    for t in ts:
        out = mc.evolve(odd_cat(1.0 + 0j), flat_band_201, t)
        losses.append(1.0 - abs(gamma_b(out)))
    slope = np.polyfit(np.log(ts), np.log(losses), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)
