"""Bath discretization, exact amplitude flow, and damping diagnostics."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case
from mesocat import bath as bathmod
from reference import (
    eigh_response,
    evolve,
    excitation_sum,
    flow,
    gamma_a,
    gamma_b,
    hamiltonian_state,
    occupations,
    one_excitation_matrix,
    reduce,
)


def odd_cat(alpha0=1.0 + 0j):
    params = mc.ProtocolParams(Case.CASE_A, alpha0, math.pi)
    return mc.prepare(params, Out.E)


# ---------------------------------------------------------------------------
# discretization


SHAPE = r"bath must be a real \(2, M\) array: detunings over couplings"
BAD_BATHS = {
    "nested-rows": ([[[0.0, 1.0]], [[0.5, 0.5]]], SHAPE),
    "ragged": ([[0.0, 1.0], [0.5]], SHAPE),
    "one-row": ([0.0, 1.0], SHAPE),
    "three-rows": ([[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]], SHAPE),
    "no-mode": ([[], []], "bath needs at least one mode"),
    "nan": ([[0.0, math.nan], [0.5, 0.5]], "bath parameters must be finite"),
    "inf-coupling": ([[0.0, 1.0], [0.5, math.inf]], "bath parameters must be finite"),
    "zero-coupling": ([[0.0, 1.0], [0.5, 0.0]], "couplings must be positive"),
    "negative-coupling": ([[0.0, 1.0], [-0.5, 0.5]], "couplings must be positive"),
}
READERS = {
    "response": lambda bath: mc.response(bath, [0.5]),
    "recurrence_time": mc.recurrence_time,
    "spectrum": bathmod._spectrum,
}


@pytest.mark.parametrize("reader", list(READERS))
@pytest.mark.parametrize("case", list(BAD_BATHS))
def test_bath_rejections(case, reader):
    bath, message = BAD_BATHS[case]
    with pytest.raises(mc.InvalidArgumentError, match=f"^{message}$"):
        READERS[reader](bath)


def test_recurrence_time_of_one_mode_and_of_coincident_modes():
    assert mc.recurrence_time([[0.0], [0.7]]) == math.inf
    with pytest.raises(mc.InvalidArgumentError, match="^detunings must not all coincide$"):
        mc.recurrence_time([[0.5, 0.5, 0.5], [0.2, 0.3, 0.4]])


def test_flat_band_canonical_values():
    bath = mc.discretize_flat_band(1.0, 201, 50.0)
    detunings, couplings = bath
    assert bath.shape == (2, 201) and bath.dtype == float
    assert couplings[0] == pytest.approx(math.sqrt(0.5 / (2 * math.pi)), rel=1e-12)
    assert couplings[0] == pytest.approx(0.282095, abs=1e-6)
    assert mc.recurrence_time(bath) == pytest.approx(4 * math.pi, rel=1e-12)
    assert detunings[100] == 0.0
    assert np.all(np.diff(detunings) > 0)


def test_flat_band_narrow_is_valid_but_warns():
    with pytest.warns(UserWarning):
        bath = mc.discretize_flat_band(1.0, 3, 5.0)
    assert mc.recurrence_time(bath) == pytest.approx(2 * math.pi / 5.0, rel=1e-12)


@pytest.mark.parametrize(
    "gamma,modes,width",
    [(1.0, 2, 1.0), (1.0, 4, 20.0), (1.0, 1, 20.0), (1.0, 201, 0.0), (-1.0, 201, 50.0)],
)
def test_flat_band_invalid_arguments(gamma, modes, width):
    with pytest.raises(mc.InvalidArgumentError):
        mc.discretize_flat_band(gamma, modes, width)


# ---------------------------------------------------------------------------
# exact response


def test_propagate_initial_conditions(flat_band_201):
    g, depletion = mc.response(flat_band_201, [0.0])
    assert g[0] == 1.0 + 0.0j
    assert depletion[0] == 0.0


def test_propagate_single_resonant_mode_analytic(resonant_single_mode):
    times = np.array([0.1, 0.7, 2.3])
    g, depletion = mc.response(resonant_single_mode, times)
    g_ref, f_ref = flow(resonant_single_mode, times)
    for t, g_t, b_t, f_t in zip(times, g, depletion, f_ref[:, 0]):
        assert g_t == pytest.approx(math.cos(0.7 * t), abs=1e-12)
        assert b_t == pytest.approx(math.sin(0.7 * t) ** 2, abs=1e-12)
        assert f_t == pytest.approx(-1j * math.sin(0.7 * t), abs=1e-12)


def test_propagate_unitarity(flat_band_201):
    g, f = flow(flat_band_201, np.linspace(0.0, 3.0, 13))
    np.testing.assert_allclose(np.abs(g) ** 2 + np.sum(np.abs(f) ** 2, axis=1), 1.0, atol=1e-9)


def test_response_matches_propagate_over_a_grid(flat_band_201):
    # against the per-mode flow of the tests' eigh reference, B summed over the modes
    times = np.array([0.0, 0.01, 0.3, 1.7, 40.0])
    g, depletion = mc.response(flat_band_201, times)
    assert g[0] == 1.0 and depletion[0] == 0.0
    g_ref, b_ref = eigh_response(flat_band_201, times)
    for g_t, b_t, g_r, b_r in zip(g, depletion, g_ref, b_ref):
        assert abs(g_t - g_r) < 1e-13
        assert abs(b_t - b_r) < 1e-13
        assert abs(g_t) ** 2 + b_t == pytest.approx(1.0, abs=1e-12)


# detunings out of order; COINCIDENT repeats 0.5 and -1.0 twice and 3.0 three times
UNSORTED = np.array([[3.0, -1.0, 0.5, 2.0, -2.5, 0.0, 1.5],
                     [0.3, 0.2, 0.4, 0.1, 0.5, 0.25, 0.15]])
COINCIDENT = np.array([[0.5, 3.0, -1.0, 0.5, 3.0, 2.0, -1.0, 3.0],
                       [0.3, 0.2, 0.4, 0.1, 0.5, 0.25, 0.15, 0.35]])
RESPONSE_CASES = {
    "1-mode": lambda: np.array([[0.0], [0.7]]),
    "11-modes": lambda: mc.discretize_flat_band(1.0, 11, 12.0),
    "201-modes": lambda: mc.discretize_flat_band(1.0, 201, 50.0),
    # eigh's own residues v_0^2 put its g off by 3.6e-14 here, and by 8e-14 at W = 500;
    # one inverse-iteration step per vector brings that below 1e-15
    "2001-modes": lambda: mc.discretize_flat_band(1.0, 2001, 50.0),
    "unsorted": lambda: UNSORTED,
    "coincident": lambda: COINCIDENT,
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
    "far-band": np.array([np.linspace(997.0, 1003.0, 41), np.full(41, 0.05)]),
    "far-mode": np.array([[300.0], [0.01]]),
    "cluster": np.array([[-1.0, -1.0 + 1e-10, -1.0 + 2e-10, 2.0, 2.0 + 1e-11, 5.0],
                         [0.3, 0.2, 0.1, 0.4, 0.5, 0.05]]),
    "weak-poles": np.array([[56.064, -1.014, 71.218, -0.179, 0.129, -1.149],
                            [2.7539, 0.1044, 0.0004, 0.9542, 0.0051, 0.0007]]),
}


@pytest.mark.parametrize("case", list(HARD_BATHS))
def test_moment_check_passes_roots_that_are_hard_to_place(case):
    # eigh itself is good to a few eps ||H|| in each eigenvalue, so to that times t in g
    spec = HARD_BATHS[case]
    times = np.linspace(0.0, 20.0, 41)
    g, depletion = mc.response(spec, times)
    g_ref, b_ref = eigh_response(spec, times)
    norm = np.abs(np.linalg.eigvalsh(one_excitation_matrix(spec))).max()
    bound = 4.0 * np.finfo(float).eps * norm * times[-1]
    assert np.max(np.abs(g - g_ref)) < bound and np.max(np.abs(depletion - b_ref)) < bound


def test_coincident_detunings_act_as_one_merged_mode():
    det, cpl = COINCIDENT
    merged_det = np.unique(det)
    merged_cpl = np.array([math.sqrt(np.sum(cpl[det == d] ** 2)) for d in merged_det])
    times = np.linspace(0.0, 40.0, 81)
    g, depletion = mc.response(COINCIDENT, times)
    g_merged, b_merged = mc.response((merged_det, merged_cpl), times)
    assert np.max(np.abs(g - g_merged)) < 1e-14
    assert np.max(np.abs(depletion - b_merged)) < 1e-14


def test_response_blocks_join_across_block_boundaries(monkeypatch):
    # roots summed in three blocks, the last one shorter; a zero time after the first
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
    # roots solved in three blocks, the last one shorter: a band solves in blocks once its
    # roots outgrow the solver buffers of ROOT_BLOCK roots at 2001 modes, so at 512 roots
    # per block 1025 modes do; each root's iteration is its own, so no bit moves
    solved, solve = [], bathmod._solve_block
    monkeypatch.setattr(bathmod, "_solve_block", lambda w, c2, j: solved.append(j.size) or solve(w, c2, j))
    monkeypatch.setattr(bathmod, "ROOT_BLOCK", 512)
    blocked = bathmod._spectrum(mc.discretize_flat_band(1.0, 1025, 40.0))
    monkeypatch.setattr(bathmod, "ROOT_BLOCK", 1026)
    whole = bathmod._spectrum(mc.discretize_flat_band(1.0, 1025, 40.0))
    assert solved == [512, 512, 2, 1026]
    assert all(np.array_equal(a, b) for a, b in zip(blocked, whole))


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
    assert peak < (spec.shape[1] + 1) ** 2 * 8


@pytest.mark.parametrize("times", [[-0.1, 0.5], [0.2, math.inf], [[0.1]]])
def test_response_rejects_bad_grids(flat_band_201, times):
    with pytest.raises(mc.InvalidArgumentError):
        mc.response(flat_band_201, times)


def test_propagate_negative_time_rejected(flat_band_201):
    with pytest.raises(mc.InvalidArgumentError):
        mc.response(flat_band_201, [-0.1])


def test_flat_band_wigner_weisskopf_decay(flat_band_201):
    times = np.linspace(0.1, 3.0, 30)
    g, _ = mc.response(flat_band_201, times)
    np.testing.assert_allclose(np.abs(g), np.exp(-0.5 * times), rtol=0.02)


# ---------------------------------------------------------------------------
# matrix-exponential cross-check


def expm_response(spec, t):
    """(g, f): column zero of exp(-i H t) for the one-excitation matrix, by scipy's expm."""
    column = expm(-1j * t * one_excitation_matrix(spec))[:, 0]
    return column[0], column[1:]


def test_integrator_matches_exact(flat_band_201, resonant_single_mode):
    # the response and the per-mode flow of the eigh reference against expm
    small = mc.discretize_flat_band(1.0, 11, 12.0)
    cases = ((resonant_single_mode, 1.3), (small, 0.8), (flat_band_201, 0.7), (COINCIDENT, 2.1))
    for spec, t in cases:
        g_ref, f_ref = expm_response(spec, t)
        (g,), (depletion,) = mc.response(spec, [t])
        (g_modes,), (f,) = flow(spec, [t])
        assert abs(g - g_ref) < 1e-12 and abs(g_modes - g_ref) < 1e-12
        assert abs(depletion - np.sum(np.abs(f_ref) ** 2)) < 1e-12
        assert np.max(np.abs(f - f_ref)) < 1e-12


def test_integrator_resonant_quarter_period(resonant_single_mode):
    t = (math.pi / 2) / 0.7
    g_ref, f_ref = expm_response(resonant_single_mode, t)
    assert abs(g_ref) < 1e-12
    assert abs(mc.response(resonant_single_mode, [t])[0][0]) < 1e-12
    assert abs(f_ref[0]) == pytest.approx(1.0, abs=1e-12)


def test_reference_never_reads_the_secular_spectrum(monkeypatch):
    # the per-mode reference and the Hamiltonian oracle must fail where the engine does
    def unavailable(*args):
        raise AssertionError("a reference read the library's response")

    monkeypatch.setattr(bathmod, "_spectrum", unavailable)
    monkeypatch.setattr(bathmod, "response", unavailable)
    spec = mc.discretize_flat_band(1.0, 11, 12.0)
    state = odd_cat()
    rho = reduce(evolve(state, spec, 0.5))
    g, depletion = eigh_response(spec, [0.5])
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    assert abs(g[0]) ** 2 + depletion[0] == pytest.approx(1.0, abs=1e-12)
    two_modes = np.array([[0.0, 1.5], [0.5, 0.4]])
    vector = np.eye(1, 12)[0]  # one photon in the field
    psi = hamiltonian_state(vector, two_modes, 0.8, 2)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(AssertionError, match="library's response"):
        mc.response(spec, [0.5])


# ---------------------------------------------------------------------------
# per-mode evolution of the reference


def test_evolve_identity_at_zero(resonant_single_mode):
    state = odd_cat()
    out = evolve(state, resonant_single_mode, 0.0)
    for w, label, (weight, field, bath) in zip(*state, out):
        assert field == pytest.approx(label, abs=1e-14)
        assert weight == w
        assert np.max(np.abs(bath)) < 1e-14


def test_evolve_single_branch_stays_pure(flat_band_201):
    state = mc.normalize([[1.0], [1.2 + 0.3j]])
    rho = reduce(evolve(state, flat_band_201, 0.9))
    assert mc.purity(rho) == pytest.approx(1.0, abs=1e-12)


def test_evolve_resonant_quarter_period_swaps_field_into_bath(resonant_single_mode):
    alpha0 = 1.0 + 0j
    t = (math.pi / 2) / 0.7
    out = evolve(odd_cat(alpha0), resonant_single_mode, t)
    for _, field, bath in out:
        assert abs(field) < 1e-12
        assert abs(bath[0]) == pytest.approx(1.0, abs=1e-12)
    assert gamma_b(out) == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_evolve_norm_and_occupation_conserved(flat_band_201):
    state = odd_cat(1.5 + 0j)
    for t in (0.2, 0.8, 1.9):
        out = evolve(state, flat_band_201, t)
        assert reduce(out).trace() == pytest.approx(1.0, abs=1e-10)
        n_field, n_bath = occupations(out)
        assert n_field + n_bath == pytest.approx(
            sum(occupations(evolve(state, flat_band_201, 0.0))), abs=1e-8
        )


def test_evolve_requires_normalized(resonant_single_mode):
    # the norm is checked numerically: a weight off by 1e-6 is rejected, 1e-12 is roundoff
    for weight in (2.0, 1.0 + 1e-6):
        with pytest.raises(mc.PositivityError, match="normalized"):
            evolve(np.array([[weight], [1.0]]), resonant_single_mode, 0.1)
    assert len(evolve(np.array([[1.0 + 1e-12], [1.0]]), resonant_single_mode, 0.1)) == 1


# ---------------------------------------------------------------------------
# damping diagnostics


def test_gammas_at_time_zero(resonant_single_mode):
    out = evolve(odd_cat(), resonant_single_mode, 0.0)
    assert gamma_b(out) == pytest.approx(1.0, abs=1e-14)
    assert excitation_sum(out) == pytest.approx(0.0, abs=1e-14)
    assert gamma_a(out) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_gamma_conservation_identity(flat_band_201):
    state = odd_cat(1.4 + 0j)
    ga_0 = gamma_a(evolve(state, flat_band_201, 0.0))
    for t in np.linspace(0.0, 2.5, 11):
        out = evolve(state, flat_band_201, t)
        assert gamma_a(out) * abs(gamma_b(out)) == pytest.approx(ga_0, abs=1e-10)


def test_gamma_diagnostics_need_two_branches(resonant_single_mode):
    single = evolve(mc.normalize([[1.0], [1.0]]),
                    resonant_single_mode, 0.0)
    for fn in (gamma_a, gamma_b, excitation_sum):
        with pytest.raises(mc.InvalidArgumentError):
            fn(single)


def test_short_time_coherence_loss_is_quadratic(flat_band_201):
    ts = np.logspace(-3, -2, 9)
    losses = []
    for t in ts:
        out = evolve(odd_cat(1.0 + 0j), flat_band_201, t)
        losses.append(1.0 - abs(gamma_b(out)))
    slope = np.polyfit(np.log(ts), np.log(losses), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)
