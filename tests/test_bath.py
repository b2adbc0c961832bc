"""Bath discretization, exact amplitude flow, and damping diagnostics."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case
from mesocat import bath as bathmod


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
    r = mc.propagate(flat_band_201, 0.0)
    assert r.g == 1.0 + 0.0j
    assert np.all(r.f == 0.0)
    assert not r.recurrence_warning


def test_propagate_single_resonant_mode_analytic(resonant_single_mode):
    for t in (0.1, 0.7, 2.3):
        r = mc.propagate(resonant_single_mode, t)
        assert r.g == pytest.approx(math.cos(0.7 * t), abs=1e-12)
        assert r.f[0] == pytest.approx(-1j * math.sin(0.7 * t), abs=1e-12)


def test_propagate_unitarity(flat_band_201):
    for t in np.linspace(0.0, 3.0, 13):
        r = mc.propagate(flat_band_201, t)
        assert abs(r.g) ** 2 + r.excitation_fraction() == pytest.approx(1.0, abs=1e-9)


def test_response_matches_propagate_over_a_grid(flat_band_201):
    times = np.array([0.0, 0.01, 0.3, 1.7, 40.0])
    g, depletion = mc.response(flat_band_201, times)
    assert g[0] == 1.0 and depletion[0] == 0.0
    for t, g_t, b_t in zip(times, g, depletion):
        r = mc.propagate(flat_band_201, t)
        assert abs(g_t - r.g) < 1e-13
        assert abs(b_t - r.excitation_fraction()) < 1e-13
        assert abs(g_t) ** 2 + b_t == pytest.approx(1.0, abs=1e-12)


def test_response_blocks_join_across_block_boundaries(flat_band_201):
    # a zero in the second block too, and a last block shorter than the rest
    times = np.linspace(0.0, 3.0, 2 * bathmod.RESPONSE_BLOCK + 3)
    times[bathmod.RESPONSE_BLOCK + 1] = 0.0
    g, depletion = mc.response(flat_band_201, times)
    assert g[bathmod.RESPONSE_BLOCK + 1] == 1.0 and depletion[bathmod.RESPONSE_BLOCK + 1] == 0.0
    for i in (1, bathmod.RESPONSE_BLOCK - 1, bathmod.RESPONSE_BLOCK, len(times) - 1):
        r = mc.propagate(flat_band_201, times[i])
        assert abs(g[i] - r.g) < 1e-13
        assert abs(depletion[i] - r.excitation_fraction()) < 1e-13


@pytest.mark.parametrize("times", [[-0.1, 0.5], [0.2, math.inf], [[0.1]]])
def test_response_rejects_bad_grids(flat_band_201, times):
    with pytest.raises(mc.InvalidArgumentError):
        mc.response(flat_band_201, times)


def test_propagate_negative_time_rejected(flat_band_201):
    with pytest.raises(mc.InvalidArgumentError):
        mc.propagate(flat_band_201, -0.1)


def test_propagate_recurrence_warning(flat_band_201):
    half = 0.5 * flat_band_201.recurrence_time
    assert not mc.propagate(flat_band_201, 0.9 * half).recurrence_warning
    assert mc.propagate(flat_band_201, 1.1 * half).recurrence_warning


def test_flat_band_wigner_weisskopf_decay(flat_band_201):
    for t in np.linspace(0.1, 3.0, 30):
        r = mc.propagate(flat_band_201, t)
        assert abs(r.g) == pytest.approx(math.exp(-0.5 * t), rel=0.02)


# ---------------------------------------------------------------------------
# matrix-exponential cross-check


def expm_response(spec, t):
    """(g, f): column zero of exp(-i H t) for the one-excitation matrix, by scipy's expm."""
    column = expm(-1j * t * spec.one_excitation_matrix())[:, 0]
    return column[0], column[1:]


def test_integrator_matches_exact(flat_band_201, resonant_single_mode):
    small = mc.discretize_flat_band(1.0, 11, 12.0)
    for spec, t in ((resonant_single_mode, 1.3), (small, 0.8), (flat_band_201, 0.7)):
        g_ref, f_ref = expm_response(spec, t)
        r_exact = mc.propagate(spec, t)
        assert abs(r_exact.g - g_ref) < 1e-12
        assert np.max(np.abs(r_exact.f - f_ref)) < 1e-12


def test_integrator_resonant_quarter_period(resonant_single_mode):
    t = (math.pi / 2) / 0.7
    g_ref, f_ref = expm_response(resonant_single_mode, t)
    assert abs(g_ref) < 1e-12
    assert abs(mc.propagate(resonant_single_mode, t).g) < 1e-12
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
    assert mc.gamma_b(out) == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_evolve_norm_and_occupation_conserved(flat_band_201):
    state = odd_cat(1.5 + 0j)
    n0 = abs(1.5) ** 2  # both branches carry |alpha0|^2 quanta
    for t in (0.2, 0.8, 1.9):
        out = mc.evolve(state, flat_band_201, t)
        assert mc.coherent.squared_norm(out) == pytest.approx(1.0, abs=1e-10)
        n_field, n_bath = mc.occupations(out)
        assert n_field + n_bath == pytest.approx(
            sum(mc.occupations(mc.evolve(state, flat_band_201, 0.0))), abs=1e-8
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
    assert mc.gamma_b(out) == pytest.approx(1.0, abs=1e-14)
    assert mc.excitation_sum(out) == pytest.approx(0.0, abs=1e-14)
    assert mc.gamma_a(out) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_gamma_conservation_identity(flat_band_201):
    state = odd_cat(1.4 + 0j)
    ga_0 = mc.gamma_a(mc.evolve(state, flat_band_201, 0.0))
    for t in np.linspace(0.0, 2.5, 11):
        out = mc.evolve(state, flat_band_201, t)
        assert mc.gamma_a(out) * abs(mc.gamma_b(out)) == pytest.approx(ga_0, abs=1e-10)


def test_gamma_diagnostics_need_two_branches(resonant_single_mode):
    single = mc.normalize(mc.FieldBathSuperposition((mc.Branch(1.0, 1.0, (0j,)),)))
    for fn in (mc.gamma_a, mc.gamma_b, mc.excitation_sum):
        with pytest.raises(mc.InvalidArgumentError):
            fn(single)


def test_short_time_coherence_loss_is_quadratic(flat_band_201):
    ts = np.logspace(-3, -2, 9)
    losses = []
    for t in ts:
        out = mc.evolve(odd_cat(1.0 + 0j), flat_band_201, t)
        losses.append(1.0 - abs(mc.gamma_b(out)))
    slope = np.polyfit(np.log(ts), np.log(losses), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)
