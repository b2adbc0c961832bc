"""Measurement operators, preparation, correlation signal and closed forms."""

import cmath
import math

import numpy as np
import pytest
import mpmath
from hypothesis import example, given
from hypothesis import strategies as st

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case
from reference import (
    evolve, excitation_sum, flow, joint, label_eigenpairs, phase_op_matrix_element, reduce, value_at,
)

CASES = [Case.CASE_A, Case.CASE_B]
OUTCOMES = [Out.E, Out.G]

phi_strategy = st.floats(0.05, math.pi, allow_nan=False)


def params_a(phi=math.pi, alpha0=1.0 + 0j):
    return mc.ProtocolParams(Case.CASE_A, alpha0, phi)


def params_b(phi, alpha0=1.0 + 0j):
    return mc.ProtocolParams(Case.CASE_B, alpha0, phi)


# ---------------------------------------------------------------------------
# reduced operators


def test_reduced_op_case_a_terms():
    weights, phases = mc.reduced_op(params_a(math.pi), Out.E)
    # (exp(-i pi n) - 1)/2: phases {-pi, 0}, weights {1/2, -1/2}
    terms = dict(zip(phases.tolist(), weights.tolist()))
    assert terms[-math.pi] == pytest.approx(0.5)
    assert terms[0.0] == pytest.approx(-0.5)


def test_reduced_op_case_a_g_lower_sign():
    phi = 0.9
    weights, phases = mc.reduced_op(params_a(phi), Out.G)
    values = dict(zip(phases.tolist(), weights.tolist()))
    assert values[-phi] == pytest.approx(0.5)
    assert values[0.0] == pytest.approx(0.5)


def test_reduced_op_case_b_scalar_folded():
    phi = 0.7
    (w1, w2), (p1, p2) = mc.reduced_op(params_b(phi), Out.E)
    assert (p1, p2) == (phi, -phi)
    assert w1 == pytest.approx(0.5 * cmath.exp(1j * phi))
    assert w2 == pytest.approx(-0.5)


# ---------------------------------------------------------------------------
# measurement products


def test_measurement_product_case_a_parity_values():
    mp_e = mc.measurement_product(params_a(math.pi), Out.E)
    mp_g = mc.measurement_product(params_a(math.pi), Out.G)
    for n in range(8):
        expected_e = 1.0 if n % 2 else 0.0
        assert value_at(mp_e, n) == pytest.approx(expected_e, abs=1e-12)
        assert value_at(mp_g, n) == pytest.approx(1.0 - expected_e, abs=1e-12)


def test_measurement_product_case_b_half_identity_at_quarter_turn():
    mp = mc.measurement_product(params_b(math.pi / 2), Out.E)
    for n in range(9):
        assert value_at(mp, n) == pytest.approx(0.5, abs=1e-12)


@given(phi_strategy, st.sampled_from(CASES))
def test_measurement_products_complete(phi, case):
    # both outcomes carry the same phases; their weights add to the identity
    params = mc.ProtocolParams(case, 1.0 + 0j, phi)
    (w_e, p_e), (w_g, p_g) = (mc.measurement_product(params, o) for o in (Out.E, Out.G))
    assert np.array_equal(p_e, p_g)
    total = w_e + w_g
    assert total[p_e == 0.0] == pytest.approx([1.0], abs=1e-12)
    assert total[p_e != 0.0] == pytest.approx(np.zeros(len(p_e) - 1), abs=1e-12)


@given(phi_strategy, st.sampled_from(CASES), st.sampled_from(OUTCOMES))
@example(math.pi, Case.CASE_A, Out.E)
@example(math.pi, Case.CASE_A, Out.G)
@example(math.pi, Case.CASE_B, Out.E)
@example(math.pi, Case.CASE_B, Out.G)
@example(math.nextafter(math.pi, 0.0), Case.CASE_A, Out.E)
@example(math.nextafter(math.pi, 0.0), Case.CASE_A, Out.G)
def test_measurement_product_hermitian(phi, case, outcome):
    params = mc.ProtocolParams(case, 1.0 + 0j, phi)
    weights, phases = mc.measurement_product(params, outcome)
    # phases lie in (-pi, pi] and merge only when equal, so the conjugate partner
    # of phase p sits exactly at -p modulo 2 pi: a term at +pi is its own partner.
    for w, p in zip(weights, phases):
        partners = [v for v, q in zip(weights, phases) if math.remainder(p + q, 2.0 * math.pi) == 0.0]
        assert len(partners) == 1
        assert partners[0] == pytest.approx(w.conjugate(), abs=1e-13)


# ---------------------------------------------------------------------------
# preparation


def test_prepare_case_a_odd_cat():
    state = mc.prepare(params_a(math.pi, 1.0 + 0j), Out.E)
    weight = 1.0 / math.sqrt(2.0 * (1.0 - math.exp(-2)))
    weights, labels = state
    fields = sorted(labels.real)
    assert fields == pytest.approx([-1.0, 1.0], abs=1e-12)
    mags = list(abs(weights))
    assert mags == pytest.approx([weight, weight], rel=1e-12)
    signs = sorted(weights.real)
    assert signs[0] == pytest.approx(-weight, rel=1e-12)


def test_prepare_case_b_g_branch_phases():
    phi, alpha0 = 0.6, 1.4 + 0j
    state = mc.prepare(params_b(phi, alpha0), Out.G)
    (w1, w2), (l1, l2) = state
    assert l1 == pytest.approx(alpha0 * cmath.exp(1j * phi), abs=1e-12)
    assert l2 == pytest.approx(alpha0 * cmath.exp(-1j * phi), abs=1e-12)
    assert w1 / w2 == pytest.approx(cmath.exp(1j * phi), abs=1e-12)


def test_prepare_vacuum_case_a_e_is_zero_state():
    with pytest.raises(mc.ZeroStateError):
        mc.prepare(params_a(math.pi, 0.0 + 0j), Out.E)


@given(phi_strategy, st.sampled_from(CASES), st.floats(0.0, 2.0))
def test_preparation_probabilities_sum_to_one(phi, case, amp):
    params = mc.ProtocolParams(case, complex(amp, 0), phi)
    total = mc.preparation_probability(params, Out.E) + mc.preparation_probability(params, Out.G)
    assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# conditional probabilities


def test_conditional_probabilities_fresh_cats():
    params = params_a(math.pi, math.sqrt(2) + 0j)
    rho = mc.damped_density([mc.prepare(params, o) for o in (Out.E, Out.G)], 1.0, 0.0)
    rec = mc.conditional_probabilities(rho, params)
    assert rec.p_ee == pytest.approx(1.0, abs=1e-12)
    assert rec.p_ge == pytest.approx(0.0, abs=1e-12)
    assert rec.eta == pytest.approx(1.0, abs=1e-12)


def test_conditional_probabilities_fully_decohered():
    params = params_a(math.pi, 3.5 + 0j)
    no_coherence = np.array([[0.0, -np.inf], [-np.inf, 0.0]], dtype=complex)
    rho = mc.ReducedDensity((3.5 + 0j, -3.5 + 0j), (math.sqrt(0.5), math.sqrt(0.5)), no_coherence)
    rec = mc.conditional_probabilities(joint(rho, rho), params)
    assert rec.p_ee == pytest.approx(0.5, abs=1e-10)
    assert rec.p_ge == pytest.approx(0.5, abs=1e-10)
    assert rec.eta == pytest.approx(0.0, abs=1e-12)


#: |alpha0| from 1e-8 (near the vacuum, where odd-cat weights cancel) to 1.8
amp_strategy = st.one_of(st.floats(0.3, 1.8), st.floats(-8.0, -1.0).map(lambda e: 10.0**e))


@given(phi_strategy, st.sampled_from(CASES), amp_strategy, st.floats(0.0, 1.0))
def test_conditional_rows_sum_to_one(phi, case, amp, damp):
    params = mc.ProtocolParams(case, complex(amp, 0), phi)
    try:
        st_e = mc.prepare(params, Out.E)
        st_g = mc.prepare(params, Out.G)
    except mc.ZeroStateError:
        return
    rho = mc.damped_density([st_e, st_g], *mc.me_response(1.0, damp))
    rec = mc.conditional_probabilities(rho, params)
    assert rec.p_ee + rec.p_eg == pytest.approx(1.0, abs=1e-10)
    assert rec.p_ge + rec.p_gg == pytest.approx(1.0, abs=1e-10)
    assert rec.eta == pytest.approx(rec.p_ee - rec.p_ge, abs=1e-15)


# ---------------------------------------------------------------------------
# closed-form eigenvalues (case a, phi = pi)


def test_eigenvalues_case_a_fresh_state():
    lam_p, lam_m = mc.eigenvalues_case_a(1.0, 1.0, 0.0, Out.E)
    assert lam_p == 0.0
    assert lam_m == 1.0


def test_eigenvalues_case_a_long_time_limit():
    # the field relaxes to vacuum: G_a -> 1, G_b -> G_a(0)
    lam_p, lam_m = mc.eigenvalues_case_a(1.0, 0.0, 1.0, Out.E)
    assert lam_p == pytest.approx(1.0, abs=1e-14)
    assert lam_m == pytest.approx(0.0, abs=1e-14)


def test_eigenvalues_case_a_balanced_point():
    # G_a(t) = G_b(t) = e^{-2}, G_a(0) = e^{-4}
    lam_p, lam_m = mc.eigenvalues_case_a(math.sqrt(2.0), math.sqrt(0.5), 0.5, Out.E)
    assert lam_p == pytest.approx(0.5, abs=1e-12)
    assert lam_m == pytest.approx(0.5, abs=1e-12)


@given(
    st.floats(0.03, 2.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from(OUTCOMES),
)
def test_eigenvalues_case_a_sum_identity(alpha0, g, depletion, outcome):
    s = mc.protocol.outcome_sign(outcome)
    x = 2.0 * alpha0**2
    lam_p, lam_m = mc.eigenvalues_case_a(alpha0, g, depletion, outcome)
    total = (1 + s * math.exp(-x * (g * g + depletion))) / (1 + s * math.exp(-x))
    assert lam_p + lam_m == pytest.approx(total, abs=1e-12)
    assert lam_p >= 0 and lam_m >= 0


def test_eigenvalues_case_a_degenerate_preparation():
    with pytest.raises(mc.ZeroStateError):
        mc.eigenvalues_case_a(0.0, 1.0, 0.0, Out.E)


@pytest.mark.parametrize("outcome", OUTCOMES)
def test_eigenvalues_case_a_keeps_relative_accuracy_near_the_vacuum(outcome):
    # a 50-digit evaluation of the same closed form at the same (g, B) is the reference
    times = np.array([1e-6, 0.5, 40.0])
    g, depletion = mc.me_response(1.0, times)
    s = int(mc.protocol.outcome_sign(outcome))
    worst = 0.0
    with mpmath.workdps(50):
        for alpha0 in (1e-6, 1e-3, 1.0, 1.8):
            lam = mc.eigenvalues_case_a(alpha0, g, depletion, outcome)
            x = 2 * mpmath.mpf(alpha0) ** 2
            for k in range(len(times)):
                g_a = mpmath.exp(-x * mpmath.mpf(g[k]) ** 2)
                g_b = mpmath.exp(-x * mpmath.mpf(depletion[k]))
                denom = 2 * (1 + s * mpmath.exp(-x))
                exact = ((1 + g_a) * (1 + s * g_b) / denom, (1 - g_a) * (1 - s * g_b) / denom)
                for value, ref in zip((lam[0][k], lam[1][k]), exact):
                    worst = max(worst, float(abs(value - ref) / ref))
    assert worst <= 1e-13


def test_eigenvalues_case_a_stacks_over_arrays():
    g, depletion = mc.me_response(1.0, np.linspace(0.0, 3.0, 7))
    for outcome in OUTCOMES:
        stacked = mc.eigenvalues_case_a(1.3, g, depletion, outcome)
        for k in range(len(g)):
            single = mc.eigenvalues_case_a(1.3, g[k], depletion[k], outcome)
            assert (stacked[0][k], stacked[1][k]) == single
    with pytest.raises(mc.InvalidArgumentError, match="at time index 2$"):
        mc.eigenvalues_case_a(1.3, g, np.where(np.arange(7) == 2, -0.1, depletion), Out.E)


def test_eigenvalues_case_a_matches_numeric(resonant_single_mode):
    params = params_a(math.pi, 1.3 + 0j)
    for outcome in OUTCOMES:
        state0 = mc.prepare(params, outcome)
        for t in (0.0, 0.3, 0.9, 1.7):
            state = evolve(state0, resonant_single_mode, t)
            (g,), (f,) = flow(resonant_single_mode, [t])
            lam_p, lam_m = mc.eigenvalues_case_a(params.alpha0, g, np.sum(np.abs(f) ** 2), outcome)
            numeric = mc.eigenvalues(reduce(state))
            assert sorted((lam_p, lam_m), reverse=True) == pytest.approx(
                list(numeric[:2]), abs=1e-9
            )


def test_eta_spectral_matches_damping_factor_in_small_overlap():
    # |alpha0|^2 = 3.3, gamma*t = 0.1 under pure damping: eta ~ the
    # coherence damping factor exp(-2|alpha0|^2 (1 - e^{-gamma t}))
    a2, gt = 3.3, 0.1
    gb = math.exp(-2.0 * a2 * (1.0 - math.exp(-gt)))
    response = (math.exp(-0.5 * gt), 1.0 - math.exp(-gt))
    lam_e = mc.eigenvalues_case_a(math.sqrt(a2), *response, Out.E)[1]
    lam_g = mc.eigenvalues_case_a(math.sqrt(a2), *response, Out.G)[1]
    eta = lam_e - lam_g
    assert eta == pytest.approx(0.5336, abs=1e-4)
    assert eta == pytest.approx(gb, abs=1e-4)


def test_measurement_diagonal_in_eigenbasis_case_a(resonant_single_mode):
    # at phi = pi the parity-type product takes values exactly 0 and 1 on
    # the even/odd eigenvectors
    params = params_a(math.pi, 1.1 + 0j)
    state = evolve(mc.prepare(params, Out.E), resonant_single_mode, 0.6)
    rho = reduce(state)
    mp_e = mc.measurement_product(params, Out.E)
    values = sorted(
        phase_op_matrix_element(mp_e, rho.labels, c, c).real for c in label_eigenpairs(rho)[1]
    )
    assert values[0] == pytest.approx(0.0, abs=1e-10)
    assert values[1] == pytest.approx(1.0, abs=1e-10)


def test_p_ee_equals_lam_e_minus(resonant_single_mode):
    params = params_a(math.pi, 1.2 + 0j)
    st_e = mc.prepare(params, Out.E)
    st_g = mc.prepare(params, Out.G)
    for t in (0.0, 0.4, 1.1):
        se, sg = evolve(st_e, resonant_single_mode, t), evolve(st_g, resonant_single_mode, t)
        rec = mc.conditional_probabilities(joint(reduce(se), reduce(sg)), params)
        (g,), (f,) = flow(resonant_single_mode, [t])
        response = (g, np.sum(np.abs(f) ** 2))
        lam_e = mc.eigenvalues_case_a(params.alpha0, *response, Out.E)[1]
        lam_g = mc.eigenvalues_case_a(params.alpha0, *response, Out.G)[1]
        assert rec.p_ee == pytest.approx(lam_e, abs=1e-9)
        assert rec.p_ge == pytest.approx(lam_g, abs=1e-9)
        assert rec.eta == pytest.approx(lam_e - lam_g, abs=1e-9)


# ---------------------------------------------------------------------------
# case-b small-overlap closed form


def test_small_overlap_case_b_no_excitation():
    eta, gb, theta = mc.small_overlap_case_b(0.0, 0.8)
    assert (eta, gb, theta) == (0.5, 1.0, 0.0)


def test_small_overlap_case_b_quarter_turn_unit_excitation():
    eta, gb, theta = mc.small_overlap_case_b(1.0, math.pi / 4)
    assert gb == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert theta == pytest.approx(1.0, abs=1e-12)
    assert eta == pytest.approx(0.5 * math.cos(1.0) * math.exp(-1.0), rel=1e-12)


def test_small_overlap_case_b_full_turn_no_dephasing():
    eta, gb, theta = mc.small_overlap_case_b(1.7, math.pi)
    assert gb == pytest.approx(1.0, abs=1e-12)
    assert theta == pytest.approx(0.0, abs=1e-12)
    assert eta == pytest.approx(0.5, abs=1e-12)


def test_small_overlap_case_b_negative_excitation_rejected():
    with pytest.raises(mc.InvalidArgumentError):
        mc.small_overlap_case_b(-0.1, 0.5)


def test_small_overlap_matches_exact_engine(flat_band_201):
    # alpha0 = 3, phi = pi/4: branch overlap stays below 1e-3 while
    # |alpha(t)|^2 > 6.9, i.e. through t ~ 0.26/gamma
    phi, alpha0 = math.pi / 4, 3.0 + 0j
    params = params_b(phi, alpha0)
    st_e = mc.prepare(params, Out.E)
    st_g = mc.prepare(params, Out.G)
    checked = 0
    for t in np.linspace(0.0, 0.25, 6):
        se = evolve(st_e, flat_band_201, t)
        sg = evolve(st_g, flat_band_201, t)
        if abs(mc.overlap(se[0][1], se[1][1])) >= 1e-3:
            continue
        rec = mc.conditional_probabilities(joint(reduce(se), reduce(sg)), params)
        eta_approx, _, _ = mc.small_overlap_case_b(excitation_sum(se), phi)
        assert rec.eta == pytest.approx(eta_approx, abs=5e-3)
        checked += 1
    assert checked >= 5
