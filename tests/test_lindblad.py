"""Closed-form damping of coherent superpositions, checked against the exact flow."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case

MP = mc.MasterParams(1.0)

amp_strategy = st.builds(
    complex, st.floats(-2.0, 2.0, allow_nan=False), st.floats(-2.0, 2.0, allow_nan=False)
)


def odd_cat(alpha0):
    return mc.prepare(mc.ProtocolParams(Case.CASE_A, alpha0, math.pi), Out.E)


def test_master_params_validation():
    with pytest.raises(mc.InvalidArgumentError):
        mc.MasterParams(0.0)
    with pytest.raises(mc.InvalidArgumentError):
        mc.MasterParams(-1.0)


def dyad_factor(a, b, t):
    """Coherence factor of |a><b| in the master density of the normalized pair |b> + |a>."""
    pair = mc.normalize(mc.FieldBathSuperposition((mc.Branch(1.0, b), mc.Branch(1.0, a))))
    return complex(np.exp(mc.damped_density(pair, *mc.me_response(MP, t)).expo[1, 0]))


def test_amplitude_decay():
    def amplitude(alpha0, t):
        state = mc.normalize(mc.FieldBathSuperposition((mc.Branch(1.0, alpha0),)))
        return complex(mc.damped_density(state, *mc.me_response(MP, t)).labels[0])

    assert amplitude(1.5 + 0.5j, 0.0) == 1.5 + 0.5j
    assert amplitude(2.0 + 0j, 2.0 * math.log(2)) == pytest.approx(1.0 + 0j)
    for t in (0.3, 1.0, 2.5):
        amp = amplitude(1.2 + 0j, t)
        assert abs(amp) ** 2 == pytest.approx(1.44 * math.exp(-t), rel=1e-12)


def test_dyad_factor_diagonal_is_one():
    for t in (0.0, 0.4, 3.0):
        assert dyad_factor(1.3 - 0.2j, 1.3 - 0.2j, t) == pytest.approx(1.0, abs=1e-14)


def test_dyad_factor_opposite_amplitudes():
    a = 1.5 + 0j
    for t in (0.1, 0.7, 2.0):
        expected = math.exp(-2.0 * abs(a) ** 2 * (1.0 - math.exp(-t)))
        assert dyad_factor(a, -a, t) == pytest.approx(expected, rel=1e-12)


def test_dyad_factor_rotated_pair_long_time():
    phi = math.pi / 4
    a = cmath.exp(1j * phi)
    b = cmath.exp(-1j * phi)
    val = dyad_factor(a, b, 1e3)
    assert val == pytest.approx(cmath.exp(-1 + 1j), rel=1e-10)


@given(amp_strategy, amp_strategy, st.floats(0.0, 5.0))
def test_dyad_factor_bounded(a, b, t):
    assert abs(dyad_factor(a, b, t)) <= 1.0 + 1e-12


def test_me_reduce_at_zero_matches_fresh_reduction():
    state = odd_cat(1.2 + 0j)
    rho0 = mc.reduce(state)
    rho_me = mc.damped_density(state, *mc.me_response(MP, 0.0))
    np.testing.assert_array_equal(rho_me.labels, rho0.labels)
    np.testing.assert_allclose(rho_me.coeff, rho0.coeff, atol=1e-14)


@pytest.mark.parametrize("outcome", [Out.E, Out.G])
def test_me_reduce_matches_dyad_factor_formula(outcome):
    # the closed form: labels damped by e^{-t/2}, and the coefficient of
    # |a><b| times exp[(conj(b) a - (|a|^2 + |b|^2)/2) (1 - e^{-t})]
    state = mc.prepare(mc.ProtocolParams(Case.CASE_B, 1.3 + 0.2j, 0.9), outcome)
    rho0 = mc.reduce(state)
    for t in (0.0, 0.05, 0.7, 3.0):
        rho = mc.damped_density(state, *mc.me_response(MP, t))
        labels = [l * math.exp(-0.5 * t) for l in rho0.labels]
        factors = np.array([
            [cmath.exp((b.conjugate() * a - 0.5 * (abs(a) ** 2 + abs(b) ** 2)) * -math.expm1(-t))
             for b in rho0.labels]
            for a in rho0.labels
        ])
        assert max(abs(a - b) for a, b in zip(rho.labels, labels)) < 1e-15
        np.testing.assert_allclose(rho.coeff, rho0.coeff * factors, rtol=0, atol=1e-14)


def test_me_response_is_the_closed_form():
    g, depletion = mc.me_response(mc.MasterParams(2.0), [0.0, 0.25, 1.0])
    np.testing.assert_allclose(g, np.exp(-np.array([0.0, 0.25, 1.0])), rtol=1e-15)
    np.testing.assert_allclose(depletion, 1.0 - np.exp(-np.array([0.0, 0.5, 2.0])), rtol=1e-15)
    with pytest.raises(mc.InvalidArgumentError):
        mc.me_response(MP, [0.1, -0.1])


def test_me_reduce_long_time_reaches_vacuum():
    rho = mc.damped_density(odd_cat(1.3 + 0j), *mc.me_response(MP, 1e3))
    spec = mc.eigenvalues(rho)
    assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert all(lam < 1e-12 for lam in spec.eigenvalues[1:])
    assert all(abs(l) < 1e-12 for l in spec.labels)


@given(st.floats(0.0, 4.0), st.floats(0.3, 1.8), st.floats(0.2, math.pi))
def test_me_reduce_preserves_trace(t, amp, phi):
    params = mc.ProtocolParams(Case.CASE_B, complex(amp, 0), phi)
    try:
        state = mc.prepare(params, Out.G)
    except mc.ZeroStateError:
        return
    rho = mc.damped_density(state, *mc.me_response(MP, t))
    assert rho.trace() == pytest.approx(1.0, abs=1e-10)


def test_me_eigenvalues_match_closed_form():
    a2 = 1.7
    alpha0 = complex(math.sqrt(a2), 0)
    ga_0 = math.exp(-2.0 * a2)
    for outcome in (Out.E, Out.G):
        state = mc.prepare(mc.ProtocolParams(Case.CASE_A, alpha0, math.pi), outcome)
        for t in (0.0, 0.2, 0.9, 2.4):
            rho = mc.damped_density(state, *mc.me_response(MP, t))
            ga_t = math.exp(-2.0 * a2 * math.exp(-t))
            gb_t = math.exp(-2.0 * a2 * (1.0 - math.exp(-t)))
            lam = mc.eigenvalues_case_a(ga_t, gb_t, ga_0, outcome)
            numeric = mc.eigenvalues(rho).eigenvalues
            assert sorted(lam, reverse=True) == pytest.approx(list(numeric), abs=1e-10)


def test_me_defect_small_overlap_value():
    # |alpha0|^2 = 3.3 at gamma t = 0.1: defect ~ (1 - Gb^2)/2 ~ 0.3576
    alpha0 = complex(math.sqrt(3.3), 0)
    for outcome in (Out.E, Out.G):
        state = mc.prepare(mc.ProtocolParams(Case.CASE_A, alpha0, math.pi), outcome)
        defect = mc.idempotency_defect(mc.damped_density(state, *mc.me_response(MP, 0.1)))
        assert defect == pytest.approx(0.3576, abs=1.5e-3)


def test_me_matches_microscopic_damping_at_weak_amplitude(flat_band_201):
    # small |alpha0|^2 keeps the bandwidth-induced offset of the flat band
    # below the 2% agreement target on t in [0.1, 2]
    alpha0 = complex(math.sqrt(0.5), 0)
    state = odd_cat(alpha0)
    for t in np.linspace(0.1, 2.0, 10):
        micro = abs(mc.gamma_b(mc.evolve(state, flat_band_201, t)))
        me = math.exp(-2.0 * 0.5 * (1.0 - math.exp(-t)))
        assert micro == pytest.approx(me, rel=0.02)


def test_me_defect_short_time_is_linear():
    alpha0 = complex(math.sqrt(3.3), 0)
    state = odd_cat(alpha0)
    ts = np.logspace(-3, -2, 9)
    defects = [mc.idempotency_defect(mc.damped_density(state, *mc.me_response(MP, t))) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(defects), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)
