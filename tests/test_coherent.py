"""Coherent-state algebra against an independent truncated-Fock-series oracle."""

import cmath
import math
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case
from mesocat.coherent import _gram_exponents
from reference import (
    evolve,
    label_eigenpairs,
    mean_photon,
    normalize,
    occupations,
    phase_op_matrix_element,
    reduce,
    value_at,
)

# ---------------------------------------------------------------------------
# oracle: number-basis expansion, independent of the closed-form overlap


def series_coefficients(alpha, n_max=80):
    coeffs = np.zeros(n_max + 1, dtype=complex)
    coeffs[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(n_max):
        coeffs[n + 1] = coeffs[n] * alpha / math.sqrt(n + 1)
    return coeffs


def series_overlap(a, b, n_max=80):
    return np.vdot(series_coefficients(a, n_max), series_coefficients(b, n_max))


def density_in_fock(rho: mc.ReducedDensity, n_max=80):
    """sum_ij w_i conj(w_j) exp(K_ij) |l_i><l_j| as |v><v| + an expm1 part, v = sum_i w_i |l_i>.

    Large weights that cancel over nearly coincident labels (an odd pair near
    the vacuum) meet in v first, so the series keeps its accuracy there.
    """
    wc = rho.weights[:, None] * np.array([series_coefficients(l, n_max) for l in rho.labels])
    v = wc.sum(axis=0)
    return np.outer(v, v.conj()) + wc.T @ np.expm1(rho.expo) @ wc.conj()


def op_diagonal(op, n_max=80):
    """Number-basis diagonal of op = (weights, phases)."""
    levels = np.arange(n_max + 1)
    vals = np.zeros(n_max + 1, dtype=complex)
    for w, p in zip(*op):
        vals += w * np.exp(1j * p * levels)
    return vals


labels_strategy = st.builds(
    complex,
    st.floats(-2.2, 2.2, allow_nan=False),
    st.floats(-2.2, 2.2, allow_nan=False),
)


@st.composite
def label_pairs(draw):
    """Two labels: independent, or the second within 1e-9 to 1e-2 of the first."""
    l1 = draw(labels_strategy)
    if draw(st.booleans()):
        return l1, draw(labels_strategy)
    separation = 10.0 ** draw(st.floats(-9.0, -2.0))
    return l1, l1 + separation * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))


ODD_PARITY = (np.array([0.5, -0.5], dtype=complex), np.array([0.0, math.pi]))
IDENTITY = (np.ones(1, dtype=complex), np.zeros(1))


def random_two_branch_state(w1, w2, l1, l2, beta=0j):
    """Normalized per-mode branches (weight, field, bath) with opposite labels on one mode."""
    return normalize([(w1, l1, (beta,)), (w2, l2, (-beta,))])


def fresh(state):
    """The field density of a normalized prepared state: no damping, g = 1 and B = 0."""
    return mc.damped_density(state, 1.0, 0.0)


# ---------------------------------------------------------------------------
# overlap


def test_overlap_vacuum_and_self():
    assert mc.overlap(0, 0) == 1.0 + 0.0j
    assert mc.overlap(2 + 1j, 2 + 1j) == 1.0 + 0.0j


def test_overlap_antipodal_matches_series():
    val = mc.overlap(-1.0, 1.0)
    assert val == pytest.approx(math.exp(-2), abs=1e-15)
    assert val == pytest.approx(series_overlap(-1.0, 1.0), abs=1e-12)


@given(labels_strategy, labels_strategy)
def test_overlap_matches_series_oracle(a, b):
    assert mc.overlap(a, b) == pytest.approx(series_overlap(a, b), abs=1e-10)


@given(labels_strategy, labels_strategy)
def test_overlap_conjugate_symmetry_and_bound(a, b):
    fwd = mc.overlap(a, b)
    assert fwd == mc.overlap(b, a).conjugate()
    assert abs(fwd) <= 1.0 + 1e-15
    if abs(a - b) > 1e-6:
        assert abs(fwd) < 1.0


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0, math.inf)])
def test_overlap_rejects_non_finite(bad):
    with pytest.raises(mc.InvalidArgumentError):
        mc.overlap(bad, 0.0)
    with pytest.raises(mc.InvalidArgumentError):
        mc.overlap(0.0, bad)


# ---------------------------------------------------------------------------
# gram


def gram(labels):
    """Overlap matrix <l_p|l_q> as the densities build it: exp of the shared Gram exponents."""
    return np.exp(_gram_exponents(np.asarray(labels, dtype=complex)))


def test_gram_single_label():
    g = gram([0.3 + 0.4j])
    assert g.shape == (1, 1)
    assert g[0, 0] == 1.0 + 0.0j


def test_gram_antipodal_pair():
    g = gram([1.0, -1.0])
    expected = np.array([[1.0, math.exp(-2)], [math.exp(-2), 1.0]])
    np.testing.assert_allclose(g, expected, atol=1e-15)


def test_gram_rotated_pair_magnitude():
    alpha, phi = 2.0, math.pi / 4
    g = gram([alpha * cmath.exp(1j * phi), alpha * cmath.exp(-1j * phi)])
    # |<a e^{i phi}|a e^{-i phi}>| = exp(-2 a^2 sin^2 phi)
    assert abs(g[0, 1]) == pytest.approx(math.exp(-4.0), rel=1e-12)


@given(st.lists(labels_strategy, min_size=1, max_size=6))
def test_gram_hermitian_psd_unit_diagonal(labels):
    g = gram(labels)
    assert np.all(np.diag(g) == 1.0)
    assert np.array_equal(g, g.conj().T)
    assert np.linalg.eigvalsh(g).min() >= -1e-12
    # a few ulps of exponents up to |l|^2 = 9.7; 1.9e-15 at worst over 20,000 random lists
    scalar = np.array([[mc.overlap(p, q) for q in labels] for p in labels])
    assert np.max(np.abs(g - scalar)) <= 4e-15


# ---------------------------------------------------------------------------
# normalize


def test_normalize_single_branch():
    out = mc.normalize([[2.0], [1.5 + 0.5j]])
    assert out.shape == (2, 1) and out[1, 0] == 1.5 + 0.5j
    assert abs(out[0, 0]) == pytest.approx(1.0, abs=1e-14)
    assert mc.coherent.squared_norm(out) == pytest.approx(1.0, abs=1e-14)


def test_normalize_odd_cat_weights():
    out = mc.normalize([[0.5, -0.5], [1.0, -1.0]])
    expected = 1.0 / math.sqrt(2.0 * (1.0 - math.exp(-2)))
    assert out[0, 0] == pytest.approx(expected, rel=1e-12)
    assert out[0, 1] == pytest.approx(-expected, rel=1e-12)
    assert mc.coherent.squared_norm(out) == pytest.approx(1.0, abs=1e-12)


def test_normalize_exact_cancellation_is_zero_state():
    with pytest.raises(mc.ZeroStateError):
        mc.normalize([[1.0, -1.0], [0.0, 0.0]])


def test_normalize_keeps_coinciding_branches():
    out = mc.normalize([[1.0, 1.0], [1.0, 1.0 + 1e-9]])
    assert out.shape == (2, 2)
    assert out[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert mc.coherent.squared_norm(out) == pytest.approx(1.0, abs=1e-15)


def test_normalize_near_vacuum_odd_cat():
    # weights ~ 1/(2|alpha|) cancel; the norm is still exact: N^2 = -1/(2 expm1(-2|alpha|^2))
    alpha = 3e-7
    out = mc.normalize([[0.5, -0.5], [alpha, -alpha]])
    expected = 0.5 * math.sqrt(-2.0 / math.expm1(-2.0 * alpha**2))
    assert out[0, 0] == pytest.approx(expected, rel=1e-14)
    assert mc.coherent.squared_norm(out) == pytest.approx(1.0, abs=1e-15)


@given(
    st.complex_numbers(min_magnitude=0.1, max_magnitude=2, allow_nan=False, allow_infinity=False),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=2, allow_nan=False, allow_infinity=False),
    label_pairs(),
)
def test_normalize_reaches_unit_norm(w1, w2, labels):
    l1, l2 = labels
    try:
        out = mc.normalize([[w1, w2], [l1, l2]])
    except mc.ZeroStateError:
        return
    assert mc.coherent.squared_norm(out) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# reduce


def test_reduce_pure_single_branch():
    state = mc.normalize([[1.0], [0.8 - 0.2j]])
    rho = fresh(state)
    np.testing.assert_allclose(rho.coeff, [[1.0]], atol=1e-14)
    assert mc.purity(rho) == pytest.approx(1.0, abs=1e-12)


def test_reduce_odd_cat_structure():
    # fresh superposition, bath still in vacuum: off-diagonal factor is 1
    rho = reduce(normalize([(0.5, 1.0, (0j,)), (-0.5, -1.0, (0j,))]))
    n2 = 1.0 / (2.0 * (1.0 - math.exp(-2)))
    np.testing.assert_allclose(rho.coeff, n2 * np.array([[1, -1], [-1, 1]]), atol=1e-14)
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)


def test_reduce_bath_overlap_dampens_coherence():
    beta = math.sqrt(0.5)
    state = random_two_branch_state(0.5, -0.5, 2.0, -2.0, beta=beta)
    rho = reduce(state)
    w0, w1 = state[0][0], state[1][0]
    factor = rho.coeff[0, 1] / (w0 * w1.conjugate())
    assert factor == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_reduce_merge_boundary_keeps_unit_trace():
    # two field labels 5.9e-8 apart with different bath labels: every
    # branch is kept, and the trace is 1 without any rescaling
    rho = reduce(normalize([(1.0, 0.0, (0j,)), (1.0, 1.0, (0j,)), (1j, 5.9e-8j, (1.0 + 0j,))]))
    assert len(rho.labels) == 3
    assert rho.trace() == pytest.approx(1.0, abs=1e-15)


@given(
    st.lists(
        st.tuples(
            st.complex_numbers(min_magnitude=0.05, max_magnitude=1.5, allow_nan=False, allow_infinity=False),
            labels_strategy,
            st.floats(-1.2, 1.2),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_reduce_trace_is_one(branch_data):
    try:
        state = normalize([(w, l, (complex(b, 0),)) for w, l, b in branch_data])
    except mc.ZeroStateError:
        return
    rho = reduce(state)
    assert rho.trace() == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(rho.coeff, rho.coeff.conj().T, atol=1e-12)


# ---------------------------------------------------------------------------
# eigenvalues


def test_eigenvalues_pure_state():
    state = mc.normalize([[0.5, 0.5], [1.3, -1.3]])
    spec = mc.eigenvalues(fresh(state))
    assert spec[0] == pytest.approx(1.0, abs=1e-12)
    assert spec[1] == pytest.approx(0.0, abs=1e-12)


def test_eigenvalues_balanced_mixture():
    # |alpha|^2 = 1 field pair and |beta|^2 = 1 bath pair:
    # G_a(t) = G_b(t) = e^{-2}, G_a(0) = e^{-4} -> both eigenvalues 1/2
    state = random_two_branch_state(0.5, -0.5, 1.0, -1.0, beta=1.0)
    spec = mc.eigenvalues(reduce(state))
    assert spec[0] == pytest.approx(0.5, abs=1e-12)
    assert spec[1] == pytest.approx(0.5, abs=1e-12)


def decohered_pair(l1, l2):
    """Equal mixture of |l1> and |l2>: no coherence left, K12 = -inf."""
    no_coherence = np.array([[0.0, -np.inf], [-np.inf, 0.0]], dtype=complex)
    return mc.ReducedDensity((l1, l2), (math.sqrt(0.5), math.sqrt(0.5)), no_coherence)


def test_eigenvalues_fully_decohered_orthogonal():
    rho = decohered_pair(7.0 + 0j, -7.0 + 0j)
    spec = mc.eigenvalues(rho)
    assert spec[0] == pytest.approx(0.5, abs=1e-12)
    assert spec[1] == pytest.approx(0.5, abs=1e-12)


def test_eigenvalues_match_fock_oracle():
    state = random_two_branch_state(0.4, -0.6, 1.1, -0.9, beta=0.7)
    spec = mc.eigenvalues(reduce(state))
    oracle = np.linalg.eigvalsh(density_in_fock(reduce(state)))[::-1]
    np.testing.assert_allclose(spec, oracle[:2], atol=1e-9)


@given(
    st.complex_numbers(min_magnitude=0.1, max_magnitude=1.5, allow_nan=False, allow_infinity=False),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=1.5, allow_nan=False, allow_infinity=False),
    label_pairs(),
    st.floats(-1.2, 1.2),
)
@example(w1=0.1 + 0j, w2=0.1 + 0j, labels=(0j, 1e-6j), beta=0.0)
def test_eigenvalue_sum_and_rank_bound(w1, w2, labels, beta):
    l1, l2 = labels
    try:
        state = random_two_branch_state(w1, w2, l1, l2, beta=complex(beta, 0))
    except mc.ZeroStateError:
        return
    rho = reduce(state)
    spec = mc.eigenvalues(rho)
    assert sum(spec) == pytest.approx(rho.trace(), abs=1e-10)
    assert all(0.0 <= lam <= 1.0 for lam in spec)
    assert sum(1 for lam in spec if lam > 1e-8) <= len(rho.labels)


def test_eigenvalues_keep_coalescing_labels():
    # labels 5e-8 apart, full coherence: a pure state over both labels
    rho = mc.ReducedDensity((1.0 + 0j, 1.0 + 5e-8 + 0j), (0.5, 0.5), np.zeros((2, 2)))
    spec = mc.eigenvalues(rho)
    assert spec == pytest.approx((1.0, 0.0), abs=1e-15)


def test_eigenvalues_nearly_coincident_mixture_sums_to_one():
    # an equal mixture of two states 3e-7 apart: (1 +- |<l1|l2>|)/2
    rho = decohered_pair(1.0 + 0j, 1.0 + 3e-7 + 0j)
    gap = (1.0 + 3e-7) - 1.0  # exact: the labels' separation as stored
    lam = mc.eigenvalues(rho)
    assert sum(lam) == pytest.approx(1.0, abs=1e-15)
    assert lam[1] == pytest.approx(-0.5 * math.expm1(-0.5 * gap**2), rel=1e-12, abs=0.0)


def test_small_eigenvalue_and_defect_keep_their_relative_accuracy():
    # nearly pure and not diagonal in |l1> +- |l2>; with real labels, weights and
    # exponent, M S is real and a 50-digit Decimal evaluation is the reference
    l1, l2, w1, w2, k12 = 0.3, 0.301, 0.6, 0.4, -1e-6
    rho = mc.ReducedDensity((l1, l2), (w1, w2), [[0.0, k12], [k12, 0.0]])
    with localcontext(prec=50):
        dl1, dl2, dw1, dw2, dk = map(Decimal, (l1, l2, w1, w2, k12))
        s12, m12 = (-((dl1 - dl2) ** 2) / 2).exp(), dw1 * dw2 * dk.exp()
        tr = dw1**2 + dw2**2 + 2 * m12 * s12
        det = (dw1**2 * dw2**2 - m12**2) * (1 - s12**2)
        lam_minus = (tr - (tr * tr - 4 * det).sqrt()) / 2
        lam_plus, defect = tr - lam_minus, 2 * det / tr**2
    lam = mc.eigenvalues(rho)
    assert lam[1] == pytest.approx(float(lam_minus), rel=1e-12, abs=0.0)
    assert lam[0] == pytest.approx(float(lam_plus), rel=1e-14, abs=0.0)
    assert mc.idempotency_defect(rho) == pytest.approx(float(defect), rel=1e-12, abs=0.0)


def test_eigenvalues_positivity_violation_raises():
    # |exp(K12)| = e^2 > 1: more coherence than two branches can hold
    growth = np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex)
    rho = mc.ReducedDensity((0j, 3.0 + 0j), (math.sqrt(0.5), math.sqrt(0.5)), growth)
    with pytest.raises(mc.PositivityError):
        mc.eigenvalues(rho)


def test_reduced_density_rejects_bad_exponents():
    with pytest.raises(mc.InvalidArgumentError):
        mc.ReducedDensity((0j, 1 + 0j), (1.0, 0.0), [[0.0, 1j], [1j, 0.0]])  # not Hermitian
    with pytest.raises(mc.InvalidArgumentError):
        mc.ReducedDensity((0j,), (1.0,), [[0.1]])  # nonzero diagonal
    with pytest.raises(mc.InvalidArgumentError):
        mc.ReducedDensity((0j, 1 + 0j), (1.0,), np.zeros((2, 2)))


def test_spectra_of_three_labels_are_unsupported():
    state = mc.normalize([[1.0, 1.0, 1.0], [0j, 1 + 0j, 1j]])
    rho = fresh(state)
    assert rho.trace() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(mc.UnsupportedInputError):
        mc.eigenvalues(rho)
    with pytest.raises(mc.UnsupportedInputError):
        mc.purity(rho)


# ---------------------------------------------------------------------------
# expectation values


def test_expectation_identity_is_trace():
    state = random_two_branch_state(0.5, -0.5, 1.0, -1.0)
    rho = reduce(state)
    assert mc.expectation(IDENTITY, rho) == pytest.approx(1.0, abs=1e-12)


def test_odd_parity_projector_on_odd_cat():
    state = mc.normalize([[0.5, -0.5], [1.2, -1.2]])
    rho = fresh(state)
    val = mc.expectation(ODD_PARITY, rho)
    assert val.real == pytest.approx(1.0, abs=1e-12)
    # series oracle: odd cats populate only odd number states
    fockrho = density_in_fock(rho)
    oracle = np.sum(op_diagonal(ODD_PARITY) * np.diag(fockrho))
    assert val == pytest.approx(oracle, abs=1e-10)


def test_odd_parity_projector_on_vacuum():
    rho = mc.ReducedDensity((0j,), (1.0,), np.zeros((1, 1)))
    assert mc.expectation(ODD_PARITY, rho) == pytest.approx(0.0, abs=1e-14)


@given(
    st.complex_numbers(min_magnitude=0.1, max_magnitude=1.2, allow_nan=False, allow_infinity=False),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=1.2, allow_nan=False, allow_infinity=False),
    label_pairs(),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
)
@example(w1=1 + 0j, w2=-1 + 0j, labels=(0j, 1e-4 + 0j), p1=0.0, p2=0.0)
@example(w1=1 + 0j, w2=-1 + 0j, labels=(1j, 1e-4 + 1j), p1=0.0, p2=0.0)
def test_expectation_matches_fock_oracle(w1, w2, labels, p1, p2):
    l1, l2 = labels
    try:
        state = mc.normalize([[w1, w2], [l1, l2]])
    except mc.ZeroStateError:
        return
    rho = fresh(state)
    op = (np.array([0.3 + 0.1j, -0.2 + 0.4j]), np.array([p1, p2]))
    oracle = np.sum(op_diagonal(op) * np.diag(density_in_fock(rho)))
    assert mc.expectation(op, rho) == pytest.approx(oracle, abs=1e-9)


def test_spectral_route_equals_trace_route():
    state = random_two_branch_state(0.45, -0.55, 1.2, -0.8, beta=0.6)
    rho = reduce(state)
    op = (np.array([0.5, -0.25, -0.25], dtype=complex), np.array([0.0, 1.1, -1.1]))
    spectral = sum(
        lam * phase_op_matrix_element(op, rho.labels, c, c).real
        for lam, c in zip(*label_eigenpairs(rho))
    )
    assert spectral == pytest.approx(mc.expectation(op, rho).real, abs=1e-9)


# ---------------------------------------------------------------------------
# purity


def test_purity_and_defect_basics():
    pure = mc.ReducedDensity((1.0 + 0j,), (1.0,), np.zeros((1, 1)))
    assert mc.purity(pure) == pytest.approx(1.0, abs=1e-12)
    assert mc.idempotency_defect(pure) == pytest.approx(0.0, abs=1e-12)

    mixed = decohered_pair(6.0 + 0j, -6.0 + 0j)
    assert mc.idempotency_defect(mixed) == pytest.approx(0.5, abs=1e-10)


def test_defect_equals_two_lambda_product_for_rank_two():
    state = random_two_branch_state(0.5, -0.5, 1.0, -1.0, beta=0.8)
    rho = reduce(state)
    spec = mc.eigenvalues(rho)
    lam_prod = 2.0 * spec[0] * spec[1]
    assert mc.idempotency_defect(rho) == pytest.approx(lam_prod, abs=1e-10)


def test_mean_photon_matches_series():
    state = random_two_branch_state(0.5, -0.5, 1.3, -1.3)
    rho = reduce(state)
    fockrho = density_in_fock(rho)
    oracle = np.sum(np.arange(fockrho.shape[0]) * np.diag(fockrho).real)
    assert mean_photon(rho) == pytest.approx(oracle, abs=1e-9)


def test_occupations_track_field_and_bath():
    state = random_two_branch_state(0.5, -0.5, 1.0, -1.0, beta=0.5)
    n_field, n_bath = occupations(state)
    assert n_field == pytest.approx(mean_photon(reduce(state)), abs=1e-10)
    assert n_bath > 0.0


# ---------------------------------------------------------------------------
# response kernel against the per-mode reference


@pytest.mark.parametrize(
    "params",
    [
        mc.ProtocolParams(Case.CASE_A, complex(math.sqrt(3.3), 0.0), math.pi),
        mc.ProtocolParams(Case.CASE_B, 1.5 + 0.4j, math.pi / 4),
    ],
    ids=["case_a", "case_b"],
)
@pytest.mark.parametrize("outcome", [Out.E, Out.G])
def test_damped_density_matches_per_mode_reduction(flat_band_201, params, outcome):
    state = mc.prepare(params, outcome)
    times = np.array([0.0, 0.01, 0.3, 1.7])
    g, depletion = mc.response(flat_band_201, times)
    n_field, n_bath = mc.damped_occupations(state, g, depletion)
    for i, t in enumerate(times):
        evolved = evolve(state, flat_band_201, t)
        reference = reduce(evolved)
        rho = mc.damped_density(state, g[i], depletion[i])
        assert len(rho.labels) == len(reference.labels)
        assert max(abs(a - b) for a, b in zip(rho.labels, reference.labels)) < 1e-13
        assert np.max(np.abs(rho.coeff - reference.coeff)) < 1e-13
        ref_field, ref_bath = occupations(evolved)
        assert abs(n_field[i] - ref_field) < 1e-13
        assert abs(n_bath[i] - ref_bath) < 1e-13


def test_damped_occupations_do_not_assume_unitarity():
    # a non-unitary (g, B) must show up as a drift of n_field + n_bath: a coherent state keeps
    # its unit trace under any flow, while a cat's trace moves and is rejected
    state = mc.normalize([[1.0], [1.2 + 0j]])
    n_field0, _ = mc.damped_occupations(state, 1.0, 0.0)
    n_field, n_bath = mc.damped_occupations(state, math.sqrt(0.5), 0.52)
    assert abs(n_field + n_bath - n_field0) > 1e-3
    cat = mc.prepare(mc.ProtocolParams(Case.CASE_A, 1.2 + 0j, math.pi), Out.E)
    with pytest.raises(mc.PositivityError, match="trace"):
        mc.damped_occupations(cat, math.sqrt(0.5), 0.52)


@pytest.mark.parametrize("phi", [1e-3, 1e-4, 1e-5, 1e-6])
def test_occupations_of_nearly_coincident_labels_match_a_60_digit_sum(phi):
    # weights of size 2.3 / phi cancel over labels |alpha0| phi apart; the exact sum is taken
    # over the prepared state's own float weights and labels
    state = mc.prepare(mc.ProtocolParams(Case.CASE_A, -0.4095 + 0j, phi), Out.E)
    g, depletion = mc.me_response(1.0, np.linspace(0.0, 2.0, 11))
    n_field, n_bath = mc.damped_occupations(state, g, depletion)
    with mpmath.workdps(60):
        terms = [(mpmath.mpc(w) * mpmath.mpc(a), mpmath.mpc(a)) for w, a in zip(*state.tolist())]
        for g_t, b_t, field, bath in zip(g, depletion, n_field, n_bath):
            s = abs(mpmath.mpc(g_t)) ** 2 + b_t
            q = sum(mpmath.conj(u) * v * mpmath.exp(s * (mpmath.conj(x) * y - (abs(x) ** 2 + abs(y) ** 2) / 2))
                    for u, x in terms for v, y in terms).real
            assert abs(field - abs(mpmath.mpc(g_t)) ** 2 * q) <= 1e-13 * abs(field)
            assert abs(bath - b_t * q) <= 1e-13 * max(abs(bath), 1e-300)


@pytest.mark.parametrize("case", [Case.CASE_A, Case.CASE_B])
@pytest.mark.parametrize("phi", [0.7, math.pi / 4, 2.1])
def test_phase_forms_at_large_amplitudes_match_a_50_digit_sum(case, phi):
    # in case A at phi = 2.1 and |alpha0| = 25 the pair (ket alpha0, bra alpha0) has G = 0, but
    # the best pair on the first bra label has G = -931: pivoted there, e^{G_ij - G_11}
    # overflowed, e^{G_11} underflowed and the form was NaN
    g, depletion = mc.me_response(1.0, np.array([0.0, 0.3]))
    for r in range(5, 55, 5):
        params = mc.ProtocolParams(case, r + 0j, phi)
        phases = mc.measurement_product(params, Out.E)[1]
        states = np.array([mc.prepare(params, outcome) for outcome in Out])
        forms = mc.coherent._phase_forms(phases, mc.damped_density(states, g, depletion))
        with mpmath.workdps(50):
            log_overlap = lambda x, y: mpmath.conj(x) * y - (abs(x) ** 2 + abs(y) ** 2) / 2
            for t, (g_t, b_t) in enumerate(zip(g.tolist(), depletion.tolist())):
                for o, (weights, labels) in enumerate(states.tolist()):
                    for k, psi in enumerate(phases.tolist()):
                        turn = mpmath.expj(psi)
                        exact = sum(mpmath.mpc(wi) * mpmath.conj(wj) * mpmath.exp(
                            b_t * log_overlap(aj, ai) + log_overlap(aj * g_t, ai * g_t * turn))
                            for wi, ai in zip(weights, labels) for wj, aj in zip(weights, labels))
                        assert abs(forms[t, o, k] - complex(exact)) <= 1e-12, (r, t, o, psi)


def test_damped_density_rejects_bath_and_unnormalized_states():
    raw = np.array([[2.0], [1.0]])
    for damped in (mc.damped_density, mc.damped_occupations):
        with pytest.raises(mc.PositivityError, match="trace"):
            damped(raw, 1.0, 0.0)
    with pytest.raises(mc.InvalidArgumentError):  # a state holds weights over field labels only
        mc.damped_density([[1.0], [1.0], [0j]], 1.0, 0.0)
    # a stack of states needs each normalized and one branch count
    one, two = mc.normalize(raw), mc.normalize([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(mc.PositivityError, match="trace"):
        mc.damped_density([one, raw], 1.0, 0.0)
    with pytest.raises(mc.InvalidArgumentError, match="branch counts"):
        mc.damped_density([one, two], 1.0, 0.0)


@pytest.mark.parametrize("branch", [0, 1])
def test_a_weight_off_by_1e_6_is_rejected_by_density_and_occupations(branch):
    # the unit norm is checked numerically, not trusted: the trace F(w, w) is 1 + O(1e-6)
    state = mc.prepare(mc.ProtocolParams(Case.CASE_B, 1.3 + 0.2j, 0.9), Out.E)
    state[0, branch] *= 1.0 + 1e-6
    g, depletion = mc.me_response(1.0, np.linspace(0.0, 1.0, 5))
    for damped in (mc.damped_density, mc.damped_occupations):
        with pytest.raises(mc.PositivityError, match="trace .* at time index 0$"):
            damped(state, g, depletion)
    single = mc.normalize([[1.0], [1.0]])
    single[0, 0] *= 1.0 + 1e-6
    for damped in (mc.damped_density, mc.damped_occupations):
        with pytest.raises(mc.PositivityError, match="trace"):
            damped(single, 1.0, 0.0)


@pytest.mark.parametrize("state, message", [
    ([[math.nan], [1.0]], "weight must be finite, got (nan+0j)"),
    ([[1.0], [complex(0.0, math.inf)]], "field label must be finite, got infj"),
    (np.zeros((2, 0)), "state needs at least one branch"),
    ([[[1.0], [1.0]], [[1.0, 1.0], [1.0, -1.0]]], "stacked states need equal branch counts"),
])
def test_state_arrays_keep_the_state_checks(state, message):
    for read in (mc.coherent.squared_norm, mc.normalize, lambda s: mc.damped_density(s, 1.0, 0.0),
                 lambda s: mc.damped_occupations(s, 1.0, 0.0),
                 lambda s: mc.fock.superposition_vector(s, 19)):
        with pytest.raises(mc.InvalidArgumentError) as err:
            read(state)
        assert str(err.value).startswith(message)


# ---------------------------------------------------------------------------
# measurement operators as (weights, phases) arrays


@pytest.mark.parametrize(
    "phase",
    [
        -math.nextafter(math.pi, 0.0),
        math.nextafter(math.pi, 4.0),
        math.pi,
        -math.pi,
        3.0 * math.pi,
        -3.0 * math.pi,
        0.0,
        -1.0,
    ],
)
def test_wrap_phase_lands_in_half_open_interval(phase):
    # U^dag U of case A carries the phases 0 and +-phi, each taken in (-pi, pi]
    params = mc.ProtocolParams(Case.CASE_A, 1.0 + 0j, phase)
    for outcome in (Out.E, Out.G):
        _, phases = mc.measurement_product(params, outcome)
        assert np.all((-math.pi < phases) & (phases <= math.pi))
        assert list(phases) == sorted(phases)
        for p in phases:
            off = min(abs(math.remainder(p - q, 2.0 * math.pi)) for q in (0.0, phase, -phase))
            assert off < 1e-14


def test_phase_op_closure_under_adjoint_and_product():
    # the measurement operator is U^dag U of the reduced operator, number state by number state
    for case, phi in ((Case.CASE_A, 0.7), (Case.CASE_B, 0.7), (Case.CASE_B, -2.9)):
        params = mc.ProtocolParams(case, 1.0 + 0j, phi)
        for outcome in (Out.E, Out.G):
            u, prod = mc.reduced_op(params, outcome), mc.measurement_product(params, outcome)
            for n in range(6):
                direct = value_at(u, n).conjugate() * value_at(u, n)
                assert value_at(prod, n) == pytest.approx(direct, abs=1e-12)


def test_phase_op_canonical_merges_and_wraps():
    # case A at phi = +-pi: the terms at +pi and -pi merge into one at +pi
    for phi in (math.pi, -math.pi):
        for outcome, s in ((Out.E, -1.0), (Out.G, 1.0)):
            params = mc.ProtocolParams(Case.CASE_A, 1.0 + 0j, phi)
            weights, phases = mc.measurement_product(params, outcome)
            assert phases.tolist() == [0.0, math.pi]
            assert weights.tolist() == [0.5, 0.5 * s]


# ---------------------------------------------------------------------------
# stacks of densities over a time grid


@pytest.mark.parametrize(
    "params",
    [
        mc.ProtocolParams(Case.CASE_A, complex(math.sqrt(3.3), 0.0), math.pi),
        mc.ProtocolParams(Case.CASE_B, 1.5 + 0.4j, math.pi / 4),
    ],
    ids=["case_a", "case_b"],
)
def test_stack_index_matches_single_time_stack(params):
    # index i of a stacked computation against a length-1 stack and the
    # unstacked density at (g[i], B[i])
    g, depletion = mc.me_response(1.0, np.linspace(0.0, 3.0, 31))
    ops = [mc.measurement_product(params, o) for o in (Out.E, Out.G)]
    state = mc.prepare(params, Out.E)

    def observables(rho):
        return [mc.eigenvalues(rho), mc.purity(rho), mc.idempotency_defect(rho),
                rho.trace(), *(mc.expectation(op, rho) for op in ops)]

    stacked = observables(mc.damped_density(state, g, depletion))
    for i in range(len(g)):
        one = observables(mc.damped_density(state, g[i : i + 1], depletion[i : i + 1]))
        bare = observables(mc.damped_density(state, g[i], depletion[i]))
        for whole, single, scalar in zip(stacked, one, bare):
            assert np.max(np.abs(whole[i] - single[0])) <= 1e-15
            assert np.max(np.abs(whole[i] - scalar)) <= 1e-15


def test_failed_stacked_checks_name_the_time_index():
    params = mc.ProtocolParams(Case.CASE_A, 1.2 + 0j, math.pi)
    state_e, state_g = (mc.prepare(params, o) for o in (Out.E, Out.G))
    g, depletion = mc.me_response(1.0, np.linspace(0.0, 2.0, 9))
    rho = mc.damped_density(state_e, g, depletion)
    # a positive real coherence exponent at index 6: |exp(K12)| > 1
    expo = np.array(rho.expo)
    expo[6, 0, 1] = expo[6, 1, 0] = 2.0
    bad = mc.ReducedDensity(rho.labels, rho.weights, expo)
    with pytest.raises(mc.PositivityError, match="time index 6$"):
        mc.eigenvalues(bad)
    # the same fault in the e density of a (time, outcome) stack: the outcome axis is not named
    both = mc.damped_density([state_e, state_g], g, depletion)
    expo_both = np.array(both.expo)
    expo_both[6, 0, 0, 1] = expo_both[6, 0, 1, 0] = 2.0
    bad_both = mc.ReducedDensity(both.labels, both.weights, expo_both, both.batch)
    with pytest.raises(mc.PositivityError, match="time index 6$"):
        mc.eigenvalues(bad_both)
    with pytest.raises(mc.PositivityError, match="time index 6$"):
        mc.conditional_probabilities(bad_both, params)
    # a flow that is not unitary at index 3 (|g|^2 + B != 1) breaks the trace
    depletion[3] *= 0.5
    with pytest.raises(mc.PositivityError, match="trace .* at time index 3$"):
        mc.damped_density(state_e, g, depletion)
    expo[2, 0, 1] = 1j
    with pytest.raises(mc.InvalidArgumentError, match="Hermitian .* at time index 2$"):
        mc.ReducedDensity(rho.labels, rho.weights, expo)
