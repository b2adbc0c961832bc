"""Coherent-state algebra against an independent truncated-Fock-series oracle."""

import cmath
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case
from mesocat.coherent import _gram_exponents, _wrap_phase, phase_op_matrix_element

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
    mats = [series_coefficients(l, n_max) for l in rho.labels]
    out = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for i, ci in enumerate(mats):
        for j, cj in enumerate(mats):
            out += rho.coeff[i, j] * np.outer(ci, cj.conj())
    return out


def op_diagonal(op: mc.PhaseOpSum, n_max=80):
    levels = np.arange(n_max + 1)
    vals = np.zeros(n_max + 1, dtype=complex)
    for w, p in op.terms:
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


ODD_PARITY = mc.PhaseOpSum(((0.5 + 0j, 0.0), (-0.5 + 0j, math.pi)))


def random_two_branch_state(w1, w2, l1, l2, beta=0j):
    """Normalized two-branch state with opposite bath labels on one mode."""
    branches = (mc.Branch(w1, l1, (beta,)), mc.Branch(w2, l2, (-beta,)))
    return mc.normalize(mc.FieldBathSuperposition(branches))


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
    state = mc.FieldBathSuperposition((mc.Branch(2.0, 1.5 + 0.5j),))
    out = mc.normalize(state)
    assert abs(out.branches[0].weight) == pytest.approx(1.0, abs=1e-14)
    assert out.normalized


def test_normalize_odd_cat_weights():
    state = mc.FieldBathSuperposition((mc.Branch(0.5, 1.0), mc.Branch(-0.5, -1.0)))
    out = mc.normalize(state)
    expected = 1.0 / math.sqrt(2.0 * (1.0 - math.exp(-2)))
    assert out.branches[0].weight == pytest.approx(expected, rel=1e-12)
    assert out.branches[1].weight == pytest.approx(-expected, rel=1e-12)
    assert mc.coherent.squared_norm(out) == pytest.approx(1.0, abs=1e-12)


def test_normalize_exact_cancellation_is_zero_state():
    state = mc.FieldBathSuperposition((mc.Branch(1.0, 0.0), mc.Branch(-1.0, 0.0)))
    with pytest.raises(mc.ZeroStateError):
        mc.normalize(state)


def test_normalize_keeps_coinciding_branches():
    state = mc.FieldBathSuperposition(
        (mc.Branch(1.0, 1.0), mc.Branch(1.0, 1.0 + 1e-9))
    )
    out = mc.normalize(state)
    assert len(out.branches) == 2
    assert out.branches[0].weight == pytest.approx(0.5, abs=1e-12)
    assert mc.coherent.squared_norm(out) == pytest.approx(1.0, abs=1e-15)


def test_normalize_near_vacuum_odd_cat():
    # weights ~ 1/(2|alpha|) cancel; the norm is still exact: N^2 = -1/(2 expm1(-2|alpha|^2))
    alpha = 3e-7
    state = mc.FieldBathSuperposition((mc.Branch(0.5, alpha), mc.Branch(-0.5, -alpha)))
    out = mc.normalize(state)
    expected = 0.5 * math.sqrt(-2.0 / math.expm1(-2.0 * alpha**2))
    assert out.branches[0].weight == pytest.approx(expected, rel=1e-14)
    assert mc.coherent.squared_norm(out) == pytest.approx(1.0, abs=1e-15)


@given(
    st.complex_numbers(min_magnitude=0.1, max_magnitude=2, allow_nan=False, allow_infinity=False),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=2, allow_nan=False, allow_infinity=False),
    label_pairs(),
)
def test_normalize_reaches_unit_norm(w1, w2, labels):
    l1, l2 = labels
    state = mc.FieldBathSuperposition((mc.Branch(w1, l1), mc.Branch(w2, l2)))
    try:
        out = mc.normalize(state)
    except mc.ZeroStateError:
        return
    assert mc.coherent.squared_norm(out) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# reduce


def test_reduce_pure_single_branch():
    state = mc.normalize(mc.FieldBathSuperposition((mc.Branch(1.0, 0.8 - 0.2j),)))
    rho = mc.reduce(state)
    np.testing.assert_allclose(rho.coeff, [[1.0]], atol=1e-14)
    assert mc.purity(rho) == pytest.approx(1.0, abs=1e-12)


def test_reduce_odd_cat_structure():
    # fresh superposition, bath still in vacuum: off-diagonal factor is 1
    state = mc.normalize(
        mc.FieldBathSuperposition(
            (mc.Branch(0.5, 1.0, (0j,)), mc.Branch(-0.5, -1.0, (0j,)))
        )
    )
    rho = mc.reduce(state)
    n2 = 1.0 / (2.0 * (1.0 - math.exp(-2)))
    np.testing.assert_allclose(rho.coeff, n2 * np.array([[1, -1], [-1, 1]]), atol=1e-14)
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)


def test_reduce_bath_overlap_dampens_coherence():
    beta = math.sqrt(0.5)
    state = random_two_branch_state(0.5, -0.5, 2.0, -2.0, beta=beta)
    rho = mc.reduce(state)
    w0, w1 = state.branches[0].weight, state.branches[1].weight
    factor = rho.coeff[0, 1] / (w0 * w1.conjugate())
    assert factor == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_reduce_requires_normalized():
    state = mc.FieldBathSuperposition((mc.Branch(1.0, 1.0),))
    with pytest.raises(mc.InvalidArgumentError):
        mc.reduce(state)


def test_reduce_merge_boundary_keeps_unit_trace():
    # two field labels 5.9e-8 apart with different bath labels: every
    # branch is kept, and the trace is 1 without any rescaling
    state = mc.normalize(
        mc.FieldBathSuperposition(
            (
                mc.Branch(1.0, 0.0, (0j,)),
                mc.Branch(1.0, 1.0, (0j,)),
                mc.Branch(1j, 5.9e-8j, (1.0 + 0j,)),
            )
        )
    )
    rho = mc.reduce(state)
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
    branches = tuple(mc.Branch(w, l, (complex(b, 0),)) for w, l, b in branch_data)
    try:
        state = mc.normalize(mc.FieldBathSuperposition(branches))
    except mc.ZeroStateError:
        return
    rho = mc.reduce(state)
    assert rho.trace() == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(rho.coeff, rho.coeff.conj().T, atol=1e-12)


# ---------------------------------------------------------------------------
# eigenvalues


def test_eigenvalues_pure_state():
    state = mc.normalize(
        mc.FieldBathSuperposition((mc.Branch(0.5, 1.3), mc.Branch(0.5, -1.3)))
    )
    spec = mc.eigenvalues(mc.reduce(state))
    assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert spec.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)


def test_eigenvalues_balanced_mixture():
    # |alpha|^2 = 1 field pair and |beta|^2 = 1 bath pair:
    # G_a(t) = G_b(t) = e^{-2}, G_a(0) = e^{-4} -> both eigenvalues 1/2
    state = random_two_branch_state(0.5, -0.5, 1.0, -1.0, beta=1.0)
    spec = mc.eigenvalues(mc.reduce(state))
    assert spec.eigenvalues[0] == pytest.approx(0.5, abs=1e-12)
    assert spec.eigenvalues[1] == pytest.approx(0.5, abs=1e-12)


def decohered_pair(l1, l2):
    """Equal mixture of |l1> and |l2>: no coherence left, K12 = -inf."""
    no_coherence = np.array([[0.0, -np.inf], [-np.inf, 0.0]], dtype=complex)
    return mc.ReducedDensity((l1, l2), (math.sqrt(0.5), math.sqrt(0.5)), no_coherence)


def test_eigenvalues_fully_decohered_orthogonal():
    rho = decohered_pair(7.0 + 0j, -7.0 + 0j)
    spec = mc.eigenvalues(rho)
    assert spec.eigenvalues[0] == pytest.approx(0.5, abs=1e-12)
    assert spec.eigenvalues[1] == pytest.approx(0.5, abs=1e-12)


def test_eigenvalues_match_fock_oracle():
    state = random_two_branch_state(0.4, -0.6, 1.1, -0.9, beta=0.7)
    spec = mc.eigenvalues(mc.reduce(state))
    oracle = np.linalg.eigvalsh(density_in_fock(mc.reduce(state)))[::-1]
    np.testing.assert_allclose(spec.eigenvalues, oracle[:2], atol=1e-9)


def test_eigenvectors_orthonormal_in_overlap_metric():
    state = random_two_branch_state(0.4, -0.6, 1.1, -0.9, beta=0.7)
    rho = mc.reduce(state)
    spec = mc.eigenvalues(rho)
    s = np.array([[mc.overlap(p, q) for q in spec.labels] for p in spec.labels])
    for i, ci in enumerate(spec.eigenvectors):
        for j, cj in enumerate(spec.eigenvectors):
            expected = 1.0 if i == j else 0.0
            assert ci.conj() @ s @ cj == pytest.approx(expected, abs=1e-9)


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
    rho = mc.reduce(state)
    spec = mc.eigenvalues(rho)
    assert sum(spec.eigenvalues) == pytest.approx(rho.trace(), abs=1e-10)
    assert all(0.0 <= lam <= 1.0 for lam in spec.eigenvalues)
    assert sum(1 for lam in spec.eigenvalues if lam > 1e-8) <= len(rho.labels)


def test_eigenvalues_keep_coalescing_labels():
    # labels 5e-8 apart, full coherence: a pure state over both labels
    rho = mc.ReducedDensity((1.0 + 0j, 1.0 + 5e-8 + 0j), (0.5, 0.5), np.zeros((2, 2)))
    spec = mc.eigenvalues(rho)
    np.testing.assert_array_equal(spec.labels, rho.labels)
    assert spec.eigenvalues == pytest.approx((1.0, 0.0), abs=1e-15)


def test_eigenvalues_nearly_coincident_mixture_sums_to_one():
    # an equal mixture of two states 3e-7 apart: (1 +- |<l1|l2>|)/2
    rho = decohered_pair(1.0 + 0j, 1.0 + 3e-7 + 0j)
    gap = (1.0 + 3e-7) - 1.0  # exact: the labels' separation as stored
    lam = mc.eigenvalues(rho).eigenvalues
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
    lam = mc.eigenvalues(rho).eigenvalues
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
    state = mc.normalize(
        mc.FieldBathSuperposition(tuple(mc.Branch(1.0, l) for l in (0j, 1 + 0j, 1j)))
    )
    rho = mc.reduce(state)
    assert rho.trace() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(mc.UnsupportedInputError):
        mc.eigenvalues(rho)
    with pytest.raises(mc.UnsupportedInputError):
        mc.purity(rho)


# ---------------------------------------------------------------------------
# expectation values


def test_expectation_identity_is_trace():
    state = random_two_branch_state(0.5, -0.5, 1.0, -1.0)
    rho = mc.reduce(state)
    assert mc.expectation(mc.PhaseOpSum.identity(), rho) == pytest.approx(1.0, abs=1e-12)


def test_odd_parity_projector_on_odd_cat():
    state = mc.normalize(
        mc.FieldBathSuperposition((mc.Branch(0.5, 1.2), mc.Branch(-0.5, -1.2)))
    )
    rho = mc.reduce(state)
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
def test_expectation_matches_fock_oracle(w1, w2, labels, p1, p2):
    l1, l2 = labels
    try:
        state = mc.normalize(
            mc.FieldBathSuperposition((mc.Branch(w1, l1), mc.Branch(w2, l2)))
        )
    except mc.ZeroStateError:
        return
    rho = mc.reduce(state)
    op = mc.PhaseOpSum(((0.3 + 0.1j, p1), (-0.2 + 0.4j, p2)))
    oracle = np.sum(op_diagonal(op) * np.diag(density_in_fock(rho)))
    assert mc.expectation(op, rho) == pytest.approx(oracle, abs=1e-9)


def test_spectral_route_equals_trace_route():
    state = random_two_branch_state(0.45, -0.55, 1.2, -0.8, beta=0.6)
    rho = mc.reduce(state)
    spec = mc.eigenvalues(rho)
    op = mc.PhaseOpSum(((0.5 + 0j, 0.0), (-0.25 + 0j, 1.1), (-0.25 + 0j, -1.1)))
    spectral = sum(
        lam * phase_op_matrix_element(op, spec.labels, c, c).real
        for lam, c in zip(spec.eigenvalues, spec.eigenvectors)
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
    rho = mc.reduce(state)
    spec = mc.eigenvalues(rho)
    lam_prod = 2.0 * spec.eigenvalues[0] * spec.eigenvalues[1]
    assert mc.idempotency_defect(rho) == pytest.approx(lam_prod, abs=1e-10)


def test_mean_photon_matches_series():
    state = random_two_branch_state(0.5, -0.5, 1.3, -1.3)
    rho = mc.reduce(state)
    fockrho = density_in_fock(rho)
    oracle = np.sum(np.arange(fockrho.shape[0]) * np.diag(fockrho).real)
    assert mc.mean_photon(rho) == pytest.approx(oracle, abs=1e-9)


def test_occupations_track_field_and_bath():
    state = random_two_branch_state(0.5, -0.5, 1.0, -1.0, beta=0.5)
    n_field, n_bath = mc.occupations(state)
    assert n_field == pytest.approx(mc.mean_photon(mc.reduce(state)), abs=1e-10)
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
        evolved = mc.evolve(state, flat_band_201, t)
        reference = mc.reduce(evolved)
        rho = mc.damped_density(state, g[i], depletion[i])
        assert len(rho.labels) == len(reference.labels)
        assert max(abs(a - b) for a, b in zip(rho.labels, reference.labels)) < 1e-13
        assert np.max(np.abs(rho.coeff - reference.coeff)) < 1e-13
        ref_field, ref_bath = mc.occupations(evolved)
        assert abs(n_field[i] - ref_field) < 1e-13
        assert abs(n_bath[i] - ref_bath) < 1e-13


def test_damped_occupations_do_not_assume_unitarity():
    # a non-unitary (g, B) must show up as a drift of n_field + n_bath
    state = mc.prepare(mc.ProtocolParams(Case.CASE_A, 1.2 + 0j, math.pi), Out.E)
    n_field0, _ = mc.damped_occupations(state, 1.0, 0.0)
    n_field, n_bath = mc.damped_occupations(state, math.sqrt(0.5), 0.52)
    assert abs(n_field + n_bath - n_field0) > 1e-3


def test_damped_density_rejects_bath_and_unnormalized_states():
    params = mc.ProtocolParams(Case.CASE_A, 1.0 + 0j, math.pi)
    with pytest.raises(mc.InvalidArgumentError):
        mc.damped_density(mc.prepare(params, Out.E, n_bath_modes=2), 1.0, 0.0)
    raw = mc.FieldBathSuperposition((mc.Branch(2.0, 1.0),))
    with pytest.raises(mc.InvalidArgumentError):
        mc.damped_density(raw, 1.0, 0.0)


# ---------------------------------------------------------------------------
# phase-operator algebra


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
    wrapped = _wrap_phase(phase)
    assert -math.pi < wrapped <= math.pi
    assert abs(math.remainder(wrapped - phase, 2.0 * math.pi)) < 1e-14


def test_phase_op_closure_under_adjoint_and_product():
    op = mc.PhaseOpSum(((0.5 + 0.5j, 0.7), (0.25 + 0j, -0.3)))
    prod = (op.adjoint() * op).canonical()
    for n in range(6):
        direct = op.value_at(n).conjugate() * op.value_at(n)
        assert prod.value_at(n) == pytest.approx(direct, abs=1e-12)


def test_phase_op_canonical_merges_and_wraps():
    op = mc.PhaseOpSum(((0.5 + 0j, math.pi), (0.5 + 0j, -math.pi), (0.0 + 0j, 0.3)))
    canon = op.canonical()
    assert len(canon.terms) == 1
    w, p = canon.terms[0]
    assert w == pytest.approx(1.0)
    assert p == pytest.approx(math.pi)


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
    g, depletion = mc.me_response(mc.MasterParams(1.0), np.linspace(0.0, 3.0, 31))
    ops = [mc.measurement_product(params, o) for o in (Out.E, Out.G)]
    state = mc.prepare(params, Out.E)

    def observables(rho):
        spec = mc.eigenvalues(rho)
        return [spec.eigenvalues, spec.eigenvectors, mc.purity(rho), mc.idempotency_defect(rho),
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
    g, depletion = mc.me_response(mc.MasterParams(1.0), np.linspace(0.0, 2.0, 9))
    rho = mc.damped_density(state_e, g, depletion)
    # a positive real coherence exponent at index 6: |exp(K12)| > 1
    expo = np.array(rho.expo)
    expo[6, 0, 1] = expo[6, 1, 0] = 2.0
    bad = mc.ReducedDensity(rho.labels, rho.weights, expo)
    with pytest.raises(mc.PositivityError, match="time index 6$"):
        mc.eigenvalues(bad)
    with pytest.raises(mc.PositivityError, match="time index 6$"):
        mc.conditional_probabilities(bad, mc.damped_density(state_g, g, depletion), params)
    # a flow that is not unitary at index 3 (|g|^2 + B != 1) breaks the trace
    depletion[3] *= 0.5
    with pytest.raises(mc.PositivityError, match="trace .* at time index 3$"):
        mc.damped_density(state_e, g, depletion)
    expo[2, 0, 1] = 1j
    with pytest.raises(mc.InvalidArgumentError, match="Hermitian .* at time index 2$"):
        mc.ReducedDensity(rho.labels, rho.weights, expo)
