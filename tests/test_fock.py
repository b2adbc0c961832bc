"""Brute-force Fock oracle, and cross-checks of every analytic route against it."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case
from mesocat import fock
from reference import evolve, hamiltonian_state, joint, reduce, trace_of_square

RNG = np.random.default_rng(20260810)
GAMMA = 1.0


def odd_cat(alpha0):
    params = mc.ProtocolParams(Case.CASE_A, alpha0, math.pi)
    return mc.prepare(params, Out.E)


def multimode_vector(branches, n_field, n_mode):
    """Fock expansion of per-mode branches (weight, field, bath) (test-side helper)."""
    out = 0.0
    for weight, field, bath in branches:
        vec = fock.coherent_to_fock(field, n_field)
        for b in bath:
            vec = np.kron(vec, fock.coherent_to_fock(complex(b), n_mode))
        out = out + weight * vec
    return out


def field_density(psi):
    """The field density psi psi^dag of a state shaped (field level, bath levels)."""
    return psi @ psi.conj().T


# ---------------------------------------------------------------------------
# state construction


def test_coherent_to_fock_vacuum():
    v = fock.coherent_to_fock(0.0, 12)
    assert v[0] == 1.0
    assert np.all(v[1:] == 0.0)


def test_coherent_to_fock_mean_photon():
    v = fock.coherent_to_fock(1.5, 25)
    n = np.arange(26)
    assert np.sum(n * np.abs(v) ** 2) == pytest.approx(2.25, abs=1e-8)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


def test_coherent_to_fock_overlap_matches_closed_form():
    a, b = 1.2 + 0.4j, -0.8 + 0.9j
    va = fock.coherent_to_fock(a, 30)
    vb = fock.coherent_to_fock(b, 30)
    assert np.vdot(va, vb) == pytest.approx(mc.overlap(a, b), abs=1e-10)


def test_coherent_to_fock_truncation_guard():
    with pytest.raises(mc.TruncationError):
        fock.coherent_to_fock(2.0, 10)


# ---------------------------------------------------------------------------
# the damping map (Kraus form) at the master equation's (g, B): the exact Lindblad flow


def test_lindblad_vacuum_fixed_point():
    vac = fock.coherent_to_fock(0.0, 10)
    rho0 = fock.density_from_vector(vac)
    rho = fock.damp(vac, vac, *mc.me_response(GAMMA, 0.5))
    np.testing.assert_allclose(rho, rho0, atol=1e-12)


def test_lindblad_coherent_stays_coherent():
    n_max = 19
    vec = fock.coherent_to_fock(1.0, n_max)
    rho = fock.damp(vec, vec, *mc.me_response(GAMMA, 0.5))
    target = fock.coherent_to_fock(math.exp(-0.25), n_max)
    fidelity = np.real(target.conj() @ rho @ target)
    assert fidelity >= 1.0 - 1e-7
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)


def test_lindblad_cat_off_diagonal_damping():
    # odd cat with |alpha0|^2 = 2: the coherence between the two branches
    # damps by exp(-2 |alpha0|^2 (1 - e^{-gamma t}))
    alpha0 = complex(math.sqrt(2.0), 0)
    n_max = fock.required_n_max(alpha0)
    state = odd_cat(alpha0)
    vec = fock.superposition_vector(state, n_max)
    gamma, t = 1.0, 0.35
    rho = fock.damp(vec, vec, *mc.me_response(GAMMA, t))

    labels_t = [label * math.exp(-gamma * t / 2) for label in state[1]]
    vecs = [fock.coherent_to_fock(l, n_max) for l in labels_t]
    proj = np.array([[v1.conj() @ rho @ v2 for v2 in vecs] for v1 in vecs])
    s = np.array([[mc.overlap(p, q) for q in labels_t] for p in labels_t])
    coeff = np.linalg.solve(s, proj) @ np.linalg.inv(s)
    w0, w1 = state[0]
    measured = coeff[0, 1] / (w0 * np.conj(w1))
    expected = math.exp(-2.0 * 2.0 * (1.0 - math.exp(-gamma * t)))
    assert measured == pytest.approx(expected, abs=1e-6)


def test_lindblad_dyad_factor_oracle():
    # evolve raw dyads |a><b| and compare with the closed-form factor
    n_max = 30
    gamma = 1.0
    for _ in range(4):
        a, b = (complex(*RNG.uniform(-1.4, 1.4, 2)) for _ in range(2))
        gt = RNG.uniform(0.05, 1.5)
        va = fock.coherent_to_fock(a, n_max)
        vb = fock.coherent_to_fock(b, n_max)
        g, depletion = mc.me_response(gamma, gt)
        dyad = fock.damp(va, vb, g, depletion)
        # the factor of |a><b| is the coherence exp(K_10) of the pair |b> + |a>
        pair = mc.normalize([[1.0, 1.0], [b, a]])
        factor = np.exp(mc.damped_density(pair, g, depletion).expo[1, 0])
        target = factor * np.outer(
            fock.coherent_to_fock(a * complex(g), n_max),
            fock.coherent_to_fock(b * complex(g), n_max).conj(),
        )
        assert np.max(np.abs(dyad - target)) < 1e-6


def liouvillian(n_max, gamma):
    """gamma (a rho a^dag - {n, rho}/2) on row-major vec(rho).

    vec(A rho B) = (A kron B^T) vec(rho), and a is real, so (a^dag)^T = a.
    """
    a_op = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)
    eye = np.eye(n_max + 1)
    number = np.diag(np.arange(n_max + 1.0))
    return gamma * (np.kron(a_op, a_op) - 0.5 * (np.kron(number, eye) + np.kron(eye, number)))


def test_lindblad_kraus_map_matches_generator_exponential():
    # independent of the closed-form dyad factor: expm of the (n+1)^2 x (n+1)^2 generator itself,
    # against both the scalar and the whole-grid form of the map at the me_response (g, B)
    n_max, gamma = 19, 1.3
    cat = fock.superposition_vector(odd_cat(1.0 + 0j), n_max)
    va = fock.coherent_to_fock(0.7 + 0.4j, n_max)
    vb = fock.coherent_to_fock(-0.6 + 0.5j, n_max)
    generator = liouvillian(n_max, gamma)
    inputs = ((cat, cat), (va, vb))
    times = (0.0, 0.04, 0.5, 2.7)
    grids = [fock.damp(*dyad, *mc.me_response(gamma, times)) for dyad in inputs]
    for k, t in enumerate(times):
        flow = expm(generator * t)
        for (ket, bra), grid in zip(inputs, grids):
            reference = (flow @ np.outer(ket, bra.conj()).ravel()).reshape(len(ket), len(bra))
            assert np.max(np.abs(fock.damp(ket, bra, *mc.me_response(gamma, t)) - reference)) <= 1e-12
            assert np.max(np.abs(grid[k] - reference)) <= 1e-12
        damped = fock.damp(cat, cat, *mc.me_response(gamma, t))
        assert np.trace(damped).real == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("shift", [0.0, 0.7])
@pytest.mark.parametrize("outcome", [Out.E, Out.G])
def test_damp_at_the_bath_response_matches_the_coherent_algebra(flat_band_201, outcome, shift):
    # the band symmetric about resonance gives a real g; shifted by 0.7 gamma it
    # gives a complex g (Im g ~ 3e-3, a Lamb shift), which checks the conj(g)^n factor
    band = flat_band_201 + [[shift], [0.0]]
    n_max = 29
    state = mc.prepare(mc.ProtocolParams(Case.CASE_B, 1.3 + 0j, math.pi / 4), outcome)
    vec = fock.superposition_vector(state, n_max)
    g, depletion = mc.response(band, np.array([0.3, 1.0, 3.0]))
    assert np.max(np.abs(g.imag)) > 1e-3 if shift else np.max(np.abs(g.imag)) < 1e-14
    damped = fock.damp(vec, vec, g, depletion)
    rho = mc.damped_density(state, g, depletion)
    vecs = fock.coherent_to_fock(rho.labels, n_max)  # (T, 2, N)
    expected = vecs.transpose(0, 2, 1) @ rho.coeff @ vecs.conj()
    assert np.max(np.abs(damped - expected)) <= 1e-13


def test_lindblad_rejects_bad_arguments():
    # the damping map takes no time: the times are checked where (g, B) are made
    for t in (-0.1, math.inf, math.nan):
        with pytest.raises(mc.InvalidArgumentError):
            mc.me_response(GAMMA, t)


# ---------------------------------------------------------------------------
# the damping map on whole time grids


def grid_inputs(n_max=19):
    """An odd cat |c><c| (Hermitian) and a dyad |a><b| (not Hermitian), as (ket, bra) pairs."""
    cat = fock.superposition_vector(odd_cat(1.0 + 0j), n_max)
    va = fock.coherent_to_fock(0.7 + 0.4j, n_max)
    vb = fock.coherent_to_fock(-0.6 + 0.5j, n_max)
    return (cat, cat), (va, vb)


@pytest.mark.parametrize("which", [0, 1])
def test_lindblad_grid_is_the_stack_of_scalar_calls(flat_band_201, which):
    # each grid time is its own (N x N) product, so the scalar call gives its bits; n_max 39
    # is the benchmark's, and the band shifted off resonance gives a complex g
    times = np.array([0.0, 1e-9, 0.02, 0.3, 1.0, 2.5, 7.0, 40.0])
    band = flat_band_201 + [[0.7], [0.0]]
    responses = (mc.me_response(1.3, times), mc.response(band, times))
    assert np.max(np.abs(responses[1][0].imag)) > 1e-3
    for n_max in (19, 39):
        ket, bra = grid_inputs(n_max)[which]
        for g, depletion in responses:
            grid = fock.damp(ket, bra, g, depletion)
            assert grid.shape == (len(times), n_max + 1, n_max + 1)
            for k in range(len(times)):
                assert grid[k].tobytes() == fock.damp(ket, bra, g[k], depletion[k]).tobytes()


@pytest.mark.parametrize("which", [0, 1])
def test_lindblad_grid_shapes_and_exact_zero_times(which):
    ket, bra = grid_inputs()[which]
    rho0 = np.outer(ket, bra.conj())
    n = len(rho0)
    assert fock.damp(ket, bra, *mc.me_response(GAMMA, np.float64(0.3))).shape == (n, n)
    assert fock.damp(ket, bra, *mc.me_response(GAMMA, np.array(0.3))).shape == (n, n)
    assert fock.damp(ket, bra, *mc.me_response(GAMMA, [0.3])).shape == (1, n, n)
    assert fock.damp(ket, bra, 0.9, 0.19).shape == (n, n)
    assert fock.damp(ket, bra, *mc.me_response(GAMMA, 0.0)).tobytes() == rho0.tobytes()
    assert fock.damp(ket, bra, 1.0, 0.0).tobytes() == rho0.tobytes()
    grid = fock.damp(ket, bra, *mc.me_response(GAMMA, [0.5, 0.0, 1.0, 0.0]))
    for k in (1, 3):
        assert grid[k].tobytes() == rho0.tobytes()
    density = fock.damp(ket, bra, *mc.me_response(GAMMA, [0.5, 0.0]))
    assert density.shape == (2, n, n) and density[1].tobytes() == rho0.tobytes()
    # B = 0 with a pure phase g is a rotation, not the identity
    phase = 1j ** np.arange(n)
    assert np.array_equal(fock.damp(ket, bra, 1j, 0.0), rho0 * np.outer(phase, phase.conj()))


def test_damp_puts_the_kets_stack_axes_after_the_response_axes():
    (cat, _), (va, vb) = grid_inputs()
    kets, bras = np.array([cat, va]), np.array([cat, vb])
    g, depletion = mc.me_response(GAMMA, [0.0, 0.3, 2.0])
    stack = fock.damp(kets, bras, g, depletion)
    assert stack.shape == (3, 2, 20, 20)
    for k in range(2):
        assert stack[:, k].tobytes() == fock.damp(kets[k], bras[k], g, depletion).tobytes()


@pytest.mark.parametrize("bra_shape", [(21,), (2, 20)], ids=["length", "stack"])
def test_damp_rejects_a_bra_shaped_unlike_its_ket(bra_shape):
    ket = fock.coherent_to_fock(0.5, 19)
    with pytest.raises(mc.InvalidArgumentError, match="differ$"):
        fock.damp(ket, np.ones(bra_shape, dtype=complex), 0.9, 0.19)


def test_a_ket_passed_as_its_own_bra_keeps_the_bits_of_a_copied_bra():
    # damp(v, v) shares the ket's loss images; zeros of either sign among the amplitudes
    g, depletion = mc.me_response(GAMMA, np.linspace(0.0, 2.0, 9))
    rng = np.random.default_rng(7)
    noise = rng.normal(size=(6, 25)) + 1j * rng.normal(size=(6, 25))
    noise[:, ::4], noise[:, 1::7] = 0.0, complex(-0.0, -0.0)
    vecs = [fock.superposition_vector(odd_cat(1.0 + 0j), 24), fock.coherent_to_fock(-1.2, 24),
            fock.coherent_to_fock(0.0, 24), *noise, noise[:3]]
    for v in vecs:
        assert fock.damp(v, v, g, depletion).tobytes() == fock.damp(v, v.copy(), g, depletion).tobytes()


def test_damp_of_a_mixture_is_the_sum_of_its_dyads():
    # a rank-3 mixture sum_k p_k |v_k><v_k| against expm of the generator at two times
    n_max, gamma = 19, 0.8
    vecs = [fock.coherent_to_fock(label, n_max) for label in (0.8 + 0.2j, -0.5 + 0.6j)]
    vecs.append(fock.superposition_vector(odd_cat(1.0 + 0j), n_max))
    weights = (0.5, 0.3, 0.2)
    rho0 = sum(p * fock.density_from_vector(v) for p, v in zip(weights, vecs))
    assert np.linalg.matrix_rank(rho0, tol=1e-10) == 3
    generator = liouvillian(n_max, gamma)
    for t in (0.3, 1.7):
        damped = sum(p * fock.damp(v, v, *mc.me_response(gamma, t)) for p, v in zip(weights, vecs))
        reference = (expm(generator * t) @ rho0.ravel()).reshape(rho0.shape)
        assert np.max(np.abs(damped - reference)) <= 1e-12


def test_damp_memory_stays_below_a_quarter_of_one_kraus_tensor():
    # the map needs O(T N^2) memory: no (N, N, N) array of N^3 complex entries is formed
    import tracemalloc

    n_max = 79
    ket = fock.coherent_to_fock(2.0 + 1.0j, n_max)
    bra = fock.coherent_to_fock(-1.5 + 0.5j, n_max)
    g, depletion = mc.me_response(GAMMA, [0.1, 0.5, 2.0])
    tracemalloc.start()
    try:
        fock.damp(ket, bra, g, depletion)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n_max + 1) ** 3 * 16 / 4


@pytest.mark.parametrize("bad", [-0.1, -1e-300, math.inf, -math.inf, math.nan])
def test_lindblad_grid_rejects_any_bad_time_naming_its_index(bad):
    for index in (0, 3):
        times = np.linspace(0.0, 2.0, 5)
        times[index] = bad
        with pytest.raises(mc.InvalidArgumentError, match=f"at time index {index}$"):
            mc.me_response(GAMMA, times)


def test_stacked_readouts_match_single_matrices():
    vec = fock.superposition_vector(odd_cat(1.0 + 0j), 19)
    stack = fock.damp(vec, vec, *mc.me_response(GAMMA, np.linspace(0.0, 2.0, 5)))
    op = mc.measurement_product(mc.ProtocolParams(Case.CASE_B, 1.0 + 0j, 0.8), Out.E)
    labels = np.array([[0.9, -0.3j], [0.1 + 0.2j, 0.8]])
    vectors = fock.coherent_to_fock(labels, 19)
    assert vectors.shape == (2, 2, 20)
    for k, single in enumerate(stack):
        assert fock.fock_measure(op, stack)[k] == fock.fock_measure(op, single)
        assert fock.fock_purity(stack)[k] == fock.fock_purity(single)
        assert fock.fock_mean_photon(stack)[k] == fock.fock_mean_photon(single)
    for index in np.ndindex(labels.shape):
        single = fock.coherent_to_fock(labels[index], 19)
        assert np.array_equal(vectors[index], single)


def test_purity_matches_the_trace_of_the_matrix_product():
    # one O(N^2) contraction against Tr(m m) from the O(N^3) product, within the
    # rounding of N-term sums: (n_max + 1) eps sum|m_ij|^2, on damped densities
    # (case A and B, master and bath-like complex g) and on non-Hermitian dyads
    n_max = 24
    times = np.linspace(0.0, 3.0, 7)
    matrices = []
    for case, phi in ((Case.CASE_A, math.pi), (Case.CASE_B, math.pi / 4)):
        state = mc.prepare(mc.ProtocolParams(case, 1.3 + 0.2j, phi), Out.E)
        vec = fock.superposition_vector(state, n_max)
        g, depletion = mc.me_response(GAMMA, times)
        matrices += [fock.damp(vec, vec, g * phase, depletion) for phase in (1.0, np.exp(0.7j * times))]
    rng = np.random.default_rng(17)
    u, v = (fock.coherent_to_fock(rng.uniform(-0.9, 0.9, (5, 2)) @ [1.0, 1j], n_max)
            for _ in range(2))
    matrices.append(u[:, :, None] * v.conj()[:, None, :])
    for m in matrices:
        bound = (n_max + 1) * np.finfo(float).eps * np.sum(np.abs(m) ** 2, axis=(-2, -1))
        gap = np.abs(fock.fock_purity(m) - trace_of_square(m).real)
        assert np.all(gap <= bound), (gap / bound).max()


def test_coherent_to_fock_truncation_names_the_stack_index():
    labels = np.array([0.5, 1.0, 3.0, 0.2])
    with pytest.raises(mc.TruncationError, match="at time index 2$"):
        fock.coherent_to_fock(labels, 19)


# ---------------------------------------------------------------------------
# Hamiltonian field+bath evolution


def test_hamiltonian_evolve_identity_at_zero(resonant_single_mode):
    v = fock.coherent_to_fock(1.0, 19)
    psi = hamiltonian_state(v, resonant_single_mode, 0.0, 19)
    np.testing.assert_allclose(psi[:, 0], v, atol=1e-12)


def test_hamiltonian_evolve_coherent_follows_linear_flow(resonant_single_mode):
    n_max = 19
    v = fock.coherent_to_fock(1.0, n_max)
    for t in (0.4, 1.1):
        psi = hamiltonian_state(v, resonant_single_mode, t, n_max)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-9)
        rho = field_density(psi)
        target = fock.coherent_to_fock(math.cos(0.7 * t), n_max)
        fidelity = np.real(target.conj() @ rho @ target)
        assert fidelity >= 1.0 - 1e-6


def test_hamiltonian_evolve_matches_label_engine_eigenvalues(resonant_single_mode):
    alpha0 = 1.0 + 0j
    n_max = fock.required_n_max(alpha0)
    state = odd_cat(alpha0)
    vec = fock.superposition_vector(state, n_max)
    for t in (0.5, 1.3):
        psi = hamiltonian_state(vec, resonant_single_mode, t, n_max)
        oracle = np.linalg.eigvalsh(field_density(psi))[::-1]
        exact = mc.eigenvalues(reduce(evolve(state, resonant_single_mode, t)))
        np.testing.assert_allclose(oracle[:2], exact, atol=1e-6)
        assert np.all(oracle[2:] < 1e-8)  # rank stays two


def test_hamiltonian_evolve_two_modes_matches_label_engine():
    spec = np.array([[0.0, 1.5], [0.5, 0.4]])
    alpha0 = 0.9 + 0j
    n_max = fock.required_n_max(alpha0)
    state = odd_cat(alpha0)
    vec = fock.superposition_vector(state, n_max)
    t = 0.8
    psi = hamiltonian_state(vec, spec, t, n_max)
    target = multimode_vector(evolve(state, spec, t), n_max, n_max)
    fidelity = abs(np.vdot(target, psi.ravel())) ** 2
    assert fidelity >= 1.0 - 1e-6


# ---------------------------------------------------------------------------
# measurement and spectra


def test_fock_measure_identity():
    rho = fock.density_from_vector(fock.coherent_to_fock(1.1, 22))
    identity = (np.ones(1, dtype=complex), np.zeros(1))
    assert fock.fock_measure(identity, rho) == pytest.approx(1.0, abs=1e-10)


def test_fock_measure_odd_parity_on_odd_cat():
    alpha0 = 1.2 + 0j
    state = odd_cat(alpha0)
    rho = fock.density_from_vector(
        fock.superposition_vector(state, fock.required_n_max(alpha0))
    )
    parity = (np.array([0.5, -0.5], dtype=complex), np.array([0.0, math.pi]))
    assert fock.fock_measure(parity, rho).real == pytest.approx(1.0, abs=1e-10)


def test_fock_probabilities_match_exact_engine(resonant_single_mode):
    params = mc.ProtocolParams(Case.CASE_B, 1.1 + 0j, 0.8)
    n_max = fock.required_n_max(params.alpha0)
    t = 0.9
    probs = {}
    for outcome in (Out.E, Out.G):
        state = mc.prepare(params, outcome)
        vec = fock.superposition_vector(state, n_max)
        rho_oracle = field_density(hamiltonian_state(vec, resonant_single_mode, t, n_max))
        rho_exact = reduce(evolve(state, resonant_single_mode, t))
        for second in (Out.E, Out.G):
            op = mc.measurement_product(params, second)
            p_oracle = fock.fock_measure(op, rho_oracle).real
            p_exact = mc.expectation(op, rho_exact).real
            assert p_oracle == pytest.approx(p_exact, abs=1e-6)
            probs[(outcome, second)] = p_oracle
        assert fock.fock_purity(rho_oracle) == pytest.approx(
            mc.purity(rho_exact), abs=1e-6
        )
    eta_oracle = probs[(Out.E, Out.E)] - probs[(Out.G, Out.E)]
    rec = mc.conditional_probabilities(
        joint(*(reduce(evolve(mc.prepare(params, o), resonant_single_mode, t)) for o in (Out.E, Out.G))),
        params,
    )
    assert eta_oracle == pytest.approx(rec.eta, abs=1e-6)
