"""Brute-force Fock oracle, and cross-checks of every analytic route against it."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case
from mesocat import fock

RNG = np.random.default_rng(20260810)
MP = mc.MasterParams(1.0)


def odd_cat(alpha0, n_bath_modes=0):
    params = mc.ProtocolParams(Case.CASE_A, alpha0, math.pi)
    return mc.prepare(params, Out.E, n_bath_modes=n_bath_modes)


def multimode_vector(state, n_field, n_mode):
    """Fock expansion of a field+bath superposition (test-side helper)."""
    dims = (n_field + 1,) + (n_mode + 1,) * state.n_bath_modes
    out = np.zeros(math.prod(dims), dtype=complex)
    for br in state.branches:
        vec = fock.coherent_to_fock(br.field, n_field).amplitudes
        for b in br.bath:
            vec = np.kron(vec, fock.coherent_to_fock(complex(b), n_mode).amplitudes)
        out += br.weight * vec
    return out


# ---------------------------------------------------------------------------
# state construction


def test_coherent_to_fock_vacuum():
    v = fock.coherent_to_fock(0.0, 12)
    assert v.amplitudes[0] == 1.0
    assert np.all(v.amplitudes[1:] == 0.0)


def test_coherent_to_fock_mean_photon():
    v = fock.coherent_to_fock(1.5, 25)
    n = np.arange(26)
    assert np.sum(n * np.abs(v.amplitudes) ** 2) == pytest.approx(2.25, abs=1e-8)
    assert np.linalg.norm(v.amplitudes) == pytest.approx(1.0, abs=1e-10)


def test_coherent_to_fock_overlap_matches_closed_form():
    a, b = 1.2 + 0.4j, -0.8 + 0.9j
    va = fock.coherent_to_fock(a, 30).amplitudes
    vb = fock.coherent_to_fock(b, 30).amplitudes
    assert np.vdot(va, vb) == pytest.approx(mc.overlap(a, b), abs=1e-10)


def test_coherent_to_fock_truncation_guard():
    with pytest.raises(mc.TruncationError):
        fock.coherent_to_fock(2.0, 10)


# ---------------------------------------------------------------------------
# the damping map (Kraus form) at the master equation's (g, B): the exact Lindblad flow


def test_lindblad_vacuum_fixed_point():
    rho0 = fock.density_from_vector(fock.coherent_to_fock(0.0, 10))
    rho = fock.damp(rho0, *mc.me_response(MP, 0.5))
    np.testing.assert_allclose(rho.matrix, rho0.matrix, atol=1e-12)


def test_lindblad_coherent_stays_coherent():
    n_max = 19
    rho0 = fock.density_from_vector(fock.coherent_to_fock(1.0, n_max))
    rho = fock.damp(rho0, *mc.me_response(MP, 0.5))
    target = fock.coherent_to_fock(math.exp(-0.25), n_max).amplitudes
    fidelity = np.real(target.conj() @ rho.matrix @ target)
    assert fidelity >= 1.0 - 1e-7
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-8)


def test_lindblad_cat_off_diagonal_damping():
    # odd cat with |alpha0|^2 = 2: the coherence between the two branches
    # damps by exp(-2 |alpha0|^2 (1 - e^{-gamma t}))
    alpha0 = complex(math.sqrt(2.0), 0)
    n_max = fock.required_n_max(alpha0)
    state = odd_cat(alpha0)
    rho0 = fock.density_from_vector(fock.superposition_vector(state, n_max))
    gamma, t = 1.0, 0.35
    rho = fock.damp(rho0, *mc.me_response(MP, t))

    labels_t = [br.field * math.exp(-gamma * t / 2) for br in state.branches]
    vecs = [fock.coherent_to_fock(l, n_max).amplitudes for l in labels_t]
    proj = np.array([[v1.conj() @ rho.matrix @ v2 for v2 in vecs] for v1 in vecs])
    s = np.array([[mc.overlap(p, q) for q in labels_t] for p in labels_t])
    coeff = np.linalg.solve(s, proj) @ np.linalg.inv(s)
    w0, w1 = state.branches[0].weight, state.branches[1].weight
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
        va = fock.coherent_to_fock(a, n_max).amplitudes
        vb = fock.coherent_to_fock(b, n_max).amplitudes
        g, depletion = mc.me_response(mc.MasterParams(gamma), gt)
        dyad = fock.damp(np.outer(va, vb.conj()), g, depletion)
        # the factor of |a><b| is the coherence exp(K_10) of the pair |b> + |a>
        pair = mc.normalize(mc.FieldBathSuperposition((mc.Branch(1.0, b), mc.Branch(1.0, a))))
        factor = np.exp(mc.damped_density(pair, g, depletion).expo[1, 0])
        target = factor * np.outer(
            fock.coherent_to_fock(a * complex(g), n_max).amplitudes,
            fock.coherent_to_fock(b * complex(g), n_max).amplitudes.conj(),
        )
        assert np.max(np.abs(dyad - target)) < 1e-6


def liouvillian(n_max, gamma):
    """gamma (a rho a^dag - {n, rho}/2) on row-major vec(rho).

    vec(A rho B) = (A kron B^T) vec(rho), and a is real, so (a^dag)^T = a.
    """
    a_op = fock.annihilation(n_max)
    eye = np.eye(n_max + 1)
    number = np.diag(np.arange(n_max + 1.0))
    return gamma * (np.kron(a_op, a_op) - 0.5 * (np.kron(number, eye) + np.kron(eye, number)))


def test_lindblad_kraus_map_matches_generator_exponential():
    # independent of the closed-form dyad factor: expm of the (n+1)^2 x (n+1)^2 generator itself,
    # against both the scalar and the whole-grid form of the map at the me_response (g, B)
    n_max, gamma = 19, 1.3
    mp = mc.MasterParams(gamma)
    cat = fock.density_from_vector(fock.superposition_vector(odd_cat(1.0 + 0j), n_max))
    va = fock.coherent_to_fock(0.7 + 0.4j, n_max).amplitudes
    vb = fock.coherent_to_fock(-0.6 + 0.5j, n_max).amplitudes
    generator = liouvillian(n_max, gamma)
    inputs = (cat.matrix, np.outer(va, vb.conj()))
    times = (0.0, 0.04, 0.5, 2.7)
    grids = [fock.damp(rho0, *mc.me_response(mp, times)) for rho0 in inputs]
    for k, t in enumerate(times):
        flow = expm(generator * t)
        for rho0, grid in zip(inputs, grids):
            reference = (flow @ rho0.ravel()).reshape(rho0.shape)
            assert np.max(np.abs(fock.damp(rho0, *mc.me_response(mp, t)) - reference)) <= 1e-12
            assert np.max(np.abs(grid[k] - reference)) <= 1e-12
        damped = fock.damp(cat, *mc.me_response(mp, t))
        assert isinstance(damped, fock.FockDensity)
        assert np.trace(damped.matrix).real == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("shift", [0.0, 0.7])
@pytest.mark.parametrize("outcome", [Out.E, Out.G])
def test_damp_at_the_bath_response_matches_the_coherent_algebra(flat_band_201, outcome, shift):
    # the band symmetric about resonance gives a real g; shifted by 0.7 gamma it
    # gives a complex g (Im g ~ 3e-3, a Lamb shift), which checks the conj(g)^n factor
    band = mc.BathSpec(flat_band_201.detunings + shift, flat_band_201.couplings, 1.0)
    n_max = 29
    state = mc.prepare(mc.ProtocolParams(Case.CASE_B, 1.3 + 0j, math.pi / 4), outcome)
    rho0 = fock.density_from_vector(fock.superposition_vector(state, n_max))
    g, depletion = mc.response(band, np.array([0.3, 1.0, 3.0]))
    assert np.max(np.abs(g.imag)) > 1e-3 if shift else np.max(np.abs(g.imag)) < 1e-14
    damped = fock.damp(rho0, g, depletion)
    rho = mc.damped_density(state, g, depletion)
    vecs = fock.coherent_to_fock(rho.labels, n_max).amplitudes  # (T, 2, N)
    expected = vecs.transpose(0, 2, 1) @ rho.coeff @ vecs.conj()
    assert np.max(np.abs(damped.matrix - expected)) <= 1e-13


def test_lindblad_rejects_bad_arguments():
    # the damping map takes no time: the times are checked where (g, B) are made
    for t in (-0.1, math.inf, math.nan):
        with pytest.raises(mc.InvalidArgumentError):
            mc.me_response(MP, t)


# ---------------------------------------------------------------------------
# the damping map on whole time grids


def grid_inputs(n_max=19):
    """An odd cat (Hermitian) and a dyad |a><b| (not Hermitian), as raw matrices."""
    cat = fock.density_from_vector(fock.superposition_vector(odd_cat(1.0 + 0j), n_max)).matrix
    va = fock.coherent_to_fock(0.7 + 0.4j, n_max).amplitudes
    vb = fock.coherent_to_fock(-0.6 + 0.5j, n_max).amplitudes
    return cat, np.outer(va, vb.conj())


@pytest.mark.parametrize("which", [0, 1])
def test_lindblad_grid_is_the_stack_of_scalar_calls(which):
    # the scalar call is the T = 1 case of the same contraction, to the bit
    rho0 = grid_inputs()[which]
    times = np.array([0.0, 1e-9, 0.02, 0.3, 1.0, 2.5, 7.0, 40.0])
    g, depletion = mc.me_response(mc.MasterParams(1.3), times)
    grid = fock.damp(rho0, g, depletion)
    assert grid.shape == (len(times),) + rho0.shape
    for k in range(len(times)):
        assert grid[k].tobytes() == fock.damp(rho0, g[k], depletion[k]).tobytes()


@pytest.mark.parametrize("which", [0, 1])
def test_lindblad_grid_shapes_and_exact_zero_times(which):
    rho0 = grid_inputs()[which]
    n = len(rho0)
    assert fock.damp(rho0, *mc.me_response(MP, np.float64(0.3))).shape == (n, n)
    assert fock.damp(rho0, *mc.me_response(MP, np.array(0.3))).shape == (n, n)
    assert fock.damp(rho0, *mc.me_response(MP, [0.3])).shape == (1, n, n)
    assert fock.damp(rho0, 0.9, 0.19).shape == (n, n)
    assert fock.damp(rho0, *mc.me_response(MP, 0.0)).tobytes() == rho0.tobytes()
    assert fock.damp(rho0, 1.0, 0.0).tobytes() == rho0.tobytes()
    grid = fock.damp(rho0, *mc.me_response(MP, [0.5, 0.0, 1.0, 0.0]))
    for k in (1, 3):
        assert grid[k].tobytes() == rho0.tobytes()
    density = fock.damp(fock.FockDensity(n - 1, rho0), *mc.me_response(MP, [0.5, 0.0]))
    assert isinstance(density, fock.FockDensity) and density.matrix.shape == (2, n, n)
    # B = 0 with a pure phase g is a rotation, not the identity
    phase = 1j ** np.arange(n)
    assert np.array_equal(fock.damp(rho0, 1j, 0.0), rho0 * np.outer(phase, phase.conj()))


@pytest.mark.parametrize("bad", [-0.1, -1e-300, math.inf, -math.inf, math.nan])
def test_lindblad_grid_rejects_any_bad_time_naming_its_index(bad):
    for index in (0, 3):
        times = np.linspace(0.0, 2.0, 5)
        times[index] = bad
        with pytest.raises(mc.InvalidArgumentError, match=f"at time index {index}$"):
            mc.me_response(MP, times)


def test_stacked_readouts_match_single_matrices():
    rho0 = fock.density_from_vector(fock.superposition_vector(odd_cat(1.0 + 0j), 19))
    stack = fock.damp(rho0, *mc.me_response(MP, np.linspace(0.0, 2.0, 5)))
    op = mc.measurement_product(mc.ProtocolParams(Case.CASE_B, 1.0 + 0j, 0.8), Out.E)
    labels = np.array([[0.9, -0.3j], [0.1 + 0.2j, 0.8]])
    vectors = fock.coherent_to_fock(labels, 19).amplitudes
    assert vectors.shape == (2, 2, 20)
    for k, matrix in enumerate(stack.matrix):
        single = fock.FockDensity(19, matrix)
        assert fock.fock_measure(op, stack)[k] == fock.fock_measure(op, single)
        assert fock.fock_purity(stack)[k] == fock.fock_purity(single)
        assert fock.fock_mean_photon(stack)[k] == fock.fock_mean_photon(single)
    for index in np.ndindex(labels.shape):
        single = fock.coherent_to_fock(labels[index], 19).amplitudes
        assert np.array_equal(vectors[index], single)


def test_coherent_to_fock_truncation_names_the_stack_index():
    labels = np.array([0.5, 1.0, 3.0, 0.2])
    with pytest.raises(mc.TruncationError, match="at time index 2$"):
        fock.coherent_to_fock(labels, 19)


# ---------------------------------------------------------------------------
# Hamiltonian field+bath evolution


def test_hamiltonian_evolve_identity_at_zero(resonant_single_mode):
    v = fock.coherent_to_fock(1.0, 19)
    out = fock.hamiltonian_evolve(v, resonant_single_mode, 0.0, n_max_per_mode=19)
    block = out.amplitudes.reshape(out.dims)
    np.testing.assert_allclose(block[:, 0], v.amplitudes, atol=1e-12)


def test_hamiltonian_evolve_coherent_follows_linear_flow(resonant_single_mode):
    n_max = 19
    v = fock.coherent_to_fock(1.0, n_max)
    for t in (0.4, 1.1):
        out = fock.hamiltonian_evolve(v, resonant_single_mode, t, n_max_per_mode=n_max)
        assert out.norm() == pytest.approx(1.0, abs=1e-9)
        rho = out.reduced_field_density()
        target = fock.coherent_to_fock(math.cos(0.7 * t), n_max).amplitudes
        fidelity = np.real(target.conj() @ rho.matrix @ target)
        assert fidelity >= 1.0 - 1e-6


def test_hamiltonian_evolve_matches_label_engine_eigenvalues(resonant_single_mode):
    alpha0 = 1.0 + 0j
    n_max = fock.required_n_max(alpha0)
    state = odd_cat(alpha0)
    vec = fock.superposition_vector(state, n_max)
    for t in (0.5, 1.3):
        out = fock.hamiltonian_evolve(vec, resonant_single_mode, t, n_max_per_mode=n_max)
        oracle = np.linalg.eigvalsh(out.reduced_field_density().matrix)[::-1]
        exact = mc.eigenvalues(mc.reduce(mc.evolve(state, resonant_single_mode, t)))
        np.testing.assert_allclose(oracle[:2], exact.eigenvalues, atol=1e-6)
        assert np.all(oracle[2:] < 1e-8)  # rank stays two


def test_hamiltonian_evolve_two_modes_matches_label_engine():
    spec = mc.BathSpec(np.array([0.0, 1.5]), np.array([0.5, 0.4]), target_gamma=1.0)
    alpha0 = 0.9 + 0j
    n_max = fock.required_n_max(alpha0)
    state = odd_cat(alpha0)
    vec = fock.superposition_vector(state, n_max)
    t = 0.8
    out = fock.hamiltonian_evolve(vec, spec, t, n_max_per_mode=n_max)
    evolved = mc.evolve(state, spec, t)
    target = multimode_vector(evolved, n_max, n_max)
    fidelity = abs(np.vdot(target, out.amplitudes)) ** 2
    assert fidelity >= 1.0 - 1e-6


def test_hamiltonian_evolve_capacity_limits():
    spec3 = mc.BathSpec(np.zeros(3), np.full(3, 0.3), target_gamma=1.0)
    v = fock.coherent_to_fock(0.5, 15)
    with pytest.raises(mc.InvalidArgumentError):
        fock.hamiltonian_evolve(v, spec3, 0.1, n_max_per_mode=15)
    spec2 = mc.BathSpec(np.zeros(2), np.full(2, 0.3), target_gamma=1.0)
    big = fock.coherent_to_fock(0.5, 120)
    with pytest.raises(mc.CapacityError):
        fock.hamiltonian_evolve(big, spec2, 0.1, n_max_per_mode=120)


# ---------------------------------------------------------------------------
# measurement and spectra


def test_fock_measure_identity():
    rho = fock.density_from_vector(fock.coherent_to_fock(1.1, 22))
    assert fock.fock_measure(mc.PhaseOpSum.identity(), rho) == pytest.approx(1.0, abs=1e-10)


def test_fock_measure_odd_parity_on_odd_cat():
    alpha0 = 1.2 + 0j
    state = odd_cat(alpha0)
    rho = fock.density_from_vector(
        fock.superposition_vector(state, fock.required_n_max(alpha0))
    )
    parity = mc.PhaseOpSum(((0.5 + 0j, 0.0), (-0.5 + 0j, math.pi)))
    assert fock.fock_measure(parity, rho).real == pytest.approx(1.0, abs=1e-10)


def test_fock_probabilities_match_exact_engine(resonant_single_mode):
    params = mc.ProtocolParams(Case.CASE_B, 1.1 + 0j, 0.8)
    n_max = fock.required_n_max(params.alpha0)
    t = 0.9
    probs = {}
    for outcome in (Out.E, Out.G):
        state = mc.prepare(params, outcome)
        vec = fock.superposition_vector(state, n_max)
        out = fock.hamiltonian_evolve(vec, resonant_single_mode, t, n_max_per_mode=n_max)
        rho_oracle = out.reduced_field_density()
        rho_exact = mc.reduce(mc.evolve(state, resonant_single_mode, t))
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
        mc.reduce(mc.evolve(mc.prepare(params, Out.E), resonant_single_mode, t)),
        mc.reduce(mc.evolve(mc.prepare(params, Out.G), resonant_single_mode, t)),
        params,
    )
    assert eta_oracle == pytest.approx(rec.eta, abs=1e-6)
