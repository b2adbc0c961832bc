"""Brute-force truncated-Fock-space reference implementations.

Everything the analytic engines compute -- state preparation, damping,
field-bath evolution, measurement, spectra -- is recomputed here from the
raw matrix representations, deliberately without caching or shortcuts, so
that agreement between the two routes validates both.  The cost grows
quickly with amplitude and mode count; this module is for desk-scale checks
(|alpha|^2 of a few, at most two bath modes), not production sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import BathSpec
from .coherent import FieldBathSuperposition, PhaseOpSum
from .errors import CapacityError, InvalidArgumentError, TruncationError

#: Hard cap on the total Hilbert-space dimension of the field+bath oracle.
DIMENSION_CAP = 1_000_000


def required_n_max(amplitude: complex) -> int:
    """Truncation rule n_max >= |a|^2 + 8 |a| + 10, erring on the large side.

    Parity-sensitive quantities need accurate far tails, hence the wide
    8-sigma margin over the mean photon number.
    """
    a2 = abs(amplitude) ** 2
    return math.ceil(a2 + 8.0 * math.sqrt(a2) + 10.0)


@dataclass(frozen=True, eq=False)
class FockVector:
    n_max: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (self.n_max + 1,):
            raise InvalidArgumentError("amplitude vector must have length n_max + 1")
        self.amplitudes.setflags(write=False)


@dataclass(frozen=True, eq=False)
class FockDensity:
    n_max: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.shape != (self.n_max + 1, self.n_max + 1):
            raise InvalidArgumentError("density matrix must be (n_max+1) square")
        self.matrix.setflags(write=False)


def coherent_to_fock(label: complex, n_max: int) -> FockVector:
    """Expand |label> over number states: c_n = e^{-|a|^2/2} a^n / sqrt(n!)."""
    if n_max < required_n_max(label):
        raise TruncationError(
            f"n_max = {n_max} below the truncation rule {required_n_max(label)} for |{label}|"
        )
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(label) ** 2)
    for n in range(n_max):
        amps[n + 1] = amps[n] * label / math.sqrt(n + 1)
    if abs(amps[n_max]) ** 2 >= 1e-10:
        raise TruncationError("tail population at the cutoff exceeds the leakage guard")
    return FockVector(n_max, amps)


def superposition_vector(state: FieldBathSuperposition, n_max: int) -> FockVector:
    """Fock vector of a bath-free superposition (weights applied verbatim)."""
    if state.n_bath_modes != 0:
        raise InvalidArgumentError("superposition_vector() is for bath-free states")
    amps = np.zeros(n_max + 1, dtype=complex)
    for br in state.branches:
        amps += br.weight * coherent_to_fock(br.field, n_max).amplitudes
    return FockVector(n_max, amps)


def density_from_vector(vec: FockVector) -> FockDensity:
    return FockDensity(vec.n_max, np.outer(vec.amplitudes, vec.amplitudes.conj()))


def annihilation(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1)


def lindblad_evolve(rho, gamma: float, t: float):
    """Exact solution of d rho/dt = gamma (a rho a^dag - {n, rho}/2) after time t.

    Zero-temperature damping in Kraus form (Chuang, Leung & Yamamoto 1997,
    PRA 56, 1114; Nielsen & Chuang sec. 8.3.5): rho(t) = sum_l K_l rho K_l^dag
    with <m-l|K_l|m> = sqrt(C(m, l) eta^(m-l) (1 - eta)^l), eta = e^{-gamma t}.
    The map is linear and never raises the photon number, so it is exact on
    the truncated space and applies to non-Hermitian dyads as well.  Accepts
    a :class:`FockDensity` or a raw matrix; returns the same kind.
    """
    matrix_input = not isinstance(rho, FockDensity)
    mat = np.array(rho if matrix_input else rho.matrix, dtype=complex)
    n_max = mat.shape[0] - 1
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise InvalidArgumentError("gamma must be positive and finite")
    if t < 0.0 or not math.isfinite(t):
        raise InvalidArgumentError("t must be nonnegative and finite")
    depletion = -math.expm1(-gamma * t)  # 1 - eta, accurate for small t
    if depletion > 0.0:
        levels = np.arange(n_max + 1)
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(levels[1:]))))
        damped = np.zeros_like(mat)
        for l in range(n_max + 1):  # K_l removes l photons
            m = levels[l:]
            # log <m-l|K_l|m>^2 = log C(m, l) + (m - l) log(eta) + l log(1 - eta)
            log_k2 = (log_fact[m] - log_fact[l] - log_fact[m - l]
                      - gamma * t * (m - l) + l * math.log(depletion))
            k = np.exp(0.5 * log_k2)
            damped[: m.size, : m.size] += np.outer(k, k) * mat[l:, l:]
        mat = damped
    return mat if matrix_input else FockDensity(n_max, mat)


@dataclass(frozen=True, eq=False)
class MultiModeState:
    """Flat state vector over (field, bath_1, ..., bath_K) number bases."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes.setflags(write=False)

    def reduced_field_density(self) -> FockDensity:
        block = self.amplitudes.reshape(self.dims[0], -1)
        return FockDensity(self.dims[0] - 1, block @ block.conj().T)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def hamiltonian_evolve(
    field_state: FockVector, spec: BathSpec, t: float, n_max_per_mode: int
) -> MultiModeState:
    """Unitary field+bath evolution in the rotating frame, bath starting empty.

    H = sum_k D_k b_k^dag b_k + sum_k g_k (a^dag b_k + b_k^dag a), built as a
    sparse matrix and applied with a Krylov matrix exponential.  Limited to
    two bath modes and DIMENSION_CAP total states.  scipy is imported here,
    not at module level, so the command-line path never loads it.
    """
    from scipy.sparse import csr_matrix, identity, kron
    from scipy.sparse.linalg import expm_multiply

    k_modes = spec.n_modes
    if k_modes > 2:
        raise InvalidArgumentError("the brute-force route supports at most 2 bath modes")
    if t < 0.0 or not math.isfinite(t):
        raise InvalidArgumentError("t must be nonnegative and finite")
    dims = (field_state.n_max + 1,) + (n_max_per_mode + 1,) * k_modes
    total = math.prod(dims)
    if total > DIMENSION_CAP:
        raise CapacityError(f"total dimension {total} exceeds {DIMENSION_CAP}")

    def mode_op(op: np.ndarray, which: int):
        factors = [identity(d, format="csr") for d in dims]
        factors[which] = csr_matrix(op)
        out = factors[0]
        for f in factors[1:]:
            out = kron(out, f, format="csr")
        return out

    a_field = mode_op(annihilation(field_state.n_max), 0)
    h_mat = csr_matrix((total, total), dtype=complex)
    for k in range(k_modes):
        b_k = mode_op(annihilation(n_max_per_mode), k + 1)
        number_k = (b_k.conj().T @ b_k).tocsr()
        h_mat = h_mat + spec.detunings[k] * number_k
        h_mat = h_mat + spec.couplings[k] * (a_field.conj().T @ b_k + b_k.conj().T @ a_field)

    psi0 = field_state.amplitudes
    for _ in range(k_modes):
        vac = np.zeros(n_max_per_mode + 1, dtype=complex)
        vac[0] = 1.0
        psi0 = np.kron(psi0, vac)
    psi_t = expm_multiply(-1j * h_mat * t, psi0) if t > 0.0 else psi0.copy()
    return MultiModeState(dims, psi_t)


def fock_measure(op: PhaseOpSum, rho: FockDensity) -> complex:
    """Tr[op rho] using the number-basis diagonal values of the operator."""
    levels = np.arange(rho.n_max + 1)
    values = np.zeros(rho.n_max + 1, dtype=complex)
    for w, p in op.terms:
        values += w * np.exp(1j * p * levels)
    return complex(np.sum(values * np.diag(rho.matrix)))


def fock_eigenvalues(rho: FockDensity) -> np.ndarray:
    """Eigenvalues of the density, descending."""
    return np.linalg.eigvalsh(rho.matrix)[::-1]


def fock_purity(rho: FockDensity) -> float:
    return float(np.trace(rho.matrix @ rho.matrix).real)


def fock_mean_photon(rho: FockDensity) -> float:
    return float(np.sum(np.arange(rho.n_max + 1) * np.diag(rho.matrix).real))
