"""Brute-force truncated-Fock-space reference implementations.

Everything the analytic engines compute -- state preparation, damping,
field-bath evolution, measurement, spectra -- is recomputed here from the
raw matrix representations, deliberately without caching or shortcuts (the
damping map rebuilds its response-independent tensor on every call and never
keeps it), so that agreement between the two routes validates both.  Leading
axes index stacks such as a time grid.  Cost grows fast with amplitude and mode
count: desk-scale checks only (|alpha|^2 of a few, at most two bath modes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import BathSpec
from .coherent import FieldBathSuperposition, PhaseOpSum, _require
from .errors import CapacityError, InvalidArgumentError, TruncationError

#: Hard cap on the total Hilbert-space dimension of the field+bath oracle.
DIMENSION_CAP = 1_000_000


def required_n_max(amplitude):
    """Truncation rule n_max >= |a|^2 + 8 |a| + 10, erring on the large side.

    Parity-sensitive quantities need accurate far tails, hence the wide
    8-sigma margin over the mean photon number.  Elementwise on arrays.
    """
    a2 = np.abs(amplitude) ** 2
    return np.ceil(a2 + 8.0 * np.sqrt(a2) + 10.0).astype(int)


@dataclass(frozen=True, eq=False)
class FockVector:
    n_max: int
    amplitudes: np.ndarray  # (..., n_max + 1): leading axes index a stack

    def __post_init__(self):
        if self.amplitudes.shape[-1:] != (self.n_max + 1,):
            raise InvalidArgumentError("amplitude vector must have length n_max + 1")
        self.amplitudes.setflags(write=False)


@dataclass(frozen=True, eq=False)
class FockDensity:
    n_max: int
    matrix: np.ndarray  # (..., n_max + 1, n_max + 1): leading axes index a stack

    def __post_init__(self):
        if self.matrix.shape[-2:] != (self.n_max + 1, self.n_max + 1):
            raise InvalidArgumentError("density matrix must be (n_max+1) square")
        self.matrix.setflags(write=False)


def coherent_to_fock(label, n_max: int) -> FockVector:
    """Expand |label> over number states: c_n = e^{-|a|^2/2} a^n / sqrt(n!), per stack index."""
    label = np.asarray(label, dtype=complex)
    need = required_n_max(label)
    _require(n_max >= need, TruncationError, f"n_max = {n_max} below the truncation rule", need)
    amps = np.zeros(label.shape + (n_max + 1,), dtype=complex)
    amps[..., 0] = np.exp(-0.5 * np.abs(label) ** 2)
    for n in range(n_max):
        amps[..., n + 1] = amps[..., n] * label / math.sqrt(n + 1)
    tail = np.abs(amps[..., n_max]) ** 2
    _require(tail < 1e-10, TruncationError,
             "tail population at the cutoff exceeds the leakage guard", tail)
    return FockVector(n_max, amps)


def superposition_vector(state: FieldBathSuperposition, n_max: int) -> FockVector:
    """Fock vector of a bath-free superposition (weights applied verbatim)."""
    if state.n_bath_modes != 0:
        raise InvalidArgumentError("superposition_vector() is for bath-free states")
    amps = sum(br.weight * coherent_to_fock(br.field, n_max).amplitudes for br in state.branches)
    return FockVector(n_max, amps)


def density_from_vector(vec: FockVector) -> FockDensity:
    return FockDensity(vec.n_max, np.outer(vec.amplitudes, vec.amplitudes.conj()))


def annihilation(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1)


def _kraus_tensor(mat: np.ndarray) -> np.ndarray:
    """A_l[i, j] = sqrt(C(i+l, l) C(j+l, l)) mat[i+l, j+l]: the only full-size array."""
    n = len(mat)
    padded = np.pad(mat, (0, n - 1))
    row, col = padded.strides
    # [l, i, j] -> mat[i+l, j+l]: a strided view of the zero-padded copy
    shifted = np.lib.stride_tricks.as_strided(padded, (n, n, n), (row + col, row, col))
    l, i = np.ogrid[:n, :n]
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, 2 * n - 1)))))
    log_binom = np.where(i + l < n, log_fact[i + l] - log_fact[l] - log_fact[i], -np.inf)
    root = np.exp(0.5 * log_binom)  # sqrt C(i+l, l); 0 where K_l leaves no level i
    tensor = shifted * root[:, :, None]
    tensor *= root[:, None, :]
    return tensor.view(float).reshape(n, -1)  # real rows, so a real contraction applies it


def damp(rho, g, depletion):
    """Field density after the damping flow with response g and depletion B.

    A vacuum environment acts on the field as a pure-loss channel and a phase,
    sum_l K_l rho K_l^dag with <m-l|K_l|m> = sqrt(C(m, l)) g^(m-l) B^(l/2)
    (Chuang, Leung & Yamamoto 1997, PRA 56, 1114; Nielsen & Chuang sec. 8.3.5),
    for the (g, B) of ``lindblad.me_response`` or ``bath.response``.  It is
    linear and never raises the photon number, so it is exact on the truncated
    space and applies to non-Hermitian dyads.  It is D (sum_l B^l A_l) D^dag,
    D = diag(g^n), A of :func:`_kraus_tensor`: T values of (g, B) give a
    (T, N, N) stack from one (T x N) . (N x N^2) product in O(N^3 + T N^2)
    memory, scalars one (N, N) matrix, g = 1 and B = 0 rho itself.  Takes and
    returns a :class:`FockDensity` or a matrix.
    """
    matrix_input = not isinstance(rho, FockDensity)
    mat = np.asarray(rho if matrix_input else rho.matrix, dtype=complex)
    g, depletion = np.asarray(g), np.asarray(depletion, dtype=float)
    levels = np.arange(len(mat))
    # einsum, not BLAS: each row sums l in order, so scalar (g, B) give their bits in any grid
    damped = np.einsum("...l,lx->...x", depletion[..., None] ** levels, _kraus_tensor(mat))
    powers = g[..., None] ** levels
    damped = damped.view(complex).reshape(depletion.shape + mat.shape) * (
        powers[..., :, None] * powers.conj()[..., None, :])
    identity = (g == 1.0) & (depletion == 0.0)
    np.copyto(damped, mat, where=identity[..., None, None])  # exact, signed zeros included
    return damped if matrix_input else FockDensity(len(mat) - 1, damped)


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
    _require(np.isfinite(t) & (t >= 0), InvalidArgumentError, "t must be nonnegative and finite", t)
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

    psi0 = np.kron(field_state.amplitudes, np.eye(1, math.prod(dims[1:]))[0])  # bath vacuum
    psi_t = expm_multiply(-1j * h_mat * t, psi0) if t > 0.0 else psi0.copy()
    return MultiModeState(dims, psi_t)


def fock_measure(op: PhaseOpSum, rho: FockDensity):
    """Tr[op rho] using the number-basis diagonal values of the operator, per stack index."""
    levels = np.arange(rho.n_max + 1)
    values = sum(w * np.exp(1j * p * levels) for w, p in op.terms)
    return np.sum(values * np.diagonal(rho.matrix, axis1=-2, axis2=-1), axis=-1)


def fock_purity(rho: FockDensity):
    return np.trace(rho.matrix @ rho.matrix, axis1=-2, axis2=-1).real


def fock_mean_photon(rho: FockDensity):
    return np.sum(np.arange(rho.n_max + 1) * np.diagonal(rho.matrix, 0, -2, -1).real, axis=-1)
