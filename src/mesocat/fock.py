"""Brute-force truncated-Fock-space reference implementations.

Everything the analytic engines compute -- state preparation, damping at a
response (g, B), measurement, spectra -- is recomputed here from the raw
matrix representations, deliberately without caching or shortcuts (the
damping map rebuilds its response-independent tensor on every call and never
keeps it), so that agreement between the two routes validates both.  States are
plain arrays, amplitude vectors (..., N) and density matrices (..., N, N), with
N = n_max + 1 read from the last axis.  Leading axes index stacks such as a
time grid: one number-state recurrence expands every label of a stack, so the
runner's Fock table makes two, one for the branch labels of both prepared
states and one for the damped labels, and the purity Tr(rho rho) is one O(N^2)
contraction per matrix.  Cost grows fast with amplitude: desk-scale checks
only (|alpha|^2 of a few).
"""

from __future__ import annotations

import math

import numpy as np

from .coherent import _require, _weights_labels
from .errors import TruncationError


def required_n_max(amplitude):
    """Truncation rule n_max >= |a|^2 + 8 |a| + 10, erring on the large side.

    Parity-sensitive quantities need accurate far tails, hence the wide
    8-sigma margin over the mean photon number.  Elementwise on arrays.
    """
    a2 = np.abs(amplitude) ** 2
    return np.ceil(a2 + 8.0 * np.sqrt(a2) + 10.0).astype(int)


def coherent_to_fock(label, n_max: int, batch: int = 0) -> np.ndarray:
    """Expand |label> over number states: c_n = e^{-|a|^2/2} a^n / sqrt(n!), per stack index.

    A failed guard names the first failing label by its index over the axes of
    ``label`` but the last ``batch``, as a time index.
    """
    label = np.asarray(label, dtype=complex)
    need = required_n_max(label)
    _require(n_max >= need, TruncationError, f"n_max = {n_max} below the truncation rule", need,
             batch)
    amps = np.zeros(label.shape + (n_max + 1,), dtype=complex)
    amps[..., 0] = np.exp(-0.5 * np.abs(label) ** 2)
    for n in range(n_max):
        amps[..., n + 1] = amps[..., n] * label / math.sqrt(n + 1)
    tail = np.abs(amps[..., n_max]) ** 2
    _require(tail < 1e-10, TruncationError,
             "tail population at the cutoff exceeds the leakage guard", tail, batch)
    return amps


def superposition_vector(state, n_max: int) -> np.ndarray:
    """Fock vector of a superposition (weights applied verbatim), or the stack of a (nested)
    list of superpositions with equal branch counts, from one recurrence over every label."""
    weights, labels = _weights_labels(state)
    vecs = coherent_to_fock(labels, n_max, batch=labels.ndim)
    return sum(weights[..., k, None] * vecs[..., k, :] for k in range(weights.shape[-1]))


def density_from_vector(vec) -> np.ndarray:
    """|v><v| per stack index."""
    return vec[..., :, None] * vec.conj()[..., None, :]


def _kraus_tensor(mat: np.ndarray) -> np.ndarray:
    """A_l[i, j] = sqrt(C(i+l, l) C(j+l, l)) mat[i+l, j+l]: the only full-size array."""
    n = len(mat)
    padded = np.zeros((2 * n - 1, 2 * n - 1), dtype=mat.dtype)
    padded[:n, :n] = mat
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
    returns matrices.
    """
    mat = np.asarray(rho, dtype=complex)
    g, depletion = np.asarray(g), np.asarray(depletion, dtype=float)
    levels = np.arange(len(mat))
    # einsum, not BLAS: each row sums l in order, so scalar (g, B) give their bits in any grid
    damped = np.einsum("...l,lx->...x", depletion[..., None] ** levels, _kraus_tensor(mat))
    powers = g[..., None] ** levels
    damped = damped.view(complex).reshape(depletion.shape + mat.shape) * (
        powers[..., :, None] * powers.conj()[..., None, :])
    identity = (g == 1.0) & (depletion == 0.0)
    np.copyto(damped, mat, where=identity[..., None, None])  # exact, signed zeros included
    return damped


def fock_measure(op, rho):
    """Tr[op rho] of op = (weights, phases) from the number-basis diagonal, per stack index."""
    levels = np.arange(np.shape(rho)[-1])
    values = sum(w * np.exp(1j * p * levels) for w, p in zip(*op))
    return np.sum(values * np.diagonal(rho, axis1=-2, axis2=-1), axis=-1)


def fock_purity(rho):
    """Tr(rho rho) = sum_ij rho_ij rho_ji, per stack index: O(N^2), no matrix product."""
    return np.einsum("...ij,...ji->...", rho, rho).real


def fock_mean_photon(rho):
    """<n> = sum_n n rho_nn of (..., N, N) matrices, per stack index."""
    return np.sum(np.arange(np.shape(rho)[-1]) * np.diagonal(rho, 0, -2, -1).real, axis=-1)
