"""Brute-force truncated-Fock-space reference implementations.

Everything the analytic engines compute -- state preparation, damping at a response
(g, B), measurement, spectra -- is recomputed here from the raw matrix representations,
deliberately without caching or shortcuts (the damping map rebuilds its binomial table
and loss images on every call and never keeps them), so that agreement between the two
routes validates both.  States are plain arrays, amplitude vectors (..., N) and density
matrices (..., N, N), with N = n_max + 1 read from the last axis, and a ``coherent``
state array (2, n) sums to its vector pivoted on its first label.  Leading axes index
stacks such as a time grid: one number-state recurrence expands every label of a stack,
so the runner's Fock backend makes two per command, one for the branch labels of every
prepared state and one for the damped labels, and the purity Tr(rho rho) is one O(N^2)
contraction per matrix.  Cost grows fast with amplitude: desk-scale checks only
(|alpha|^2 of a few).
"""

from __future__ import annotations

import math

import numpy as np

from .coherent import _require, _state
from .errors import InvalidArgumentError, TruncationError


def required_n_max(amplitude):
    """Truncation rule n_max >= |a|^2 + 8 |a| + 10, erring on the large side.

    Parity-sensitive quantities need accurate far tails, hence the wide
    8-sigma margin over the mean photon number.  Elementwise on arrays.
    """
    a2 = np.abs(amplitude) ** 2
    return np.ceil(a2 + 8.0 * np.sqrt(a2) + 10.0).astype(int)


def coherent_to_fock(label, n_max: int, batch: int = 0, pivoted: bool = False) -> np.ndarray:
    """Expand |label> over number states: c_n = e^{-|a|^2/2} a^n / sqrt(n!), per stack index.

    ``pivoted``, rows k > 1 of labels (..., k) hold d = c(l_k) - c(l_1), exact however near l_1,
    from d_{n+1} = (l_k d_n + (l_k - l_1) c_n(l_1)) / sqrt(n+1).  A failed guard (on every
    label) names the first failing label by its index over all but the last ``batch`` axes.
    """
    label = np.asarray(label, dtype=complex)
    need = required_n_max(label)
    _require(n_max >= need, TruncationError, f"n_max = {n_max} below the truncation rule", need,
             batch)
    amps = np.zeros((n_max + 1,) + label.shape, dtype=complex)  # level-major: contiguous steps
    amps[0] = np.exp(-0.5 * np.abs(label) ** 2)
    if pivoted:  # d_0 = c_0(l_1) expm1((|l_1|^2 - |l_k|^2) / 2), the difference -Re(conj(s) m)
        s, m = label - label[..., :1], label + label[..., :1]  # s = 0 at the pivot
        gap = -0.5 * (s.real * m.real + s.imag * m.imag)[..., 1:]
        amps[0, ..., 1:] = amps[0, ..., :1] * np.expm1(gap)
    for n in range(n_max):
        level = amps[n + 1, ...]  # an array view also for a scalar label
        np.multiply(amps[n], label, out=level)
        if pivoted:
            level += s * amps[n, ..., :1]
        level /= math.sqrt(n + 1)
    tail = np.abs(amps[n_max]) ** 2
    if pivoted:  # c_N(l_k) = c_N(l_1) + d_N
        tail[..., 1:] = np.abs(amps[n_max, ..., 1:] + amps[n_max, ..., :1]) ** 2
    _require(tail < 1e-10, TruncationError,
             "tail population at the cutoff exceeds the leakage guard", tail, batch)
    return np.ascontiguousarray(np.moveaxis(amps, 0, -1))


def superposition_vector(state, n_max: int) -> np.ndarray:
    """Fock vector of a state (2, n) (weights applied verbatim), or per state of a stack
    (..., 2, n), from one pivoted recurrence over every label: (sum_k w_k) c(l_1) + sum_{k>1}
    w_k (c(l_k) - c(l_1)), so weights that cancel over nearly coincident labels lose no digits."""
    weights, labels = _state(state)
    amps = coherent_to_fock(labels, n_max, batch=labels.ndim, pivoted=True)
    lead = np.concatenate([weights.sum(axis=-1, keepdims=True), weights[..., 1:]], axis=-1)
    return sum(lead[..., k, None] * amps[..., k, :] for k in range(weights.shape[-1]))


def density_from_vector(vec) -> np.ndarray:
    """|v><v| per stack index."""
    return vec[..., :, None] * vec.conj()[..., None, :]


def _loss_images(vec: np.ndarray) -> np.ndarray:
    """X[l, i] = sqrt(C(i+l, l)) vec[i+l] per stack index: <i|K_l|vec> without its factor
    g^i B^(l/2).  It is symmetric in (l, i), so X is its own transpose."""
    n = vec.shape[-1]
    padded = np.concatenate((vec, np.zeros(vec.shape[:-1] + (n - 1,))), axis=-1)
    k = np.arange(n)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, 2 * n - 1)))))
    root = np.exp(0.5 * (log_fact[k[:, None] + k] - log_fact[k[:, None]] - log_fact[k]))
    # the Hankel view [..., l, i] -> vec[i+l], zero where K_l leaves no level i
    return np.lib.stride_tricks.sliding_window_view(padded, n, axis=-1) * root


def damp(ket, bra, g, depletion):
    """The dyad |ket><bra| after the damping flow with response g and depletion B.

    A vacuum environment acts on the field as a pure-loss channel and a phase,
    sum_l K_l rho K_l^dag with <m-l|K_l|m> = sqrt(C(m, l)) g^(m-l) B^(l/2)
    (Chuang, Leung & Yamamoto 1997, PRA 56, 1114; Nielsen & Chuang sec. 8.3.5),
    for the (g, B) of ``lindblad.me_response`` or ``bath.response``.  It is
    linear and never raises the photon number, so it is exact on the truncated
    space; a mixed density damps as the sum of its dyads.  Per value of (g, B) it
    is one (N x N) product D X_ket diag(B^l) conj(X_bra) D^dag, D = diag(g^n), X of
    :func:`_loss_images`: T values give a (T, N, N) stack in O(T N^2) memory, each
    matrix with its scalar call's bits; a bra that is the ket object itself takes
    conj(X_ket).  B = 0 gives ket conj(bra) times the phases, and g = 1 with it that
    outer product verbatim.  Equal stacks (..., N) of ``ket`` and ``bra`` follow (g, B).
    """
    ket, bra = np.asarray(ket, dtype=complex), np.asarray(bra, dtype=complex)
    if ket.shape != bra.shape:
        raise InvalidArgumentError(f"ket of shape {ket.shape} and bra of shape {bra.shape} differ")
    stack = (...,) + (None,) * (ket.ndim - 1)  # (g, B) axes first, then the kets' stack axes
    g, depletion = np.asarray(g)[stack], np.asarray(depletion, dtype=float)[stack]
    levels = np.arange(ket.shape[-1])
    loss = depletion[..., None, None] ** levels[:, None]  # a zgemm per (g, B) keeps each row's bits
    images = _loss_images(ket)
    damped = images @ (loss * (images.conj() if bra is ket else _loss_images(bra.conj())))
    outer = ket[..., :, None] * bra.conj()[..., None, :]
    np.copyto(damped, outer, where=(depletion == 0.0)[..., None, None])  # no BLAS rounding
    damped *= density_from_vector(g[..., None] ** levels)  # the phases g^i conj(g)^j
    np.copyto(damped, outer, where=((g == 1.0) & (depletion == 0.0))[..., None, None])  # signed 0s
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
