"""Exact algebra of coherent-state superpositions in a non-orthogonal basis.

A prepared field state, its environment empty, is one complex array (2, n), ``w, l = state``:
the weights of its coherent branches over their labels; states stack as arrays (..., 2, n).  A
linear damping flow with response g and depletion B (``damped_density``) leaves a field
density over the labels a_i g: weights w_i, labels l_i and a Hermitian coherence exponent K
with a zero diagonal, rho = sum_ij w_i conj(w_j) exp(K_ij) |l_i><l_j|.  No Fock space is
truncated here.  Every norm, trace, probability and occupation, and each coefficient of the
2x2 spectral form, is one quadratic form sum_ij a_i conj(b_j) exp(G_ij) of one pivoted
kernel, ``_form``, whose terms keep their relative accuracy: weights of size 1/|l_1 - l_2|
that cancel over nearly coincident labels, or near the vacuum, lose no digits.  Spectra
(eigenvalues only) and purities read one Hermitian 2x2 matrix in the orthonormalised basis
|l_1> +- |l_2>; no Gram matrix is inverted, no label merged and no trace rescaled.

Densities stack, labels (..., n) and exponents (..., n, n), every function mapping over the
leading axes with the code that serves one density; the run path's axes are (time, protocol,
first-atom outcome), and a failed check names the first offending time index, reducing over
the trailing ``batch`` axes.  A phase-diagonal operator sum_m w_m exp(i phase_m a^dag a) is
the array pair (weights, phases), (..., m).
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, PositivityError, UnsupportedInputError, ZeroStateError

#: Roundoff allowance for eigenvalues just outside [0, 1] and traces away from 1.
EIGENVALUE_TOL = 1e-10
#: Squared norms at or below this count as the zero state.
NORM_FLOOR = 1e-14


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _exponent(bra: complex, ket: complex) -> complex:
    """log <bra|ket> = -|d|^2/2 + i Im(conj(bra + ket) d)/2, d = ket - bra: both parts keep their
    relative accuracy for nearby labels (d is exact), and swapping bra and ket conjugates it."""
    d, m = ket - bra, bra + ket
    return -0.5 * _abs2(d) + 0.5j * (m.real * d.imag - m.imag * d.real)


def _product(x, y) -> np.ndarray:
    """x * y rounded product by product, as for complex scalars (numpy's array multiply fuses
    multiply-adds, its einsum does not): the forms' bits do not depend on the stack's shape."""
    return np.einsum("...,...->...", x, y)


def _form(a, b, expo=None, labels=None, phase=0.0, offsets=None):
    """sum_ij a_i conj(b_j) exp(G_ij), G_ij = expo_ij + log <l_j|l_i e^{i phase}>, on leading axes.

    ``expo`` (zero diagonal, -inf allowed) and ``labels`` default to zero, ``offsets`` l_i - l_1
    to the labels' differences.  Pivoted on the ket label x_k = l_k e^{i phase} and the bra
    label y_m = l_m of largest Re G_km, both swapped to the front, G_ij = G_11 + alpha_i +
    beta_j + c_ij with alpha and beta from the offsets and c_ij = expo_ij - expo_i1 - expo_1j +
    expo_11 + conj(y_j - y_1)(x_i - x_1), the sum is, each term to its own relative accuracy
    and none above its pivot's size,
        e^{G_11} [(sum a + sum_i a_i expm1(alpha_i)) (sum conj b + sum_j conj(b_j) expm1(beta_j))
                  - sum_{i,j>1} a_i conj(b_j) e^{G_ij - G_11} expm1(-c_ij)].
    """
    n, b = np.shape(a)[-1], np.conj(b)
    cross = lambda u, v: u.real * v.imag - u.imag * v.real  # Im(conj(u) v)
    expo = np.zeros((n, n), dtype=complex) if expo is None else np.asarray(expo)
    alpha = beta = np.zeros(n - 1)  # the labels' parts of alpha, beta and c, none without labels
    c, g11 = 0.0, None
    if labels is not None:
        y = np.asarray(labels)
        y1, d = y[..., :1], y - y[..., :1] if offsets is None else np.asarray(offsets)
        dx = dy = d[..., 1:]  # at phase 0 the pivot is the first label: alpha_i = log <y_1|y_i>
        alpha = 1j * cross(y1, dy) - 0.5 * _abs2(dy)
        beta = np.conj(alpha)
    if labels is not None and np.any(phase):
        turn = np.expm1(1j * np.asarray(phase, dtype=float))[..., None] + 1.0  # e^{i phase}
        full = np.broadcast_shapes(*(np.shape(v)[:-1] for v in (a, b, d, expo[..., 0], turn)))
        full += (n,)
        x = _product(y, turn)  # the ket labels
        reach = expo.real - 0.5 * _abs2(x[..., :, None] - y[..., None, :])  # Re G_ij
        # the pivot (ket k, bra m), bra-major so that ties keep the first bra label
        flat = np.broadcast_to(np.swapaxes(reach, -1, -2), full + (n,)).reshape(-1, n * n)
        mk, idx = np.array(np.divmod(np.argmax(flat, axis=-1), n))[..., None], np.arange(n)
        bra, ket = np.where(idx == mk, 0, np.where(idx == 0, mk, idx))  # 0 and m, or k, swapped
        row = n * np.arange(len(flat))[:, None]  # flat indices into (stack, n), then (stack, n, n)
        pick = lambda v, order: np.broadcast_to(v, full).ravel()[row + order].reshape(full)
        a, b, dk, db = pick(a, ket), pick(b, bra), pick(d, ket), pick(d, bra)
        cell = n * (row[..., None] + ket[..., None]) + bra[:, None, :]
        expo = np.broadcast_to(expo, full + (n,)).ravel()[cell].reshape(full + (n,))
        # after the swaps: the bra pivot y_1, offsets y_j - y_1 and x_i - x_1, gap = x_1 - y_1
        y1, dy = y1 + db[..., :1], db[..., 1:] - db[..., :1]
        dx = _product(dk[..., 1:] - dk[..., :1], turn)
        gap = _product(y[..., :1] + dk[..., :1], turn) - y1
        u = y1 + gap  # x_1
        alpha = 1j * cross(u, dx) - _product(np.conj(gap), dx) - 0.5 * _abs2(dx)
        beta = _product(np.conj(dy), gap) - 1j * cross(y1, dy) - 0.5 * _abs2(dy)
        g11 = expo[..., 0, 0] - 0.5 * _abs2(gap[..., 0]) + 1j * cross(y1, gap)[..., 0]
        expo = expo - expo[..., :1, :1]  # expo_11 = 0 from here on, as at phase 0
    if labels is not None:
        c = _product(dx[..., :, None], np.conj(dy)[..., None, :])
    inner, outer = expo[..., 1:, 1:] + c, expo[..., 1:, :1] + expo[..., :1, 1:]
    # e^{G_ij - G_11} expm1(-c_ij) = -e^{alpha_i + beta_j + outer_ij} expm1(c_ij), c_ij = inner -
    # outer: the side whose expm1 takes Re <= 0, so that no factor overflows past the pivot
    flip = (inner - outer).real < 0.0
    ab = alpha[..., :, None] + beta[..., None, :]
    mixed = _product(np.exp(ab + np.where(flip, outer, inner)),
                     np.expm1(np.where(flip, inner - outer, outer - inner)))
    mixed = np.where(flip, -mixed, mixed)
    left = a.sum(axis=-1) + _product(a[..., 1:], np.expm1(alpha + expo[..., 1:, 0])).sum(axis=-1)
    right = b.sum(axis=-1) + _product(b[..., 1:], np.expm1(beta + expo[..., 0, 1:])).sum(axis=-1)
    edge = _product(_product(a[..., 1:, None], b[..., None, 1:]), mixed).sum(axis=(-2, -1))
    body = _product(left, right) - edge
    return body if g11 is None else _product(np.exp(g11), body)


def _require(ok, error: type[Exception], message: str, values, batch: int = 0) -> None:
    """Raise ``error`` unless ``ok`` holds everywhere, citing ``values`` at the first failure,
    which is named by its index over all but the last ``batch`` axes of ``ok``."""
    ok = np.asarray(ok)
    if not ok.all():
        first = np.unravel_index(np.argmin(ok), ok.shape)
        named = first[:ok.ndim - batch]
        where = f" at time index {', '.join(map(str, named))}" if named else ""
        raise error(f"{message}: {np.asarray(values)[first].tolist()!r}{where}")


def overlap(a: complex, b: complex) -> complex:
    """<a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a)*b) of two coherent states: |<a|b>| <= 1, with
    equality exactly when a == b."""
    a, b = complex(a), complex(b)
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise InvalidArgumentError(f"labels must be finite, got {a!r} and {b!r}")
    return cmath.exp(_exponent(a, b))


def _gram_exponents(labels: np.ndarray) -> np.ndarray:
    """E[..., p, q] = log <l_p|l_q> for labels (..., n) of one mode: Hermitian, zero diagonal."""
    return _exponent(labels[..., :, None], labels[..., None, :])


# ---------------------------------------------------------------------------
# states


def _state(state) -> tuple[np.ndarray, np.ndarray]:
    """(weights, labels), S + (n,), of a state (2, n), weights over labels, or of a stack."""
    try:
        state = np.asarray(state, dtype=complex)
    except ValueError:  # numpy's error for ragged nested lists
        raise InvalidArgumentError("stacked states need equal branch counts") from None
    if state.shape[-2:-1] != (2,) or not state.shape[-1]:
        raise InvalidArgumentError(f"state needs at least one branch, in (2, n): got {state.shape}")
    weights, labels = state[..., 0, :], state[..., 1, :]
    for name, part in (("weight", weights), ("field label", labels)):
        bad = part[~np.isfinite(part)]
        if bad.size:
            raise InvalidArgumentError(f"{name} must be finite, got {complex(bad[0])!r}")
    return weights, labels


def squared_norm(state):
    """<psi|psi>, per state of a stack: the weights' quadratic form over the branch overlaps."""
    weights, labels = _state(state)
    return _form(weights, weights, labels=labels).real


def normalize(state) -> np.ndarray:
    """Scale all branch weights by one positive real factor to unit norm, every state of a stack
    by its own from one form; raises :class:`ZeroStateError` at a squared norm at or below
    ``NORM_FLOOR`` (a zero-probability detection branch), citing the first such state."""
    weights, labels = _state(state)
    nrm2 = np.asarray(_form(weights, weights, labels=labels).real)
    zero = nrm2 <= NORM_FLOOR
    if zero.any():
        raise ZeroStateError(f"state norm^2 = {nrm2[zero][0]:.3e} is at or below the floor",
                             np.unravel_index(np.argmax(zero), zero.shape))
    return np.stack([weights * (1.0 / np.sqrt(nrm2))[..., None], labels], axis=-2)


# ---------------------------------------------------------------------------
# reduced densities


class _PairForm(NamedTuple):
    """A density of one or two labels as the 2x2 (a, b; conj(b), d), determinant ``det``, in
    the basis (|l1> + |l2>, |l1> - |l2>) L^-dag, L the lower Cholesky factor of their Gram
    matrix; fields span the stack axes."""

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    det: np.ndarray


@dataclass(frozen=True, eq=False)
class ReducedDensity:
    """Field density rho = sum_ij w_i conj(w_j) exp(K_ij) |labels[i]><labels[j]|, or a stack.

    ``labels`` has shape (..., n), the leading axes indexing the stack (e.g. a time grid);
    ``weights`` (the w_i) broadcast against it.  ``expo`` is K, (..., n, n), Hermitian with a
    zero diagonal (K_ij = -inf: no coherence left between branches i and j).  A failed check
    does not name the last ``batch`` stack axes (e.g. protocol and outcome).  ``offsets``,
    l_i - l_1, default to the labels' differences; a damped density's, g (a_i - a_1), keep
    the relative accuracy that the rounded damped labels' differences lose.
    """

    labels: np.ndarray
    weights: np.ndarray
    expo: np.ndarray
    batch: int = 0
    offsets: np.ndarray | None = None

    def __post_init__(self):
        labels, weights, expo = (
            np.array(x, dtype=complex, order="C") for x in (self.labels, self.weights, self.expo)
        )
        offsets = labels - labels[..., :1] if self.offsets is None else self.offsets
        offsets = np.array(offsets, dtype=complex, order="C")
        n = labels.shape[-1:]
        if not n or weights.shape[-1:] != n or expo.shape[-2:] != 2 * n or offsets.shape[-1:] != n:
            raise InvalidArgumentError("weights, offsets and coherence exponents must match labels")
        zero_diagonal = np.all(np.diagonal(expo, axis1=-2, axis2=-1) == 0.0, axis=-1)
        hermitian = np.all(expo == np.conj(np.swapaxes(expo, -1, -2)), axis=(-2, -1))
        _require(zero_diagonal & hermitian, InvalidArgumentError,
                 "coherence exponent must be Hermitian with a zero diagonal", expo, self.batch)
        for name, value in dict(labels=labels, weights=weights, expo=expo, offsets=offsets).items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def coeff(self) -> np.ndarray:
        """Coefficients M_ij = w_i conj(w_j) exp(K_ij) of rho = sum_ij M_ij |l_i><l_j|."""
        w = self.weights
        return w[..., :, None] * np.conj(w)[..., None, :] * np.exp(self.expo)

    def trace(self):
        """Tr rho = sum_ij w_i conj(w_j) exp(K_ij) <l_j|l_i>."""
        return expectation((np.ones(1, dtype=complex), np.zeros(1)), self).real

    @functools.cached_property
    def _pair(self) -> _PairForm:
        n = self.labels.shape[-1]
        if n > 2:
            raise UnsupportedInputError(f"spectra need one or two labels, got {n}")
        # one label l is read as the pair (l, l) with the second weight zero
        pair, w = slice(None) if n == 2 else [0, 0], self.weights
        expo, l1 = self.expo[..., pair, :][..., pair], self.labels[..., 0]
        k12, d = expo[..., 0, 1], self.offsets[..., pair][..., 1]
        w1, w2 = np.moveaxis(np.concatenate([w, np.zeros_like(w)], axis=-1)[..., :2], -1, 0)
        # rho = sum N_xy |x><y| over |s> = |l1> + |l2>, |d> = |l1> - |l2>: three forms
        plus, minus = np.stack([w1, w2], axis=-1), np.stack([w1, -w2], axis=-1)
        n_ss, n_dd, n_sd = np.moveaxis(_form(np.stack([plus, minus, plus], axis=-2),
                                             np.stack([plus, minus, minus], axis=-2),
                                             expo[..., None, :, :]), -1, 0)
        n_ss, n_dd, n_sd = 0.25 * n_ss.real, 0.25 * n_dd.real, 0.25 * n_sd
        # Gram: <s|s> = 4 + 2 Re eps, <d|s> = 2i Im eps, eps = <l1|l2> - 1, det_s = -4 expm1(-|d|^2)
        eps = np.expm1(1j * (l1.real * d.imag - l1.imag * d.real) - 0.5 * _abs2(d))
        gap = np.expm1(-_abs2(d))
        g_ss, g_ds, det_s = 4.0 + 2.0 * eps.real, 2j * eps.imag, -4.0 * gap
        l11, l22 = np.sqrt(g_ss), np.sqrt(det_s / g_ss)  # and l21 = g_ds / l11
        # (a, b; conj(b), d) = L^dag N L; its determinant is det_s det(M) / 4 with
        # det(M) = -|w1 w2|^2 expm1(2 Re K12)
        a = g_ss * n_ss + 2.0 * (n_sd * g_ds).real + _abs2(g_ds) / g_ss * n_dd
        b = l22 * (l11 * n_sd + np.conj(g_ds / l11) * n_dd)
        det = _abs2(_product(w1, w2)) * gap * np.expm1(2.0 * k12.real)
        return _PairForm(a, b, det_s / g_ss * n_dd, det)


def damped_density(state, g, depletion) -> ReducedDensity:
    """Field density of a bath-free superposition after a linear damping flow.

    The flow maps each label a_i to a_i g and leaves the environment with depletion
    B = sum_k |f_k|^2: the exact discrete bath (``bath.response``) or the master equation
    (g = e^{-gamma t/2}, B = 1 - e^{-gamma t}).  Tracing the environment out keeps the
    weights over the labels a_i g and leaves the coherence exponent K_ij = B log <a_j|a_i>,
    the log of the environment overlap prod_k <a_j f_k|a_i f_k>; the trace must be 1 to
    roundoff (never rescaled: an unnormalized state raises :class:`PositivityError`).  Arrays
    of g and B (one shape) give the stack over them; a stack S + (2, n) of states adds the
    axes S after theirs (the ``batch`` axes).
    """
    weights, labels = _state(state)
    g, depletion = np.asarray(g, dtype=complex), np.asarray(depletion, dtype=float)
    expo = np.multiply.outer(depletion, np.swapaxes(_gram_exponents(labels), -1, -2))
    rho = ReducedDensity(np.multiply.outer(g, labels), weights, expo, weights.ndim - 1,
                         np.multiply.outer(g, labels - labels[..., :1]))
    tr = rho.trace()
    _require(np.abs(tr - 1.0) <= EIGENVALUE_TOL, PositivityError,
             "reduced density trace differs from 1 beyond roundoff", tr, rho.batch)
    return rho


def damped_occupations(state, g, depletion) -> tuple[np.ndarray, ...]:
    """(n_field, n_bath) of the damped superposition for arrays of g and B, stacked as in
    :func:`damped_density`: |g|^2 Q and B Q, Q = sum_pq conj(w_p a_p) w_q a_q <a_p|a_q>^s with
    s = |g|^2 + B.  As w_q a_q = a_1 w_q + v_q, v_q = w_q (a_q - a_1), Q is |a_1|^2 F(w, w) +
    2 Re(a_1 F(w, v)) + F(v, v), F(x, y) = sum_pq x_q conj(y_p) <a_p|a_q>^s, three forms whose
    terms do not cancel.  F(w, w) is the damped density's trace, checked as there.
    """
    weights, labels = _state(state)
    g2, depletion = _abs2(np.asarray(g, dtype=complex)), np.asarray(depletion, dtype=float)
    v, a1 = _product(weights, labels - labels[..., :1]), labels[..., 0]
    expo = np.multiply.outer(g2 + depletion, np.swapaxes(_gram_exponents(labels), -1, -2))
    a, b = np.stack([weights, weights, v], axis=-2), np.stack([weights, v, v], axis=-2)
    f_ww, f_wv, f_vv = np.moveaxis(_form(a, b, expo[..., None, :, :]), -1, 0)
    _require(np.abs(f_ww.real - 1.0) <= EIGENVALUE_TOL, PositivityError,
             "reduced density trace differs from 1 beyond roundoff", f_ww.real, weights.ndim - 1)
    q = _abs2(a1) * f_ww.real + 2.0 * _product(a1, f_wv).real + f_vv.real
    lead = (...,) + (None,) * (weights.ndim - 1)
    return g2[lead] * q, depletion[lead] * q


def eigenvalues(rho: ReducedDensity) -> np.ndarray:
    """Eigenvalues (..., 2), descending, of rho within the span of one or two coherent labels.

    rho's Hermitian 2x2 (a, b; conj(b), d) in an orthonormal basis of the span has the larger
    eigenvalue (a + d)/2 + hypot(a - d, 2|b|)/2 and the smaller one det / larger, clamped to
    [0, 1] within ``EIGENVALUE_TOL``: further out raises :class:`PositivityError`, and more
    than two labels raise :class:`UnsupportedInputError`.
    """
    m = rho._pair
    half = 0.5 * np.hypot(m.a - m.d, 2.0 * np.abs(m.b))
    top = 0.5 * (m.a + m.d) + half
    low = np.minimum(np.divide(m.det, top, out=np.zeros_like(top), where=top != 0.0), top)
    lams = np.stack([top, low], axis=-1)
    _require(np.all((-EIGENVALUE_TOL <= lams) & (lams <= 1.0 + EIGENVALUE_TOL), axis=-1),
             PositivityError, "eigenvalues outside [0, 1] beyond tolerance", lams, rho.batch)
    return np.clip(lams, 0.0, 1.0)


def purity(rho: ReducedDensity):
    """Tr rho^2 = (a + d)^2 - 2 det of the 2x2 matrix that :func:`eigenvalues` reads."""
    m = rho._pair
    return (m.a + m.d) ** 2 - 2.0 * m.det


def idempotency_defect(rho: ReducedDensity):
    """1 - Tr rho^2 of rho / Tr rho: zero iff pure, 2*lam_+*lam_- at unit trace, evaluated as
    2 det / (Tr rho)^2, which keeps its relative accuracy as the state nears purity."""
    m = rho._pair
    return 2.0 * m.det / (m.a + m.d) ** 2


# ---------------------------------------------------------------------------
# phase-diagonal operators


def _phase_forms(phases, rho: ReducedDensity):
    """Tr[exp(i phase a^dag a) rho], (..., m), for phases (..., m) whose leading axes broadcast
    against the stack: the forms of the weights at the ket labels l_i e^{i phase}."""
    w = rho.weights[..., None, :]
    return _form(w, w, rho.expo[..., None, :, :], rho.labels[..., None, :], phases,
                 rho.offsets[..., None, :])


def expectation(op, rho: ReducedDensity):
    """Tr[op rho] of op = (weights, phases), exact via exp(i phi a^dag a)|l> = |l e^{i phi}>;
    the operator's leading axes broadcast against rho's stack axes."""
    w, phases = op
    return (_phase_forms(phases, rho) * w).sum(axis=-1)
