"""Exact algebra of coherent-state superpositions in a non-orthogonal basis.

A coherent state of one oscillator mode is named by its complex amplitude.
A prepared field state is a finite list of weighted coherent branches, its
environment empty; a linear damping flow with response g and depletion B
(``damped_density``) leaves a field density over the labels a_i g.  Every
inner product reduces to the closed-form overlap
<a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a)*b), so norms, reduced densities,
spectra, purities and expectation values of phase-diagonal operators are
all evaluated exactly -- no Fock truncation anywhere in this module.

A reduced density is stored as weights w_i over labels l_i and a Hermitian
coherence exponent K with a zero diagonal, rho = sum_ij w_i conj(w_j)
exp(K_ij) |l_i><l_j|.  Every norm, trace and expectation is one quadratic
form sum_ij a_i conj(b_j) exp(A_ij) = (sum a)(sum conj b) + sum_ij a_i
conj(b_j) expm1(A_ij), exact to roundoff when weights cancel (an odd cat
near the vacuum) or labels coalesce.  Spectra (eigenvalues only) and purities
read one Hermitian 2x2 matrix in the Cholesky-orthonormalised basis |l_1> +- |l_2>,
whose Gram entries and determinant are expm1 forms too: no Gram matrix is
inverted or diagonalised, no label merged and no trace rescaled.

A density may also be a stack, with labels (..., n) and exponents
(..., n, n): every function maps over the leading axes with the code that
serves a single density.  The run path's stack has the axes (time, protocol,
first-atom outcome), and a failed check names the first offending time
index, reducing over the trailing ``batch`` axes.  A phase-diagonal operator
sum_m w_m exp(i phase_m a^dag a) is the array pair (weights, phases), (..., m).
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidArgumentError,
    PositivityError,
    UnsupportedInputError,
    ZeroStateError,
)

#: Roundoff allowance for eigenvalues just outside [0, 1] and traces away from 1.
EIGENVALUE_TOL = 1e-10
#: Squared norms at or below this count as the zero state.
NORM_FLOOR = 1e-14


def _as_finite_complex(z, name: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidArgumentError(f"{name} must be finite, got {z!r}")
    return z


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _exponent(bra: complex, ket: complex) -> complex:
    """log <bra|ket> = conj(bra) ket - (|bra|^2 + |ket|^2)/2 = -|bra - ket|^2/2 + i Im(conj(bra) ket).

    The second form keeps the real part's relative accuracy for labels close
    together far from the vacuum, is 0 for bra == ket and flips the sign of its
    imaginary part exactly when bra and ket swap.
    """
    return -0.5 * _abs2(bra - ket) + 1j * (bra.real * ket.imag - bra.imag * ket.real)


def _product(x, y) -> np.ndarray:
    """x * y rounded product by product, as for complex scalars (numpy's array multiply fuses
    multiply-adds): the pair form's bits then do not depend on how densities are stacked."""
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _quadratic_form(a, b, em1, product=operator.mul):
    """sum_ij a_i conj(b_j) exp(expo_ij) on leading axes: (sum a)(sum conj b) + an em1 part.

    em1 = expm1(expo), computed once by callers that form several sums over it.
    """
    b = np.conj(b)
    return product(a.sum(axis=-1), b.sum(axis=-1)) + np.einsum("...i,...j,...ij", a, b, em1)


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
    """Inner product <a|b> of two coherent states.

    Returns exp(-|a|^2/2 - |b|^2/2 + conj(a)*b); the magnitude never
    exceeds 1 and equals 1 exactly when a == b.
    """
    a = _as_finite_complex(a, "a")
    b = _as_finite_complex(b, "b")
    return cmath.exp(_exponent(a, b))


def _gram_exponents(labels: np.ndarray) -> np.ndarray:
    """E[..., p, q] = log <l_p|l_q> for labels (..., n) of one mode: Hermitian, zero diagonal."""
    return _exponent(labels[..., :, None], labels[..., None, :])


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class Branch:
    """One weighted coherent term of the field: weight * |field>."""

    weight: complex
    field: complex


@dataclass(frozen=True)
class FieldBathSuperposition:
    """Finite superposition of coherent branches of one field mode, its environment empty.

    ``normalized`` is set by :func:`normalize`; operations that require unit
    norm check the flag.
    """

    branches: tuple[Branch, ...]
    normalized: bool = False

    def __post_init__(self):
        if not self.branches:
            raise InvalidArgumentError("state needs at least one branch")
        for br in self.branches:
            _as_finite_complex(br.weight, "weight")
            _as_finite_complex(br.field, "field label")


def _weights_labels(state, caller: str = "") -> tuple[np.ndarray, ...]:
    """(weights, field labels), shape S + (n,), of a state or an S-shaped nested list of states
    of n branches each, which must be normalized if a caller is named."""
    states = np.array(state, dtype=object)
    if caller and not all(s.normalized for s in states.flat):
        raise InvalidArgumentError(f"{caller}() needs normalized states")
    if len({len(s.branches) for s in states.flat}) > 1:
        raise InvalidArgumentError("stacked states need equal branch counts")
    pairs = np.array([[(b.weight, b.field) for b in s.branches] for s in states.flat], complex)
    return tuple(np.moveaxis(pairs, -1, 0).reshape((2,) + states.shape + (-1,)))


def squared_norm(state: FieldBathSuperposition) -> float:
    """<psi|psi>: the quadratic form of the weights over the branch overlap exponents."""
    weights, labels = _weights_labels(state)
    return _quadratic_form(weights, weights, np.expm1(_gram_exponents(labels).T)).real


def normalize(state: FieldBathSuperposition) -> FieldBathSuperposition:
    """Scale all branch weights by one positive real factor to unit norm.

    Raises :class:`ZeroStateError` when the squared norm falls at or below
    ``NORM_FLOOR`` (a zero-probability detection branch).
    """
    nrm2 = squared_norm(state)
    if nrm2 <= NORM_FLOOR:
        raise ZeroStateError(f"state norm^2 = {nrm2:.3e} is at or below the floor")
    scale = 1.0 / math.sqrt(nrm2)
    scaled = tuple(Branch(br.weight * scale, br.field) for br in state.branches)
    return FieldBathSuperposition(scaled, normalized=True)


# ---------------------------------------------------------------------------
# reduced densities


class _PairForm(NamedTuple):
    """A density of one or two labels as the 2x2 (a, b; conj(b), d), determinant ``det``.

    Its basis is e = (|l1> + |l2>, |l1> - |l2>) L^-dag, with L the lower
    Cholesky factor of the Gram matrix of |l1> +- |l2>; fields span the stack axes.
    """

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    det: np.ndarray


@dataclass(frozen=True, eq=False)
class ReducedDensity:
    """Field density rho = sum_ij w_i conj(w_j) exp(K_ij) |labels[i]><labels[j]|, or a stack.

    ``labels`` has shape (..., n), the leading axes indexing the stack (e.g. a
    time grid); ``weights`` (the w_i) broadcast against it.  ``expo`` is K,
    shape (..., n, n), Hermitian with a zero diagonal (K_ij = -inf: no
    coherence left between branches i and j).  A failed check does not name
    the last ``batch`` stack axes (e.g. protocol and outcome).
    """

    labels: np.ndarray
    weights: np.ndarray
    expo: np.ndarray
    batch: int = 0

    def __post_init__(self):
        labels, weights, expo = (
            np.array(x, dtype=complex, order="C") for x in (self.labels, self.weights, self.expo)
        )
        n = labels.shape[-1:]
        if not n or weights.shape[-1:] != n or expo.shape[-2:] != 2 * n:
            raise InvalidArgumentError("weights and coherence exponents must match the labels")
        zero_diagonal = np.all(np.diagonal(expo, axis1=-2, axis2=-1) == 0.0, axis=-1)
        hermitian = np.all(expo == np.conj(np.swapaxes(expo, -1, -2)), axis=(-2, -1))
        _require(zero_diagonal & hermitian, InvalidArgumentError,
                 "coherence exponent must be Hermitian with a zero diagonal", expo, self.batch)
        for name, value in (("labels", labels), ("weights", weights), ("expo", expo)):
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
        labels, expo = self.labels[..., pair], self.expo[..., pair, :][..., pair]
        (l1, l2), k12 = np.moveaxis(labels, -1, 0), expo[..., 0, 1]
        w1, w2 = np.moveaxis(np.concatenate([w, np.zeros_like(w)], axis=-1)[..., :2], -1, 0)
        # rho = sum N_xy |x><y| over |s> = |l1> + |l2>, |d> = |l1> - |l2>
        plus, minus = np.stack([w1, w2], axis=-1), np.stack([w1, -w2], axis=-1)
        em1 = np.expm1(expo)
        n_ss = 0.25 * _quadratic_form(plus, plus, em1, _product).real
        n_dd = 0.25 * _quadratic_form(minus, minus, em1, _product).real
        n_sd = 0.25 * _quadratic_form(plus, minus, em1, _product)
        # their Gram matrix: <s|s> = 4 + 2 Re eps, <d|s> = 2i Im eps with eps = <l1|l2> - 1,
        # determinant det_s = 4 (1 - |<l1|l2>|^2) = -4 expm1(-|l1 - l2|^2)
        eps, gap = np.expm1(_exponent(l1, l2)), np.expm1(-_abs2(l1 - l2))
        g_ss, g_ds, det_s = 4.0 + 2.0 * eps.real, 2j * eps.imag, -4.0 * gap
        l11 = np.sqrt(g_ss)
        l21, l22 = g_ds / l11, np.sqrt(det_s / g_ss)
        # (a, b; conj(b), d) = L^dag N L; its determinant is det_s det(M) / 4 with
        # det(M) = -|w1 w2|^2 expm1(2 Re K12)
        a = g_ss * n_ss + 2.0 * (n_sd * g_ds).real + _abs2(g_ds) / g_ss * n_dd
        b = l22 * (l11 * n_sd + np.conj(l21) * n_dd)
        det = _abs2(_product(w1, w2)) * gap * np.expm1(2.0 * k12.real)
        return _PairForm(a, b, det_s / g_ss * n_dd, det)


def damped_density(state: FieldBathSuperposition, g, depletion) -> ReducedDensity:
    """Field density of a bath-free superposition after a linear damping flow.

    The flow maps each label a_i to a_i g and leaves the environment with
    depletion B = sum_k |f_k|^2: the exact discrete bath (see
    ``bath.response``) or the master equation (g = e^{-gamma t/2},
    B = 1 - e^{-gamma t}).  Tracing the environment out keeps the weights
    over the labels a_i g and leaves the coherence exponent

        K_ij = B log <a_j|a_i> = (conj(a_j) a_i - (|a_i|^2 + |a_j|^2)/2) B,

    the log of the environment overlap prod_k <a_j f_k|a_i f_k>; the trace must be 1 to
    roundoff (it is never rescaled).  Arrays of g and B (one shape) give the stack over them;
    an S-shaped nested list of states adds the axes S after theirs (the ``batch`` axes).
    """
    weights, labels = _weights_labels(state, "damped_density")
    g, depletion = np.asarray(g, dtype=complex), np.asarray(depletion, dtype=float)
    expo = np.multiply.outer(depletion, np.swapaxes(_gram_exponents(labels), -1, -2))
    rho = ReducedDensity(np.multiply.outer(g, labels), weights, expo, weights.ndim - 1)
    tr = rho.trace()
    _require(np.abs(tr - 1.0) <= EIGENVALUE_TOL, PositivityError,
             "reduced density trace differs from 1 beyond roundoff", tr, rho.batch)
    return rho


def damped_occupations(state: FieldBathSuperposition, g, depletion) -> tuple[np.ndarray, ...]:
    """(n_field, n_bath) of the damped superposition for arrays of g and B.

    With s = |g|^2 + B (1 for a unitary flow) and
    Q = sum_pq conj(w_p a_p) w_q a_q <a_p|a_q>^s, the field holds |g|^2 Q and
    the environment B Q: the per-mode occupations in closed form; states stack as in
    :func:`damped_density`.
    """
    weights, labels = _weights_labels(state, "damped_occupations")
    g = np.asarray(g, dtype=complex)
    depletion = np.asarray(depletion, dtype=float)
    g2 = g.real**2 + g.imag**2
    wa = weights * labels
    scaled = np.exp(np.multiply.outer(g2 + depletion, _gram_exponents(labels)))
    q = np.einsum("...pq,...pq->...", wa.conj()[..., :, None] * wa[..., None, :], scaled).real
    lead = (...,) + (None,) * (wa.ndim - 1)
    return g2[lead] * q, depletion[lead] * q


def eigenvalues(rho: ReducedDensity) -> np.ndarray:
    """Eigenvalues (..., 2), descending, of rho within the span of one or two coherent labels.

    rho's Hermitian 2x2 (a, b; conj(b), d) in an orthonormal basis of the
    span has the larger eigenvalue (a + d)/2 + hypot(a - d, 2|b|)/2 and the
    smaller one det / larger.  Eigenvalues within ``EIGENVALUE_TOL`` of
    [0, 1] are clamped; anything further out raises :class:`PositivityError`,
    and more than two labels raise :class:`UnsupportedInputError`.
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
    """1 - Tr rho^2 of rho / Tr rho: zero iff pure, 2*lam_+*lam_- at unit trace.

    Evaluated as 2 det / (Tr rho)^2, which keeps its relative accuracy as
    the state nears purity.
    """
    m = rho._pair
    return 2.0 * m.det / (m.a + m.d) ** 2


# ---------------------------------------------------------------------------
# phase-diagonal operators


def _phase_forms(phases, a, b, labels, expo):
    """sum_ij a_i conj(b_j) exp(expo_ij) <l_j|l_i e^{i phase}>, (..., m), for phases (..., m)
    whose leading axes broadcast against the stack."""
    ket = labels[..., None, :, None] * np.exp(1j * phases)[..., :, None, None]  # (..., m, n, 1)
    full = expo[..., None, :, :] + _exponent(labels[..., None, None, :], ket)
    return _quadratic_form(a[..., None, :], b[..., None, :], np.expm1(full))


def expectation(op, rho: ReducedDensity):
    """Tr[op rho] of op = (weights, phases), exact via exp(i phi a^dag a)|l> = |l e^{i phi}>;
    the operator's leading axes broadcast against rho's stack axes."""
    w, phases = op
    return (_phase_forms(phases, rho.weights, rho.weights, rho.labels, rho.expo) * w).sum(axis=-1)
