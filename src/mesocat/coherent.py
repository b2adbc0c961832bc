"""Exact algebra of coherent-state superpositions in a non-orthogonal basis.

A coherent state of one oscillator mode is named by its complex amplitude.
Joint field+bath states are finite lists of weighted product-coherent
branches, and every inner product reduces to the closed-form overlap
<a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a)*b), so norms, reduced densities,
spectra, purities and expectation values of phase-diagonal operators are
all evaluated exactly -- no Fock truncation anywhere in this module.

A reduced density is stored as weights w_i over labels l_i and a Hermitian
coherence exponent K with a zero diagonal, rho = sum_ij w_i conj(w_j)
exp(K_ij) |l_i><l_j|.  Every norm, trace and expectation is one quadratic
form sum_ij a_i conj(b_j) exp(A_ij) = (sum a)(sum conj b) + sum_ij a_i
conj(b_j) expm1(A_ij), exact to roundoff when weights cancel (an odd cat
near the vacuum) or labels coalesce.  Spectra and purities read one
Hermitian 2x2 matrix in the Cholesky-orthonormalised basis |l_1> +- |l_2>,
whose Gram entries and determinant are expm1 forms too: no Gram matrix is
inverted or diagonalised, no label merged and no trace rescaled.

A density may also be a stack, with labels (..., n) and exponents
(..., n, n), e.g. one per grid time: every function maps over the leading
axes with the code that serves a single density, and a failed check names
the first offending index.
"""

from __future__ import annotations

import cmath
import functools
import math
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

_TWO_PI = 2.0 * math.pi


def _as_finite_complex(z, name: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidArgumentError(f"{name} must be finite, got {z!r}")
    return z


def _abs2(z: complex) -> float:
    # z.real**2 + z.imag**2, bit-identical to the real part of conj(z)*z,
    # so self-overlap exponents come out exactly 0.
    return z.real * z.real + z.imag * z.imag


def _exponent(bra: complex, ket: complex) -> complex:
    """log <bra|ket> = conj(bra) ket - (|bra|^2 + |ket|^2)/2."""
    return bra.conjugate() * ket - 0.5 * (_abs2(bra) + _abs2(ket))


def _quadratic_form(a, b, expo):
    """sum_ij a_i conj(b_j) exp(expo_ij) on leading axes: (sum a)(sum conj b) + an expm1 part."""
    b = np.conj(b)
    return a.sum(axis=-1) * b.sum(axis=-1) + np.einsum("...i,...j,...ij", a, b, np.expm1(expo))


def _require(ok, error: type[Exception], message: str, values) -> None:
    """Raise ``error`` unless ``ok`` holds everywhere, citing ``values`` at the first failure."""
    ok = np.asarray(ok)
    if not ok.all():
        first = np.unravel_index(np.argmin(ok), ok.shape)
        where = f" at time index {', '.join(map(str, first))}" if first else ""
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
    """E[p, q] = log <l_p|l_q> for labels of one mode, or rows of product labels over several."""
    labels = labels.reshape(len(labels), -1)
    norms = (labels.real**2 + labels.imag**2).sum(axis=1)
    cross = (np.conj(labels)[:, None, :] * labels[None, :, :]).sum(axis=2)
    expo = -0.5 * (norms[:, None] + norms[None, :]) + cross
    np.fill_diagonal(expo, 0.0)  # the self-overlap exponent is identically zero
    return 0.5 * (expo + expo.conj().T)  # Hermitian to the bit whatever the summation order


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class Branch:
    """One weighted product-coherent term: weight * |field> prod_k |bath_k>."""

    weight: complex
    field: complex
    bath: tuple[complex, ...] = ()


@dataclass(frozen=True)
class FieldBathSuperposition:
    """Finite superposition of product-coherent branches of one field mode plus bath.

    ``normalized`` is set by :func:`normalize` and preserved by unitary
    evolution; operations that require unit norm check the flag.
    """

    branches: tuple[Branch, ...]
    normalized: bool = False

    def __post_init__(self):
        if not self.branches:
            raise InvalidArgumentError("state needs at least one branch")
        n_bath = len(self.branches[0].bath)
        for br in self.branches:
            _as_finite_complex(br.weight, "weight")
            _as_finite_complex(br.field, "field label")
            if len(br.bath) != n_bath:
                raise InvalidArgumentError("bath label count must be uniform across branches")
            for b in br.bath:
                _as_finite_complex(b, "bath label")

    @property
    def n_bath_modes(self) -> int:
        return len(self.branches[0].bath)


def squared_norm(state: FieldBathSuperposition) -> float:
    """<psi|psi>: the quadratic form of the weights over the branch overlap exponents."""
    modes = np.array([(br.field, *br.bath) for br in state.branches], dtype=complex)
    weights = np.array([br.weight for br in state.branches], dtype=complex)
    return _quadratic_form(weights, weights, _gram_exponents(modes).T).real


def normalize(state: FieldBathSuperposition) -> FieldBathSuperposition:
    """Scale all branch weights by one positive real factor to unit norm.

    Raises :class:`ZeroStateError` when the squared norm falls at or below
    ``NORM_FLOOR`` (a zero-probability detection branch).
    """
    nrm2 = squared_norm(state)
    if nrm2 <= NORM_FLOOR:
        raise ZeroStateError(f"state norm^2 = {nrm2:.3e} is at or below the floor")
    scale = 1.0 / math.sqrt(nrm2)
    scaled = tuple(Branch(br.weight * scale, br.field, br.bath) for br in state.branches)
    return FieldBathSuperposition(scaled, normalized=True)


def occupations(state: FieldBathSuperposition) -> tuple[float, float]:
    """Mean photon number of the field mode and summed bath occupation.

    Their sum is conserved under the excitation-preserving field-bath
    coupling, which makes this the natural conservation check.
    """
    if not state.normalized:
        raise InvalidArgumentError("occupations() needs a normalized state")
    n_field = 0.0 + 0.0j
    n_bath = 0.0 + 0.0j
    for b1 in state.branches:
        for b2 in state.branches:
            modes = zip((b1.field, *b1.bath), (b2.field, *b2.bath))
            w = b1.weight.conjugate() * b2.weight * math.prod(overlap(x, y) for x, y in modes)
            n_field += w * b1.field.conjugate() * b2.field
            n_bath += w * sum(
                (x.conjugate() * y for x, y in zip(b1.bath, b2.bath)), 0.0 + 0.0j
            )
    return n_field.real, n_bath.real


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
    labels: np.ndarray
    chol: tuple[np.ndarray, np.ndarray, np.ndarray]  # L11, L21, L22

    def label_coefficients(self, v0, v1) -> np.ndarray:
        """Coefficients over ``labels`` (last axis) of the vector v0 e_0 + v1 e_1."""
        l11, l21, l22 = self.chol
        # coinciding labels (L22 = 0) span one ray: no difference component
        y_d = np.divide(v1, l22, out=np.zeros_like(v1), where=l22 != 0.0)
        y_s = (v0 - np.conj(l21) * y_d) / l11
        return np.stack([y_s + y_d, y_s - y_d], axis=-1)


@dataclass(frozen=True, eq=False)
class ReducedDensity:
    """Field density rho = sum_ij w_i conj(w_j) exp(K_ij) |labels[i]><labels[j]|, or a stack.

    ``labels`` has shape (..., n), the leading axes indexing the stack (e.g. a
    time grid); ``weights`` (the w_i) broadcast against it.  ``expo`` is K,
    shape (..., n, n), Hermitian with a zero diagonal (K_ij = -inf: no
    coherence left between branches i and j).
    """

    labels: np.ndarray
    weights: np.ndarray
    expo: np.ndarray

    def __post_init__(self):
        labels, weights, expo = (
            np.array(x, dtype=complex) for x in (self.labels, self.weights, self.expo)
        )
        n = labels.shape[-1:]
        if not n or weights.shape[-1:] != n or expo.shape[-2:] != 2 * n:
            raise InvalidArgumentError("weights and coherence exponents must match the labels")
        zero_diagonal = np.all(np.diagonal(expo, axis1=-2, axis2=-1) == 0.0, axis=-1)
        hermitian = np.all(expo == np.conj(np.swapaxes(expo, -1, -2)), axis=(-2, -1))
        _require(zero_diagonal & hermitian, InvalidArgumentError,
                 "coherence exponent must be Hermitian with a zero diagonal", expo)
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
        return expectation(PhaseOpSum.identity(), self).real

    @functools.cached_property
    def _pair(self) -> _PairForm:
        n = self.labels.shape[-1]
        if n > 2:
            raise UnsupportedInputError(f"spectra need one or two labels, got {n}")
        # one label l is read as the pair (l, l) with the second weight zero
        pair, w = [0, -1], self.weights
        labels, expo = self.labels[..., pair], self.expo[..., pair, :][..., pair]
        (l1, l2), k12 = np.moveaxis(labels, -1, 0), expo[..., 0, 1]
        w1, w2 = np.moveaxis(np.concatenate([w, np.zeros_like(w)], axis=-1)[..., :2], -1, 0)
        # rho = sum N_xy |x><y| over |s> = |l1> + |l2>, |d> = |l1> - |l2>
        plus, minus = np.stack([w1, w2], axis=-1), np.stack([w1, -w2], axis=-1)
        n_ss = 0.25 * _quadratic_form(plus, plus, expo).real
        n_dd = 0.25 * _quadratic_form(minus, minus, expo).real
        n_sd = 0.25 * _quadratic_form(plus, minus, expo)
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
        det = _abs2(w1 * w2) * gap * np.expm1(2.0 * k12.real)
        return _PairForm(a, b, det_s / g_ss * n_dd, det, labels, (l11, l21, l22))


def _checked_trace(rho: ReducedDensity) -> ReducedDensity:
    """rho itself once its trace is 1 to roundoff at every stack index; it is never rescaled."""
    tr = rho.trace()
    _require(np.abs(tr - 1.0) <= EIGENVALUE_TOL, PositivityError,
             "reduced density trace differs from 1 beyond roundoff", tr)
    return rho


def reduce(state: FieldBathSuperposition) -> ReducedDensity:
    """Trace the bath out of a normalized superposition.

    Each branch keeps its field label and weight; exp(K[p, q]) is the
    product of bath overlaps prod_k <bath_q,k|bath_p,k>.
    """
    if not state.normalized:
        raise InvalidArgumentError("reduce() needs a normalized state")
    bath = np.array([br.bath for br in state.branches], dtype=complex)
    rho = ReducedDensity(
        [br.field for br in state.branches],
        [br.weight for br in state.branches],
        _gram_exponents(bath).T,
    )
    return _checked_trace(rho)


def _bath_free(state: FieldBathSuperposition, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(weights, field labels) of a normalized bath-free state."""
    if not state.normalized:
        raise InvalidArgumentError(f"{name}() needs a normalized state")
    if state.n_bath_modes != 0:
        raise InvalidArgumentError(f"{name}() needs a bath-free state")
    brs = state.branches
    return (np.array([br.weight for br in brs], dtype=complex),
            np.array([br.field for br in brs], dtype=complex))


def damped_density(state: FieldBathSuperposition, g, depletion) -> ReducedDensity:
    """Field density of a bath-free superposition after a linear damping flow.

    The flow maps each label a_i to a_i g and leaves the environment with
    depletion B = sum_k |f_k|^2: the exact discrete bath (see
    ``bath.response``) or the master equation (g = e^{-gamma t/2},
    B = 1 - e^{-gamma t}).  Tracing the environment out keeps the weights
    over the labels a_i g and leaves the coherence exponent

        K_ij = B log <a_j|a_i> = (conj(a_j) a_i - (|a_i|^2 + |a_j|^2)/2) B,

    as reduce(evolve(...)) does with per-mode products; the trace is checked.
    Arrays of g and B (one shape) give the stack of densities over them.
    """
    weights, labels = _bath_free(state, "damped_density")
    g, depletion = np.asarray(g, dtype=complex), np.asarray(depletion, dtype=float)
    expo = depletion[..., None, None] * _gram_exponents(labels).T
    return _checked_trace(ReducedDensity(np.multiply.outer(g, labels), weights, expo))


def damped_occupations(state: FieldBathSuperposition, g, depletion) -> tuple[np.ndarray, ...]:
    """(n_field, n_bath) of the damped superposition for arrays of g and B.

    With s = |g|^2 + B (1 for a unitary flow) and
    Q = sum_pq conj(w_p a_p) w_q a_q <a_p|a_q>^s, the field holds |g|^2 Q and
    the environment B Q: the closed form of :func:`occupations`.
    """
    weights, labels = _bath_free(state, "damped_occupations")
    g = np.asarray(g, dtype=complex)
    depletion = np.asarray(depletion, dtype=float)
    g2 = g.real**2 + g.imag**2
    wa = weights * labels
    scaled = np.exp(_gram_exponents(labels) * (g2 + depletion)[..., None, None])
    q = np.einsum("pq,...pq->...", np.outer(wa.conj(), wa), scaled).real
    return g2 * q, depletion * q


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues (..., 2), descending, and eigenvectors (..., 2, 2) of a reduced density.

    eigenvectors[..., k, :] are coefficients c over ``labels`` (the pair (l, l)
    for one label), |v> = sum_i c[i] |labels[i]> with c^dag S c = 1, or zero
    where the two labels coincide and span one ray.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    labels: np.ndarray


def eigenvalues(rho: ReducedDensity) -> Spectrum:
    """Solve rho |v> = lambda |v> within the span of one or two coherent labels.

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
             PositivityError, "eigenvalues outside [0, 1] beyond tolerance", lams)
    # eigenvector of the larger eigenvalue from the row that is not near-singular;
    # (1, 0) where the two eigenvalues coincide
    upper = m.a >= m.d
    v0 = np.where(half == 0.0, 1.0, np.where(upper, half + 0.5 * (m.a - m.d), m.b))
    v1 = np.where(half == 0.0, 0.0, np.where(upper, np.conj(m.b), half + 0.5 * (m.d - m.a)))
    norm = np.hypot(np.abs(v0), np.abs(v1))
    v0, v1 = v0 / norm, v1 / norm
    vecs = [m.label_coefficients(v0, v1), m.label_coefficients(-np.conj(v1), np.conj(v0))]
    return Spectrum(np.clip(lams, 0.0, 1.0), np.stack(vecs, axis=-2), m.labels)


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


def mean_photon(rho: ReducedDensity):
    """<a^dag a> of the field density: sum_ij w_i conj(w_j) exp(K_ij) conj(l_j) l_i <l_j|l_i>."""
    wl = rho.weights * rho.labels
    return _op_form(PhaseOpSum.identity(), wl, wl, rho.labels, rho.expo).real


# ---------------------------------------------------------------------------
# phase-diagonal operators


def _wrap_phase(phase: float) -> float:
    """Phase modulo 2 pi in (-pi, pi]; within 1e-15 of -pi it is taken as +pi."""
    p = math.remainder(phase, _TWO_PI)
    if p <= -math.pi + 1e-15:
        p = min(p + _TWO_PI, math.pi)
    return p


@dataclass(frozen=True)
class PhaseOpSum:
    """Finite sum of number-phase exponentials sum_m w_m exp(i phase_m a^dag a).

    Closed under adjoints, sums and products, which covers every
    measurement operator built from dispersive couplings.  Scalars such as
    exp(i*phi) are folded into the weights.
    """

    terms: tuple[tuple[complex, float], ...]

    @classmethod
    def identity(cls) -> "PhaseOpSum":
        return cls(((1.0 + 0.0j, 0.0),))

    def adjoint(self) -> "PhaseOpSum":
        return PhaseOpSum(tuple((w.conjugate(), -p) for w, p in self.terms))

    def __add__(self, other: "PhaseOpSum") -> "PhaseOpSum":
        return PhaseOpSum(self.terms + other.terms)

    def __mul__(self, other):
        if isinstance(other, PhaseOpSum):
            prod = tuple(
                (w1 * w2, p1 + p2) for w1, p1 in self.terms for w2, p2 in other.terms
            )
            return PhaseOpSum(prod)
        return PhaseOpSum(tuple((w * other, p) for w, p in self.terms))

    __rmul__ = __mul__

    def canonical(self, phase_tol: float = 1e-12) -> "PhaseOpSum":
        """Wrap phases to (-pi, pi], merge equal phases, drop zero weights."""
        out: list[list] = []
        for w, p in self.terms:
            p = _wrap_phase(p)
            for item in out:
                if abs(item[1] - p) < phase_tol:
                    item[0] += w
                    break
            else:
                out.append([w, p])
        kept = tuple((w, p) for w, p in out if abs(w) > 1e-15)
        if not kept:
            kept = ((0.0 + 0.0j, 0.0),)
        return PhaseOpSum(tuple(sorted(kept, key=lambda t: t[1])))

    def value_at(self, n: int) -> complex:
        """Diagonal matrix element on the Fock state |n>."""
        return sum(w * cmath.exp(1j * p * n) for w, p in self.terms)


def _op_form(op: PhaseOpSum, a, b, labels, expo):
    """sum_m w_m sum_ij a_i conj(b_j) exp(expo_ij) <l_j|l_i e^{i phase_m}> over any leading axes."""
    w, phase = (np.array(x) for x in zip(*op.terms))
    ket = labels[..., None, :, None] * np.exp(1j * phase)[:, None, None]  # (..., m, n, 1)
    full = expo[..., None, :, :] + _exponent(labels[..., None, None, :], ket)
    return (_quadratic_form(a[..., None, :], b[..., None, :], full) * w).sum(axis=-1)


def expectation(op: PhaseOpSum, rho: ReducedDensity):
    """Tr[op rho], exact via exp(i phi a^dag a)|l> = |l e^{i phi}>, over rho's stack axes.

    Each term contributes sum_ij w_i conj(w_j) exp(K_ij) <l_j | l_i e^{i phase}>.
    """
    return _op_form(op, rho.weights, rho.weights, rho.labels, rho.expo)


def phase_op_matrix_element(op: PhaseOpSum, labels, bra_coeff, ket_coeff):
    """<v_bra| op |v_ket> for vectors given as coefficients over coherent labels."""
    labels, bra, ket = (np.asarray(x, dtype=complex) for x in (labels, bra_coeff, ket_coeff))
    return _op_form(op, ket, bra, labels, np.zeros(labels.shape + labels.shape[-1:]))
