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

#: A coherent state is named by its complex amplitude.
CoherentLabel = complex

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


def _expm1(z: complex) -> complex:
    """exp(z) - 1, accurate for small |z| (cmath has no expm1)."""
    half = math.sin(0.5 * z.imag)
    return complex(
        math.expm1(z.real) * math.cos(z.imag) - 2.0 * half * half,
        math.exp(z.real) * math.sin(z.imag),
    )


def _quadratic_form(a, b, expo) -> complex:
    """sum_ij a_i conj(b_j) exp(expo[i][j]), split as (sum a)(sum conj b) plus an expm1 part."""
    total = sum(a) * sum(b).conjugate()
    for ai, row in zip(a, expo):
        for bj, e in zip(b, row):
            total += ai * bj.conjugate() * _expm1(e)
    return complex(total)


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


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Pairwise coherent-state overlaps <l_i|l_j> for a list of labels."""

    labels: tuple[complex, ...]
    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)


def gram(labels) -> GramMatrix:
    """Gram (overlap) matrix of a non-empty list of coherent labels."""
    labels = tuple(_as_finite_complex(l, "label") for l in labels)
    if not labels:
        raise InvalidArgumentError("gram() needs at least one label")
    entries = np.exp(_gram_exponents(np.asarray(labels, dtype=complex)))
    return GramMatrix(labels, entries)


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
    weights = [complex(br.weight) for br in state.branches]
    return _quadratic_form(weights, weights, _gram_exponents(modes).T.tolist()).real


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
    Cholesky factor of the Gram matrix of |l1> +- |l2>.
    """

    a: float
    b: complex
    d: float
    det: float
    labels: tuple[complex, complex]
    chol: tuple[float, complex, float]  # L11, L21, L22

    def label_coefficients(self, v) -> np.ndarray:
        """Coefficients over ``labels`` of the vector sum_p v[p] e_p."""
        l11, l21, l22 = self.chol
        y_d = v[1] / l22 if l22 else 0.0  # coinciding labels span one ray
        y_s = (v[0] - l21.conjugate() * y_d) / l11
        return np.array([y_s + y_d, y_s - y_d], dtype=complex)


@dataclass(frozen=True, eq=False)
class ReducedDensity:
    """Field density rho = sum_ij w_i conj(w_j) exp(K_ij) |labels[i]><labels[j]|.

    ``weights`` are the w_i; ``expo`` is K, Hermitian with a zero diagonal
    (K_ij = -inf: no coherence left between branches i and j).
    """

    labels: tuple[complex, ...]
    weights: tuple[complex, ...]
    expo: np.ndarray

    def __post_init__(self):
        n = len(self.labels)
        expo = np.array(self.expo, dtype=complex)
        if len(self.weights) != n or expo.shape != (n, n):
            raise InvalidArgumentError("weights and coherence exponents must match the labels")
        if np.any(np.diag(expo) != 0.0) or not np.array_equal(expo, expo.conj().T):
            raise InvalidArgumentError("coherence exponent must be Hermitian with a zero diagonal")
        expo.setflags(write=False)
        object.__setattr__(self, "expo", expo)

    @property
    def coeff(self) -> np.ndarray:
        """Coefficients M_ij = w_i conj(w_j) exp(K_ij) of rho = sum_ij M_ij |l_i><l_j|."""
        w = np.array(self.weights, dtype=complex)
        return np.outer(w, w.conj()) * np.exp(self.expo)

    def trace(self) -> float:
        """Tr rho = sum_ij w_i conj(w_j) exp(K_ij) <l_j|l_i>."""
        return expectation(PhaseOpSum.identity(), self).real

    @functools.cached_property
    def _pair(self) -> _PairForm:
        if len(self.labels) > 2:
            raise UnsupportedInputError(f"spectra need one or two labels, got {len(self.labels)}")
        # one label l is read as the pair (l, l) with the second weight zero
        (l1, l2), (w1, w2) = (*self.labels, self.labels[0])[:2], (*self.weights, 0j)[:2]
        k12 = complex(self.expo[0, -1])
        # rho = sum N_xy |x><y| over |s> = |l1> + |l2>, |d> = |l1> - |l2>
        expo = [[0j, k12], [k12.conjugate(), 0j]]
        plus, minus = (w1, w2), (w1, -w2)
        n_ss = 0.25 * _quadratic_form(plus, plus, expo).real
        n_dd = 0.25 * _quadratic_form(minus, minus, expo).real
        n_sd = 0.25 * _quadratic_form(plus, minus, expo)
        # their Gram matrix: <s|s> = 4 + 2 Re eps, <d|s> = 2i Im eps with eps = <l1|l2> - 1,
        # determinant det_s = 4 (1 - |<l1|l2>|^2) = -4 expm1(-|l1 - l2|^2)
        eps, gap = _expm1(_exponent(l1, l2)), math.expm1(-_abs2(l1 - l2))
        g_ss, g_ds, det_s = 4.0 + 2.0 * eps.real, 2j * eps.imag, -4.0 * gap
        l11 = math.sqrt(g_ss)
        l21, l22 = g_ds / l11, math.sqrt(det_s / g_ss)
        # (a, b; conj(b), d) = L^dag N L; its determinant is det_s det(M) / 4 with
        # det(M) = -|w1 w2|^2 expm1(2 Re K12)
        a = g_ss * n_ss + 2.0 * (n_sd * g_ds).real + _abs2(g_ds) / g_ss * n_dd
        b = l22 * (l11 * n_sd + l21.conjugate() * n_dd)
        det = _abs2(w1 * w2) * gap * math.expm1(2.0 * k12.real)
        return _PairForm(a, b, det_s / g_ss * n_dd, det, (l1, l2), (l11, l21, l22))


def _checked_trace(rho: ReducedDensity) -> ReducedDensity:
    """rho itself once its trace is 1 to roundoff; it is never rescaled."""
    tr = rho.trace()
    if abs(tr - 1.0) > EIGENVALUE_TOL:
        raise PositivityError(f"reduced density trace {tr!r} differs from 1 beyond roundoff")
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
        tuple(br.field for br in state.branches),
        tuple(br.weight for br in state.branches),
        _gram_exponents(bath).T,
    )
    return _checked_trace(rho)


def _bath_free(state: FieldBathSuperposition, name: str) -> tuple[list, list]:
    """(weights, field labels) of a normalized bath-free state."""
    if not state.normalized:
        raise InvalidArgumentError(f"{name}() needs a normalized state")
    if state.n_bath_modes != 0:
        raise InvalidArgumentError(f"{name}() needs a bath-free state")
    brs = state.branches
    return [complex(br.weight) for br in brs], [complex(br.field) for br in brs]


def damped_density(state: FieldBathSuperposition, g: complex, depletion: float) -> ReducedDensity:
    """Field density of a bath-free superposition after a linear damping flow.

    The flow maps each label a_i to a_i g and leaves the environment with
    depletion B = sum_k |f_k|^2: the exact discrete bath (see
    ``bath.response``) or the master equation (g = e^{-gamma t/2},
    B = 1 - e^{-gamma t}).  Tracing the environment out keeps the weights
    over the labels a_i g and leaves the coherence exponent

        K_ij = B log <a_j|a_i> = (conj(a_j) a_i - (|a_i|^2 + |a_j|^2)/2) B,

    as reduce(evolve(...)) does with per-mode products; the trace is checked.
    """
    weights, labels = _bath_free(state, "damped_density")
    g, depletion = complex(g), float(depletion)
    expo = [[depletion * _exponent(aj, ai) for aj in labels] for ai in labels]
    return _checked_trace(ReducedDensity(tuple(a * g for a in labels), tuple(weights), expo))


def damped_occupations(state: FieldBathSuperposition, g, depletion) -> tuple[np.ndarray, np.ndarray]:
    """(n_field, n_bath) of the damped superposition for arrays of g and B.

    With s = |g|^2 + B (1 for a unitary flow) and
    Q = sum_pq conj(w_p a_p) w_q a_q <a_p|a_q>^s, the field holds |g|^2 Q and
    the environment B Q: the closed form of :func:`occupations`.
    """
    weights, labels = map(np.array, _bath_free(state, "damped_occupations"))
    g = np.asarray(g, dtype=complex)
    depletion = np.asarray(depletion, dtype=float)
    g2 = g.real**2 + g.imag**2
    wa = weights * labels
    scaled = np.exp(_gram_exponents(labels) * (g2 + depletion)[..., None, None])
    q = np.einsum("pq,...pq->...", np.outer(wa.conj(), wa), scaled).real
    return g2 * q, depletion * q


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues (descending) and eigenvectors of a reduced density.

    Eigenvectors are coefficient arrays c over ``labels`` (the pair (l, l)
    for a one-label density), |v> = sum_i c[i] |labels[i]> with c^dag S c = 1,
    or zero where the two labels coincide and span one ray.
    """

    eigenvalues: tuple[float, ...]
    eigenvectors: tuple[np.ndarray, ...]
    labels: tuple[complex, ...]


def eigenvalues(rho: ReducedDensity) -> Spectrum:
    """Solve rho |v> = lambda |v> within the span of one or two coherent labels.

    rho's Hermitian 2x2 (a, b; conj(b), d) in an orthonormal basis of the
    span has the larger eigenvalue (a + d)/2 + hypot(a - d, 2|b|)/2 and the
    smaller one det / larger.  Eigenvalues within ``EIGENVALUE_TOL`` of
    [0, 1] are clamped; anything further out raises :class:`PositivityError`,
    and more than two labels raise :class:`UnsupportedInputError`.
    """
    m = rho._pair
    half = 0.5 * math.hypot(m.a - m.d, 2.0 * abs(m.b))
    mid = 0.5 * (m.a + m.d)
    top = mid + half
    lams = (top, min(m.det / top, top) if top else 0.0)
    if not all(-EIGENVALUE_TOL <= x <= 1.0 + EIGENVALUE_TOL for x in lams):
        raise PositivityError(f"eigenvalues {lams!r} outside [0, 1] beyond tolerance")
    # eigenvector of the larger eigenvalue from the row that is not near-singular
    if half == 0.0:
        v = (1.0 + 0j, 0j)
    elif m.a >= m.d:
        v = (complex(half + 0.5 * (m.a - m.d)), m.b.conjugate())
    else:
        v = (m.b, complex(half + 0.5 * (m.d - m.a)))
    norm = math.hypot(abs(v[0]), abs(v[1]))
    v = (v[0] / norm, v[1] / norm)
    vecs = (m.label_coefficients(v), m.label_coefficients((-v[1].conjugate(), v[0].conjugate())))
    return Spectrum(tuple(min(max(x, 0.0), 1.0) for x in lams), vecs, m.labels)


def purity(rho: ReducedDensity) -> float:
    """Tr rho^2 = (a + d)^2 - 2 det of the 2x2 matrix that :func:`eigenvalues` reads."""
    m = rho._pair
    return (m.a + m.d) ** 2 - 2.0 * m.det


def idempotency_defect(rho: ReducedDensity) -> float:
    """1 - Tr rho^2 of rho / Tr rho: zero iff pure, 2*lam_+*lam_- at unit trace.

    Evaluated as 2 det / (Tr rho)^2, which keeps its relative accuracy as
    the state nears purity.
    """
    m = rho._pair
    return 2.0 * m.det / (m.a + m.d) ** 2


def mean_photon(rho: ReducedDensity) -> float:
    """<a^dag a> of the field density: sum_ij w_i conj(w_j) exp(K_ij) conj(l_j) l_i <l_j|l_i>."""
    wl = [w * l for w, l in zip(rho.weights, rho.labels)]
    return _op_form(PhaseOpSum.identity(), wl, wl, rho.labels, rho.expo.tolist()).real


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


def _op_form(op: PhaseOpSum, a, b, labels, expo) -> complex:
    """sum_m w_m sum_ij a_i conj(b_j) exp(expo[i][j]) <l_j|l_i e^{i phase_m}>."""
    total = 0.0 + 0.0j
    for w, p in op.terms:
        rot = cmath.exp(1j * p)
        full = [
            [k + _exponent(lj, li * rot) for lj, k in zip(labels, row)]
            for li, row in zip(labels, expo)
        ]
        total += w * _quadratic_form(a, b, full)
    return total


def expectation(op: PhaseOpSum, rho: ReducedDensity) -> complex:
    """Tr[op rho], exact via exp(i phi a^dag a)|l> = |l e^{i phi}>.

    Each term contributes sum_ij w_i conj(w_j) exp(K_ij) <l_j | l_i e^{i phase}>.
    """
    return _op_form(op, rho.weights, rho.weights, rho.labels, rho.expo.tolist())


def phase_op_matrix_element(op: PhaseOpSum, labels, bra_coeff, ket_coeff) -> complex:
    """<v_bra| op |v_ket> for vectors given as coefficients over coherent labels."""
    ket, bra = [complex(c) for c in ket_coeff], [complex(c) for c in bra_coeff]
    return _op_form(op, ket, bra, [complex(l) for l in labels], [[0.0] * len(ket)] * len(ket))
