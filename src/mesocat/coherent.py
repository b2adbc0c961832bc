"""Exact algebra of coherent-state superpositions in a non-orthogonal basis.

A coherent state of one oscillator mode is named by its complex amplitude.
Joint field+bath states are finite lists of weighted product-coherent
branches, and every inner product reduces to the closed-form overlap

    <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a)*b)

so norms, reduced densities, spectra, purities and expectation values of
phase-diagonal operators are all evaluated exactly -- no Fock truncation
anywhere in this module.

Reduced densities are stored as a coefficient matrix ``M`` over a list of
coherent labels, rho = sum_ij M[i][j] |l_i><l_j|.  Because the labels are
not orthogonal, the eigenproblem is a generalized one; it is solved by a
congruence transform built from the Gram-matrix factorization S = L L^dag
rather than by inverting S, which becomes ill-conditioned as labels
coalesce (long times, amplitudes decaying to zero).  Labels closer than
``LABEL_MERGE_TOL`` are merged outright, which is exact in the limit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSpanError,
    InvalidArgumentError,
    PositivityError,
    ZeroStateError,
)

#: A coherent state is named by its complex amplitude.
CoherentLabel = complex

#: Labels closer than this are treated as the same ray.
LABEL_MERGE_TOL = 1e-7
#: Smallest admissible Gram eigenvalue before the span counts as degenerate.
GRAM_FLOOR = 1e-12
#: Roundoff allowance for eigenvalues just outside [0, 1].
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
    # so self-overlaps come out exactly 1.
    return z.real * z.real + z.imag * z.imag


def overlap(a: complex, b: complex) -> complex:
    """Inner product <a|b> of two coherent states.

    Returns exp(-|a|^2/2 - |b|^2/2 + conj(a)*b); the magnitude never
    exceeds 1 and equals 1 exactly when a == b.
    """
    a = _as_finite_complex(a, "a")
    b = _as_finite_complex(b, "b")
    return cmath.exp(-0.5 * (_abs2(a) + _abs2(b)) + a.conjugate() * b)


def _overlap_exponents(bras: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """E[p, q] = conj(b_p) k_q - (|b_p|^2 + |k_q|^2)/2, so that <b_p|k_q> = exp(E[p, q])."""
    b2 = bras.real**2 + bras.imag**2
    k2 = kets.real**2 + kets.imag**2
    return -0.5 * (b2[:, None] + k2[None, :]) + np.conj(bras)[:, None] * kets[None, :]


def _gram_exponents(labels: np.ndarray) -> np.ndarray:
    expo = _overlap_exponents(labels, labels)
    np.fill_diagonal(expo, 0.0)  # the self-overlap exponent is identically zero
    return expo


def _gram_entries(labels: np.ndarray) -> np.ndarray:
    return np.exp(_gram_exponents(labels))


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
    entries = _gram_entries(np.asarray(labels, dtype=complex))
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


def branch_overlap(b1: Branch, b2: Branch) -> complex:
    """Full (field and bath) overlap <b1|b2> of two product branches."""
    val = overlap(b1.field, b2.field)
    for x, y in zip(b1.bath, b2.bath):
        val *= overlap(x, y)
    return val


def _branches_coincide(b1: Branch, b2: Branch) -> bool:
    if abs(b1.field - b2.field) >= LABEL_MERGE_TOL:
        return False
    return all(abs(x - y) < LABEL_MERGE_TOL for x, y in zip(b1.bath, b2.bath))


def _merge_branches(branches) -> list[Branch]:
    merged: list[Branch] = []
    for br in branches:
        for i, m in enumerate(merged):
            if _branches_coincide(br, m):
                merged[i] = Branch(m.weight + br.weight, m.field, m.bath)
                break
        else:
            merged.append(br)
    return merged


def squared_norm(state: FieldBathSuperposition) -> float:
    """<psi|psi> computed with the full branch overlap matrix."""
    brs = state.branches
    total = 0.0 + 0.0j
    for b1 in brs:
        for b2 in brs:
            total += b1.weight.conjugate() * b2.weight * branch_overlap(b1, b2)
    return total.real


def normalize(state: FieldBathSuperposition) -> FieldBathSuperposition:
    """Scale all branch weights by one positive real factor to unit norm.

    Coinciding branches are merged first.  Raises :class:`ZeroStateError`
    when the squared norm falls at or below ``NORM_FLOOR`` (a
    zero-probability detection branch).
    """
    merged = _merge_branches(state.branches)
    candidate = FieldBathSuperposition(tuple(merged), normalized=False)
    nrm2 = squared_norm(candidate)
    if nrm2 <= NORM_FLOOR:
        raise ZeroStateError(f"state norm^2 = {nrm2:.3e} is at or below the floor")
    scale = 1.0 / math.sqrt(nrm2)
    scaled = tuple(Branch(br.weight * scale, br.field, br.bath) for br in merged)
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
            w = b1.weight.conjugate() * b2.weight * branch_overlap(b1, b2)
            n_field += w * b1.field.conjugate() * b2.field
            n_bath += w * sum(
                (x.conjugate() * y for x, y in zip(b1.bath, b2.bath)), 0.0 + 0.0j
            )
    return n_field.real, n_bath.real


# ---------------------------------------------------------------------------
# reduced densities


@dataclass(frozen=True, eq=False)
class ReducedDensity:
    """Field density rho = sum_ij coeff[i][j] |labels[i]><labels[j]|."""

    labels: tuple[complex, ...]
    coeff: np.ndarray

    def __post_init__(self):
        n = len(self.labels)
        if self.coeff.shape != (n, n):
            raise InvalidArgumentError("coefficient matrix must be square over the labels")
        self.coeff.setflags(write=False)

    def gram(self) -> np.ndarray:
        return _gram_entries(np.asarray(self.labels, dtype=complex))

    def trace(self) -> float:
        """Tr rho = sum_ij M[i][j] <l_j|l_i> = Tr(M S)."""
        return np.trace(self.coeff @ self.gram()).real


def _cluster_labels(labels) -> tuple[list[complex], list[int]]:
    """Greedy merge of labels closer than LABEL_MERGE_TOL; first one wins."""
    reps: list[complex] = []
    assignment: list[int] = []
    for l in labels:
        for i, r in enumerate(reps):
            if abs(l - r) < LABEL_MERGE_TOL:
                assignment.append(i)
                break
        else:
            reps.append(l)
            assignment.append(len(reps) - 1)
    return reps, assignment


def _restore_unit_trace(labels, coeff: np.ndarray) -> np.ndarray:
    # clustering may move field labels by up to LABEL_MERGE_TOL, which
    # perturbs the trace of an exactly-normalized input at the same order;
    # rescaling restores it.  Anything beyond the merge scale is a bug.
    tr = np.trace(coeff @ _gram_entries(np.asarray(labels, dtype=complex))).real
    if abs(tr - 1.0) > 1e-6:
        raise PositivityError(f"reduced density trace {tr!r} far from 1")
    return coeff / tr


def reduce(state: FieldBathSuperposition) -> ReducedDensity:
    """Trace the bath out of a normalized superposition.

    The coefficient over field labels (i, j) picks up the product of bath
    overlaps prod_k <bath_j,k|bath_i,k> from each contributing branch pair.
    """
    if not state.normalized:
        raise InvalidArgumentError("reduce() needs a normalized state")
    brs = state.branches
    reps, assign = _cluster_labels([br.field for br in brs])
    n = len(reps)
    coeff = np.zeros((n, n), dtype=complex)
    for p, bp in enumerate(brs):
        for q, bq in enumerate(brs):
            factor = 1.0 + 0.0j
            for x, y in zip(bq.bath, bp.bath):
                factor *= overlap(x, y)
            coeff[assign[p], assign[q]] += bp.weight * bq.weight.conjugate() * factor
    return ReducedDensity(tuple(reps), _restore_unit_trace(reps, coeff))


def _bath_free_arrays(state: FieldBathSuperposition, name: str) -> tuple[np.ndarray, np.ndarray]:
    if not state.normalized:
        raise InvalidArgumentError(f"{name}() needs a normalized state")
    if state.n_bath_modes != 0:
        raise InvalidArgumentError(f"{name}() needs a bath-free state")
    weights = np.array([br.weight for br in state.branches], dtype=complex)
    return weights, np.array([br.field for br in state.branches], dtype=complex)


def damped_density(state: FieldBathSuperposition, g: complex, depletion: float) -> ReducedDensity:
    """Field density of a bath-free superposition after a linear damping flow.

    The flow maps each label a_i to a_i g and leaves the environment with
    depletion B = sum_k |f_k|^2: the exact discrete bath (see
    ``bath.response``) or the master equation (g = e^{-gamma t/2},
    B = 1 - e^{-gamma t}).  Tracing the environment out gives

        M_ij = w_i conj(w_j) exp[(conj(a_j) a_i - (|a_i|^2 + |a_j|^2)/2) B]

    over the labels a_i g, which equals reduce(evolve(...)) without any
    per-mode product.  Labels are clustered and the trace restored as in
    :func:`reduce`.
    """
    weights, labels = _bath_free_arrays(state, "damped_density")
    pair = np.outer(weights, weights.conj()) * np.exp(_gram_exponents(labels).T * depletion)
    reps, coeff = _merge_coeff([complex(l) for l in labels * g], pair)
    return ReducedDensity(tuple(reps), _restore_unit_trace(reps, coeff))


def damped_occupations(state: FieldBathSuperposition, g, depletion) -> tuple[np.ndarray, np.ndarray]:
    """(n_field, n_bath) of the damped superposition for arrays of g and B.

    With s = |g|^2 + B (1 for a unitary flow) and
    Q = sum_pq conj(w_p a_p) w_q a_q <a_p|a_q>^s, the field holds |g|^2 Q and
    the environment B Q: the closed form of :func:`occupations`.
    """
    weights, labels = _bath_free_arrays(state, "damped_occupations")
    g = np.asarray(g, dtype=complex)
    depletion = np.asarray(depletion, dtype=float)
    g2 = g.real**2 + g.imag**2
    wa = weights * labels
    scaled = np.exp(_gram_exponents(labels) * (g2 + depletion)[..., None, None])
    q = np.einsum("pq,...pq->...", np.outer(wa.conj(), wa), scaled).real
    return g2 * q, depletion * q


def _merge_coeff(labels, coeff: np.ndarray) -> tuple[list[complex], np.ndarray]:
    """Cluster the labels and sum the coefficients of those merged together."""
    reps, assign = _cluster_labels(labels)
    idx = np.asarray(assign)
    merged = np.zeros((len(reps), len(reps)), dtype=complex)
    np.add.at(merged, (idx[:, None], idx[None, :]), coeff)
    return reps, merged


def _merged_density(rho: ReducedDensity) -> ReducedDensity:
    reps, coeff = _merge_coeff(rho.labels, rho.coeff)
    return rho if len(reps) == len(rho.labels) else ReducedDensity(tuple(reps), coeff)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues (descending) and eigenvectors of a reduced density.

    Eigenvectors are coefficient arrays c over the density's labels,
    |v> = sum_i c[i] |labels[i]>, normalized so that c^dag S c = 1.
    """

    eigenvalues: tuple[float, ...]
    eigenvectors: tuple[np.ndarray, ...]
    labels: tuple[complex, ...]


def eigenvalues(rho: ReducedDensity) -> Spectrum:
    """Solve rho |v> = lambda |v> within the span of the coherent labels.

    Labels are merged first; the Gram matrix is factorized as S = L L^dag
    (eigenvalue square root), and the Hermitian congruence L^dag M L shares
    the nonzero spectrum of M S.  Eigenvalues within ``EIGENVALUE_TOL`` of
    [0, 1] are clamped; anything further below zero raises
    :class:`PositivityError`, and a Gram eigenvalue below ``GRAM_FLOOR``
    raises :class:`DegenerateSpanError` rather than returning garbage.
    """
    rho = _merged_density(rho)
    labels = np.asarray(rho.labels, dtype=complex)
    s_mat = _gram_entries(labels)
    s_eig, s_vec = np.linalg.eigh(s_mat)
    if s_eig.min() < GRAM_FLOOR:
        raise DegenerateSpanError(
            f"Gram matrix is singular beyond the floor (min eigenvalue {s_eig.min():.3e})"
        )
    sqrt_s = np.sqrt(s_eig)
    factor = s_vec * sqrt_s  # L with S = L L^dag
    herm = factor.conj().T @ rho.coeff @ factor
    herm = 0.5 * (herm + herm.conj().T)
    lam, u_vec = np.linalg.eigh(herm)

    cleaned = []
    for x in lam:
        if x < -EIGENVALUE_TOL or x > 1.0 + EIGENVALUE_TOL:
            raise PositivityError(f"eigenvalue {x!r} outside [0, 1] beyond tolerance")
        cleaned.append(float(min(max(x, 0.0), 1.0)))

    # back-transform: c = (L^dag)^{-1} u = V diag(1/sqrt(s)) u, already
    # orthonormal in the S metric.
    coeffs = s_vec @ (u_vec / sqrt_s[:, None])
    order = np.argsort(cleaned)[::-1]
    return Spectrum(
        eigenvalues=tuple(cleaned[i] for i in order),
        eigenvectors=tuple(coeffs[:, i].copy() for i in order),
        labels=rho.labels,
    )


def purity(rho: ReducedDensity) -> float:
    """Tr rho^2, evaluated exactly as the trace of (M S)^2."""
    ms = rho.coeff @ rho.gram()
    return np.trace(ms @ ms).real


def idempotency_defect(rho: ReducedDensity) -> float:
    """1 - Tr rho^2: zero iff pure, 2*lam_+*lam_- for a rank-2 density."""
    return 1.0 - purity(rho)


def mean_photon(rho: ReducedDensity) -> float:
    """<a^dag a> of the field density: sum_ij M[i][j] conj(l_j) l_i <l_j|l_i>."""
    labels = np.asarray(rho.labels, dtype=complex)
    s_mat = _gram_entries(labels)
    weighted = s_mat * (np.conj(labels)[:, None] * labels[None, :])
    return np.trace(rho.coeff @ weighted).real


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


def expectation(op: PhaseOpSum, rho: ReducedDensity) -> complex:
    """Tr[op rho], exact via exp(i phi a^dag a)|l> = |l e^{i phi}>.

    Each term contributes sum_ij M[i][j] <l_j | l_i e^{i phase}>.
    """
    labels = np.asarray(rho.labels, dtype=complex)
    total = 0.0 + 0.0j
    for w, p in op.terms:
        rotated = labels * cmath.exp(1j * p)
        cross = np.exp(_overlap_exponents(labels, rotated))
        total += w * np.trace(rho.coeff @ cross)
    return complex(total)


def phase_op_matrix_element(op: PhaseOpSum, labels, bra_coeff, ket_coeff) -> complex:
    """<v_bra| op |v_ket> for vectors given as coefficients over coherent labels."""
    labels = np.asarray(labels, dtype=complex)
    bra = np.asarray(bra_coeff, dtype=complex)
    ket = np.asarray(ket_coeff, dtype=complex)
    total = 0.0 + 0.0j
    for w, p in op.terms:
        rotated = labels * cmath.exp(1j * p)
        cross = np.exp(_overlap_exponents(labels, rotated))
        total += w * (bra.conj() @ cross @ ket)
    return complex(total)
