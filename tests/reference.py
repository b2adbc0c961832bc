"""Reference computations the library's run path does not use (test references).

The per-mode route carries each branch as a plain tuple (weight, field, bath),
the bath an array of one coherent label per mode.  :func:`evolve` moves the
labels of a prepared state along the exact linear flow, and :func:`reduce`
traces the bath out mode by mode.  The flow comes from ONE ``eigh`` of the
one-excitation matrix, refined in long double (:func:`eigenpairs`), and shares
no code with the secular spectrum of ``mesocat.bath``.  The diagnostics read
the occupations, Gamma_a, Gamma_b and the transferred excitation off such
branches.  :func:`hamiltonian_state` is the brute-force field+bath oracle.
``mean_photon`` and ``phase_op_matrix_element`` evaluate a density or a pair of
coefficient vectors through the same quadratic form as ``coherent.expectation``;
:func:`label_eigenpairs` gives a density's eigenvectors as such coefficients from
scipy's generalized ``eigh`` (the library computes eigenvalues only); ``value_at`` reads an operator (weights, phases) on a number state, and ``joint``
stacks the densities conditioned on e and on g as ``conditional_probabilities``
takes them.  ``fock_vector_per_branch`` expands a superposition one branch at a
time and ``trace_of_square`` forms Tr(m m) from the full O(N^3) product: the
routes the Fock oracle's batched recurrence and O(N^2) purity replace.
"""

import functools
import math

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

import mesocat as mc
from mesocat import fock
from mesocat.coherent import NORM_FLOOR, ReducedDensity, _form

#: eigenvector columns refined at a time; bounds the long-double work arrays
COLUMN_BLOCK = 256


def one_excitation_matrix(bath) -> np.ndarray:
    """H = (0, c^T; c, diag(D)) over the field and the modes of a bath (D, c), one excitation."""
    detunings, couplings = np.asarray(bath, dtype=float)
    h = np.diag(np.concatenate(([0.0], detunings)))
    h[0, 1:] = h[1:, 0] = couplings
    return h


def eigenpairs(bath) -> tuple[np.ndarray, np.ndarray]:
    """(lam, v): eigenvalues (long double) and eigenvectors of H from one eigh, refined.

    eigh's eigenvalues are off by about eps |H|, a phase error that grows with t,
    and its vectors by about eps |H| / gap.  Each eigenvalue becomes the Rayleigh
    quotient v^T H v / v^T v of its vector, whose error is second order in the
    vector's, and each vector one step of inverse iteration, (H - lam) x = v; both
    in long double.  The arrowhead gives H v and the solve in O(M) per vector: a
    pivot that is exactly zero (lam on a pole, or on the root of the Schur
    complement) becomes eps |H|, as in LAPACK's inverse iteration.  Cached per bath value.
    """
    bath = np.asarray(bath, dtype=float)
    return _eigenpairs(bath.tobytes(), bath.shape)


@functools.lru_cache(maxsize=4)
def _eigenpairs(data: bytes, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    detunings, couplings = np.frombuffer(data).reshape(shape)
    _, vectors = np.linalg.eigh(one_excitation_matrix((detunings, couplings)))
    c, w = (x.astype(np.longdouble)[:, None] for x in (couplings, detunings))
    tiny = np.finfo(np.longdouble).eps * (np.abs(w).max() + np.sqrt(np.sum(c * c)))
    lam = np.empty(len(vectors), dtype=np.longdouble)
    for j in range(0, len(vectors), COLUMN_BLOCK):
        v = vectors[:, j:j + COLUMN_BLOCK].astype(np.longdouble)
        hv = np.vstack([(c * v[1:]).sum(axis=0), c * v[0] + w * v[1:]])
        lam[j:j + COLUMN_BLOCK] = mu = (v * hv).sum(axis=0) / (v * v).sum(axis=0)
        d = w - mu  # the pivots diag(D) - lam of the bath modes, then the Schur complement
        d[d == 0.0] = tiny
        schur = -mu - (c * c / d).sum(axis=0)
        schur[schur == 0.0] = tiny
        x0 = (v[0] - (c * v[1:] / d).sum(axis=0)) / schur
        x = np.vstack([x0, (v[1:] - c * x0) / d])
        vectors[:, j:j + COLUMN_BLOCK] = x / np.sqrt((x * x).sum(axis=0))
    return lam, vectors


def flow(bath, times) -> tuple[np.ndarray, np.ndarray]:
    """(g, f) over times (T,) and (T, M): column zero of exp(-i H t), summed over eigenpairs."""
    lam, v = eigenpairs(bath)
    phases = np.exp(-1j * np.multiply.outer(np.asarray(times, dtype=np.longdouble), lam))
    amp = (phases.astype(complex) * v[0]) @ v.T
    return amp[:, 0], amp[:, 1:]


def eigh_response(bath, times) -> tuple[np.ndarray, np.ndarray]:
    """(g, B) over times, B = sum_k |f_k|^2 summed over the modes."""
    g, f = flow(bath, times)
    return g, np.sum(f.real**2 + f.imag**2, axis=1)


def hamiltonian_state(vector, bath, t: float, n_bath: int) -> np.ndarray:
    """Field+bath state at time t from a field Fock vector, the bath starting empty.

    H = sum_k D_k b_k^dag b_k + g_k (a^dag b_k + b_k^dag a), built as a sparse
    matrix over n_bath + 1 levels per mode and applied with a Krylov exponential.
    The amplitudes come shaped (field level, bath levels): psi psi^dag is the
    field density.
    """
    detunings, couplings = np.asarray(bath, dtype=float)
    dims = (len(vector),) + (n_bath + 1,) * len(detunings)

    def mode_op(which):
        factors = [sparse.identity(d, format="csr") for d in dims]
        factors[which] = sparse.diags(np.sqrt(np.arange(1.0, dims[which])), 1, format="csr")
        return functools.reduce(lambda x, y: sparse.kron(x, y, format="csr"), factors)

    a = mode_op(0)
    h = sparse.csr_matrix(a.shape, dtype=complex)
    for k, (detuning, coupling) in enumerate(zip(detunings, couplings)):
        b = mode_op(k + 1)
        h = h + detuning * (b.T @ b) + coupling * (a.T @ b + b.T @ a)
    psi = np.kron(vector, np.eye(1, math.prod(dims[1:]))[0])  # bath vacuum
    return expm_multiply(-1j * t * h, psi).reshape(dims[0], -1)


# ---------------------------------------------------------------------------
# per-mode branches (weight, field, bath)


def evolve(state, bath, t: float) -> list[tuple]:
    """Branches of a normalized prepared state (2, n) after time t: |a> |0> to |a g> prod_k |a f_k>."""
    nrm2 = mc.coherent.squared_norm(state)
    if abs(nrm2 - 1.0) > mc.coherent.EIGENVALUE_TOL:
        raise mc.PositivityError(f"evolve() needs a normalized state, norm^2 = {nrm2!r}")
    (g,), (f,) = flow(bath, [t])
    weights, labels = (np.asarray(row).tolist() for row in state)
    return [(w, a * g, a * f) for w, a in zip(weights, labels)]


def _exponents(modes) -> np.ndarray:
    """K[p, q] = log <m_q|m_p> for rows m of product-coherent labels, over all modes."""
    m = np.array(modes, dtype=complex)
    norms = np.sum(m.real**2 + m.imag**2, axis=1)
    k = m @ m.conj().T - 0.5 * (norms[:, None] + norms[None, :])
    np.fill_diagonal(k, 0.0)
    return 0.5 * (k + k.conj().T)


def normalize(branches) -> list[tuple]:
    """Branches scaled to unit norm, the branch overlaps taken over the field and every mode."""
    w = np.array([b[0] for b in branches], dtype=complex)
    k = _exponents([(field, *bath) for _, field, bath in branches])
    nrm2 = (abs(w.sum()) ** 2 + w @ np.expm1(k) @ w.conj()).real
    if nrm2 <= NORM_FLOOR:
        raise mc.ZeroStateError(f"state norm^2 = {nrm2:.3e} is at or below the floor")
    return [(weight / math.sqrt(nrm2), field, bath) for weight, field, bath in branches]


def reduce(branches) -> ReducedDensity:
    """Field density of normalized branches, the bath traced out as a product over modes."""
    weights, fields, baths = zip(*branches)
    return ReducedDensity(fields, weights, _exponents(baths))


def occupations(branches) -> tuple[float, float]:
    """Mean photon number of the field mode and summed bath occupation.

    Their sum is conserved under the excitation-preserving field-bath
    coupling, which makes this the natural conservation check.
    """
    n_field = n_bath = 0.0
    for w1, a1, b1 in branches:
        for w2, a2, b2 in branches:
            modes = zip((a1, *b1), (a2, *b2))
            w = w1.conjugate() * w2 * math.prod(mc.overlap(x, y) for x, y in modes)
            n_field += (w * a1.conjugate() * a2).real
            n_bath += (w * np.vdot(b1, b2)).real
    return n_field, n_bath


def _two_branches(branches):
    if len(branches) != 2:
        raise mc.InvalidArgumentError("this diagnostic needs exactly two branches")
    return branches


def gamma_a(branches) -> float:
    """|<field_2|field_1>|, the magnitude of the field-branch overlap."""
    (_, a1, _), (_, a2, _) = _two_branches(branches)
    return abs(mc.overlap(a2, a1))


def gamma_b(branches) -> complex:
    """prod_k <bath_2,k|bath_1,k>: the bath-induced damping of the field coherence.

    Real for opposite-amplitude branches (case A); complex in general.
    """
    (_, _, b1), (_, _, b2) = _two_branches(branches)
    return math.prod((mc.overlap(x, y) for x, y in zip(b2, b1)), start=1.0 + 0.0j)


def excitation_sum(branches) -> float:
    """sum_k |beta_k(t)|^2 transferred to the bath (equal for both branches)."""
    (_, _, bath), _ = _two_branches(branches)
    return float(np.sum(np.abs(bath) ** 2))


def mean_photon(rho: ReducedDensity):
    """<a^dag a> of the field density: sum_ij w_i conj(w_j) exp(K_ij) conj(l_j) l_i <l_j|l_i>."""
    wl = rho.weights * rho.labels
    return _form(wl, wl, rho.expo, rho.labels).real


def phase_op_matrix_element(op, labels, bra_coeff, ket_coeff):
    """<v_bra| op |v_ket> of op = (weights, phases) for vectors given as coefficients over labels."""
    weights, phases = op
    labels, bra, ket = (np.asarray(x, dtype=complex)[..., None, :]
                        for x in (labels, bra_coeff, ket_coeff))
    return (_form(ket, bra, labels=labels, phase=phases) * weights).sum(axis=-1)


def label_eigenpairs(rho: ReducedDensity) -> tuple[np.ndarray, np.ndarray]:
    """(lam, c) of one density, descending: rho |v_k> = lam_k |v_k>, |v_k> = sum_i c[k, i] |l_i>.

    rho = sum_ij M_ij |l_i><l_j| maps sum_i c_i |l_i> to sum_i (M S c)_i |l_i>, S_ij = <l_i|l_j>,
    so c solves S M S c = lam S c (M = ``rho.coeff``), normalized to c^dag S c = 1 by scipy's
    generalized ``eigh``.  The labels must be distinct, S positive definite.
    """
    labels = np.asarray(rho.labels)
    s = np.array([[mc.overlap(p, q) for q in labels] for p in labels])
    lam, c = scipy.linalg.eigh(s @ rho.coeff @ s, s)
    return lam[::-1], c.T[::-1]


def value_at(op, n: int) -> complex:
    """<n| op |n> of op = (weights, phases): sum_m w_m exp(i phase_m n)."""
    weights, phases = op
    return complex(np.sum(weights * np.exp(1j * phases * n)))


def joint(rho_e: ReducedDensity, rho_g: ReducedDensity) -> ReducedDensity:
    """The densities conditioned on e and on g as one stack, the outcome axis last."""
    fields = [np.stack(np.broadcast_arrays(getattr(rho_e, name), getattr(rho_g, name)), axis=axis)
              for name, axis in (("labels", -2), ("weights", -2), ("expo", -3))]
    return ReducedDensity(*fields, batch=1)


def fock_vector_per_branch(state, n_max: int) -> np.ndarray:
    """Fock amplitudes of a superposition (2, n), pivoted on its first label as the oracle's,
    from one number-state recurrence per branch: (sum w) c(l_1) + sum_{k>1} w_k d_k, each
    difference d_k = c(l_k) - c(l_1) expanded with the first label alone."""
    weights, labels = state
    pairs = [fock.coherent_to_fock([labels[0], x], n_max, pivoted=True) for x in labels[1:]]
    first = pairs[0][0] if pairs else fock.coherent_to_fock(labels[0], n_max)
    return sum([weights.sum() * first] + [w * pair[1] for w, pair in zip(weights[1:], pairs)])


def trace_of_square(m) -> np.ndarray:
    """Tr(m m) per stack index from the matrix product."""
    return np.trace(m @ m, axis1=-2, axis2=-1)
