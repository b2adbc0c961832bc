"""Reference functions the library's run path does not use (test references).

The per-mode diagnostics read the occupations, Gamma_a, Gamma_b and the
transferred excitation off the labels of a state such as
:func:`mesocat.evolve` returns, one mode at a time, independently of the
stacked (g, B) closed forms the engines use.  ``mean_photon`` and
``phase_op_matrix_element`` evaluate a density or a pair of coefficient
vectors through the same quadratic form as ``coherent.expectation``.
"""

import math

import numpy as np

import mesocat as mc
from mesocat.coherent import PhaseOpSum, ReducedDensity, _op_form


def occupations(state) -> tuple[float, float]:
    """Mean photon number of the field mode and summed bath occupation.

    Their sum is conserved under the excitation-preserving field-bath
    coupling, which makes this the natural conservation check.
    """
    if not state.normalized:
        raise mc.InvalidArgumentError("occupations() needs a normalized state")
    n_field = 0.0 + 0.0j
    n_bath = 0.0 + 0.0j
    for b1 in state.branches:
        for b2 in state.branches:
            modes = zip((b1.field, *b1.bath), (b2.field, *b2.bath))
            w = b1.weight.conjugate() * b2.weight * math.prod(mc.overlap(x, y) for x, y in modes)
            n_field += w * b1.field.conjugate() * b2.field
            n_bath += w * sum(
                (x.conjugate() * y for x, y in zip(b1.bath, b2.bath)), 0.0 + 0.0j
            )
    return n_field.real, n_bath.real


def _two_branches(state):
    if len(state.branches) != 2:
        raise mc.InvalidArgumentError("this diagnostic needs exactly two branches")
    return state.branches[0], state.branches[1]


def gamma_a(state) -> float:
    """|<field_2|field_1>|, the magnitude of the field-branch overlap."""
    b1, b2 = _two_branches(state)
    return abs(mc.overlap(b2.field, b1.field))


def gamma_b(state) -> complex:
    """prod_k <bath_2,k|bath_1,k>: the bath-induced damping of the field coherence.

    Real for opposite-amplitude branches (case A); complex in general.
    """
    b1, b2 = _two_branches(state)
    val = 1.0 + 0.0j
    for x, y in zip(b2.bath, b1.bath):
        val *= mc.overlap(x, y)
    return val


def excitation_sum(state) -> float:
    """sum_k |beta_k(t)|^2 transferred to the bath (equal for both branches)."""
    b1, _ = _two_branches(state)
    return float(sum(abs(b) ** 2 for b in b1.bath))


def mean_photon(rho: ReducedDensity):
    """<a^dag a> of the field density: sum_ij w_i conj(w_j) exp(K_ij) conj(l_j) l_i <l_j|l_i>."""
    wl = rho.weights * rho.labels
    return _op_form(PhaseOpSum.identity(), wl, wl, rho.labels, rho.expo).real


def phase_op_matrix_element(op: PhaseOpSum, labels, bra_coeff, ket_coeff):
    """<v_bra| op |v_ket> for vectors given as coefficients over coherent labels."""
    labels, bra, ket = (np.asarray(x, dtype=complex) for x in (labels, bra_coeff, ket_coeff))
    return _op_form(op, ket, bra, labels, np.zeros(labels.shape + labels.shape[-1:]))
