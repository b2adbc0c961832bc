"""Operator algebra of the two-atom correlation measurement.

Each atom crosses a Ramsey zone, the dispersive cavity, and a second Ramsey
zone before detection.  Both Ramsey zones apply the same pi/2 rotation

    |e> -> (|e> + |g>)/sqrt(2),      |g> -> (-|e> + |g>)/sqrt(2),

and the dispersive coupling imprints an atomic-level-dependent phase
phi = Omega^2 t / delta on the field.  Two level schemes are covered:

* case A -- only the upper level shifts the field:  exp(-i phi n) on |e>,
  identity on |g>;
* case B -- both levels shift it oppositely:  exp(+i phi (n+1)) on |e>,
  exp(-i phi n) on |g>.

Sandwiching the cavity transform between the two Ramsey rotations and
projecting on the detected level leaves the reduced field operators

    case A:  U_{e/g} = (exp(-i phi n) -/+ 1) / 2
    case B:  U_{e/g} = (exp(+i phi (n+1)) -/+ exp(-i phi n)) / 2

(upper sign: detection in e).  The full Ramsey rotation is never needed on
its own; everything downstream is built from these two-term phase-operator
sums, each the array pair (weights, phases) of ``coherent.expectation``; the
prepared state is U|alpha0> normalized, U's weights over labels alpha0 e^{i phase}.
Conditional probabilities for the second atom are traces of U^dag U against
the field density conditioned on the first detection, and the correlation
signal is eta = P_ee - P_ge.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coherent import ReducedDensity, _phase_forms, _require, normalize, squared_norm
from .errors import InvalidArgumentError, PositivityError, ZeroStateError

_PROBABILITY_TOL = 1e-10


class ProtocolCase(Enum):
    """Which atomic level scheme couples to the cavity."""

    CASE_A = "a"
    CASE_B = "b"


class DetectionOutcome(Enum):
    E = "e"
    G = "g"


def outcome_sign(outcome: DetectionOutcome) -> float:
    """The double sign carried by every e/g formula: -1 for E, +1 for G."""
    return -1.0 if outcome is DetectionOutcome.E else 1.0


@dataclass(frozen=True)
class ProtocolParams:
    """Scenario parameters: level scheme, initial field amplitude, phase shift phi.

    A config may give phi as the coupling triple rabi^2 * t_int / detuning;
    ``config`` converts it, so only phi arrives here.
    """

    case: ProtocolCase
    alpha0: complex
    phi: float

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise InvalidArgumentError("phi must be finite")
        if not (math.isfinite(self.alpha0.real) and math.isfinite(self.alpha0.imag)):
            raise InvalidArgumentError("alpha0 must be finite")


def reduced_op(params: ProtocolParams, outcome: DetectionOutcome) -> tuple[np.ndarray, ...]:
    """(weights, phases) of the reduced field operator applied on detection in ``outcome``."""
    s = outcome_sign(outcome)
    phi = params.phi
    if params.case is ProtocolCase.CASE_A:
        return np.array([0.5, 0.5 * s], dtype=complex), np.array([-phi, 0.0])
    scalar = 0.5 * cmath.exp(1j * phi)  # the exp(i phi) of exp(i phi (n+1))
    return np.array([scalar, 0.5 * s]), np.array([phi, -phi])


def measurement_product(params: ProtocolParams, outcome: DetectionOutcome) -> tuple[np.ndarray, ...]:
    """(weights, phases) of the operator U^dag U whose trace gives detection probabilities.

    Case A reduces to (1 + s cos(phi n))/2 and case B to (1 + s cos((2n+1) phi))/2,
    s = outcome_sign: the products conj(w_i) w_j exp(i (p_j - p_i) n) of U's terms summed
    by phase in (-pi, pi], equal phases merged (case A at phi = pi keeps two), ascending.
    """
    w, p = (x.tolist() for x in reduced_op(params, outcome))
    terms: dict[float, complex] = {}
    for (wi, pi), (wj, pj) in itertools.product(zip(w, p), repeat=2):
        phase = math.remainder(pj - pi, 2.0 * math.pi)
        phase = math.pi if phase == -math.pi else phase
        terms[phase] = terms[phase] + wi.conjugate() * wj if phase in terms else wi.conjugate() * wj
    phases = sorted(terms)
    return np.array([terms[q] for q in phases]), np.array(phases)


def preparation_probability(params: ProtocolParams, outcome: DetectionOutcome) -> float:
    """Probability that the first atom is detected in ``outcome``."""
    return squared_norm(_unnormalized_prepared(params, outcome))


def _unnormalized_prepared(params, outcome) -> np.ndarray:
    """U |alpha0>: the reduced operator's weights over the labels alpha0 e^{i phase}, (2, n)."""
    weights, phases = reduced_op(params, outcome)
    return np.array([weights, [params.alpha0 * cmath.exp(1j * p) for p in phases.tolist()]])


def _prepare_stack(swept, outcomes=tuple(DetectionOutcome)) -> np.ndarray:
    """Field states (protocol, outcome, 2, n) after the first atom's detection, normalized in one
    form, the bath in the ground state that ``coherent.damped_density`` assumes.  The first
    branch of zero probability in (protocol, outcome) order (e.g. case A on the vacuum with
    outcome E) raises :class:`ZeroStateError` naming its protocol's phi and alpha0."""
    try:
        return normalize([[_unnormalized_prepared(p, o) for o in outcomes] for p in swept])
    except ZeroStateError as exc:
        p = swept[exc.index[0]]
        raise ZeroStateError(f"{exc} (phi = {p.phi!r}, alpha0 = {p.alpha0!r})", exc.index) from None


def prepare(params: ProtocolParams, outcome: DetectionOutcome) -> np.ndarray:
    """The field state (2, n) of :func:`_prepare_stack` for one protocol and one outcome."""
    return _prepare_stack([params], [outcome])[0, 0]


@dataclass(frozen=True)
class CorrelationRecord:
    """The four two-atom conditional probabilities and eta = p_ee - p_ge.

    Each probability is given as computed: a number, or an array over the
    stack axes of the densities (e.g. a time grid).  It must be real and in
    [0, 1] to roundoff, and is then stored clamped to [0, 1]; p_ee + p_eg and
    p_ge + p_gg must be 1.  A failed check raises :class:`PositivityError`
    naming the first offending index over all but the last ``batch`` axes.
    """

    p_ee: float | np.ndarray
    p_eg: float | np.ndarray
    p_ge: float | np.ndarray
    p_gg: float | np.ndarray
    batch: int = 0

    def __post_init__(self):
        for name in ("p_ee", "p_eg", "p_ge", "p_gg"):
            p = np.asarray(getattr(self, name), dtype=complex)
            _require(np.abs(p.imag) <= _PROBABILITY_TOL, PositivityError,
                     f"probability {name} has an imaginary part", p.imag, self.batch)
            _require((-_PROBABILITY_TOL <= p.real) & (p.real <= 1.0 + _PROBABILITY_TOL),
                     PositivityError, f"probability {name} outside [0, 1]", p.real, self.batch)
            object.__setattr__(self, name, np.clip(p.real, 0.0, 1.0))
        for pair in (("p_ee", "p_eg"), ("p_ge", "p_gg")):
            total = getattr(self, pair[0]) + getattr(self, pair[1])
            _require(~(np.abs(total - 1.0) > _PROBABILITY_TOL), PositivityError,
                     " + ".join(pair) + " != 1 beyond tolerance", total, self.batch)

    @property
    def eta(self):
        return self.p_ee - self.p_ge


def conditional_probabilities(rho: ReducedDensity, params) -> CorrelationRecord:
    """Second-atom detection probabilities conditioned on the first outcome, in one pass.

    ``rho``: the field densities at the second atom's passage, conditioned on the
    first atom in e and in g along its last stack axis, e.g.
    ``damped_density([state_e, state_g], g, B)``; ``params``: one protocol, or a
    list of them along the axis before it.  Other stack axes (times) give arrays.
    """
    many = not isinstance(params, ProtocolParams)
    ops = [[measurement_product(p, o) for o in DetectionOutcome]
           for p in (params if many else [params])]
    m = max(len(phases) for (_, phases), _ in ops)  # zero weights at phase 0 pad each to one m
    w, phases = np.zeros((len(ops), 2, m), dtype=complex), np.zeros((len(ops), m))
    for k, ((w_e, p_e), (w_g, _)) in enumerate(ops):  # both outcomes share their phases
        w[k, :, :len(p_e)], phases[k, :len(p_e)] = (w_e, w_g), p_e
    w, phases = (w, phases) if many else (w[0], phases[0])  # (..., second outcome, m), (..., m)
    forms = _phase_forms(phases[..., None, :], rho)
    probs = (forms[..., None, :] * w[..., None, :, :]).sum(axis=-1)  # (..., first, second outcome)
    (p_ee, p_eg), (p_ge, p_gg) = np.moveaxis(probs, (-2, -1), (0, 1))
    return CorrelationRecord(p_ee, p_eg, p_ge, p_gg, max(rho.batch - 1, 0))


def eigenvalues_case_a(alpha0: complex, g, depletion, outcome: DetectionOutcome) -> tuple:
    """Closed-form eigenvalue pair (lam_plus, lam_minus) for case A at phi = pi.

    lam_+- = (1 +- G_a(t)) (1 +- s G_b(t)) / (2 (1 + s G_a(0))), s = outcome_sign,
    at the response g and depletion B: G_a(t) = e^{-x |g|^2}, G_b(t) = e^{-x B}
    and G_a(0) = e^{-x} with x = 2 |alpha0|^2.  The eigenvectors are
    |alpha(t)> +- |-alpha(t)>, and the eigenvalue sum is
    (1 + s G_a(t) G_b(t)) / (1 + s G_a(0)).  Every 1 +- G is formed with
    expm1, so the pair keeps its relative accuracy near the vacuum.  Arrays of
    g and B give arrays.
    """
    g2 = np.abs(g) ** 2
    depletion = np.asarray(depletion, dtype=float)
    _require(depletion >= 0.0, InvalidArgumentError, "depletion must be nonnegative", depletion)
    x, s = 2.0 * abs(alpha0) ** 2, outcome_sign(outcome)

    def one_plus(sign, log_g):  # 1 + sign e^{log_g} for log_g <= 0; 0.0 - keeps zeros unsigned
        return 2.0 + np.expm1(log_g) if sign > 0 else 0.0 - np.expm1(log_g)

    denom = 2.0 * one_plus(s, -x)
    if denom <= 1e-14:
        raise ZeroStateError(
            "degenerate preparation: the detection branch has vanishing probability"
        )
    lam_plus = one_plus(1.0, -x * g2) * one_plus(s, -x * depletion) / denom
    lam_minus = one_plus(-1.0, -x * g2) * one_plus(-s, -x * depletion) / denom
    return lam_plus, lam_minus


def small_overlap_case_b(
    excitation_sum: float, phi: float
) -> tuple[float, float, float]:
    """Small-overlap closed form for case B: (eta, |Gamma_b|, theta).

    With B(t) = sum_k |beta_k(t)|^2 the bath excitation transferred from
    the field,

        |Gamma_b| = exp(-2 B sin^2 phi),   theta = B sin(2 phi),
        eta ~ cos(theta) * |Gamma_b| / 2,

    valid while the two field branches stay nearly orthogonal.  The half
    comes from the measurement matrix elements in the eigenvector basis,
    (1 -/+ cos(theta)/2)/2, whose difference is cos(theta)/2: unlike case
    A at phi = pi, the case-B detection operators are not simultaneously
    diagonal with the densities, so even at t = 0 the second atom is only
    75/25 correlated with the first.  The factor is pinned by the exact
    engine and by brute-force Fock evaluation (see the test suite).
    """
    if excitation_sum < 0.0:
        raise InvalidArgumentError("excitation_sum must be nonnegative")
    gamma_b_mag = math.exp(-2.0 * excitation_sum * math.sin(phi) ** 2)
    theta = excitation_sum * math.sin(2.0 * phi)
    return 0.5 * math.cos(theta) * gamma_b_mag, gamma_b_mag, theta
