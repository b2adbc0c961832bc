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
sums.  Conditional probabilities for the second atom are traces of
U^dag U against the field density conditioned on the first detection, and
the correlation signal is eta = P_ee - P_ge.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coherent import (
    Branch,
    FieldBathSuperposition,
    PhaseOpSum,
    ReducedDensity,
    _require,
    expectation,
    normalize,
    squared_norm,
)
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


def reduced_op(params: ProtocolParams, outcome: DetectionOutcome) -> PhaseOpSum:
    """Reduced field operator applied when the atom is detected in ``outcome``."""
    s = outcome_sign(outcome)
    phi = params.phi
    if params.case is ProtocolCase.CASE_A:
        return PhaseOpSum(((0.5 + 0.0j, -phi), (0.5 * s + 0.0j, 0.0)))
    scalar = 0.5 * cmath.exp(1j * phi)  # the exp(i phi) of exp(i phi (n+1))
    return PhaseOpSum(((scalar, phi), (0.5 * s + 0.0j, -phi)))


@functools.lru_cache(maxsize=256)
def measurement_product(params: ProtocolParams, outcome: DetectionOutcome) -> PhaseOpSum:
    """The positive operator U^dag U whose trace gives detection probabilities.

    Case A reduces to (1 + s cos(phi n))/2 and case B to
    (1 + s cos((2n+1) phi))/2 with s = outcome_sign; expanded here into
    exponential terms through the operator algebra.  Cached: every row of a
    run asks for the same two operators, and the result is immutable.
    """
    u = reduced_op(params, outcome)
    return (u.adjoint() * u).canonical()


def preparation_probability(params: ProtocolParams, outcome: DetectionOutcome) -> float:
    """Probability that the first atom is detected in ``outcome``."""
    state = _unnormalized_prepared(params, outcome, n_bath_modes=0)
    return squared_norm(state)


def _unnormalized_prepared(
    params: ProtocolParams, outcome: DetectionOutcome, n_bath_modes: int
) -> FieldBathSuperposition:
    vacuum = (0.0 + 0.0j,) * n_bath_modes
    branches = tuple(
        Branch(w, params.alpha0 * cmath.exp(1j * p), vacuum)
        for w, p in reduced_op(params, outcome).terms
    )
    return FieldBathSuperposition(branches)


def prepare(
    params: ProtocolParams, outcome: DetectionOutcome, n_bath_modes: int = 0
) -> FieldBathSuperposition:
    """Field+bath state right after the first atom is detected in ``outcome``.

    The bath starts in the zero-temperature ground state, so every branch
    carries all-zero bath labels.  Raises :class:`ZeroStateError` when the
    detection branch has vanishing probability (e.g. case A on the vacuum
    with outcome E).
    """
    return normalize(_unnormalized_prepared(params, outcome, n_bath_modes))


@dataclass(frozen=True)
class CorrelationRecord:
    """The four two-atom conditional probabilities and eta = p_ee - p_ge.

    Each probability is given as computed: a number, or an array over the
    stack axes of the densities (e.g. a time grid).  It must be real and in
    [0, 1] to roundoff, and is then stored clamped to [0, 1]; p_ee + p_eg and
    p_ge + p_gg must be 1.  A failed check raises :class:`PositivityError`
    naming the first offending index.
    """

    p_ee: float | np.ndarray
    p_eg: float | np.ndarray
    p_ge: float | np.ndarray
    p_gg: float | np.ndarray

    def __post_init__(self):
        for name in ("p_ee", "p_eg", "p_ge", "p_gg"):
            p = np.asarray(getattr(self, name), dtype=complex)
            _require(np.abs(p.imag) <= _PROBABILITY_TOL, PositivityError,
                     f"probability {name} has an imaginary part", p.imag)
            _require((-_PROBABILITY_TOL <= p.real) & (p.real <= 1.0 + _PROBABILITY_TOL),
                     PositivityError, f"probability {name} outside [0, 1]", p.real)
            object.__setattr__(self, name, np.clip(p.real, 0.0, 1.0))
        for pair in (("p_ee", "p_eg"), ("p_ge", "p_gg")):
            total = getattr(self, pair[0]) + getattr(self, pair[1])
            _require(~(np.abs(total - 1.0) > _PROBABILITY_TOL), PositivityError,
                     " + ".join(pair) + " != 1 beyond tolerance", total)

    @property
    def eta(self):
        return self.p_ee - self.p_ge


def conditional_probabilities(
    rho_e: ReducedDensity, rho_g: ReducedDensity, params: ProtocolParams
) -> CorrelationRecord:
    """Second-atom detection probabilities conditioned on the first outcome.

    ``rho_e``/``rho_g`` are the trace-normalized field densities at the
    passage time of the second atom, conditioned on detecting the first
    atom in e/g; stacks of densities (one per grid time) give arrays.
    """
    ops = [measurement_product(params, outcome) for outcome in DetectionOutcome]  # E, G
    return CorrelationRecord(*(expectation(op, rho) for rho in (rho_e, rho_g) for op in ops))


def eigenvalues_case_a(
    gamma_a_t: float, gamma_b_t: float, gamma_a_0: float, outcome: DetectionOutcome
) -> tuple[float, float]:
    """Closed-form eigenvalue pair (lam_plus, lam_minus) for case A at phi = pi.

    lam_+- = (1 +- G_a(t)) (1 +- s G_b(t)) / (2 (1 + s G_a(0))),
    s = outcome_sign; the eigenvectors are |alpha(t)> +- |-alpha(t)>.  The
    denominator sign is fixed by trace normalization together with the
    conservation identity G_a(t) G_b(t) = G_a(0); the eigenvalue sum is
    (1 + s G_a(t) G_b(t)) / (1 + s G_a(0)).
    """
    for name, g in (("gamma_a_t", gamma_a_t), ("gamma_b_t", gamma_b_t), ("gamma_a_0", gamma_a_0)):
        if not 0.0 <= g <= 1.0:
            raise InvalidArgumentError(f"{name} = {g!r} outside [0, 1]")
    s = outcome_sign(outcome)
    denom = 2.0 * (1.0 + s * gamma_a_0)
    if denom <= 1e-14:
        raise ZeroStateError(
            "degenerate preparation: the detection branch has vanishing probability"
        )
    lam_plus = (1.0 + gamma_a_t) * (1.0 + s * gamma_b_t) / denom
    lam_minus = (1.0 - gamma_a_t) * (1.0 - s * gamma_b_t) / denom
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
