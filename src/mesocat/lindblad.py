"""Closed-form zero-temperature master-equation evolution of coherent superpositions.

Under d rho/dt = gamma (a rho a^dag - {a^dag a, rho}/2) a coherent amplitude
damps as alpha(t) = alpha(0) exp(-gamma t / 2), and a coherent dyad
|a><b| keeps its form while its coefficient picks up

    exp[(conj(b) a - (|a|^2 + |b|^2)/2) (1 - e^{-gamma t})],

the unique trace-preserving factor compatible with the damping of the
amplitudes (it is the ratio <b|a> / <b_t|a_t>).  For opposite amplitudes
(a, b) = (alpha, -alpha) it reduces to exp(-2 |alpha|^2 (1 - e^{-gamma t})),
the damping factor of the even/odd superpositions; for general pairs --
needed by the case-B protocol -- it is validated against the Fock-space
damping map ``fock.damp`` at these (g, B) in the test suite rather than assumed.

No bath modes appear here: gamma = 1/t_c is the only dissipation parameter.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coherent import FieldBathSuperposition, ReducedDensity, _require, damped_density
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class MasterParams:
    """Field-energy decay rate gamma = 1/t_c (inverse intensity damping time)."""

    gamma: float

    def __post_init__(self):
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise InvalidArgumentError("gamma must be positive and finite")


def me_amplitude(alpha0: complex, params: MasterParams, t: float) -> complex:
    """alpha(t) = alpha(0) g(t), g of :func:`me_response`; the intensity decays as e^{-gamma t}."""
    return alpha0 * float(me_response(params, t)[0])


def me_dyad_factor(a: complex, b: complex, params: MasterParams, t: float) -> complex:
    """Damping factor of the coherent dyad |a><b| after time t.

    Equals 1 for a == b (diagonal dyads keep their trace) and never
    exceeds 1 in magnitude.
    """
    log_overlap = b.conjugate() * a - 0.5 * (abs(a) ** 2 + abs(b) ** 2)  # log <b|a>
    return cmath.exp(log_overlap * float(me_response(params, t)[1]))  # <b|a>^B


def me_response(params: MasterParams, times) -> tuple[np.ndarray, np.ndarray]:
    """g(t) = e^{-gamma t/2} and depletion B(t) = 1 - e^{-gamma t} over a time grid.

    The master equation's counterpart of ``bath.response``: every density
    of this module is ``coherent.damped_density`` at these (g, B).
    """
    times = np.asarray(times, dtype=float)
    _require(np.isfinite(times) & (times >= 0), InvalidArgumentError,
             "t must be nonnegative and finite", times)
    return np.exp(-0.5 * params.gamma * times), -np.expm1(-params.gamma * times)


def me_reduce(
    initial: FieldBathSuperposition, params: MasterParams, t: float
) -> ReducedDensity:
    """Field density at time t for a bath-free initial superposition.

    Labels damp as in :func:`me_amplitude` and each coefficient picks up
    :func:`me_dyad_factor` of its label pair; the trace stays 1.
    """
    if not initial.normalized:
        raise InvalidArgumentError("me_reduce() needs a normalized state")
    if initial.n_bath_modes != 0:
        raise InvalidArgumentError("the master-equation route is bath-free")
    g, depletion = me_response(params, t)
    return damped_density(initial, complex(g), float(depletion))
