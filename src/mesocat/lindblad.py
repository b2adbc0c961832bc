"""Closed-form zero-temperature master-equation damping of coherent superpositions.

Under d rho/dt = gamma (a rho a^dag - {a^dag a, rho}/2) a coherent amplitude
damps as alpha(t) = alpha(0) g with g = e^{-gamma t/2}, and a coherent dyad
|a><b| keeps its form while its coefficient picks up

    exp[(conj(b) a - (|a|^2 + |b|^2)/2) B],    B = 1 - e^{-gamma t},

the unique trace-preserving factor compatible with the damping of the
amplitudes (it is the ratio <b|a> / <b_t|a_t>).  For opposite amplitudes
(a, b) = (alpha, -alpha) it reduces to exp(-2 |alpha|^2 B), the damping
factor of the even/odd superpositions; for general pairs -- needed by the
case-B protocol -- it is validated against the Fock-space damping map
``fock.damp`` at these (g, B) in the test suite rather than assumed.  The
field density at time t is ``coherent.damped_density(state, *me_response(params, t))``.

No bath modes appear here: gamma = 1/t_c is the only dissipation parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import _require
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class MasterParams:
    """Field-energy decay rate gamma = 1/t_c (inverse intensity damping time)."""

    gamma: float

    def __post_init__(self):
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise InvalidArgumentError("gamma must be positive and finite")


def me_response(params: MasterParams, times) -> tuple[np.ndarray, np.ndarray]:
    """g(t) = e^{-gamma t/2} and depletion B(t) = 1 - e^{-gamma t} over a time grid.

    The master equation's counterpart of ``bath.response``: its field
    densities are ``coherent.damped_density`` at these (g, B).
    """
    times = np.asarray(times, dtype=float)
    _require(np.isfinite(times) & (times >= 0), InvalidArgumentError,
             "t must be nonnegative and finite", times)
    return np.exp(-0.5 * params.gamma * times), -np.expm1(-params.gamma * times)
