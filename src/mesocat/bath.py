"""Exact zero-temperature dynamics of one field mode coupled to a discrete bath.

The excitation-conserving coupling H = sum_k g_k (a^dag b_k + b_k^dag a)
(in the frame rotating at the field frequency, bath detunings D_k on the
bath modes) keeps products of coherent states product-coherent; the
amplitudes follow the linear flow

    i da/dt   = sum_k g_k b_k
    i db_k/dt = D_k b_k + g_k a.

Starting from an empty bath, every branch amplitude is proportional to the
initial field amplitude: alpha(t) = alpha(0) g(t), beta_k(t) = alpha(0) f_k(t),
where (g, f) is column zero of exp(-i H t) for the (K+1)x(K+1) one-excitation
matrix.  The Hermitian eigendecomposition is computed once per bath and
cached, so each time point costs one matrix-vector product, and a whole
time grid two real ones (:func:`response`).  The tests check this
against an independent matrix exponential of the same matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coherent import Branch, FieldBathSuperposition, overlap
from .errors import InvalidArgumentError, UnsupportedInputError

#: Fraction of the recurrence time beyond which results stop mimicking a continuum.
RECURRENCE_FRACTION = 0.5


@dataclass(frozen=True, eq=False)
class BathSpec:
    """Discretized bath: mode detunings, couplings, and the intended decay rate.

    ``target_gamma`` is the field-intensity decay rate 1/t_c the couplings
    aim to reproduce in the continuum (Wigner-Weisskopf) regime.
    """

    detunings: np.ndarray
    couplings: np.ndarray
    target_gamma: float

    def __post_init__(self):
        det = np.asarray(self.detunings, dtype=float)
        cpl = np.asarray(self.couplings, dtype=float)
        if det.ndim != 1 or cpl.shape != det.shape:
            raise InvalidArgumentError("detunings and couplings must be equal-length 1-d arrays")
        if det.size == 0:
            raise InvalidArgumentError("bath needs at least one mode")
        if not np.all(np.isfinite(det)) or not np.all(np.isfinite(cpl)):
            raise InvalidArgumentError("bath parameters must be finite")
        if np.any(cpl <= 0.0):
            raise InvalidArgumentError("couplings must be positive")
        if not (self.target_gamma > 0.0 and math.isfinite(self.target_gamma)):
            raise InvalidArgumentError("target_gamma must be positive")
        object.__setattr__(self, "detunings", det)
        object.__setattr__(self, "couplings", cpl)
        det.setflags(write=False)
        cpl.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.detunings.size

    @property
    def recurrence_time(self) -> float:
        """2 pi over the minimum detuning spacing; inf for a single mode."""
        if self.n_modes < 2:
            return math.inf
        spacing = np.diff(np.sort(self.detunings))
        d_min = spacing[spacing > 0.0].min() if np.any(spacing > 0.0) else 0.0
        if d_min <= 0.0:
            raise InvalidArgumentError("detunings must not all coincide")
        return 2.0 * math.pi / d_min

    def one_excitation_matrix(self) -> np.ndarray:
        k = self.n_modes
        h = np.zeros((k + 1, k + 1))
        h[0, 1:] = self.couplings
        h[1:, 0] = self.couplings
        h[np.arange(1, k + 1), np.arange(1, k + 1)] = self.detunings
        return h

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        w, v = np.linalg.eigh(self.one_excitation_matrix())
        return w, v, v[0, :].conj()


def discretize_flat_band(target_gamma: float, modes: int, half_bandwidth: float) -> BathSpec:
    """Flat band of equally spaced modes with golden-rule-matched couplings.

    Detunings cover [-half_bandwidth, +half_bandwidth]; the uniform coupling
    sqrt(target_gamma * d / (2 pi)) (d the mode spacing) makes the
    Wigner-Weisskopf intensity decay rate equal target_gamma.  The mode
    count must be odd so one mode sits exactly on resonance.  Bandwidths
    below 10 * target_gamma only draw a warning: the discrete model stays
    exact, but the exponential-decay regime shrinks.
    """
    if not isinstance(modes, int) or modes < 3 or modes % 2 == 0:
        raise InvalidArgumentError("modes must be an odd integer >= 3")
    if not (half_bandwidth > 0.0 and math.isfinite(half_bandwidth)):
        raise InvalidArgumentError("half_bandwidth must be positive")
    if not (target_gamma > 0.0 and math.isfinite(target_gamma)):
        raise InvalidArgumentError("target_gamma must be positive")
    if half_bandwidth < 10.0 * target_gamma:
        warnings.warn(
            "half_bandwidth below 10/t_c: exponential decay holds only over a short window",
            stacklevel=2,
        )
    spacing = 2.0 * half_bandwidth / (modes - 1)
    detunings = np.linspace(-half_bandwidth, half_bandwidth, modes)
    coupling = math.sqrt(target_gamma * spacing / (2.0 * math.pi))
    return BathSpec(detunings, np.full(modes, coupling), target_gamma)


@dataclass(frozen=True, eq=False)
class ResponseFunctions:
    """Linear-flow response at one time: alpha(t) = alpha(0) g, beta_k(t) = alpha(0) f[k].

    Unitarity of the one-excitation flow guarantees |g|^2 + sum |f_k|^2 = 1.
    ``recurrence_warning`` flags times beyond half the recurrence time,
    where the discrete bath no longer mimics a continuum (the results stay
    exact for the discrete model itself).
    """

    time: float
    g: complex
    f: np.ndarray
    recurrence_warning: bool = False

    def __post_init__(self):
        self.f.setflags(write=False)

    def excitation_fraction(self) -> float:
        """sum_k |f_k|^2 = 1 - |g|^2 up to roundoff."""
        return float(np.sum(np.abs(self.f) ** 2))


def propagate(spec: BathSpec, t: float) -> ResponseFunctions:
    """Exact response at time t via the cached Hermitian eigendecomposition."""
    if t < 0.0 or not math.isfinite(t):
        raise InvalidArgumentError("t must be nonnegative and finite")
    if t == 0.0:
        return ResponseFunctions(
            time=0.0, g=1.0 + 0.0j, f=np.zeros(spec.n_modes, dtype=complex)
        )
    w, v, v0 = spec._eig
    amp = v @ (np.exp(-1j * w * t) * v0)
    return ResponseFunctions(
        time=t,
        g=complex(amp[0]),
        f=amp[1:].copy(),
        recurrence_warning=t > RECURRENCE_FRACTION * spec.recurrence_time,
    )


#: grid times per matrix product in :func:`response`; bounds its memory to O(modes * block)
RESPONSE_BLOCK = 256


def response(spec: BathSpec, times) -> tuple[np.ndarray, np.ndarray]:
    """Field response g(t) and bath depletion B(t) = sum_k |f_k(t)|^2 over a time grid.

    Two real matrix products per block of RESPONSE_BLOCK times on the cached
    eigendecomposition, one for cos(w t) and one for sin(w t): the
    eigenvectors are real, so no complex product is needed.  B is summed over
    the modes, not taken as 1 - |g|^2, so |g|^2 + B = 1 remains a check of
    the flow's unitarity.  Times equal to zero give g = 1 and B = 0 exactly.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)) or np.any(times < 0.0):
        raise InvalidArgumentError("times must be a 1-d array of nonnegative finite values")
    w, v, v0 = spec._eig
    g = np.empty(len(times), dtype=complex)
    depletion = np.empty(len(times))
    for start in range(0, len(times), RESPONSE_BLOCK):
        block = slice(start, start + RESPONSE_BLOCK)
        phase = np.outer(w, times[block])
        re, im = v @ (np.cos(phase) * v0[:, None]), v @ (np.sin(phase) * v0[:, None])
        g[block] = re[0] - 1j * im[0]
        depletion[block] = np.sum(re[1:] ** 2 + im[1:] ** 2, axis=0)
    at_zero = times == 0.0
    g[at_zero], depletion[at_zero] = 1.0, 0.0
    return g, depletion


def evolve(state: FieldBathSuperposition, spec: BathSpec, t: float) -> FieldBathSuperposition:
    """Propagate a superposition whose bath starts empty.

    Each branch maps |a_i> prod_k |0> to |a_i g(t)> prod_k |a_i f_k(t)| with
    the weight unchanged (the flow is unitary, so normalization survives).
    Branches may carry either no bath labels or all-zero labels matching the
    bath size; anything else is outside the zero-temperature model.
    """
    if not state.normalized:
        raise InvalidArgumentError("evolve() needs a normalized state")
    n_bath = state.n_bath_modes
    if n_bath not in (0, spec.n_modes):
        raise UnsupportedInputError(
            f"state carries {n_bath} bath labels but the bath has {spec.n_modes} modes"
        )
    for br in state.branches:
        if any(b != 0 for b in br.bath):
            raise UnsupportedInputError("initial bath labels must all be zero")
    resp = propagate(spec, t)
    branches = tuple(
        Branch(br.weight, br.field * resp.g, tuple(br.field * resp.f))
        for br in state.branches
    )
    return FieldBathSuperposition(branches, normalized=True)


def _two_branches(state: FieldBathSuperposition) -> tuple[Branch, Branch]:
    if len(state.branches) != 2:
        raise InvalidArgumentError("this diagnostic needs exactly two branches")
    return state.branches[0], state.branches[1]


def gamma_a(state: FieldBathSuperposition) -> float:
    """|<field_2|field_1>|, the magnitude of the field-branch overlap."""
    b1, b2 = _two_branches(state)
    return abs(overlap(b2.field, b1.field))


def gamma_b(state: FieldBathSuperposition) -> complex:
    """prod_k <bath_2,k|bath_1,k>: the bath-induced damping of the field coherence.

    Real for opposite-amplitude branches (case A); complex in general.
    """
    b1, b2 = _two_branches(state)
    val = 1.0 + 0.0j
    for x, y in zip(b2.bath, b1.bath):
        val *= overlap(x, y)
    return val


def excitation_sum(state: FieldBathSuperposition) -> float:
    """sum_k |beta_k(t)|^2 transferred to the bath (equal for both branches)."""
    b1, _ = _two_branches(state)
    return float(sum(abs(b) ** 2 for b in b1.bath))
