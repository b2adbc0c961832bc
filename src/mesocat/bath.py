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
matrix.  The field sees the bath only through g and the depletion
B = sum_k |f_k|^2 (``coherent.damped_density``), which :func:`response` gives
over a time grid, for a bath held as one real array (2, M): ``detunings, couplings = bath``.
The matrix is an arrowhead and is never formed: its
eigenvalues are the roots of F(lam) = lam + sum_k g_k^2 / (D_k - lam) (Bunch,
Nielsen & Sorensen, Numer. Math. 31, 31, 1978; the iteration of LAPACK dlaed4,
R.-C. Li, LAWN 89, 1994), with field weights r_j = 1 / F'(lam_j).  The tests
check this against eigh and expm of the matrix.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import AuditError, InvalidArgumentError

#: Fraction of the recurrence time beyond which results stop mimicking a continuum.
RECURRENCE_FRACTION = 0.5
#: roots summed at a time, and solved at a time in bands whose roots do not all fit in the
#: solver buffers of ROOT_BLOCK roots at 2001 modes; bounds memory to O(modes * ROOT_BLOCK)
ROOT_BLOCK = 128
#: sweeps after which a root that meets neither stopping rule is an AuditError
MAX_SWEEPS = 100
EPS = np.finfo(float).eps


def _bath(bath) -> tuple[np.ndarray, np.ndarray]:
    """(detunings, couplings), (M,) each, of a bath: one real array (2, M), checked."""
    try:
        bath = np.asarray(bath, dtype=float)
    except ValueError:  # numpy's error for ragged nested lists
        bath = None
    if bath is None or bath.ndim != 2 or len(bath) != 2:
        raise InvalidArgumentError("bath must be a real (2, M) array: detunings over couplings")
    if not bath.shape[1]:
        raise InvalidArgumentError("bath needs at least one mode")
    if not np.all(np.isfinite(bath)):
        raise InvalidArgumentError("bath parameters must be finite")
    if np.any(bath[1] <= 0.0):
        raise InvalidArgumentError("couplings must be positive")
    return bath[0], bath[1]


def recurrence_time(bath) -> float:
    """2 pi over the minimum detuning spacing of a bath (2, M); inf for a single mode."""
    detunings, _ = _bath(bath)
    if detunings.size < 2:
        return math.inf
    spacing = np.diff(np.sort(detunings))
    d_min = spacing[spacing > 0.0].min() if np.any(spacing > 0.0) else 0.0
    if d_min <= 0.0:
        raise InvalidArgumentError("detunings must not all coincide")
    return 2.0 * math.pi / d_min


def _spectrum(bath) -> tuple[np.ndarray, ...]:
    """(distinct detunings w, root origin in w, offset, residue); coincident modes merge.

    sum_j r_j lam_j^n (n = 0, 1, 2) must be 1, 0 and sum g_k^2 to within sum_j r_j a_j^n
    ((34 + roots) eps + 4 s_j), a_j = |w[origin]| + |tau|: lam_j is known to eps a_j + s_j |tau|
    (s_j the solver's slack), which moves r_j by 2 s_j as |F''| <= 2 F' / |tau|; r_j is good to
    32 ulps, a sum to 1 a term.  The bound assumes normal floats, not subnormal ones.
    """
    detunings, couplings = _bath(bath)
    w, mode = np.unique(detunings, return_inverse=True)
    c2 = np.bincount(mode, weights=couplings**2)
    block = w.size + 1 if (w.size + 1) * w.size <= ROOT_BLOCK * 2001 else ROOT_BLOCK
    blocks = np.split(np.arange(w.size + 1), range(block, w.size + 1, block))
    solved = zip(*(_solve_block(w, c2, j) for j in blocks))
    origin, tau, residue, slack = map(np.concatenate, solved)
    lam, size = w[origin] + tau, np.abs(w[origin]) + np.abs(tau)
    bound = residue * ((35 + w.size) * EPS + 4.0 * slack)
    for n, exact in enumerate((1.0, 0.0, float(c2.sum()))):
        total = float(np.sum(residue * lam**n))
        if not abs(total - exact) <= np.sum(bound * size**n):
            raise AuditError(f"bath spectrum: moment {n} is {total!r}, not {exact!r}")
    return w, origin, tau, residue


def discretize_flat_band(target_gamma: float, modes: int, half_bandwidth: float) -> np.ndarray:
    """Flat band (2, modes) of equally spaced modes with golden-rule-matched couplings.

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
    return np.stack([detunings, np.full(modes, coupling)])


def _solve_block(w: np.ndarray, c2: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, ...]:
    """(origin, offset, residue, s) of the roots j of F, sorted distinct poles w of weights c2.

    Root j lies between w[j - 1] and w[j], roots 0 and m beyond the band.  An
    iterate lam = w[origin] + tau, origin the nearer pole, keeps lam - w_k to
    full relative accuracy.  A step keeps the origin's term of F and fits F
    and F' with a pole at the gap's far end (outside the band: with lam); a
    step out of the bracket bisects it.  A root stops when |F| is within
    rounding, or its bracket within 4 roundings of tau; s bounds its error / |tau|.
    """
    m = w.size
    outer, side = (j == 0) | (j == m), np.where(j == 0, -1.0, 1.0)
    origin = np.where(j == m, m - 1, np.maximum(j - 1, 0))
    gap = w[np.minimum(j, m - 1)] - w[origin]
    # beyond the band F changes sign within sqrt(sum c2) + max(0, -side w) of the end pole
    end = np.where(outer, side * (np.sqrt(c2.sum()) + np.maximum(0.0, -side * w[origin])), gap)
    tau, lo, hi = np.where(outer, end, 0.5 * end), np.minimum(end, 0.0), np.maximum(end, 0.0)
    residue, s, done = np.empty(j.size), np.empty(j.size), np.zeros(j.size, dtype=bool)
    buffers = np.empty((2, j.size, m))
    for sweep in range(MAX_SWEEPS):
        k = np.flatnonzero(~done)
        if not k.size:
            return origin, tau, residue, s
        t, (inv, q) = tau[k], buffers[:, :k.size]
        np.subtract(w[origin[k], None], w, out=inv)
        np.divide(1.0, np.add(inv, t[:, None], out=inv), out=inv)  # 1 / (lam - w_k)
        np.multiply(inv, c2, out=q)
        lam, q_sum = w[origin[k]] + t, q.sum(axis=1)
        f, df = lam - q_sum, 1.0 + np.multiply(q, inv, out=inv).sum(axis=1)
        tol = EPS * (8.0 * (np.abs(lam) + np.abs(q, out=q).sum(axis=1)) + np.abs(t) * df)
        stop = (np.abs(f) <= tol) | (hi[k] - lo[k] <= 4.0 * EPS * np.abs(t))
        residue[k], s[k], done[k] = 1.0 / df, tol / (df * np.abs(t)) + 4.0 * EPS, stop
        lo[k], hi[k] = np.where(f < 0.0, t, lo[k]), np.where(f > 0.0, t, hi[k])
        if sweep == 0:  # a root above its gap's midpoint is measured from the upper pole
            up = ~outer[k] & (f < 0.0)
            origin[k], shift = origin[k] + up, np.where(up, gap[k], 0.0)
            t, lo[k], hi[k] = t - shift, lo[k] - shift, hi[k] - shift
        with np.errstate(divide="ignore", invalid="ignore"):
            pole = c2[origin[k]] / t  # the origin's term; the rest: c + weight / (far - eta)
            far = np.where(origin[k] == j[k] - 1, gap[k], -gap[k]) - t
            weight = far * far * (df - pole / t)
            c = f + pole - weight / far
            a, b = c * (far - t) + pole * t + weight, -t * far * f
            disc = np.sqrt(np.abs(a * a - 4.0 * c * b))
            step = t + np.where(a > 0.0, 2.0 * b / (a + disc), (a - disc) / (2.0 * c))
            weight = t * t * (df - 1.0)  # outside: y^2 + beta y - weight = 0, y on tau's side
            beta, sgn = f - t + weight / t, side[k]
            disc = np.sqrt(beta * beta + 4.0 * weight)
            y = np.where(sgn * beta > 0.0, 2.0 * weight / (beta + sgn * disc),
                         (sgn * disc - beta) / 2.0)
            step = np.where(outer[k], y, step)
        inside = (lo[k] < step) & (step < hi[k])
        tau[k] = np.where(stop, t, np.where(inside, step, 0.5 * (lo[k] + hi[k])))
    raise AuditError(f"bath spectrum: roots not converged after {MAX_SWEEPS} sweeps")


def response(bath, times) -> tuple[np.ndarray, np.ndarray]:
    """Field response g(t) and depletion B(t) = sum_k |f_k(t)|^2 of a bath (2, M) over a time grid.

    With h = sum_j r_j expm1(-i lam_j t) = sum_j r_j (-2 sin^2(lam_j t/2) - i sin(lam_j t)),
    g = 1 + h and B = 1 - |g|^2 = -2 Re h - |h|^2, exact at t = 0 (B = +0) and without
    cancellation at short times; O(modes * times) work, and no BLAS call.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)) or np.any(times < 0.0):
        raise InvalidArgumentError("times must be a 1-d array of nonnegative finite values")
    w, origin, tau, residue = _spectrum(bath)
    lam, h = w[origin] + tau, np.zeros(len(times), dtype=complex)
    for i in range(0, lam.size, ROOT_BLOCK):
        phase, r = np.multiply.outer(lam[i:i + ROOT_BLOCK], times), residue[i:i + ROOT_BLOCK]
        h -= np.einsum("j,jt->t", r, 2.0 * np.sin(0.5 * phase) ** 2 + 1j * np.sin(phase))
    return 1.0 + h, -2.0 * h.real - (h.real**2 + h.imag**2) + 0.0  # + 0.0: no -0 at h = 0

