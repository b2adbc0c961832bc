"""Scenario engines: turn one configuration into a time series of observables.

A run yields one column table: a dict holding a 1-d array over the grid
per ``ROW_FIELDS`` name, with the damping factors, the four conditional
probabilities and eta, the eigenvalue pairs of both conditioned densities,
purities, occupations and the recurrence flag.  Times are reported in units
of t_c = 1/gamma.

The environment reaches the prepared field only through the field response g(t) and the
depletion B(t), which ``_response`` gives over the whole grid for every engine: the exact
discrete bath from its moment-checked secular spectrum (``bath.response``), the master
equation, which the Fock engine shares, in closed form (``lindblad.me_response``).  Every
command builds its tables in one builder from one stack (time, protocol, first-atom
outcome) of the densities of one state array (protocol, outcome, 2, n), the responses
(both engines' for ``compare``, one per gamma in a gamma sweep) concatenated along time;
the engine's backend evaluates it.  The analytic one sends the probabilities (one
expectation pass for all four), spectra and purities once through the checked routines
that serve one density.  The Fock one, the oracle, expands the prepared branch labels in
one recurrence, the damped labels in a second, and damps every prepared Fock vector v of
an outcome, as |v><v|, in one ``fock.damp`` call.  Nothing iterates over grid times.

Eigenvalue columns hold the descending pair, with one parity rule in every
engine: where the two field labels are antipodal (l, -l) and the top
eigenvector is odd, lam_plus is the smaller eigenvalue, so the even
|l> + |-l> branch is "plus" as in the closed-form pair.  The analytic tables
read it off the pair form, whose basis for such labels is the even and the
odd cat (top odd: a < d); the Fock engine off the parity of eigh's top
vector, or, for a parity cat, the top eigenvalues of the even and odd
photon-number blocks.

mesocat starts no thread; OpenBLAS may use a second in the Fock engine, from about 45 levels.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np

from . import bath as bathmod
from . import coherent, fock, lindblad
from . import protocol as proto
from .config import ENGINES, ScenarioConfig, apply_sweep_value
from .errors import InvalidArgumentError


#: column order of every output table
ROW_FIELDS = (
    "t", "gamma_a", "gamma_b_abs", "gamma_b_arg", "p_ee", "p_eg", "p_ge", "p_gg", "eta",
    "lam_e_plus", "lam_e_minus", "lam_g_plus", "lam_g_minus", "purity_e", "purity_g",
    "defect_e", "defect_g", "n_field", "n_bath", "recurrence_warning",
)


def scenario_params(cfg: ScenarioConfig) -> proto.ProtocolParams:
    case = proto.ProtocolCase.CASE_A if cfg.case == "a" else proto.ProtocolCase.CASE_B
    return proto.ProtocolParams(case, cfg.alpha0, cfg.phi)


def time_grid(cfg: ScenarioConfig) -> np.ndarray:
    """Grid in units of t_c, from 0 to t_max_over_tc inclusive."""
    return np.linspace(0.0, cfg.time.t_max_over_tc, cfg.time.points)


#: Frobenius norm below which a Fock density counts as parity-block-diagonal
PARITY_BLOCK_TOL = 1e-12
#: relative accuracy of the Fock engine's gamma_b: rows whose rounding bound exceeds it hold NaN
FOCK_GAMMA_B_RTOL = 1e-6


def _labels_antipodal(labels) -> np.ndarray:
    """Whether the two labels (last axis) are opposite, at each stack index."""
    l0, l1 = labels[..., 0], labels[..., 1]
    scale = np.maximum(1.0, np.maximum(np.abs(l0), np.abs(l1)))
    return np.abs(l0 + l1) < 1e-9 * scale


def _response(cfg: ScenarioConfig, times_tc: np.ndarray) -> tuple[np.ndarray, ...]:
    """(g, B, recurrence flags) at the given times (t_c): the master's unless microscopic."""
    if cfg.engine == "microscopic":
        bath = bathmod.discretize_flat_band(cfg.bath.gamma, cfg.bath.modes, cfg.bath.half_bandwidth)
        times = times_tc * (1.0 / cfg.bath.gamma)
        recurrence = times > bathmod.RECURRENCE_FRACTION * bathmod.recurrence_time(bath)
        return (*bathmod.response(bath, times), recurrence)
    times = times_tc * (1.0 / cfg.master.gamma)
    g, depletion = lindblad.me_response(cfg.master.gamma, times)
    return g, depletion, np.zeros(len(times), dtype=bool)


def _analytic(swept, states, g, depletion) -> tuple:
    """The analytic engines' backend: the closed-form densities over the damped labels."""
    rho = coherent.damped_density(states, g, depletion)
    rec, lams = proto.conditional_probabilities(rho, swept), coherent.eigenvalues(rho)
    # antipodal labels: a and d are the even and odd cats' populations (module docstring)
    odd_top = (_labels_antipodal(rho.labels) & (rho._pair.a < rho._pair.d))[..., None]
    # gamma_b = exp(K_12) of the outcome-e density: the bath overlap <a_2 f|a_1 f>
    return (np.exp(rho.expo[..., 0, 0, 1]), rec, np.where(odd_top, lams[..., ::-1], lams),
            coherent.purity(rho), coherent.idempotency_defect(rho),
            *coherent.damped_occupations(states[:, 0], g, depletion))


def _fock_assign(matrix: np.ndarray, labels_t) -> np.ndarray:
    """(lam_plus, lam_minus), shape (..., 2), over a stack of Fock density matrices (..., N, N).

    Antipodal pair, density block-diagonal in parity (a parity cat; damping
    keeps it so): the top eigenvalues of the even and odd blocks, so no
    vector of a degenerate eigenspace decides the labels.  Other antipodal
    pairs (e.g. |b> - i|-b>): the two largest, swapped if the top eigenvector
    is odd.  Otherwise: the two largest.  Each stack index takes its branch.
    """
    antipodal, off = _labels_antipodal(labels_t), matrix[..., 0::2, 1::2]
    frobenius2 = sum(np.einsum("...ij,...ij->...", x, x) for x in (off.real, off.imag))
    blocks = antipodal & (frobenius2 < PARITY_BLOCK_TOL**2)
    top = np.empty(blocks.shape + (2,))
    if blocks.any():  # numpy.linalg costs about 7 us even on an empty stack
        top[blocks] = np.transpose([np.linalg.eigvalsh(matrix[..., p::2, p::2][blocks])[:, -1]
                                    for p in (0, 1)])
    if not blocks.all():
        lams, vecs = np.linalg.eigh(matrix[~blocks])
        parity = np.abs(vecs[..., -1]) ** 2 @ (1.0 - 2.0 * (np.arange(matrix.shape[-1]) % 2))
        swap = (antipodal[~blocks] & (parity < 0.0))[:, None]
        top[~blocks] = np.where(swap, lams[:, -2:], lams[:, :-3:-1])
    return np.clip(top, 0.0, 1.0)


def _fock_gamma_b(p: np.ndarray, labels_t: np.ndarray, weights, n_max: int) -> np.ndarray:
    """gamma_b from P_ij = <l_i(t)|rho_e(t)|l_j(t)>, (..., 2, 2), the labels and weights (..., 2).

    coeff = S^-1 P S^-1 with S^-1 = (1, -s; -conj(s), 1) / det, s = <l1|l2>
    and det = 1 - |s|^2.  The numerator cancels down to det^2 coeff01, so the
    rounding of the P_ij, dot products over n_max + 1 Fock levels and so
    within (n_max + 1) eps sum|P| of exact, reaches coeff01 divided by det^2.
    Entries where that bound exceeds FOCK_GAMMA_B_RTOL of |coeff01| hold NaN.
    """
    l1, l2 = labels_t[..., 0], labels_t[..., 1]
    det = -np.expm1(-coherent._abs2(l1 - l2))
    s = np.exp(coherent._exponent(l1, l2))
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff01 = (p[..., 0, 1] - s * (p[..., 0, 0] + p[..., 1, 1]) + s * s * p[..., 1, 0]) / det**2
        bound = (n_max + 1) * np.finfo(float).eps * np.abs(p).sum(axis=(-2, -1)) / det**2
        accurate = bound / np.abs(coeff01) <= FOCK_GAMMA_B_RTOL
    return np.where(accurate, coeff01 / (weights[..., 0] * np.conj(weights[..., 1])), np.nan)


def _fock(n_max, swept, states, g, depletion) -> tuple:
    """The Fock engine's backend, the oracle: every prepared vector damped as |v><v|."""
    prepared = fock.superposition_vector(states, n_max)  # (protocol, outcome, N)
    labels_t = np.multiply.outer(g, states[:, 0, 1])  # outcome e's damped labels
    # one damp per outcome: at n_max 39 x 11 times two calls take 0.64 ms, one on the stacked
    # kets 0.91 ms, and its strided slices raise a run's minor page faults from 174 to 243
    rho_e, rho_g = (fock.damp(v, v, g, depletion) for v in (prepared[:, 0], prepared[:, 1]))
    vecs = fock.coherent_to_fock(labels_t, n_max, batch=2)  # (T, P, 2, N), times named on failure
    ops = [[proto.measurement_product(prm, o) for o in proto.DetectionOutcome] for prm in swept]
    # one call per protocol keeps its bits; the record checks them before it clamps them
    measured = np.array([[fock.fock_measure(pair[k], rho[:, p]) for p, pair in enumerate(ops)]
                         for rho in (rho_e, rho_g) for k in (0, 1)])  # (p_ee ... p_gg, P, T)
    rec = proto.CorrelationRecord(*(m.T for m in measured), batch=1)
    label_products = (vecs.conj() @ rho_e) @ vecs.swapaxes(-1, -2)
    purity = np.stack([fock.fock_purity(rho_e), fock.fock_purity(rho_g)], axis=-1)
    n_field = fock.fock_mean_photon(rho_e)
    n_bath = np.sum(np.arange(n_max + 1) * ((v := prepared[:, 0]) * v.conj()).real, -1) - n_field
    return (_fock_gamma_b(label_products, labels_t, states[:, 0, 0], n_max), rec,
            np.stack([_fock_assign(rho_e, labels_t), _fock_assign(rho_g, labels_t)], axis=-2),
            purity, 1 - purity, n_field, n_bath)


def _stack_tables(swept, times_tc, responses, backend) -> list[dict[str, np.ndarray]]:
    """Tables at the given times (t_c) per protocol, then per response (g, B, recurrence), from
    one stack (time, protocol, outcome) over every response's times, which ``backend`` evaluates."""
    n, (g, depletion, recurrence) = len(times_tc), map(np.concatenate, zip(*responses))
    states = proto._prepare_stack(swept)  # (protocol, outcome, 2, n)
    g_b, rec, lams, purity, defect, n_field, n_bath = backend(swept, states, g, depletion)
    z = coherent._exponent(states[:, 0, 1, 1], states[:, 0, 1, 0])  # log <a_2|a_1>, outcome e
    columns = np.broadcast_arrays(
        np.abs(np.exp(np.multiply.outer(g.real**2 + g.imag**2, z))), np.abs(g_b),
        np.arctan2(g_b.imag, g_b.real), rec.p_ee, rec.p_eg, rec.p_ge, rec.p_gg, rec.eta,
        lams[..., 0, 0], lams[..., 0, 1], lams[..., 1, 0], lams[..., 1, 1],
        purity[..., 0], purity[..., 1], defect[..., 0], defect[..., 1],
        n_field, n_bath, recurrence[:, None],
    )
    return [dict(zip(ROW_FIELDS, [times_tc, *[col[k:k + n, p] for col in columns]]))
            for p in range(len(swept)) for k in range(0, len(g), n)]


def _tables(cfgs: list[ScenarioConfig], per_response: bool) -> list[dict[str, np.ndarray]]:
    """One column table per config, with the configured engine: the configs differ in their
    protocol, or (``per_response``) in their rate gamma, which gives each its own response."""
    if cfgs[0].engine not in ENGINES:
        raise InvalidArgumentError(f"unknown engine {cfgs[0].engine!r}")
    grid = time_grid(cfgs[0])
    responses = [_response(cfg, grid) for cfg in (cfgs if per_response else cfgs[:1])]
    swept = [scenario_params(cfg) for cfg in (cfgs[:1] if per_response else cfgs)]
    fock_engine = cfgs[0].engine == "fock"
    backend = functools.partial(_fock, cfgs[0].fock.n_max) if fock_engine else _analytic
    return _stack_tables(swept, grid, responses, backend)


def run_scenario(cfg: ScenarioConfig) -> dict[str, np.ndarray]:
    """Column table of one scenario's full time series with its configured engine."""
    return _tables([cfg], False)[0]


# ---------------------------------------------------------------------------
# compare and sweep drivers

#: log-spaced early-time grid (units of t_c) for the short-time defect slopes
SLOPE_GRID = np.logspace(-3.0, -2.0, 9)
_analytic_tables = functools.partial(_stack_tables, backend=_analytic)


def _defect_slope(defect_e: np.ndarray) -> float | None:
    """Fitted log-log slope of defect_e against t on SLOPE_GRID; None (JSON null) unless
    defect_e is positive across it: a state that stays pure has no slope."""
    if not np.all(defect_e > 0.0):
        return None
    return float(np.polyfit(np.log(SLOPE_GRID), np.log(defect_e), 1)[0])


def run_compare(cfg: ScenarioConfig) -> tuple[dict, dict, dict]:
    """Tables of the microscopic and master engines on one scenario, plus a summary.

    One stack holds both engines' responses at the grid and SLOPE_GRID.  The summary
    holds the largest |eta_micro - eta_master| over the grid and both engines'
    fitted log-log slopes of defect_e on SLOPE_GRID (quadratic vs linear onset).
    """
    n = cfg.time.points
    times = np.concatenate([time_grid(cfg), SLOPE_GRID])
    both = [_response(replace(cfg, engine=engine), times) for engine in ("microscopic", "master")]
    micro, master = _analytic_tables([scenario_params(cfg)], times, both)
    summary = {
        "max_abs_eta_gap": float(np.max(np.abs(micro["eta"][:n] - master["eta"][:n]))),
        "defect_slope_micro": _defect_slope(micro["defect_e"][n:]),
        "defect_slope_master": _defect_slope(master["defect_e"][n:]),
        "slope_grid_t_over_tc": [float(SLOPE_GRID[0]), float(SLOPE_GRID[-1])],
        "grid_points": cfg.time.points,
        "t_max_over_tc": cfg.time.t_max_over_tc,
    }
    return ({k: c[:n] for k, c in micro.items()}, {k: c[:n] for k, c in master.items()}, summary)


def run_sweep(
    cfg: ScenarioConfig, param: str, values: list[float]
) -> list[tuple[float, dict[str, np.ndarray]]]:
    """One scenario per swept value, ordered by value, as one table stack; a phi or
    alpha0_re sweep computes the response (g, B) once, for this call only."""
    ordered = sorted(values)
    cfgs = [apply_sweep_value(cfg, param, v) for v in ordered]
    return list(zip(ordered, _tables(cfgs, param == "gamma")))
