"""Scenario engines: turn one configuration into a time series of observables.

A run yields one column table: a dict holding a 1-d array over the grid
per ``ROW_FIELDS`` name, with the damping factors, the four conditional
probabilities and eta, the eigenvalue pairs of both conditioned densities,
purities, occupations and the recurrence flag.  Times are reported in units
of t_c = 1/gamma.

The environment reaches the prepared field only through the field response
g(t) and the depletion B(t), which ``_response`` gives over the whole grid
for every engine: the exact discrete bath from its moment-checked secular
spectrum (``bath.response``), the master equation, which the Fock engine
shares, in closed form (``lindblad.me_response``).  The analytic table builder stacks
both conditioned densities with ``coherent.damped_density``; gamma_a,
gamma_b and the occupations are closed forms in (g, B); the probabilities,
spectra and purities go once per stack through the same checked routines as
any single density.  ``run_compare`` builds one such table over both
engines' responses stacked along the time axis.  The Fock table damps each
prepared Fock density in one ``fock.damp`` call.  Nothing iterates over grid times.

Eigenvalue columns: when the two field labels are an antipodal pair (case A
at phi = pi) lam_plus/lam_minus are assigned by eigenvector parity, i.e. the
|alpha> + |-alpha> branch is "plus" even when it carries the smaller
eigenvalue, matching the closed-form pair (the Fock engine reads them off
the even and odd photon-number blocks).  Otherwise the labels are only
defined up to ordering and the columns hold the descending values.

Everything runs in one thread, and the microscopic response makes no BLAS call.
"""

from __future__ import annotations

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


def _assign_from_spectrum(spec: coherent.Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """(lam_plus, lam_minus) over the stack: by eigenvector parity for antipodal labels.

    The even (c0 conj(c1) real part >= 0) eigenvector's eigenvalue is "plus"
    when the other eigenvector is odd; otherwise the descending order stays.
    """
    lams, vecs = spec.eigenvalues, spec.eigenvectors
    even = (vecs[..., 0] * np.conj(vecs[..., 1])).real >= 0.0
    swap = _labels_antipodal(spec.labels) & ~even[..., 0] & even[..., 1]
    return np.where(swap, lams[..., 1], lams[..., 0]), np.where(swap, lams[..., 0], lams[..., 1])


def _table(columns) -> dict[str, np.ndarray]:
    """The column table from one array per column, in ROW_FIELDS order, gamma_b still complex."""
    t_tc, g_a, g_b, *rest = columns
    columns = (t_tc, g_a, np.abs(g_b), np.arctan2(g_b.imag, g_b.real), *rest)
    return dict(zip(ROW_FIELDS, map(np.asarray, columns)))


def _pair_factors(state, g: np.ndarray, depletion: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gamma_a = |<a_2 g|a_1 g>| and gamma_b = exp(z B) over the grid of a two-branch state.

    z = log <a_2|a_1>, the exponent ``coherent.damped_density`` scales by B.
    """
    z = coherent._exponent(state.branches[1].field, state.branches[0].field)
    return np.abs(np.exp(z * (g.real**2 + g.imag**2))), np.exp(z * depletion)


def _response(cfg: ScenarioConfig, times_tc: np.ndarray) -> tuple[np.ndarray, ...]:
    """(g, B, recurrence flags) at the given times (t_c): the master's unless microscopic."""
    if cfg.engine == "microscopic":
        spec = bathmod.discretize_flat_band(cfg.bath.gamma, cfg.bath.modes, cfg.bath.half_bandwidth)
        times = times_tc * (1.0 / cfg.bath.gamma)
        recurrence = times > bathmod.RECURRENCE_FRACTION * spec.recurrence_time
        return (*bathmod.response(spec, times), recurrence)
    times = times_tc * (1.0 / cfg.master.gamma)
    g, depletion = lindblad.me_response(lindblad.MasterParams(cfg.master.gamma), times)
    return g, depletion, np.zeros(len(times), dtype=bool)


def _analytic_table(params, times_tc, g, depletion, recurrence) -> dict[str, np.ndarray]:
    """The table at the given times (t_c) from an analytic engine's response, via density stacks."""
    state_e, state_g = (proto.prepare(params, outcome) for outcome in proto.DetectionOutcome)
    rho_e, rho_g = (coherent.damped_density(state, g, depletion) for state in (state_e, state_g))
    rec = proto.conditional_probabilities(rho_e, rho_g, params)
    return _table((
        times_tc, *_pair_factors(state_e, g, depletion),
        rec.p_ee, rec.p_eg, rec.p_ge, rec.p_gg, rec.eta,
        *_assign_from_spectrum(coherent.eigenvalues(rho_e)),
        *_assign_from_spectrum(coherent.eigenvalues(rho_g)),
        coherent.purity(rho_e), coherent.purity(rho_g),
        coherent.idempotency_defect(rho_e), coherent.idempotency_defect(rho_g),
        *coherent.damped_occupations(state_e, g, depletion), recurrence,
    ))


def _fock_assign(matrix: np.ndarray, labels_t) -> tuple[np.ndarray, np.ndarray]:
    """(lam_plus, lam_minus) over a stack of Fock density matrices, shape (T, N, N).

    Antipodal pair, density block-diagonal in parity (a parity cat; damping
    keeps it so): the top eigenvalues of the even and odd blocks, so no
    vector of a degenerate eigenspace decides the labels.  Other antipodal
    pairs (e.g. |b> - i|-b>): the two largest, swapped if the top eigenvector
    is odd and the next even.  Otherwise: the two largest.  Each time takes its branch.
    """
    antipodal = _labels_antipodal(labels_t)
    blocks = antipodal & (np.linalg.norm(matrix[:, 0::2, 1::2], axis=(1, 2)) < PARITY_BLOCK_TOL)
    top = np.empty((len(matrix), 2))
    even_odd = matrix[blocks]
    top[blocks] = np.transpose([np.linalg.eigvalsh(even_odd[:, p::2, p::2])[:, -1] for p in (0, 1)])
    lams, vecs = np.linalg.eigh(matrix[~blocks])
    parity = (1.0 - 2.0 * (np.arange(matrix.shape[-1]) % 2)) @ np.abs(vecs[..., -2:]) ** 2
    swap = (antipodal[~blocks] & (parity[:, 1] < 0.0) & (parity[:, 0] >= 0.0))[:, None]
    top[~blocks] = np.where(swap, lams[:, -2:], lams[:, :-3:-1])
    return tuple(np.clip(top, 0.0, 1.0).T)


def _fock_gamma_b(p: np.ndarray, labels_t: np.ndarray, weights, n_max: int) -> np.ndarray:
    """gamma_b over the grid from P_ij = <l_i(t)|rho_e(t)|l_j(t)>, shape (T, 2, 2).

    coeff = S^-1 P S^-1 with S^-1 = (1, -s; -conj(s), 1) / det, s = <l1|l2>
    and det = 1 - |s|^2.  The numerator cancels down to det^2 coeff01, so the
    rounding of the P_ij, dot products over n_max + 1 Fock levels and so
    within (n_max + 1) eps sum|P| of exact, reaches coeff01 divided by det^2.
    Rows where that bound exceeds FOCK_GAMMA_B_RTOL of |coeff01| hold NaN.
    """
    l1, l2 = labels_t[:, 0], labels_t[:, 1]
    det = -np.expm1(-coherent._abs2(l1 - l2))
    s = np.exp(coherent._exponent(l1, l2))
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff01 = (p[:, 0, 1] - s * (p[:, 0, 0] + p[:, 1, 1]) + s * s * p[:, 1, 0]) / det**2
        bound = (n_max + 1) * np.finfo(float).eps * np.abs(p).sum(axis=(1, 2)) / det**2
        accurate = bound / np.abs(coeff01) <= FOCK_GAMMA_B_RTOL
    return np.where(accurate, coeff01 / (weights[0] * np.conj(weights[1])), np.nan)


def _fock_table(n_max, params, times_tc, g, depletion, recurrence) -> dict[str, np.ndarray]:
    """The table at the given times (t_c) from the Fock densities damped at a response (g, B)."""
    state_e, state_g = (proto.prepare(params, outcome) for outcome in proto.DetectionOutcome)
    rho0_e, rho0_g = (fock.density_from_vector(fock.superposition_vector(state, n_max))
                      for state in (state_e, state_g))
    labels_t = np.multiply.outer(g, [br.field for br in state_e.branches])
    rho_e, rho_g = (fock.damp(rho0, g, depletion) for rho0 in (rho0_e, rho0_g))
    vecs = fock.coherent_to_fock(labels_t, n_max).amplitudes  # (T, 2, N)
    ops = [proto.measurement_product(params, outcome) for outcome in proto.DetectionOutcome]
    measured = (fock.fock_measure(op, rho) for rho in (rho_e, rho_g) for op in ops)
    rec = proto.CorrelationRecord(*measured)  # checked before they are clamped
    label_products = (vecs.conj() @ rho_e.matrix) @ vecs.transpose(0, 2, 1)
    g_b = _fock_gamma_b(label_products, labels_t, [br.weight for br in state_e.branches], n_max)
    pur_e, pur_g = fock.fock_purity(rho_e), fock.fock_purity(rho_g)
    n_field = fock.fock_mean_photon(rho_e)
    return _table((
        times_tc, _pair_factors(state_e, g, depletion)[0], g_b,
        rec.p_ee, rec.p_eg, rec.p_ge, rec.p_gg, rec.eta,
        *_fock_assign(rho_e.matrix, labels_t), *_fock_assign(rho_g.matrix, labels_t),
        pur_e, pur_g, 1 - pur_e, 1 - pur_g, n_field, fock.fock_mean_photon(rho0_e) - n_field,
        recurrence,
    ))


def _tables(cfg: ScenarioConfig, swept: list[proto.ProtocolParams]) -> list[dict[str, np.ndarray]]:
    """One column table per protocol, all from the configured engine's one response (g, B)."""
    if cfg.engine not in ENGINES:
        raise InvalidArgumentError(f"unknown engine {cfg.engine!r}")
    grid = time_grid(cfg)
    response = _response(cfg, grid)
    if cfg.engine == "fock":
        return [_fock_table(cfg.fock.n_max, params, grid, *response) for params in swept]
    return [_analytic_table(params, grid, *response) for params in swept]


def run_scenario(cfg: ScenarioConfig) -> dict[str, np.ndarray]:
    """Column table of one scenario's full time series with its configured engine."""
    return _tables(cfg, [scenario_params(cfg)])[0]


# ---------------------------------------------------------------------------
# compare and sweep drivers

#: log-spaced early-time grid (units of t_c) for the short-time defect slopes
SLOPE_GRID = np.logspace(-3.0, -2.0, 9)


def _defect_slope(defect_e: np.ndarray) -> float:
    """Fitted log-log slope of defect_e against t on SLOPE_GRID."""
    return float(np.polyfit(np.log(SLOPE_GRID), np.log(defect_e), 1)[0])


def run_compare(cfg: ScenarioConfig) -> tuple[dict, dict, dict]:
    """Tables of the microscopic and master engines on one scenario, plus a summary.

    One table is built over both engines' stacked responses at the grid and SLOPE_GRID.
    The summary holds the largest |eta_micro - eta_master| over the grid and both
    engines' fitted log-log slopes of defect_e on SLOPE_GRID (quadratic vs linear onset).
    """
    params, n = scenario_params(cfg), cfg.time.points
    times = np.concatenate([time_grid(cfg), SLOPE_GRID])
    both = [_response(replace(cfg, engine=engine), times) for engine in ("microscopic", "master")]
    table = _analytic_table(params, np.tile(times, 2), *map(np.concatenate, zip(*both)))
    micro, master = ({k: c.reshape(2, -1)[i] for k, c in table.items()} for i in (0, 1))
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
    """One scenario per swept value, ordered by value; a phi or alpha0_re sweep
    computes the response (g, B) once, for this call only."""
    ordered = sorted(values)
    if param == "gamma":
        return [(v, run_scenario(apply_sweep_value(cfg, param, v))) for v in ordered]
    swept = [scenario_params(apply_sweep_value(cfg, param, v)) for v in ordered]
    return list(zip(ordered, _tables(cfg, swept)))
