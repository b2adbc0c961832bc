"""Correctness checks on a workload's output, independent of mesocat.

Nothing here imports the program.  The references are built from the
paper's definitions with numpy alone, for case A at phi = pi:

* microscopic columns: the flat band's own one-excitation matrix gives the
  field response g(t), and closed forms in |g|^2 give P_ee, P_ge, eta,
  Gamma_a, |Gamma_b| and both eigenvalue pairs;
* master and Fock columns: a truncated-Fock reference prepares
  U_{e/g}|alpha0> in the number basis, damps it with the Kraus operators
  of zero-temperature amplitude damping, and measures with the
  number-basis values of U^dag U.

`check` returns a list of failure messages; an empty list means correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import Workload

#: Agreement demanded of every reference value and identity.  The largest
#: gap measured on the workloads is 1.8e-14.
TOL = 1e-11
#: Fitted log-log slopes amplify roundoff in the small defects they fit.
SLOPE_TOL = 1e-8
#: Fock cutoff of the references: the Poisson tail of |alpha0|^2 = 4
#: beyond 60 photons is below 1e-40.
N_REF = 60
#: The compare summary fits its slopes on 9 log-spaced times in [1e-3, 1e-2] t_c.
SLOPE_POINTS = 9


def read_csv(path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [
            [1.0 if c == "true" else 0.0 if c == "false" else float(c) for c in line.strip().split(",")]
            for line in fh
        ]
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return dict(zip(header, data.T))


# ---------------------------------------------------------------------------
# references


def flat_band_g2(band: dict, times) -> np.ndarray:
    """|g(t)|^2, g = <field| exp(-i H t) |field> for the flat-band one-excitation matrix."""
    modes, half = band["modes"], band["half_bandwidth"]
    coupling = math.sqrt(band["gamma"] * (2.0 * half / (modes - 1)) / (2.0 * math.pi))
    h = np.diag(np.concatenate(([0.0], np.linspace(-half, half, modes))))
    h[0, 1:] = h[1:, 0] = coupling
    w, v = np.linalg.eigh(h)
    g = np.exp(-1j * np.outer(np.asarray(times) / band["gamma"], w)) @ (v[0, :] ** 2)
    return np.abs(g) ** 2


def closed_form(x: float, g2: np.ndarray) -> dict[str, np.ndarray]:
    """Case A at phi = pi with |alpha0|^2 = x and field response |g|^2 = g2."""
    e = np.exp(-2.0 * x * g2)  # Gamma_a = |<alpha g|-alpha g>|
    d = np.exp(-2.0 * x * (1.0 - g2))  # Gamma_b, the bath overlap
    a0 = math.exp(-2.0 * x)
    out = {
        "p_ee": (1.0 - e) * (1.0 + d) / (2.0 * (1.0 - d * e)),
        "p_ge": (1.0 - e) * (1.0 - d) / (2.0 * (1.0 + d * e)),
        "gamma_a": e,
        "gamma_b_abs": d,
    }
    out["eta"] = out["p_ee"] - out["p_ge"]
    for suffix, s in (("e", -1.0), ("g", 1.0)):
        denom = 2.0 * (1.0 + s * a0)
        out[f"lam_{suffix}_plus"] = (1.0 + e) * (1.0 + s * d) / denom
        out[f"lam_{suffix}_minus"] = (1.0 - e) * (1.0 - s * d) / denom
    return out


def _fock_coherent(alpha: float, n: int = N_REF) -> np.ndarray:
    k = np.arange(n + 1)
    log_fact = np.array([math.lgamma(i + 1.0) for i in k])
    return np.exp(-0.5 * alpha * alpha + k * math.log(alpha) - 0.5 * log_fact)


def _binomials(n: int = N_REF) -> np.ndarray:
    """b[k, l] = C(k + l, l) for k + l <= n, else 0."""
    b = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        for l in range(n + 1 - k):
            b[k, l] = math.comb(k + l, l)
    return b


_BINOMIALS = _binomials()


def kraus_damped(psi: np.ndarray, eta: float) -> np.ndarray:
    """sum_l K_l |psi><psi| K_l^dag, <m-l|K_l|m> = sqrt(C(m,l) eta^(m-l) (1-eta)^l).

    Column l of A holds K_l psi, so the damped density is A A^dag.
    """
    k = np.arange(psi.size)
    weight = _BINOMIALS * np.power(eta, k)[:, None] * np.power(1.0 - eta, k)[None, :]
    idx = np.minimum(k[:, None] + k[None, :], psi.size - 1)
    a = np.sqrt(weight) * psi[idx] * (_BINOMIALS > 0)
    return a @ a.T


def fock_rows(alpha0: float, times) -> dict[str, np.ndarray]:
    """Row values of the damped cats from the Kraus reference; times in t_c."""
    k = np.arange(N_REF + 1)
    u = {"e": 0.5 * ((-1.0) ** k - 1.0), "g": 0.5 * ((-1.0) ** k + 1.0)}  # U_{e/g} at phi = pi
    psi0 = _fock_coherent(alpha0)
    out: dict[str, list] = {}
    for t in times:
        row = {}
        for first in ("e", "g"):
            psi = u[first] * psi0
            rho = kraus_damped(psi / np.linalg.norm(psi), math.exp(-t))
            diag = np.diag(rho)
            for second in ("e", "g"):  # U^dag U is diagonal: u^2
                row[f"p_{first}{second}"] = u[second] ** 2 @ diag
            # the labels +-alpha are antipodal: "plus" is the even-parity eigenvalue
            row[f"lam_{first}_plus"] = np.linalg.eigvalsh(rho[0::2, 0::2])[-1]
            row[f"lam_{first}_minus"] = np.linalg.eigvalsh(rho[1::2, 1::2])[-1]
            row[f"purity_{first}"] = np.sum(rho * rho)
            if first == "e":
                row["n_field"] = k @ diag
        row["eta"] = row["p_ee"] - row["p_ge"]
        for name, value in row.items():
            out.setdefault(name, []).append(value)
    return {name: np.array(values) for name, values in out.items()}


def defect_slope(x: float, g2: np.ndarray, times: np.ndarray) -> float:
    """Log-log slope of defect_e = 1 - lam_e_plus^2 - lam_e_minus^2 over the times."""
    cf = closed_form(x, g2)
    defect = 1.0 - cf["lam_e_plus"] ** 2 - cf["lam_e_minus"] ** 2
    return float(np.polyfit(np.log(times), np.log(defect), 1)[0])


# ---------------------------------------------------------------------------
# checks


def _compare(errors, label, col, got, want, tol=TOL):
    gap = np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float)))
    if not gap <= tol:
        errors.append(f"{label}: {col} differs from the reference by {gap:.3e}")


def _check_group(errors, workload: Workload, col: dict, suffix: str, engine: str) -> None:
    """Properties and references of one engine's column group."""
    cfg = workload.config
    x = cfg["alpha0"]["re"] ** 2
    times = col["t"]
    c = {name[: len(name) - len(suffix)]: v for name, v in col.items() if name.endswith(suffix)}
    label = suffix.lstrip("_") or engine

    _compare(errors, label, "p_ee + p_eg", c["p_ee"] + c["p_eg"], 1.0)
    _compare(errors, label, "p_ge + p_gg", c["p_ge"] + c["p_gg"], 1.0)
    _compare(errors, label, "eta", c["eta"], c["p_ee"] - c["p_ge"])
    for s in ("e", "g"):
        lams = np.stack([c[f"lam_{s}_plus"], c[f"lam_{s}_minus"]])
        if not np.all((lams >= 0.0) & (lams <= 1.0)):
            errors.append(f"{label}: lam_{s} outside [0, 1]")
        _compare(errors, label, f"purity_{s} (rank 2)", c[f"purity_{s}"], np.sum(lams**2, axis=0))
        _compare(errors, label, f"defect_{s}", c[f"defect_{s}"], 1.0 - c[f"purity_{s}"])
    total = c["n_field"] + c["n_bath"]
    _compare(errors, label, "n_field + n_bath drift", total - total[0], 0.0)

    if engine == "microscopic":
        band = cfg["bath"]
        spacing = 2.0 * band["half_bandwidth"] / (band["modes"] - 1)
        # flagged beyond half the recurrence time 2 pi / spacing
        _compare(errors, label, "recurrence_warning", c["recurrence_warning"],
                 times / band["gamma"] > math.pi / spacing, 0.0)
        for name, values in closed_form(x, flat_band_g2(band, times)).items():
            _compare(errors, label, name, c[name], values)
        return
    _compare(errors, label, "recurrence_warning", c["recurrence_warning"], 0.0, 0.0)
    want = fock_rows(math.sqrt(x), times)
    cf = closed_form(x, np.exp(-times))
    want.update(gamma_a=cf["gamma_a"], gamma_b_abs=cf["gamma_b_abs"])
    for name, values in want.items():
        _compare(errors, label, name, c[name], values)


def _check_summary(errors, workload: Workload, col: dict, path) -> None:
    """The compare summary: largest eta gap, defect slopes and the grid it reports."""
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    cfg = workload.config
    x = cfg["alpha0"]["re"] ** 2
    gap = np.max(np.abs(col["eta_micro"] - col["eta_me"]))
    _compare(errors, "summary", "max_abs_eta_gap", summary["max_abs_eta_gap"], gap, 0.0)
    _compare(errors, "summary", "slope grid", summary["slope_grid_t_over_tc"], [1e-3, 1e-2], 0.0)
    grid = np.logspace(-3.0, -2.0, SLOPE_POINTS)
    slopes = {
        "defect_slope_micro": defect_slope(x, flat_band_g2(cfg["bath"], grid), grid),
        "defect_slope_master": defect_slope(x, np.exp(-grid), grid),
    }
    for name, value in slopes.items():
        _compare(errors, "summary", name, summary[name], value, SLOPE_TOL)
    _compare(errors, "summary", "grid_points", summary["grid_points"], cfg["time"]["points"], 0.0)
    _compare(errors, "summary", "t_max_over_tc", summary["t_max_over_tc"], cfg["time"]["t_max_over_tc"], 0.0)


def check(workload: Workload, output, digests: list[str]) -> list[str]:
    errors: list[str] = []
    if len(set(digests)) > 1:
        errors.append(f"determinism: {len(set(digests))} distinct outputs from one config")
    col = read_csv(output)
    grid = workload.config["time"]
    times = np.linspace(0.0, grid["t_max_over_tc"], grid["points"])
    if col["t"].shape != times.shape:
        return errors + [f"rows: {col['t'].size} written, {times.size} expected"]
    _compare(errors, "grid", "t", col["t"], times, 0.0)
    if workload.command == "compare":
        _check_group(errors, workload, col, "_micro", "microscopic")
        _check_group(errors, workload, col, "_me", "master")
        _check_summary(errors, workload, col, f"{output}.summary.json")
    else:
        _check_group(errors, workload, col, "", workload.config["engine"])
    return errors
