"""Scenario configuration: JSON schema, strict validation, typed access.

A scenario is one JSON document with nested sections.  Unknown keys are
rejected and every engine-specific section must be present exactly when its
engine needs it, so typos fail fast instead of silently running defaults.

Schema (see README for the prose version)::

    {
      "case":   "a" | "b",
      "alpha0": {"re": float, "im": float},
      "phi":    float | {"rabi": float, "detuning": float, "t_int": float},
      "engine": "microscopic" | "master" | "fock",
      "bath":   {"modes": int, "half_bandwidth": float, "gamma": float},
      "master": {"gamma": float},
      "fock":   {"n_max": int, "dt": float (optional, ignored)},
      "time":   {"t_max_over_tc": float, "points": int},
      "output": {"format": "csv" | "json", "path": str}
    }

Sections per engine: microscopic -> bath; master -> master; fock -> fock
and master (the Fock oracle damps at the master equation's response (g, B)).
``compare`` runs need both bath and master and accept engine values
"microscopic" or "master" (the field is ignored there).  All times are in
units of t_c = 1/gamma.  ``fock.dt`` is optional and ignored: the Fock
engine applies the exact damping map, which has no step.  When present it
must still be a positive finite number, so configs written for the former
time-stepping oracle keep loading.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .errors import ConfigError

ENGINES = ("microscopic", "master", "fock")


@dataclass(frozen=True)
class BathConfig:
    modes: int
    half_bandwidth: float
    gamma: float


@dataclass(frozen=True)
class MasterConfig:
    gamma: float


@dataclass(frozen=True)
class FockConfig:
    n_max: int


@dataclass(frozen=True)
class TimeGridConfig:
    t_max_over_tc: float
    points: int


@dataclass(frozen=True)
class OutputConfig:
    format: str
    path: str


@dataclass(frozen=True)
class ScenarioConfig:
    case: str
    alpha0: complex
    phi: float
    engine: str
    time: TimeGridConfig
    output: OutputConfig
    bath: BathConfig | None = None
    master: MasterConfig | None = None
    fock: FockConfig | None = None


def _require_keys(obj: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required key")


def _section(raw: dict, key: str, required: set, optional=frozenset(), what="an object") -> dict:
    """raw[key], which must be an object holding the required keys and no unknown ones."""
    if not isinstance(raw[key], dict):
        raise ConfigError(key, f"must be {what}")
    _require_keys(raw[key], key, required, optional)
    return raw[key]


def _number(obj: dict, path: str, key: str, *, positive=False, nonzero=False) -> float:
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key}", "must be a number")
    val = float(val)
    if not math.isfinite(val):
        raise ConfigError(f"{path}.{key}", "must be finite")
    if positive and val <= 0.0:
        raise ConfigError(f"{path}.{key}", "must be positive")
    if nonzero and val == 0.0:
        raise ConfigError(f"{path}.{key}", "must be nonzero")
    return val


def _integer(obj: dict, path: str, key: str, *, minimum: int) -> int:
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}.{key}", "must be an integer")
    if val < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}")
    return val


def _parse_phi(raw, path: str) -> float:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        val = float(raw)
    elif isinstance(raw, dict):
        _require_keys(raw, path, {"rabi", "detuning", "t_int"})
        rabi = _number(raw, path, "rabi")
        detuning = _number(raw, path, "detuning", nonzero=True)
        t_int = _number(raw, path, "t_int")
        try:
            val = rabi**2 * t_int / detuning
        except OverflowError:  # rabi**2 beyond the float range
            val = math.inf
    else:
        raise ConfigError(path, "must be a number or a rabi/detuning/t_int object")
    if not math.isfinite(2.0 * val):  # the measurement operator's phases differ by up to 2 phi
        raise ConfigError(path, "2 phi must be finite" if math.isfinite(val) else "must be finite")
    return val


def parse_scenario(raw: dict, *, for_compare: bool = False) -> ScenarioConfig:
    """Validate a decoded JSON document; raises :class:`ConfigError` on any defect."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    _require_keys(
        raw,
        "",
        {"case", "alpha0", "phi", "engine", "time", "output"},
        optional={"bath", "master", "fock"},
    )

    case = raw["case"]
    if case not in ("a", "b"):
        raise ConfigError("case", "must be 'a' or 'b'")

    alpha0_raw = _section(raw, "alpha0", {"re", "im"}, what="an object with re/im")
    alpha0 = complex(_number(alpha0_raw, "alpha0", "re"), _number(alpha0_raw, "alpha0", "im"))

    phi = _parse_phi(raw["phi"], "phi")

    engine = raw["engine"]
    if engine not in ENGINES:
        raise ConfigError("engine", f"must be one of {ENGINES}")
    if for_compare and engine == "fock":
        raise ConfigError("engine", "compare works on microscopic vs master")

    if for_compare:
        needed = {"bath", "master"}
    else:
        needed = {
            "microscopic": {"bath"},
            "master": {"master"},
            "fock": {"fock", "master"},
        }[engine]
    present = {k for k in ("bath", "master", "fock") if k in raw}
    for missing in sorted(needed - present):
        raise ConfigError(missing, f"section required for engine '{engine}'")
    for extra in sorted(present - needed):
        raise ConfigError(extra, f"section not allowed for engine '{engine}'")

    bath = master = fock_cfg = None
    if "bath" in raw:
        section = _section(raw, "bath", {"modes", "half_bandwidth", "gamma"})
        modes = _integer(section, "bath", "modes", minimum=3)
        if modes % 2 == 0:
            raise ConfigError("bath.modes", "must be odd so one mode sits on resonance")
        bath = BathConfig(modes, _number(section, "bath", "half_bandwidth", positive=True),
                          _number(section, "bath", "gamma", positive=True))
    if "master" in raw:
        section = _section(raw, "master", {"gamma"})
        master = MasterConfig(gamma=_number(section, "master", "gamma", positive=True))
    if "fock" in raw:
        section = _section(raw, "fock", {"n_max"}, optional={"dt"})
        if "dt" in section:
            _number(section, "fock", "dt", positive=True)  # validated, then ignored
        fock_cfg = FockConfig(n_max=_integer(section, "fock", "n_max", minimum=1))

    time_raw = _section(raw, "time", {"t_max_over_tc", "points"})
    time_cfg = TimeGridConfig(_number(time_raw, "time", "t_max_over_tc", positive=True),
                              _integer(time_raw, "time", "points", minimum=2))

    out_raw = _section(raw, "output", {"format", "path"})
    if out_raw["format"] not in ("csv", "json"):
        raise ConfigError("output.format", "must be 'csv' or 'json'")
    if not isinstance(out_raw["path"], str) or not out_raw["path"]:
        raise ConfigError("output.path", "must be a non-empty string")
    output = OutputConfig(format=out_raw["format"], path=out_raw["path"])
    return ScenarioConfig(case, alpha0, phi, engine, time_cfg, output, bath, master, fock_cfg)


def load_scenario(path: str, *, for_compare: bool = False) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from exc
    return parse_scenario(raw, for_compare=for_compare)


SWEEPABLE = ("phi", "alpha0_re", "gamma")


def apply_sweep_value(cfg: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    """Return a copy of the scenario with one swept parameter replaced."""
    if param == "phi":
        return replace(cfg, phi=_parse_phi(float(value), "sweep.values"))
    if param == "alpha0_re":
        return replace(cfg, alpha0=complex(value, cfg.alpha0.imag))
    if param == "gamma":
        if value <= 0.0:
            raise ConfigError("sweep.values", "gamma must stay positive")
        updated = cfg
        if cfg.bath is not None:
            updated = replace(updated, bath=replace(cfg.bath, gamma=value))
        if cfg.master is not None:
            updated = replace(updated, master=replace(cfg.master, gamma=value))
        return updated
    raise ConfigError("sweep.param", f"must be one of {SWEEPABLE}")
