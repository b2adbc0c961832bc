"""Command-line runner: `mesocat run|compare|sweep --config <scenario.json>`.

Subcommands
-----------
run      one scenario with its configured engine; writes the time series.
compare  the same scenario through the microscopic and master engines;
         writes a joint table (columns suffixed _micro/_me) plus a JSON
         summary next to it (output path + ".summary.json") holding the
         largest |eta| gap and the fitted short-time defect slopes.
sweep    one run per value of --param (phi, alpha0_re or gamma), rows
         tagged with a leading sweep_value column, ordered by value.

Outputs are CSV (header row, snake_case columns, '.' decimal separator, 17
significant digits so doubles round-trip exactly) or JSON (array of row
objects with the same field names).  Identical configs produce byte-identical
files.  After writing, the file is re-read and every row is re-checked
against the probability and conservation identities.

Exit codes: 0 success; 1 other domain error (reported on stderr); 2 config
schema violation; 3 zero-probability state preparation; 4 positivity
violation; a failed self-audit is a domain error (exit 1).  The only
environment variable honored is MESOCAT_LOG (debug | info | warning | error
| critical, default warning; any other value is reported and ignored); it
changes verbosity only, never results.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .config import SWEEPABLE, load_scenario
from .errors import AuditError, ConfigError, MesocatError, PositivityError, ZeroStateError
from .runner import ROW_FIELDS, run_compare, run_scenario, run_sweep

log = logging.getLogger("mesocat")

_PROB_SUM_TOL = 1e-9
_OCCUPATION_TOL = 1e-8


def _format_value(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    return f"{val:.17g}"


def _write_csv(path: str, fieldnames, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(fieldnames) + "\n")
        for row in rows:
            fh.write(",".join(_format_value(row[name]) for name in fieldnames) + "\n")


def _write_json(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")


def _write_rows(cfg_output, fieldnames, rows: list[dict]) -> None:
    if cfg_output.format == "csv":
        _write_csv(cfg_output.path, fieldnames, rows)
    else:
        _write_json(cfg_output.path, rows)


def _read_back(cfg_output, fieldnames) -> list[dict]:
    with open(cfg_output.path, encoding="utf-8") as fh:
        if cfg_output.format == "json":
            return json.load(fh)
        header = fh.readline().strip().split(",")
        if header != list(fieldnames):
            raise AuditError("self-audit: header mismatch")
        rows = []
        for line in fh:
            cells = line.strip().split(",")
            row = {}
            for name, cell in zip(header, cells):
                row[name] = cell == "true" if cell in ("true", "false") else float(cell)
            rows.append(row)
        return rows


def _audit_rows(rows: list[dict], suffix: str, conserved: bool) -> None:
    """Re-check the written identities for one engine's column group."""
    n0 = None
    for idx, row in enumerate(rows):
        p_ee, p_eg = row["p_ee" + suffix], row["p_eg" + suffix]
        p_ge, p_gg = row["p_ge" + suffix], row["p_gg" + suffix]
        for name in ("p_ee", "p_eg", "p_ge", "p_gg"):
            val = row[name + suffix]
            if not -1e-9 <= val <= 1.0 + 1e-9:
                raise AuditError(f"self-audit: {name}{suffix} out of range in row {idx}")
        if abs(p_ee + p_eg - 1.0) > _PROB_SUM_TOL or abs(p_ge + p_gg - 1.0) > _PROB_SUM_TOL:
            raise AuditError(f"self-audit: probability rows do not sum to 1 in row {idx}")
        if abs(row["eta" + suffix] - (p_ee - p_ge)) > _PROB_SUM_TOL:
            raise AuditError(f"self-audit: eta inconsistent in row {idx}")
        if conserved:
            total = row["n_field" + suffix] + row["n_bath" + suffix]
            if n0 is None:
                n0 = total
            elif abs(total - n0) > _OCCUPATION_TOL:
                raise AuditError(f"self-audit: occupation drifts in row {idx}")


def _audit_output(cfg_output, fieldnames, groups) -> None:
    """groups: list of (suffix, conserved) column groups present in the file."""
    rows = _read_back(cfg_output, fieldnames)
    if not rows:
        raise AuditError("self-audit: no rows written")
    by_sweep: dict = {}
    for row in rows:
        by_sweep.setdefault(row.get("sweep_value"), []).append(row)
    for chunk in by_sweep.values():
        for suffix, conserved in groups:
            _audit_rows(chunk, suffix, conserved)


def _cmd_run(args) -> int:
    cfg = load_scenario(args.config)
    rows = [row.as_dict() for row in run_scenario(cfg)]
    _write_rows(cfg.output, ROW_FIELDS, rows)
    _audit_output(cfg.output, ROW_FIELDS, [("", cfg.engine == "microscopic")])
    log.info("wrote %d rows to %s", len(rows), cfg.output.path)
    return 0


def _compare_fieldnames():
    names = ["t"]
    for suffix in ("_micro", "_me"):
        names.extend(name + suffix for name in ROW_FIELDS if name != "t")
    return names


def _cmd_compare(args) -> int:
    cfg = load_scenario(args.config, for_compare=True)
    rows_micro, rows_master, summary = run_compare(cfg)
    fieldnames = _compare_fieldnames()
    joint = []
    for a, b in zip(rows_micro, rows_master):
        row = {"t": a.t}
        row.update({k + "_micro": v for k, v in a.as_dict().items() if k != "t"})
        row.update({k + "_me": v for k, v in b.as_dict().items() if k != "t"})
        joint.append(row)
    _write_rows(cfg.output, fieldnames, joint)
    summary_path = cfg.output.path + ".summary.json"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    _audit_output(cfg.output, fieldnames, [("_micro", True), ("_me", False)])
    log.info("wrote %d joint rows to %s and %s", len(joint), cfg.output.path, summary_path)
    return 0


def _parse_sweep_values(text: str) -> list[float]:
    if not text.strip():
        raise ConfigError("sweep.values", "must be a non-empty comma-separated list")
    values = []
    for piece in text.split(","):
        try:
            values.append(float(piece))
        except ValueError as exc:
            raise ConfigError("sweep.values", f"not a number: {piece!r}") from exc
    return values


def _cmd_sweep(args) -> int:
    if args.param not in SWEEPABLE:
        raise ConfigError("sweep.param", f"must be one of {SWEEPABLE}")
    values = _parse_sweep_values(args.values)
    cfg = load_scenario(args.config)
    results = run_sweep(cfg, args.param, values)
    fieldnames = ["sweep_value", *ROW_FIELDS]
    rows = []
    for value, series in results:
        for row in series:
            tagged = {"sweep_value": value}
            tagged.update(row.as_dict())
            rows.append(tagged)
    _write_rows(cfg.output, fieldnames, rows)
    _audit_output(cfg.output, fieldnames, [("", cfg.engine == "microscopic")])
    log.info("wrote %d rows (%d sweep values) to %s", len(rows), len(values), cfg.output.path)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesocat",
        description="Two-atom correlation signal of decohering cavity-field superpositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", _cmd_run), ("compare", _cmd_compare), ("sweep", _cmd_sweep)):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the scenario JSON")
        cmd.set_defaults(handler=handler)
        if name == "sweep":
            cmd.add_argument("--param", required=True, help=f"one of {SWEEPABLE}")
            cmd.add_argument("--values", required=True, help="comma-separated numbers")
    return parser


_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def main(argv=None) -> int:
    requested = os.environ.get("MESOCAT_LOG", "warning")
    known = requested.lower() in _LOG_LEVELS
    logging.basicConfig(level=requested.upper() if known else logging.WARNING)
    if not known:
        log.warning("ignoring MESOCAT_LOG=%r: expected one of %s", requested, ", ".join(_LOG_LEVELS))
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: config {getattr(args, 'config', '<none>')}: {exc}", file=sys.stderr)
        return 2
    except ZeroStateError as exc:
        print(f"error: zero-probability preparation: {exc}", file=sys.stderr)
        return 3
    except PositivityError as exc:
        print(f"error: positivity violation: {exc}", file=sys.stderr)
        return 4
    except MesocatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
