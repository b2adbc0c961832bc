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
A failed check's time index counts along stacked grids: compare's micro, micro slope, master
and master slope grids; a gamma sweep's value k's row i is index k * points + i.

Outputs are CSV (header row, snake_case columns, '.' decimal separator, 17
significant digits so doubles round-trip exactly) or JSON (array of row
objects with the same field names).  Identical configs produce byte-identical
files.  The runner hands over one array per column, and the file is written
from those columns.  After writing, the self-audit re-reads the file into
columns: every CSV row must hold one cell per header name, every cell must be
a number or true/false, else the audit names the line and column.  It then
re-checks the probability identities over whole columns, per sweep value,
and names the first failing row by its index within that sweep value.
Before that, a microscopic bath's spectrum must meet its exact moments.

Exit codes: 0 success; 1 other domain error (reported on stderr); 2 config
schema violation; 3 zero-probability state preparation; 4 positivity
violation; a failed self-check (bath moments or audit) and an output file that
cannot be written or read back (one line naming the file) are domain errors
(exit 1).  The only environment variable honored is MESOCAT_LOG (debug | info
| warning | error | critical, default warning; any other value is reported
and ignored); it changes verbosity only, never results.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

import numpy as np

from .config import SWEEPABLE, load_scenario
from .errors import AuditError, ConfigError, MesocatError, PositivityError, ZeroStateError
from .runner import ROW_FIELDS, run_compare, run_scenario, run_sweep

log = logging.getLogger("mesocat")

_PROB_SUM_TOL = 1e-9
_PROBABILITIES = ("p_ee", "p_eg", "p_ge", "p_gg")


def _write_table(cfg_output, table: dict) -> None:
    """One %-template per row: CSV "%.17g" and true/false, JSON as json.dumps(rows, indent=1)."""
    fieldnames, columns = list(table), list(table.values())
    width, n = len(columns), len(columns[0])
    cells = [None] * (width * n)  # row-major: column j fills every width-th cell from j
    for j, col in enumerate(columns):
        if cfg_output.format == "json":
            cells[j::width] = json.dumps(col.tolist())[1:-1].split(", ")
        else:
            cells[j::width] = (np.where(col, "true", "false") if col.dtype == bool else col).tolist()
    with open(cfg_output.path, "w", encoding="utf-8", newline="\n") as fh:
        if cfg_output.format == "json":
            row = " {\n" + ",\n".join(f"  {json.dumps(name)}: %s" for name in fieldnames) + "\n }"
            fh.write("[\n" + ",\n".join([row] * n) % tuple(cells) + "\n]\n")
        else:
            template = ",".join("%s" if col.dtype == bool else "%.17g" for col in columns) + "\n"
            fh.write(",".join(fieldnames) + "\n" + template * n % tuple(cells))


def _read_back(cfg_output, fieldnames) -> dict:
    """The written file as float columns (true/false read as 1/0), {} if it holds no rows.

    A CSV row with the wrong number of cells, or a cell that is not a number,
    is an AuditError naming its line and column.
    """
    with open(cfg_output.path, encoding="utf-8") as fh:
        if cfg_output.format == "json":
            try:
                rows = json.load(fh)
                columns = {name: np.array([r[name] for r in rows]) for name in fieldnames}
            except (ValueError, KeyError, TypeError) as exc:
                raise AuditError(f"self-audit: unreadable JSON rows ({exc!r})") from None
            bad = [name for name, col in columns.items() if col.dtype.kind not in "bif"]
            if bad:
                raise AuditError(f"self-audit: JSON column {bad[0]} holds a non-number")
            return {name: col.astype(float) for name, col in columns.items()} if rows else {}
        header, *lines = fh.read().split("\n")
    if header.split(",") != list(fieldnames):
        raise AuditError("self-audit: header mismatch")
    if lines and not lines[-1]:
        lines.pop()  # the newline that ends the last row
    width, widths = len(fieldnames), [line.count(",") + 1 for line in lines]
    if widths.count(width) != len(widths):
        i, n = next((i, n) for i, n in enumerate(widths) if n != width)
        where = f"column {fieldnames[n]} is missing" if n < width else "a cell past the last column"
        raise AuditError(f"self-audit: line {i + 2} has {n} cells, not {width}: {where}")
    if not lines:
        return {}
    flags = [j for j, cell in enumerate(lines[0].split(",")) if cell in ("true", "false")]
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                            converters=dict.fromkeys(flags, {"true": 1.0, "false": 0.0}.__getitem__))
    except ValueError:  # numpy's C reader takes a subset of what float() reads: read cell by cell
        cells = ",".join(lines).split(",")
        for j in range(width):  # a column of true/false cells only
            if set(cells[j::width]) <= {"true", "false"}:
                cells[j::width] = map({"true": "1", "false": "0"}.get, cells[j::width])
        for k, cell in enumerate(cells):  # find the cell that fails
            try:
                float(cell)
            except ValueError:
                at = f"line {k // width + 2}, column {fieldnames[k % width]}"
                raise AuditError(f"self-audit: {at}: not a number: {cell!r}") from None
        values = np.array(list(map(float, cells))).reshape(len(lines), width)
    return dict(zip(fieldnames, values.T))


def _audit_rows(table: dict, suffix: str) -> None:
    """Re-check the written identities for one engine's column group, whole columns at once.

    Names the first failing row by its index in `table`, with the first
    identity it breaks in this order: each probability's range, the row
    sums, and eta.  A NaN fails the range check and passes the others.
    """
    p_ee, p_eg, p_ge, p_gg = probs = [table[name + suffix] for name in _PROBABILITIES]
    checks = [(f"{name}{suffix} out of range", ~((p >= -1e-9) & (p <= 1.0 + 1e-9)))
              for name, p in zip(_PROBABILITIES, probs)]
    off = (np.abs(p_ee + p_eg - 1.0) > _PROB_SUM_TOL) | (np.abs(p_ge + p_gg - 1.0) > _PROB_SUM_TOL)
    checks.append(("probability rows do not sum to 1", off))
    eta_off = np.abs(table["eta" + suffix] - (p_ee - p_ge)) > _PROB_SUM_TOL
    checks.append(("eta inconsistent", eta_off))
    failed = np.array([bad for _, bad in checks])
    rows = np.flatnonzero(failed.any(axis=0))
    if rows.size:
        raise AuditError(f"self-audit: {checks[np.argmax(failed[:, rows[0]])][0]} in row {rows[0]}")


def _audit_output(cfg_output, fieldnames, suffixes) -> None:
    """suffixes: the column groups present in the file, one per engine.

    Rows that share a sweep_value form one chunk, audited on its own.
    """
    table = _read_back(cfg_output, fieldnames)
    if not table:
        raise AuditError("self-audit: no rows written")
    chunks = [slice(None)]
    if "sweep_value" in table:
        _, first, inverse = np.unique(
            table["sweep_value"], return_index=True, return_inverse=True, equal_nan=False
        )
        chunks = [inverse == k for k in np.argsort(first)]
    with np.errstate(invalid="ignore"):
        for chunk in chunks:
            for suffix in suffixes:
                _audit_rows({name: col[chunk] for name, col in table.items()}, suffix)


def _write_and_audit(cfg_output, table: dict, suffixes, summary=None) -> None:
    """Write the table and compare's summary next to it, then audit the table read back;
    an OSError on either file is a domain error naming that file."""
    path = cfg_output.path
    try:
        _write_table(cfg_output, table)
        if summary is not None:
            path = cfg_output.path + ".summary.json"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                json.dump(summary, fh, indent=1)
                fh.write("\n")
            path = cfg_output.path
        _audit_output(cfg_output, list(table), suffixes)
    except OSError as exc:
        raise MesocatError(f"output file {path}: {exc.strerror or exc}") from exc


def _cmd_run(args) -> int:
    cfg = load_scenario(args.config)
    table = run_scenario(cfg)
    _write_and_audit(cfg.output, table, [""])
    log.info("wrote %d rows to %s", len(table["t"]), cfg.output.path)
    return 0


def _cmd_compare(args) -> int:
    cfg = load_scenario(args.config, for_compare=True)
    micro, master, summary = run_compare(cfg)
    joint = {"t": micro["t"]}
    for suffix, table in (("_micro", micro), ("_me", master)):
        joint.update((name + suffix, col) for name, col in table.items() if name != "t")
    _write_and_audit(cfg.output, joint, ["_micro", "_me"], summary)
    log.info("wrote %d joint rows to %s and %s.summary.json", len(joint["t"]), cfg.output.path,
             cfg.output.path)
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
        if not np.isfinite(values[-1]):
            raise ConfigError("sweep.values", f"must be finite, got {piece!r}")
    return values


def _cmd_sweep(args) -> int:
    if args.param not in SWEEPABLE:
        raise ConfigError("sweep.param", f"must be one of {SWEEPABLE}")
    values = _parse_sweep_values(args.values)
    cfg = load_scenario(args.config)
    results = run_sweep(cfg, args.param, values)
    lengths = [len(table["t"]) for _, table in results]
    joint = {"sweep_value": np.repeat([value for value, _ in results], lengths)}
    joint.update((name, np.concatenate([t[name] for _, t in results])) for name in ROW_FIELDS)
    _write_and_audit(cfg.output, joint, [""])
    log.info("wrote %d rows (%d sweep values) to %s", sum(lengths), len(values), cfg.output.path)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first ``main`` call, then reused by every later one in the process."""
    parser = argparse.ArgumentParser(
        prog="mesocat",
        description="Two-atom correlation signal of decohering cavity-field superpositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare", "sweep"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the scenario JSON")
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
    handler = {"run": _cmd_run, "compare": _cmd_compare, "sweep": _cmd_sweep}[args.command]
    try:
        return handler(args)
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
