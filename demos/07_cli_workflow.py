"""Driving the same physics from the command line.

The `mesocat` CLI wraps the library in three subcommands: `run` (one
scenario, one engine), `compare` (microscopic vs master side by side) and
`sweep` (one run per parameter value).  Scenarios are single JSON files;
outputs are CSV or JSON time series that round-trip doubles exactly.
"""

import json
import pathlib
import subprocess
import sys
import tempfile


def run(*args):
    cmd = [sys.executable, "-m", "mesocat", *args]
    print("\n$ " + " ".join(str(a) for a in args))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr.strip())
    return proc.returncode


def main(workdir: pathlib.Path) -> None:
    scenario = {
        "case": "a",
        "alpha0": {"re": 1.8165902124584952, "im": 0.0},  # |alpha0|^2 = 3.3
        "phi": 3.141592653589793,
        "engine": "microscopic",
        "bath": {"modes": 201, "half_bandwidth": 50.0, "gamma": 1.0},
        "master": {"gamma": 1.0},
        "time": {"t_max_over_tc": 2.0, "points": 21},
        "output": {"format": "csv", "path": str(workdir / "series.csv")},
    }
    config_path = workdir / "scenario.json"
    config_path.write_text(json.dumps(scenario, indent=2))
    print(f"scenario written to {config_path}")

    code = run("compare", "--config", str(config_path))
    print(f"exit code {code}")
    summary = json.loads((workdir / "series.csv.summary.json").read_text())
    print("compare summary:")
    for key, value in summary.items():
        print(f"    {key}: {value}")

    lines = (workdir / "series.csv").read_text().splitlines()
    print(f"\njoint table: {len(lines) - 1} rows; first columns of the header:")
    print("    " + ",".join(lines[0].split(",")[:6]) + ",...")

    # a sweep over the dispersive phase, case B
    scenario_b = dict(scenario, case="b", phi=0.7853981633974483, engine="master")
    scenario_b.pop("bath")
    scenario_b["alpha0"] = {"re": 5.0, "im": 0.0}
    scenario_b["time"] = {"t_max_over_tc": 0.1, "points": 5}
    scenario_b["output"] = {"format": "json", "path": str(workdir / "sweep.json")}
    config_b = workdir / "scenario_b.json"
    config_b.write_text(json.dumps(scenario_b, indent=2))
    code = run("sweep", "--config", str(config_b), "--param", "phi",
               "--values", "0.39269908169872414,0.7853981633974483,1.1780972450961724")
    print(f"exit code {code}")
    rows = json.loads((workdir / "sweep.json").read_text())
    print(f"sweep wrote {len(rows)} rows; eta at the last grid time per phi:")
    for phi in sorted({row["sweep_value"] for row in rows}):
        last = [r for r in rows if r["sweep_value"] == phi][-1]
        print(f"    phi = {phi:.4f}: eta = {last['eta']:+.5f}")

    # schema violations are caught before anything runs
    bad = dict(scenario)
    bad.pop("bath")
    bad_path = workdir / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code = run("run", "--config", str(bad_path))
    print(f"exit code {code} (schema violation: the bath section is required)")


with tempfile.TemporaryDirectory(prefix="mesocat_demo_") as tmp:
    main(pathlib.Path(tmp))
