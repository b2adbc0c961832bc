"""mesocat benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout's root (the directory that holds `src/mesocat`).  With
--trace 0 it measures the end-to-end metrics:

  setup_s       median wall time of SETUP_PROBES fresh interpreters that each
                import mesocat.cli and load the workload's config
  run_s         median wall time of one mesocat.cli.main(argv) call
  cpu_s         median process CPU time (all threads) of the same calls
  peak_rss_mib  peak resident set of the process that made the calls

With --trace 1 it makes a separate traced run and prints the per-layer
metrics listed in `tracing.PER_LAYER` instead.  Either way the output file
is then checked against references computed without the program
(`reference.py`).  Results, configs and spans go to `.perfbench-out/`.
The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

SETUP_PROBES = 7
#: A run must end within 180 s, set-up probes and checks included.
WORKER_TIMEOUT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
)

_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import mesocat.cli as c; "
    "c.load_scenario(sys.argv[2], for_compare=sys.argv[3] == 'compare')"
)


def _setup_seconds(src: Path, config: Path, command: str) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _PROBE, str(src), str(config), command],
            check=True, timeout=20, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = HERE.parent
    src = root / "src"
    if not (src / "mesocat" / "cli.py").is_file():
        print(f"error: no mesocat sources under {src}", file=sys.stderr)
        return 2
    out = root / ".perfbench-out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    data = out / "rows.csv"
    workload = workloads.build(args.workload, args.seed, data)
    config = out / "scenario.json"
    config.write_text(json.dumps(workload.config, indent=1) + "\n", encoding="utf-8")

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = _setup_seconds(src, config, workload.command)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--src", str(src), "--output", str(data),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spans", str(out / "spans.json"),
        "--", *workload.cli_argv(config),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    for error in result["errors"]:
        print(f"failed call: {error}", file=sys.stderr)
    if not result["digests"]:
        problems = ["no call succeeded"]
    elif not data.is_file():
        problems = ["the last call left no output to check"]
    else:
        problems = reference.check(workload, data, result["digests"])
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)

    if args.trace:
        metrics.update(result["layers"])
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics["run_s"] = statistics.median(result["run_s"])
        metrics["cpu_s"] = statistics.median(result["cpu_s"])
        metrics["peak_rss_mib"] = result["peak_rss_mib"]
        units = dict(END_TO_END)
    summary = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": len(result["errors"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (out / f"result-trace{args.trace}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
