"""One workload's process: time `mesocat.cli.main(argv)` calls on one config.

    python3 perfbench/worker.py --src SRC --output FILE --seconds S --trace 0|1 -- ARGV...

Imports mesocat from SRC, makes one warm-up call, then calls again in
whole rounds for about S seconds after the warm-up: it stops at the round
boundary nearest to S.  With --trace 0 a round is one call.  With
--trace 1 a round is one untraced call followed by one traced call, and
the spans of the last traced call are written to --spans.  The output
files of every call are hashed between calls, outside the timed region.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--output", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--spans", type=Path)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import mesocat.cli

    if not Path(mesocat.cli.__file__).resolve().is_relative_to(src):
        print(f"mesocat imported from {mesocat.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    digests: list[str] = []
    errors: list[str] = []

    def outputs() -> list[Path]:  # the data file and any file named after it
        return sorted(args.output.parent.glob(args.output.name + "*"))

    def call() -> tuple[float, float]:
        for path in outputs():
            path.unlink()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = mesocat.cli.main(list(args.argv))
        except Exception as exc:  # a crash is one failed operation, not a benchmark error
            code = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if code != 0:
            errors.append(f"exit {code}")
        elif args.output.is_file():
            digest = hashlib.sha256()
            for path in outputs():
                digest.update(path.read_bytes())
            digests.append(digest.hexdigest())
        else:
            errors.append("exit 0 without an output file")
        return wall, cpu

    call()  # warm-up
    walls, cpus, rounds = [], [], []
    if args.trace:
        from tracing import Tracer, layer_metrics, write_spans

        tracer = Tracer()
        traced_walls, per_call = [], []
        spans, origin = [], 0.0
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        wall, cpu = call()
        walls.append(wall)
        cpus.append(cpu)
        if args.trace:
            tracer.start()
            origin = time.perf_counter()
            wall, _ = call()
            spans, counts = tracer.stop()
            traced_walls.append(wall)
            per_call.append(layer_metrics(spans, counts))
        rounds.append(time.perf_counter() - round_start)
        # stop at the round boundary nearest to the time limit
        if time.perf_counter() - begin + 0.5 * statistics.fmean(rounds) >= args.seconds:
            break

    result = {
        "attempted": 1 + len(walls) + (len(walls) if args.trace else 0),
        "errors": errors,
        "digests": digests,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        if args.spans:
            write_spans(args.spans, spans, origin)
        metrics = {"trace.run_s": statistics.median(traced_walls)}
        metrics["trace.untraced_run_s"] = statistics.median(walls)
        for name in per_call[0]:
            metrics[name] = statistics.median(m[name] for m in per_call)
        result["layers"] = metrics
    else:
        result["run_s"] = walls
        result["cpu_s"] = cpus
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
