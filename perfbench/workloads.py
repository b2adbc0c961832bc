"""The benchmark workloads: one `mesocat` CLI invocation each.

A workload is a scenario config plus the CLI arguments that run it; the
program receives nothing else.  The seed sets the initial amplitude of
`compare-cat`.  Both workloads use case A at phi = pi, the odd/even cat,
for which `reference.py` has closed forms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("compare-cat", "fock-oracle")

#: |alpha0|^2 of `compare-cat` is drawn uniformly from this range.
COMPARE_ALPHA0_SQ = (2.0, 4.0)
#: alpha0 of `fock-oracle` is fixed.  Drawn from [0.5, 1) it would expose a
#: seed-dependent fault: at t = 0 the Fock engine labels lam_e_plus/minus by
#: the parity of an eigenvector picked from a degenerate zero eigenspace, and
#: swaps them for 30 of 51 values in [0.5, 1] at n_max 19.
FOCK_ALPHA0 = 1.0
#: n_max 39 rather than the truncation rule's 19: with 40 x 40 matrices the
#: RK4 step spends more of its time in BLAS and less in Python overhead, and
#: its run time moves less when the shared host slows single-thread code.
#: dt is the largest the step rule 1e-3 / (n_max + 1) allows.
FOCK_N_MAX = 39


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    command: str  # the CLI subcommand

    def cli_argv(self, config_path: Path) -> list[str]:
        return [self.command, "--config", str(config_path)]


def _config(alpha0, engine, t_max, points, output, **sections) -> dict:
    return {
        "case": "a",
        "alpha0": {"re": alpha0, "im": 0.0},
        "phi": math.pi,
        "engine": engine,
        **sections,
        "time": {"t_max_over_tc": t_max, "points": points},
        "output": {"format": "csv", "path": str(output)},
    }


def build(name: str, seed: int, output: Path) -> Workload:
    """The workload's config and CLI arguments; `output` is the data file it writes."""
    rng = random.Random(seed)
    if name == "compare-cat":
        cfg = _config(
            math.sqrt(rng.uniform(*COMPARE_ALPHA0_SQ)), "microscopic", 2.0, 101, output,
            bath={"modes": 201, "half_bandwidth": 50.0, "gamma": 1.0},
            master={"gamma": 1.0},
        )
        return Workload(name, cfg, "compare")
    if name == "fock-oracle":
        cfg = _config(
            FOCK_ALPHA0, "fock", 0.02, 11, output,
            master={"gamma": 1.0}, fock={"n_max": FOCK_N_MAX, "dt": 1e-3 / (FOCK_N_MAX + 1)},
        )
        return Workload(name, cfg, "run")
    raise ValueError(f"unknown workload {name!r}")
