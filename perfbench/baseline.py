"""One-shot, ungated reproduction of the ROADMAP baseline table.

Each row is the wall time of one call at the default coupling and grids, on
random_density(N, seed, rank=2), next to the figure the ROADMAP recorded.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from pathlib import Path

import numpy as np
import yaml

import weakmeas.cli
from weakmeas.hilbert import random_density
from weakmeas.oracle import dirac_exact
from weakmeas.protocols import ProtocolParams, direct_density, direct_dirac

from harness import environment
from workloads import scenario_config


def _density(scheme: str):
    def row(rho, out_dir: Path) -> float:
        out = direct_density(rho, params=ProtocolParams(scheme=scheme))
        return float(np.max(np.abs(out.raw - rho.matrix / rho.dim)))
    return row


def _dirac(scheme: str):
    def row(rho, out_dir: Path) -> float:
        out = direct_dirac(rho, params=ProtocolParams(scheme=scheme))
        return float(np.max(np.abs(out.distribution.entries - dirac_exact(rho).entries)))
    return row


def _cli_run(threads: int):
    def row(rho, out_dir: Path) -> float:
        config = out_dir / "density.yaml"  # written by run(); its state is rho
        results = out_dir / f"threads{threads}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = weakmeas.cli.main(["run", str(config), "--out-dir", str(results),
                                      "--threads", str(threads)])
        if code != 0:
            raise RuntimeError(f"weakmeas run exited {code}")
        with (results / "estimates.csv").open(newline="") as handle:
            return max(float(r["abs_error"]) for r in csv.DictReader(handle))
    return row


ROWS = (
    ("direct_density, substitution, N=4", 4, "1.2 s", _density("substitution")),
    ("direct_density, substitution, N=8", 8, "7.8 s", _density("substitution")),
    ("direct_density, scheme1 (3 pointers, 64^3 grid), N=4", 4, "15.4 s", _density("scheme1")),
    ("direct_dirac, scheme1, N=4", 4, "1.7 s", _dirac("scheme1")),
    ("direct_dirac, scheme2, N=4", 4, "2.5 s", _dirac("scheme2")),
    ("direct_dirac, substitution, N=8", 8, "40 ms", _dirac("substitution")),
    ("weakmeas run, density N=4, 4-point sweep, --threads 1", 4, "5.1 s", _cli_run(1)),
    ("weakmeas run, density N=4, 4-point sweep, --threads 2", 4, "3.9 s", _cli_run(2)),
)


def run(seed: int, root: Path) -> int:
    out_dir = root / ".bench_out" / "baseline"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "density.yaml").write_text(
        yaml.safe_dump(scenario_config(seed, 4, "density"), sort_keys=False)
    )
    rows = []
    for label, dim, roadmap, call in ROWS:
        rho = random_density(dim, seed, 2)
        start = time.perf_counter()
        max_abs_error = call(rho, out_dir)
        wall = time.perf_counter() - start
        rows.append({"what": label, "wall_s": wall, "roadmap": roadmap,
                     "max_abs_error": max_abs_error})
        print(f"{label:56s} {wall:9.3f} s   (ROADMAP {roadmap:>6s})   "
              f"max |error| {max_abs_error:.2e}", flush=True)
    doc = {"rows": rows, "environment": environment(root, seed)}
    (out_dir / "baseline.json").write_text(json.dumps(doc, indent=1))
    print(json.dumps(doc))
    return 0
