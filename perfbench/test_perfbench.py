"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import END_TO_END, GATED, PER_LAYER, REFERENCE_SEED, load_reference, run_pass  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import WORKLOADS, CliRoute, DensitySweep, scenario_config  # noqa: E402

# The split each workload was chosen for (see README.md).
SPLIT = {
    "density-sweep": lambda m: (
        m["evolution.moment_s"] >= 0.5 * m["trace.self_s"]
        and m["evolution.cond_couple.calls"] == 0
        and m["sampling.shots"] == 0
    ),
    "product-schemes": lambda m: (
        m["evolution.measure.outcomes"] == 0
        and m["evolution.cond_couple.calls"] > 0
        and m["sampling.shots"] == 0
        and m["cli.self_s"] == 0
    ),
    "dirac-scan": lambda m: (
        m["evolution.moment.calls"] == 0
        and m["evolution.cond_couple.calls"] == 0
        and m["sampling.shots"] > 0
    ),
}


def _counts(layers: dict) -> dict:
    return {k: layers[k] for k, unit in PER_LAYER.items() if unit == "count"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_is_transparent_and_counts_repeat(name, tmp_path):
    workload = WORKLOADS[name](REFERENCE_SEED, tmp_path / "ref")
    plain = run_pass(workload, load_reference(name))
    recorder = Recorder()
    traced = [run_pass(workload, {}, recorder) for _ in range(2)]
    other_seed = run_pass(WORKLOADS[name](REFERENCE_SEED + 1, tmp_path / "other"), {}, recorder)
    for record in (plain, *traced, other_seed):
        assert record.failures == []
    assert plain.values.keys() == traced[0].values.keys()
    for route, values in plain.values.items():
        assert np.array_equal(values, traced[0].values[route]), route
    counts = [_counts(r.layers) for r in (*traced, other_seed)]
    assert counts[0] == counts[1] == counts[2]
    assert SPLIT[name](traced[0].layers)


def test_wraparound_guard_is_a_failed_route(tmp_path):
    workload = DensitySweep(1, tmp_path)
    config = scenario_config(1, 4, "density", sweep=[5.0, 0.01])
    workload.routes["density"] = CliRoute("density", config, tmp_path)
    record = run_pass(workload, {})
    assert (record.attempted, record.failed) == (1, 1)
    assert "exit code 3" in record.failures[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dirac-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: END_TO_END[k] for k in GATED}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
