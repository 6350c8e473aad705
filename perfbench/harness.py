"""Closed-loop harness: set-up probes, a reference warm-up, timed passes.

One process runs one pass at a time; the next pass starts when the previous
one has finished.  End-to-end figures come from untraced passes only.  With
tracing on, passes alternate traced and untraced, so the traced run also
measures its own overhead.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Recorder, layer_metrics
from workloads import WORKLOADS, RouteAbort

REFERENCE_SEED = 0
REFERENCE_TOL = 1e-10
REFERENCE_FILE = Path(__file__).with_name("reference.json")
# Set-up probes before the first pass; one more follows every timed pass, so
# that the probes sample the host over the whole run, as the passes do.
SETUP_PROBES_FIRST = 3
PROBE_TIMEOUT_S = 60
# The reference kernel's median time on a 2-core Xeon VM (median over sixty
# 30 s runs).  setup_s is given in seconds at that host speed.
KERNEL_NOMINAL_S = 0.22

END_TO_END = {
    "solve_s": "s",
    "cpu_s": "s",
    "solve_rel": "ratio",
    "cpu_rel": "ratio",
    "estimates_per_s": "1/s",
    "setup_s": "s",
    "setup_median_s": "s",
    "peak_rss_mb": "MiB",
    "max_abs_error": "1",
    "extrap_trace_distance": "1",
    "failed_frac": "ratio",
}
# Raw times follow the host's speed, which drifts by up to 1.7x within minutes on
# a shared host; the gated times are relative to a reference kernel instead.
GATED = ("solve_rel", "cpu_rel", "setup_s", "peak_rss_mb")
PER_LAYER = {
    "cli.self_s": "s",
    "cli.report_s": "s",
    "cli.out_bytes": "bytes",
    "cli.pool_overlap": "ratio",
    "cli.pool_wait_s": "s",
    "protocols.self_s": "s",
    "protocols.route_calls": "count",
    "evolution.moment_s": "s",
    "evolution.moment.calls": "count",
    "evolution.moment.fft_elems": "count",
    "evolution.measure_s": "s",
    "evolution.measure.outcomes": "count",
    "evolution.measure.useful_frac": "ratio",
    "evolution.couple_s": "s",
    "evolution.couple.calls": "count",
    "evolution.cond_couple_s": "s",
    "evolution.cond_couple.calls": "count",
    "evolution.readout_s": "s",
    "evolution.validate_s": "s",
    "evolution.make_joint_s": "s",
    "evolution.tensor_bytes_max": "bytes",
    "pointer.gaussian_s": "s",
    "pointer.gaussian.calls": "count",
    "hilbert.s": "s",
    "hilbert.calls": "count",
    "oracle.s": "s",
    "sampling.self_s": "s",
    "sampling.shots": "count",
    "sampling.shots_per_s": "1/s",
    "trace.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class PassRecord:
    wall: float
    cpu: float
    estimates: int
    max_abs_error: float
    extrap_trace_distance: float
    attempted: int
    failed: int
    failures: list[str]
    values: dict[str, np.ndarray]
    out_bytes: int
    layers: dict | None = None
    spans: list = field(default_factory=list)
    ref_s: float = 0.0


class ReferenceKernel:
    """A fixed numpy job timed before and after each pass: on each core, 32
    3-d FFTs of a 4 MB array, larger than L2 like the tensors of the heavier
    routes.  A pass time divided by the mean of the two kernel times follows
    the program rather than the host's speed at that moment.  It keeps every
    core busy at once, as cmd_run's pool does, and a single-threaded route
    may run on any of them.  It calls no weakmeas code, so changes to the
    program do not move it."""

    def __init__(self, threads: int) -> None:
        rng = np.random.default_rng(0)
        self.arrays = []
        for _ in range(threads):
            data = rng.random((64, 64, 64)) + 1j * rng.random((64, 64, 64))
            self.arrays.append((data, np.empty_like(data)))

    @property
    def nbytes(self) -> int:
        return sum(data.nbytes + out.nbytes for data, out in self.arrays)

    @staticmethod
    def _ffts(data: np.ndarray, out: np.ndarray) -> None:
        for _ in range(32):
            np.fft.fftn(data, axes=(0, 1, 2), out=out)

    def __call__(self) -> float:
        start = time.perf_counter()
        workers = [threading.Thread(target=self._ffts, args=pair) for pair in self.arrays[1:]]
        for worker in workers:
            worker.start()
        self._ffts(*self.arrays[0])
        for worker in workers:
            worker.join()
        return time.perf_counter() - start


def _compare(values: np.ndarray, expected: np.ndarray) -> list[str]:
    """Outputs against the recorded reference, or against the first pass."""
    if values.shape != expected.shape:
        return [f"{len(values)} outputs, expected {len(expected)}"]
    diff = float(np.max(np.abs(values - expected), initial=0.0))
    return [] if diff <= REFERENCE_TOL else [f"outputs differ from expected by {diff:.3e}"]


def run_pass(workload, expected: dict, recorder: Recorder | None = None) -> PassRecord:
    """One pass over the workload's routes, timed from the first route call
    to checked outputs.  A route that aborts, raises or misses a tolerance
    is a failure; the pass goes on with the next route."""
    failures: list[str] = []
    failed = 0
    values: dict[str, np.ndarray] = {}
    estimates = out_bytes = 0
    max_err = extrap = 0.0
    if recorder is not None:
        recorder.install()
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for name, route in workload.routes.items():
            try:
                res = route()
            except RouteAbort as exc:
                failed += 1
                failures.append(f"{name}: aborted, {exc}")
                continue
            except Exception:  # a raising route is a failed route, not a crash
                failed += 1
                failures.append(f"{name}: raised {traceback.format_exc()}")
                continue
            misses = list(res.misses)
            if name in expected:
                misses += _compare(res.values, expected[name])
            else:
                expected[name] = res.values
            failed += bool(misses)
            failures += [f"{name}: {m}" for m in misses]
            values[name] = res.values
            estimates += res.estimates
            out_bytes += res.out_bytes
            max_err = max(max_err, res.max_abs_error)
            if res.extrap_trace_distance is not None:
                extrap = max(extrap, res.extrap_trace_distance)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    finally:
        if recorder is not None:
            recorder.uninstall()
    record = PassRecord(wall, cpu, estimates, max_err, extrap, len(workload.routes),
                        failed, failures, values, out_bytes)
    if recorder is not None:
        record.spans = recorder.take()
        record.layers = layer_metrics(record.spans)
        record.layers["cli.out_bytes"] = out_bytes
    return record


def load_reference(name: str) -> dict[str, np.ndarray]:
    if not REFERENCE_FILE.exists():
        return {}
    doc = json.loads(REFERENCE_FILE.read_text())
    return {route: np.array(v) for route, v in doc["workloads"].get(name, {}).items()}


def record_reference(out_root: Path) -> int:
    """Run one pass of each workload at the reference seed and store its outputs."""
    doc = {"seed": REFERENCE_SEED, "workloads": {}}
    for name, cls in WORKLOADS.items():
        record = run_pass(cls(REFERENCE_SEED, out_root / name / "reference"), {})
        if record.failures:
            print(f"{name}: {record.failures}", file=sys.stderr)
            return 1
        doc["workloads"][name] = {route: v.tolist() for route, v in record.values.items()}
    REFERENCE_FILE.write_text(json.dumps(doc) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


class SetupProbe:
    """Each call imports weakmeas, resolves configs and states and computes
    oracles in a fresh interpreter, which reports its own time."""

    def __init__(self, name: str, seed: int, launcher: Path) -> None:
        self.argv = [sys.executable, str(launcher), "--setup-probe", "--workload", name,
                     "--seed", str(seed)]
        self.times: list[float] = []
        self.elapsed = 0.0

    def __call__(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run(self.argv, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        self.times.append(float(proc.stdout.strip().splitlines()[-1]))
        self.elapsed += time.perf_counter() - start


# ---------------------------------------------------------------- environment


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def _blas() -> dict:
    info: dict = {
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():  # else git would report an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "weakmeas").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int) -> dict:
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "seed": seed,
        "nproc": len(affinity),
        "cpu_affinity": affinity,
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "caches": _cache_sizes(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
    }


# ---------------------------------------------------------------- run


def _tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def _spans_json(passes: list[PassRecord]) -> list[dict]:
    out = []
    for number, record in enumerate(passes):
        ids = {id(span): i for i, span in enumerate(record.spans)}
        for i, span in enumerate(record.spans):
            out.append({
                "pass": number, "id": i, "key": span.key, "thread": span.thread,
                "parent": None if span.parent is None else ids.get(id(span.parent)),
                "start": span.start, "end": span.end, "self": span.duration - span.child,
                **span.counts,
            })
    return out


def _print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:32s} {value!r:>24} {units[name]}")


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, launcher: Path) -> int:
    out_root = root / ".bench_out" / name
    out_root.mkdir(parents=True, exist_ok=True)
    # Created first and held to the end, so that its arrays are resident at the
    # peak and can be taken out of peak_rss_mb.
    kernel = ReferenceKernel(len(os.sched_getaffinity(0)))
    probe = SetupProbe(name, seed, launcher)
    for _ in range(SETUP_PROBES_FIRST):
        probe()
    workload = WORKLOADS[name](seed, out_root / f"seed{seed}")
    reference = load_reference(name)

    warm = run_pass(WORKLOADS[name](REFERENCE_SEED, out_root / "reference"), dict(reference))
    if not reference:
        warm.attempted += 1
        warm.failed += 1
        warm.failures.append("no reference outputs recorded for this workload")
    expected = dict(reference) if seed == REFERENCE_SEED else {}
    recorder = Recorder() if trace else None
    passes: list[PassRecord] = []
    start = time.perf_counter()
    while True:
        before = kernel()
        traced = trace and len(passes) % 2 == 0
        passes.append(run_pass(workload, expected, recorder if traced else None))
        after = kernel()
        passes[-1].ref_s = (before + after) / 2
        if traced:  # only the last traced pass keeps its spans, for the span dump
            for earlier in passes[:-1]:
                earlier.spans = []
        if (time.perf_counter() - start - probe.elapsed >= seconds
                and (not trace or len(passes) >= 2)):
            break
        probe()

    plain = [p for p in passes if p.layers is None]
    traced_passes = [p for p in passes if p.layers is not None]
    attempted = warm.attempted + sum(p.attempted for p in passes)
    failed = warm.failed + sum(p.failed for p in passes)
    failures = warm.failures + [f for p in passes for f in p.failures]
    walls = [p.wall for p in plain]
    e2e = {
        "solve_s": statistics.median(walls),
        "cpu_s": statistics.median(p.cpu for p in plain),
        # Ratios of totals were steadier across runs than medians of per-pass
        # ratios (README.md, Noise).
        "solve_rel": sum(walls) / sum(p.ref_s for p in plain),
        "cpu_rel": sum(p.cpu for p in plain) / sum(p.ref_s for p in plain),
        "estimates_per_s": statistics.median(p.estimates / p.wall for p in plain),
        # The fastest probe, scaled by the run's median kernel time: between sets
        # of runs minutes apart, raw set-up times moved with the host by up to
        # 46%, the scaled minimum by at most 2%.
        "setup_s": min(probe.times) * KERNEL_NOMINAL_S
                   / statistics.median(p.ref_s for p in passes),
        "setup_median_s": statistics.median(probe.times),
        # ru_maxrss is in KiB; the benchmark's own kernel arrays are not the program's
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                        - kernel.nbytes) / 2**20,
        "max_abs_error": max(p.max_abs_error for p in passes),
        "extrap_trace_distance": max(p.extrap_trace_distance for p in passes),
        "failed_frac": failed / attempted,
    }
    report = {
        "workload": name,
        "loop": "closed, one client",
        "passes": len(plain),
        "traced_passes": len(traced_passes),
        "solve_s_samples": walls,
        "cpu_s_samples": [p.cpu for p in plain],
        "reference_kernel_s_samples": [p.ref_s for p in plain],
        "solve_s_tail": _tail(walls),
        "setup_s_samples": probe.times,
        "end_to_end": e2e,
        "failures": failures,
        "environment": environment(root, seed),
    }
    _print_table(f"{name} seed {seed}: {len(plain)} untraced passes", e2e, END_TO_END)
    if trace:
        layers = {
            # counts repeat exactly, so their median is one of the samples
            key: (statistics.median_low if PER_LAYER[key] in ("count", "bytes")
                  else statistics.median)(p.layers[key] for p in traced_passes)
            for key in PER_LAYER if key != "trace.overhead_s"
        }
        layers["trace.overhead_s"] = (
            statistics.median(p.wall for p in traced_passes) - statistics.median(walls)
        )
        report["per_layer"] = layers
        _print_table(f"per layer, median of {len(traced_passes)} traced passes", layers, PER_LAYER)
        (out_root / f"spans-seed{seed}.json").write_text(json.dumps(_spans_json(traced_passes[-1:])))
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    (out_root / f"result-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))

    shown = {k: report["per_layer"][k] for k in PER_LAYER} if trace else {k: e2e[k] for k in GATED}
    units = PER_LAYER if trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }))
    return 0 if failed == 0 else 1
