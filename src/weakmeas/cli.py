"""Batch front-end: validated scenario configs in, result files out.

Config schema (YAML):

    dim: 4                       # system dimension
    state:                       # exactly one of:
      preset: fourier-1          #   named preset
      # amps: [[re, im], ...]    #   explicit pure amplitudes
      # density: [[[re, im], ...], ...]
      # random: {seed: 3, rank: 2}   # rank omitted -> random pure state
    protocol: dirac              # wavefunction | dirac | density | product
    scheme: substitution         # substitution | scheme1 | scheme2
    sweep: [0.08, 0.04, 0.02, 0.01]
    pointer: {points: 512, half_width: 16.0, sigma: 1.0}
    b0: fourier-0                # post-selection / triple-product label
    product: {e: fourier-1, f: basis-0}    # protocol=product only
    sampling: {shots: 10000, seed: 7, readout_split: 0.5}

Presets: basis-<k>, fourier-<k>, plus-i, mixed-qubit (I/2),
maximally-mixed (I/N), werner-<p> (p |plus-i><plus-i| + (1-p) I/2).

`run` emits estimates.csv (one row per setting x gt; estimates.yaml under
--format structured), reconstruction.yaml, manifest.yaml.  Complex numbers
serialize as [re, im] pairs and floats keep full repr precision, so files
re-parse to the in-memory values exactly.  `report` fits convergence slopes
and extrapolates the sweep to zero coupling; `calibrate` checks the Scheme 1
readout constant; `oracle` writes closed-form values only.

Exit codes: 0 success, 2 config or input errors, 3 protocol aborts
(post-selection failure, pointer wrap-around, scheme constraints),
1 anything unexpected.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .evolution import PostselectionError
from .hilbert import (
    DensityMatrix,
    StateVector,
    fourier_basis,
    fourier_ket,
    projector,
    random_density,
    random_state,
    standard_basis,
    standard_ket,
    trace_distance,
)
from .oracle import dirac_exact, weak_average, weak_value_pure
from .pointer import HBAR, WrapAroundError, gaussian_pointer
from .protocols import (
    DEFAULT_SWEEP,
    SCHEMES,
    ProtocolParams,
    calibrate_scheme1,
    convergence_slope,
    direct_density,
    direct_dirac,
    direct_wavefunction,
    extrapolate_sweep,
    invert_dirac,
    scheme1_weak_product,
    scheme2_weak_product,
    weak_strong_product,
)
from .sampling import ShotPlan, WeakStrongSetting, sample_protocol

PROTOCOLS = ("wavefunction", "dirac", "density", "product")
OUT_DIR_ENV = "WEAKMEAS_OUT_DIR"
CSV_COLUMNS = (
    "protocol",
    "scheme",
    "setting",
    "gt",
    "re",
    "im",
    "oracle_re",
    "oracle_im",
    "abs_error",
    "postselect_prob",
    "stderr_re",
    "stderr_im",
)


class ConfigError(Exception):
    """Config rejected before execution; message names the offending field."""


class ProtocolAbort(RuntimeError):
    """A setting aborted mid-run (post-selection, wrap-around, scheme rules)."""


@dataclass
class Scenario:
    dim: int
    system: StateVector | DensityMatrix
    state_label: str
    protocol: str
    scheme: str
    sweep: tuple[float, ...]
    grid_points: int | None
    half_width: float | None
    sigma: float
    b0_label: str
    b0: StateVector
    product_e: str | None
    product_f: str | None
    sampling: ShotPlan | None


# ---------------------------------------------------------------- config


def _pairs(vec) -> list:
    """Complex 1-d array -> [[re, im], ...] of builtin floats."""
    arr = np.asarray(vec, dtype=complex)
    return [[float(z.real), float(z.imag)] for z in arr]


def _matrix_pairs(mat) -> list:
    return [_pairs(row) for row in np.asarray(mat, dtype=complex)]


def _from_pairs(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _number(value, kind: type, field: str):
    """int(value) or float(value); ConfigError naming the field otherwise."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{field}: expected a number ({kind.__name__}), got {value!r}"
        ) from None


def _entry_to_complex(entry, field: str) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(float(entry[0]), float(entry[1]))
    raise ConfigError(f"{field}: expected a number or [re, im] pair, got {entry!r}")


def _dump_yaml(doc) -> str:
    """safe_dump(doc, sort_keys=False) through libyaml when it is available."""
    return yaml.dump(
        doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper), sort_keys=False
    )


def _load_yaml(text: str):
    """safe_load(text) through libyaml when it is available."""
    return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"invalid YAML{where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    return raw


def _parse_label(text: str, dim: int, field: str) -> StateVector:
    parts = str(text).rsplit("-", 1)
    if len(parts) == 2 and parts[0] in ("basis", "fourier"):
        try:
            index = int(parts[1])
        except ValueError:
            index = -1
        if not 0 <= index < dim:
            raise ConfigError(f"{field}: index in {text!r} out of range for dim {dim}")
        maker = standard_ket if parts[0] == "basis" else fourier_ket
        return maker(dim, index)
    raise ConfigError(f"{field}: expected basis-<k> or fourier-<k>, got {text!r}")


def _plus_i() -> StateVector:
    return StateVector(np.array([1.0, 1.0j]) / np.sqrt(2.0))


def _resolve_preset(name: str, dim: int | None, field: str):
    """Returns (system, dim). Presets on a fixed qubit ignore a dim of 2."""
    name = str(name)
    if name in ("plus-i", "mixed-qubit") or name.startswith("werner-"):
        if dim not in (None, 2):
            raise ConfigError(f"{field}: preset {name!r} is a qubit, dim must be 2")
        if name == "plus-i":
            return _plus_i(), 2
        if name == "mixed-qubit":
            return DensityMatrix(np.eye(2) / 2), 2
        try:
            p = float(name.split("-", 1)[1])
        except ValueError:
            raise ConfigError(f"{field}: cannot parse purity in {name!r}") from None
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"{field}: werner purity must lie in [0, 1], got {p}")
        pure = _plus_i().amps
        rho = p * np.outer(pure, pure.conj()) + (1 - p) * np.eye(2) / 2
        return DensityMatrix(rho), 2
    if name == "maximally-mixed":
        if dim is None:
            raise ConfigError(f"dim: required for preset {name!r}")
        return DensityMatrix(np.eye(dim) / dim), dim
    if dim is None:
        raise ConfigError(f"dim: required for preset {name!r}")
    return _parse_label(name, dim, field), dim


def _resolve_state(raw_state, dim: int | None, default_seed: int | None):
    if not isinstance(raw_state, dict):
        raise ConfigError("state: must be a mapping")
    keys = [k for k in ("preset", "amps", "density", "random") if k in raw_state]
    if len(keys) != 1:
        raise ConfigError(
            "state: exactly one of preset/amps/density/random required,"
            f" got {sorted(raw_state)}"
        )
    kind = keys[0]
    spec = raw_state[kind]
    if kind == "preset":
        system, dim = _resolve_preset(spec, dim, "state.preset")
        return system, dim, str(spec)
    if kind == "amps":
        amps = np.array(
            [_entry_to_complex(e, "state.amps") for e in spec], dtype=complex
        )
        if dim is not None and amps.size != dim:
            raise ConfigError(f"state.amps: length {amps.size} does not match dim {dim}")
        try:
            return StateVector(amps), amps.size, "explicit-pure"
        except ValueError as exc:
            raise ConfigError(f"state.amps: {exc}") from exc
    if kind == "density":
        rows = [[_entry_to_complex(e, "state.density") for e in row] for row in spec]
        mat = np.array(rows, dtype=complex)
        if dim is not None and mat.shape != (dim, dim):
            raise ConfigError(
                f"state.density: shape {mat.shape} does not match dim {dim}"
            )
        try:
            return DensityMatrix(mat), mat.shape[0], "explicit-density"
        except ValueError as exc:
            raise ConfigError(f"state.density: {exc}") from exc
    if not isinstance(spec, dict):
        raise ConfigError("state.random: must be a mapping {seed, rank}")
    if dim is None:
        raise ConfigError("dim: required for a random state")
    seed = spec.get("seed", default_seed)
    if seed is None:
        raise ConfigError("state.random.seed: required (or pass --seed)")
    seed = _number(seed, int, "state.random.seed")
    rank = spec.get("rank")
    if rank is None:
        return random_state(dim, seed), dim, f"random(seed={seed})"
    rank = _number(rank, int, "state.random.rank")
    if not 1 <= rank <= dim:
        raise ConfigError(f"state.random.rank: must lie in [1, {dim}], got {rank}")
    system = random_density(dim, seed, rank)
    return system, dim, f"random(seed={seed},rank={rank})"


def resolve_config(raw: dict, default_seed: int | None = None) -> Scenario:
    known = {
        "dim", "state", "protocol", "scheme", "sweep",
        "pointer", "b0", "product", "sampling", "seed",
    }
    for key in raw:
        if key not in known:
            raise ConfigError(f"{key}: unknown config key")
    if default_seed is None and raw.get("seed") is not None:
        default_seed = _number(raw["seed"], int, "seed")

    dim = raw.get("dim")
    if dim is not None:
        dim = _number(dim, int, "dim")
        if dim < 2:
            raise ConfigError(f"dim: must be >= 2, got {dim}")
    if "state" not in raw:
        raise ConfigError("state: required")
    system, dim, state_label = _resolve_state(raw["state"], dim, default_seed)

    protocol = raw.get("protocol")
    if protocol not in PROTOCOLS:
        raise ConfigError(f"protocol: expected one of {PROTOCOLS}, got {protocol!r}")
    scheme = raw.get("scheme", "substitution")
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme: expected one of {SCHEMES}, got {scheme!r}")
    if protocol == "wavefunction":
        if not isinstance(system, StateVector):
            raise ConfigError("state: protocol wavefunction requires a pure state")
        if scheme != "substitution":
            raise ConfigError("scheme: protocol wavefunction supports substitution only")

    sweep = raw.get("sweep", list(DEFAULT_SWEEP))
    if not isinstance(sweep, (list, tuple)) or not sweep:
        raise ConfigError("sweep: must be a nonempty list of couplings")
    sweep = tuple(_number(g, float, "sweep") for g in sweep)
    if any(g <= 0 for g in sweep):
        raise ConfigError("sweep: couplings must be positive")

    pointer = raw.get("pointer") or {}
    if not isinstance(pointer, dict):
        raise ConfigError("pointer: must be a mapping")
    for key in pointer:
        if key not in ("points", "half_width", "sigma"):
            raise ConfigError(f"pointer.{key}: unknown key")
    grid_points = pointer.get("points")
    half_width = pointer.get("half_width")
    sigma = _number(pointer.get("sigma", 1.0), float, "pointer.sigma")
    if sigma <= 0:
        raise ConfigError(f"pointer.sigma: must be positive, got {sigma}")
    if grid_points is not None:
        grid_points = _number(grid_points, int, "pointer.points")
        if grid_points <= 0:
            raise ConfigError(f"pointer.points: must be positive, got {grid_points}")
    if half_width is not None:
        half_width = _number(half_width, float, "pointer.half_width")
        if half_width <= 0:
            raise ConfigError(f"pointer.half_width: must be positive, got {half_width}")
    params = ProtocolParams(gt=sweep[0], scheme=scheme, sigma=sigma,
                            grid_points=grid_points, half_width=half_width)
    try:
        gaussian_pointer(params.grid(_route_pointers(protocol, scheme)), sigma)
    except ValueError as exc:
        raise ConfigError(f"pointer: {exc}") from exc

    b0_label = str(raw.get("b0", "fourier-0"))
    b0 = _parse_label(b0_label, dim, "b0")

    product_e = product_f = None
    if protocol == "product":
        prod = raw.get("product")
        if not isinstance(prod, dict) or "e" not in prod or "f" not in prod:
            raise ConfigError("product: mapping with keys e and f required")
        product_e = str(prod["e"])
        product_f = str(prod["f"])
        _parse_label(product_e, dim, "product.e")
        _parse_label(product_f, dim, "product.f")
    elif raw.get("product") is not None:
        raise ConfigError("product: only valid with protocol=product")

    sampling = None
    if raw.get("sampling") is not None:
        spec = raw["sampling"]
        if not isinstance(spec, dict) or "shots" not in spec:
            raise ConfigError("sampling: mapping with a shots key required")
        if protocol != "dirac" or scheme != "substitution":
            raise ConfigError(
                "sampling: only supported for protocol=dirac with scheme=substitution"
            )
        for key in spec:
            if key not in ("shots", "seed", "readout_split"):
                raise ConfigError(f"sampling.{key}: unknown key")
        seed = spec.get("seed", default_seed)
        if seed is None:
            raise ConfigError("sampling.seed: required (or pass --seed)")
        try:
            sampling = ShotPlan(
                shots=int(spec["shots"]),
                seed=int(seed),
                readout_split=float(spec.get("readout_split", 0.5)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sampling: {exc}") from exc

    return Scenario(
        dim=dim,
        system=system,
        state_label=state_label,
        protocol=protocol,
        scheme=scheme,
        sweep=sweep,
        grid_points=grid_points,
        half_width=half_width,
        sigma=sigma,
        b0_label=b0_label,
        b0=b0,
        product_e=product_e,
        product_f=product_f,
        sampling=sampling,
    )


# ---------------------------------------------------------------- running


def _density_array(system) -> np.ndarray:
    if isinstance(system, StateVector):
        return np.outer(system.amps, system.amps.conj())
    return system.matrix


def _params(scenario: Scenario, gt: float) -> ProtocolParams:
    return ProtocolParams(
        gt=gt,
        scheme=scenario.scheme,
        sigma=scenario.sigma,
        grid_points=scenario.grid_points,
        half_width=scenario.half_width,
    )


def _route_pointers(protocol: str, scheme: str) -> int:
    if protocol == "wavefunction":
        return 1
    if protocol == "dirac":
        return 1 if scheme == "substitution" else 2
    if protocol == "density":
        return 2 if scheme == "substitution" else 3
    return 1 if scheme == "substitution" else 2


def _row(scenario, setting, gt, value, oracle, prob=None, stderr=None):
    value = complex(value)
    oracle = complex(oracle)
    return {
        "protocol": scenario.protocol,
        "scheme": scenario.scheme,
        "setting": setting,
        "gt": float(gt),
        "re": float(value.real),
        "im": float(value.imag),
        "oracle_re": float(oracle.real),
        "oracle_im": float(oracle.imag),
        "abs_error": float(abs(value - oracle)),
        "postselect_prob": None if prob is None else float(prob),
        "stderr_re": None if stderr is None else float(stderr[0]),
        "stderr_im": None if stderr is None else float(stderr[1]),
    }


def _run_wavefunction(scenario: Scenario, gt: float):
    out = direct_wavefunction(scenario.system, scenario.b0, _params(scenario, gt))
    rows = []
    for est in out.estimates:
        a = dict(est.setting)["a"]
        oracle = weak_value_pure(
            projector(standard_ket(scenario.dim, a)).matrix,
            scenario.system,
            scenario.b0,
        )
        rows.append(
            _row(scenario, f"a={a}", gt, est.value, oracle, prob=est.postselect_prob)
        )
    recon = {
        "gt": float(gt),
        "normalized": _pairs(out.normalized),
        "raw_weak_values": _pairs(out.weak_values),
    }
    return rows, recon


def _run_dirac(scenario: Scenario, gt: float):
    exact = dirac_exact(_density_array(scenario.system)).entries
    params = _params(scenario, gt)
    rows = []
    if scenario.sampling is not None:
        dim = scenario.dim
        entries = np.zeros((dim, dim), dtype=complex)
        basis = fourier_basis(dim)
        for a in range(dim):
            # One shot record per weak setting: row b of the identity reads
            # S(a, b) from the same strong outcomes.
            setting = WeakStrongSetting(
                scenario.system, projector(standard_ket(dim, a)), basis,
                np.eye(dim), params,
            )
            for b, est in enumerate(sample_protocol(setting, scenario.sampling)):
                entries[a, b] = est.value
                rows.append(
                    _row(
                        scenario,
                        f"a={a},b={b}",
                        gt,
                        est.value,
                        exact[a, b],
                        stderr=(est.stderr_re, est.stderr_im),
                    )
                )
    else:
        out = direct_dirac(scenario.system, params)
        entries = out.distribution.entries
        for est in out.estimates:
            setting = dict(est.setting)
            a, b = setting["a"], setting["b"]
            rows.append(
                _row(
                    scenario,
                    f"a={a},b={b}",
                    gt,
                    est.value,
                    exact[a, b],
                    prob=est.postselect_prob,
                )
            )
    recon = {"gt": float(gt), "entries": _matrix_pairs(entries)}
    return rows, recon


def _run_density(scenario: Scenario, gt: float):
    rho = _density_array(scenario.system)
    out = direct_density(scenario.system, scenario.b0, _params(scenario, gt))
    rows = []
    for est in out.estimates:
        setting = dict(est.setting)
        a1, a2 = setting["a1"], setting["a2"]
        oracle = rho[a1, a2] / scenario.dim
        rows.append(
            _row(
                scenario,
                f"a1={a1},a2={a2}",
                gt,
                est.value,
                oracle,
                prob=est.postselect_prob,
            )
        )
    recon = {
        "gt": float(gt),
        "matrix": _matrix_pairs(out.matrix),
        "raw": _matrix_pairs(out.raw),
        "min_eigenvalue": float(out.diagnostics["min_eigenvalue"]),
        "hermiticity_defect": float(out.diagnostics["hermiticity_defect"]),
    }
    return rows, recon


def _run_product(scenario: Scenario, gt: float):
    dim = scenario.dim
    e_ket = _parse_label(scenario.product_e, dim, "product.e")
    f_ket = _parse_label(scenario.product_f, dim, "product.f")
    e_op, f_op = projector(e_ket), projector(f_ket)
    params = _params(scenario, gt)
    oracle = weak_average(e_op.matrix @ f_op.matrix, _density_array(scenario.system))
    if scenario.scheme == "scheme1":
        value = scheme1_weak_product(scenario.system, e_op, f_op, params)
    elif scenario.scheme == "scheme2":
        value = scheme2_weak_product(scenario.system, e_op, f_op, params)
    else:
        kind, index = scenario.product_e.rsplit("-", 1)
        basis = standard_basis(dim) if kind == "basis" else fourier_basis(dim)
        values = [1.0 if i == int(index) else 0.0 for i in range(dim)]
        value = weak_strong_product(scenario.system, f_op, basis, values, params)
    setting = f"e={scenario.product_e},f={scenario.product_f}"
    return [_row(scenario, setting, gt, value, oracle)], {"gt": float(gt)}


RUNNERS = {
    "wavefunction": _run_wavefunction,
    "dirac": _run_dirac,
    "density": _run_density,
    "product": _run_product,
}


def _run_one_gt(scenario: Scenario, gt: float):
    try:
        return RUNNERS[scenario.protocol](scenario, gt)
    except (PostselectionError, WrapAroundError, ValueError, RuntimeError) as exc:
        raise ProtocolAbort(f"gt={gt:g}: {exc}") from exc


def _resolve_out_dir(args) -> Path:
    out = args.out_dir or os.environ.get(OUT_DIR_ENV) or "results"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_estimates(out_dir: Path, rows: list[dict], fmt: str) -> Path:
    if fmt == "structured":
        path = out_dir / "estimates.yaml"
        path.write_text(_dump_yaml({"rows": rows}))
        return path
    path = out_dir / "estimates.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                "" if row[col] is None else repr(row[col]) if isinstance(row[col], float) else row[col]
                for col in CSV_COLUMNS
            )
    return path


def _manifest(scenario: Scenario, args, threads: int) -> dict:
    pointers = _route_pointers(scenario.protocol, scenario.scheme)
    params = _params(scenario, scenario.sweep[0])
    grid = params.grid(pointers)
    kappa_by_gt = [
        {"gt": float(gt), "kappa": float((2 * scenario.sigma / gt) ** pointers)}
        for gt in scenario.sweep
    ]
    plan = scenario.sampling
    return {
        "version": __version__,
        "protocol": scenario.protocol,
        "scheme": scenario.scheme,
        "dim": scenario.dim,
        "state_label": scenario.state_label,
        "state_density": _matrix_pairs(_density_array(scenario.system)),
        "b0_label": scenario.b0_label,
        "b0_amps": _pairs(scenario.b0.amps),
        "hbar": float(HBAR),
        "sweep": [float(g) for g in scenario.sweep],
        "pointer": {
            "points": int(grid.points),
            "half_width": float(grid.half_width),
            "sigma": float(scenario.sigma),
        },
        "pointers_used": pointers,
        "kappa_by_gt": kappa_by_gt,
        "postselect_floor": params.postselect_floor,
        "product": (
            None
            if scenario.product_e is None
            else {"e": scenario.product_e, "f": scenario.product_f}
        ),
        "sampling": (
            None
            if plan is None
            else {
                "shots": plan.shots,
                "seed": plan.seed,
                "readout_split": float(plan.readout_split),
            }
        ),
        "threads": threads,
        "format": args.format,
    }


def cmd_run(args) -> int:
    scenario = resolve_config(load_config(args.config), args.seed)
    out_dir = _resolve_out_dir(args)
    threads = args.threads or os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(_run_one_gt, scenario, gt) for gt in scenario.sweep]
        results = [f.result() for f in futures]
    rows = [row for chunk, _ in results for row in chunk]
    recons = [recon for _, recon in results]

    estimates_path = _write_estimates(out_dir, rows, args.format)
    recon_path = None
    if scenario.protocol != "product":
        recon_path = out_dir / "reconstruction.yaml"
        recon_path.write_text(
            _dump_yaml({"protocol": scenario.protocol, "reconstructions": recons})
        )
    manifest_path = out_dir / "manifest.yaml"
    manifest_path.write_text(_dump_yaml(_manifest(scenario, args, threads)))

    worst = max((row["abs_error"] for row in rows), default=0.0)
    print(
        f"{scenario.protocol}/{scenario.scheme}: {len(rows)} estimates over"
        f" {len(scenario.sweep)} couplings, worst |error| {worst:.3e}"
    )
    for path in (estimates_path, recon_path, manifest_path):
        if path is not None:
            print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------- report


def _read_rows(results_dir: Path) -> list[dict]:
    structured = results_dir / "estimates.yaml"
    if structured.exists():
        return _load_yaml(structured.read_text())["rows"]
    path = results_dir / "estimates.csv"
    if not path.exists():
        raise ConfigError(f"no estimates.csv or estimates.yaml in {results_dir}")
    rows = []
    with path.open(newline="") as handle:
        for record in csv.DictReader(handle):
            row = dict(record)
            for key in ("gt", "re", "im", "oracle_re", "oracle_im", "abs_error",
                        "postselect_prob", "stderr_re", "stderr_im"):
                row[key] = float(row[key]) if row[key] not in (None, "") else None
            rows.append(row)
    return rows


def _extrapolate_matrices(gts, matrices) -> np.ndarray:
    """Entrywise zero-coupling extrapolation of a stack of matrices."""
    gts = np.asarray(gts, dtype=float)
    stack = np.array(matrices)
    x = (gts / gts.max()) ** 2
    degree = min(gts.size - 1, 2)
    design = np.vander(x, degree + 1, increasing=True)
    flat = stack.reshape(gts.size, -1)
    coef, *_ = np.linalg.lstsq(design, flat, rcond=None)
    return coef[0].reshape(stack.shape[1:])


def _hermitize_normalize(matrix: np.ndarray) -> np.ndarray:
    herm = (matrix + matrix.conj().T) / 2
    return herm / np.real(np.trace(herm))


def _report_reconstruction(manifest: dict, recon_doc: dict) -> dict | None:
    protocol = manifest["protocol"]
    recons = sorted(recon_doc["reconstructions"], key=lambda r: r["gt"], reverse=True)
    gts = [r["gt"] for r in recons]
    if len(gts) < 2:
        return None
    true_rho = _from_pairs(manifest["state_density"])
    if protocol == "density":
        mats = [_from_pairs(r["matrix"]) for r in recons]
        extrap = _hermitize_normalize(_extrapolate_matrices(gts, mats))
        return {
            "kind": "density",
            "extrapolated_matrix": _matrix_pairs(extrap),
            "trace_distance": float(trace_distance(extrap, true_rho)),
        }
    if protocol == "dirac":
        mats = [_from_pairs(r["entries"]) for r in recons]
        extrap_entries = _extrapolate_matrices(gts, mats)
        implied = _hermitize_normalize(invert_dirac(extrap_entries))
        return {
            "kind": "dirac",
            "extrapolated_entries": _matrix_pairs(extrap_entries),
            "implied_matrix": _matrix_pairs(implied),
            "trace_distance": float(trace_distance(implied, true_rho)),
        }
    if protocol == "wavefunction":
        vecs = [_from_pairs(r["normalized"]) for r in recons]
        extrap = _extrapolate_matrices(gts, [v[:, None] for v in vecs])[:, 0]
        extrap = extrap / np.linalg.norm(extrap)
        outer = np.outer(extrap, extrap.conj())
        return {
            "kind": "wavefunction",
            "extrapolated_normalized": _pairs(extrap),
            "trace_distance": float(trace_distance(outer, true_rho)),
        }
    return None


def cmd_report(args) -> int:
    results_dir = Path(args.results_dir)
    manifest_path = results_dir / "manifest.yaml"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.yaml in {results_dir}")
    manifest = _load_yaml(manifest_path.read_text())
    if len(manifest["sweep"]) < 2:
        raise ConfigError("report needs at least two sweep couplings")
    rows = _read_rows(results_dir)

    settings: dict[str, list[dict]] = {}
    for row in rows:
        settings.setdefault(row["setting"], []).append(row)

    summary = []
    for setting, group in settings.items():
        group = sorted(group, key=lambda r: r["gt"], reverse=True)
        gts = [r["gt"] for r in group]
        values = [complex(r["re"], r["im"]) for r in group]
        errors = [r["abs_error"] for r in group]
        oracle = complex(group[0]["oracle_re"], group[0]["oracle_im"])
        try:
            slope = convergence_slope(gts, errors)
        except ValueError:
            slope = None
        extrapolated = extrapolate_sweep(gts, values)
        summary.append(
            {
                "setting": setting,
                "points": len(group),
                "slope": None if slope is None else float(slope),
                "extrapolated_re": float(extrapolated.real),
                "extrapolated_im": float(extrapolated.imag),
                "oracle_re": float(oracle.real),
                "oracle_im": float(oracle.imag),
                "extrapolated_abs_error": float(abs(extrapolated - oracle)),
            }
        )

    recon_summary = None
    recon_path = results_dir / "reconstruction.yaml"
    if recon_path.exists():
        recon_summary = _report_reconstruction(
            manifest, _load_yaml(recon_path.read_text())
        )

    out_dir = Path(args.out_dir) if args.out_dir else results_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    report_csv = out_dir / "report.csv"
    columns = (
        "setting", "points", "slope", "extrapolated_re", "extrapolated_im",
        "oracle_re", "oracle_im", "extrapolated_abs_error",
    )
    with report_csv.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for entry in summary:
            writer.writerow(
                "" if entry[c] is None else repr(entry[c]) if isinstance(entry[c], float) else entry[c]
                for c in columns
            )
    report_yaml = out_dir / "report.yaml"
    report_yaml.write_text(
        _dump_yaml({"settings": summary, "reconstruction": recon_summary})
    )

    for entry in summary:
        slope = "n/a" if entry["slope"] is None else f"{entry['slope']:.4g}"
        print(
            f"{entry['setting']}: slope {slope}, extrapolated"
            f" ({entry['extrapolated_re']:.6g}, {entry['extrapolated_im']:.6g}),"
            f" |error| {entry['extrapolated_abs_error']:.3e}"
        )
    if recon_summary is not None:
        print(
            f"reconstruction trace distance after extrapolation:"
            f" {recon_summary['trace_distance']:.3e}"
        )
    print(f"wrote {report_csv}")
    print(f"wrote {report_yaml}")
    return 0


# ---------------------------------------------------------------- calibrate


def cmd_calibrate(args) -> int:
    result = calibrate_scheme1()
    out_dir = _resolve_out_dir(args)
    path = out_dir / "calibration.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("gt", "ratio_re", "ratio_im", "kappa"))
        for gt, ratio, kappa in zip(result.gts, result.ratios, result.kappas):
            writer.writerow((repr(gt), repr(ratio.real), repr(ratio.imag), repr(kappa)))
    print("gt        ratio_re        ratio_im        kappa")
    for gt, ratio, kappa in zip(result.gts, result.ratios, result.kappas):
        print(f"{gt:<8g}  {ratio.real:<14.10f}  {ratio.imag:<14.3e}  {kappa:g}")
    deviation = abs(result.extrapolated - 1.0)
    print(f"extrapolated ratio: {result.extrapolated.real:.12f}")
    print(f"wrote {path}")
    if deviation > 0.01:
        print(
            f"calibration failed: |ratio - 1| = {deviation:.3e} > 0.01",
            file=sys.stderr,
        )
        return 3
    return 0


# ---------------------------------------------------------------- oracle


def cmd_oracle(args) -> int:
    scenario = resolve_config(load_config(args.config), args.seed)
    out_dir = _resolve_out_dir(args)
    rho = _density_array(scenario.system)
    doc = {
        "version": __version__,
        "protocol": scenario.protocol,
        "dim": scenario.dim,
        "state_label": scenario.state_label,
    }
    if scenario.protocol == "wavefunction":
        amps = scenario.system.amps
        doc["normalized"] = _pairs(amps)
        doc["weak_values"] = _pairs(
            [
                weak_value_pure(
                    projector(standard_ket(scenario.dim, a)).matrix,
                    scenario.system,
                    scenario.b0,
                )
                for a in range(scenario.dim)
            ]
        )
    elif scenario.protocol == "dirac":
        doc["entries"] = _matrix_pairs(dirac_exact(rho).entries)
    elif scenario.protocol == "density":
        doc["matrix"] = _matrix_pairs(rho)
        doc["triple_weak_averages"] = _matrix_pairs(rho / scenario.dim)
    else:
        e_ket = _parse_label(scenario.product_e, scenario.dim, "product.e")
        f_ket = _parse_label(scenario.product_f, scenario.dim, "product.f")
        value = weak_average(projector(e_ket).matrix @ projector(f_ket).matrix, rho)
        doc["value"] = [float(value.real), float(value.imag)]
    path = out_dir / "oracle.yaml"
    path.write_text(_dump_yaml(doc))
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakmeas",
        description="Weak-measurement state readout: simulate, report, calibrate.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("config", help="scenario config (YAML)")
        p.add_argument("--seed", type=int, default=None,
                       help="default seed for random state / sampling")
        p.add_argument("--out-dir", default=None,
                       help=f"output directory (default ${OUT_DIR_ENV} or ./results)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: available parallelism)")
        p.add_argument("--format", choices=("csv", "structured"), default="csv",
                       help="estimates table format")

    p_run = sub.add_parser("run", help="execute a scenario sweep")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="convergence fit over run outputs")
    p_report.add_argument("results_dir", help="directory produced by run")
    p_report.add_argument("--out-dir", default=None,
                          help="where to write report files (default: results dir)")
    p_report.set_defaults(func=cmd_report)

    p_cal = sub.add_parser("calibrate", help="check the scheme-1 readout constant")
    common(p_cal, config=False)
    p_cal.set_defaults(func=cmd_calibrate)

    p_oracle = sub.add_parser("oracle", help="closed-form values, no simulation")
    common(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ProtocolAbort as exc:
        print(f"protocol abort: {exc}", file=sys.stderr)
        return 3
    except (PostselectionError, WrapAroundError) as exc:
        print(f"protocol abort: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
