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
re-parse to the in-memory values exactly.  Every YAML file is the bytes of
`yaml.dump(doc, Dumper=CSafeDumper, sort_keys=False)`; `yamlio.dump_yaml`
writes them directly and calls `yaml.dump` only for a document outside its
subset (see weakmeas.yamlio).  `report` fits convergence slopes
and extrapolates the sweep to zero coupling, rebuilding each coupling's
reconstruction from the estimate rows (reconstruction.yaml only marks that
the run reconstructed); `calibrate` checks the Scheme 1
readout constant; `oracle` writes closed-form values only.

Exit codes: 0 success, 2 config or input errors (including a b0 the route
or the oracle rejects, a scheme the protocol has no route for, non-finite,
boolean or fractional numbers, repeated sweep couplings, `run --threads`
below 1, estimate rows `report` cannot fit or rebuild, and sizes past
MAX_AMPLITUDES), 3 protocol
aborts (evolution.ProtocolAbort: post-selection failure, probability-sum
drift, a vanished readout or reconstructed trace; and pointer wrap-around),
1 anything unexpected, with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .evolution import MAX_AMPLITUDES, ProtocolAbort
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
from .pointer import HBAR, WrapAroundError, check_sigma, gaussian_pointer
from .protocols import (
    DEFAULT_SWEEP,
    ROUTE_POINTERS,
    SCHEMES,
    SETTING_NAMES,
    ProtocolParams,
    _require_unbiased_b0,
    _require_uniform_b0,
    as_system,
    calibrate_scheme1,
    convergence_slope,
    direct_density,
    direct_dirac,
    direct_wavefunction,
    extrapolate_sweep,
    hermitize_normalize,
    invert_dirac,
    normalize_weak_values,
    scheme1_weak_product,
    scheme2_weak_product,
    weak_strong_product,
)
from .sampling import ShotPlan, WeakStrongSetting, sample_protocol
from .yamlio import dump_yaml, load_yaml

PROTOCOLS = ("wavefunction", "dirac", "density", "product")
OUT_DIR_ENV = "WEAKMEAS_OUT_DIR"
# The first three columns are text; every later one is a float or empty.
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
REPORT_COLUMNS = (
    "setting", "points", "slope", "extrapolated_re", "extrapolated_im",
    "oracle_re", "oracle_im", "extrapolated_abs_error",
)


class ConfigError(Exception):
    """Config rejected before execution; message names the offending field."""


@dataclass
class Scenario:
    """A resolved config.  params holds the scheme and the pointer settings
    at the first sweep coupling; each run replaces its gt."""

    dim: int
    system: StateVector | DensityMatrix
    rho: np.ndarray
    state_label: str
    protocol: str
    scheme: str
    sweep: tuple[float, ...]
    params: ProtocolParams
    b0_label: str
    b0: StateVector
    product: dict[str, str] | None  # {"e": label, "f": label}
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
    """value as a finite float, or as an int when kind is int; ConfigError
    naming the field for anything else, booleans and fractions included."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"{field}: expected a number ({kind.__name__}), got {value!r}"
        ) from None
    if not math.isfinite(number):
        raise ConfigError(f"{field}: must be finite, got {value!r}")
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{field}: expected an integer, got {value!r}")
    return value if isinstance(value, int) else int(number)


def _seed(value, field: str) -> int:
    seed = _number(value, int, field)
    if seed < 0:
        raise ConfigError(f"{field}: must be >= 0, got {seed}")
    return seed


def _entry_to_complex(entry, field: str) -> complex:
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(_number(entry[0], float, field), _number(entry[1], float, field))
    if isinstance(entry, (int, float)):
        return complex(_number(entry, float, field))
    raise ConfigError(f"{field}: expected a number or [re, im] pair, got {entry!r}")


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = load_yaml(text)
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
    """(system, dim, label, branches): branches bounds the joint state's
    branch count, the rank of rho (dim for a mixed state of unknown rank)."""
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
        return system, dim, str(spec), 1 if isinstance(system, StateVector) else dim
    if kind in ("amps", "density") and not isinstance(spec, list):
        raise ConfigError(f"state.{kind}: expected a list, got {spec!r}")
    if kind == "amps":
        amps = np.array(
            [_entry_to_complex(e, "state.amps") for e in spec], dtype=complex
        )
        if dim is not None and amps.size != dim:
            raise ConfigError(f"state.amps: length {amps.size} does not match dim {dim}")
        try:
            return StateVector(amps), amps.size, "explicit-pure", 1
        except ValueError as exc:
            raise ConfigError(f"state.amps: {exc}") from exc
    if kind == "density":
        if not all(isinstance(row, list) and len(row) == len(spec) for row in spec):
            raise ConfigError("state.density: expected a square list of rows")
        rows = [[_entry_to_complex(e, "state.density") for e in row] for row in spec]
        mat = np.array(rows, dtype=complex)
        if dim is not None and mat.shape != (dim, dim):
            raise ConfigError(
                f"state.density: shape {mat.shape} does not match dim {dim}"
            )
        try:
            return DensityMatrix(mat), mat.shape[0], "explicit-density", mat.shape[0]
        except ValueError as exc:
            raise ConfigError(f"state.density: {exc}") from exc
    if not isinstance(spec, dict):
        raise ConfigError("state.random: must be a mapping {seed, rank}")
    if dim is None:
        raise ConfigError("dim: required for a random state")
    seed = spec.get("seed", default_seed)
    if seed is None:
        raise ConfigError("state.random.seed: required (or pass --seed)")
    seed = _seed(seed, "state.random.seed")
    rank = spec.get("rank")
    if rank is None:
        return random_state(dim, seed), dim, f"random(seed={seed})", 1
    rank = _number(rank, int, "state.random.rank")
    if not 1 <= rank <= dim:
        raise ConfigError(f"state.random.rank: must lie in [1, {dim}], got {rank}")
    system = random_density(dim, seed, rank)
    return system, dim, f"random(seed={seed},rank={rank})", rank


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

    protocol = raw.get("protocol")
    if protocol not in PROTOCOLS:
        raise ConfigError(f"protocol: expected one of {PROTOCOLS}, got {protocol!r}")
    scheme = raw.get("scheme", "substitution")
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme: expected one of {SCHEMES}, got {scheme!r}")
    if (protocol, scheme) not in ROUTE_POINTERS:
        schemes = ", ".join(s for p, s in ROUTE_POINTERS if p == protocol)
        raise ConfigError(f"scheme: protocol {protocol} supports {schemes} only")

    sweep = raw.get("sweep", list(DEFAULT_SWEEP))
    if not isinstance(sweep, (list, tuple)) or not sweep:
        raise ConfigError("sweep: must be a nonempty list of couplings")
    sweep = tuple(_number(g, float, "sweep") for g in sweep)
    if any(g <= 0 for g in sweep):
        raise ConfigError("sweep: couplings must be positive")
    if len(set(sweep)) != len(sweep):
        # report would fit its extrapolation through a repeated point
        raise ConfigError(f"sweep: couplings must be distinct, got {list(sweep)}")

    pointer = raw.get("pointer") or {}
    if not isinstance(pointer, dict):
        raise ConfigError("pointer: must be a mapping")
    for key in pointer:
        if key not in ("points", "half_width", "sigma"):
            raise ConfigError(f"pointer.{key}: unknown key")
    sizes = {"sigma": 1.0, **pointer}
    for key, kind in (("sigma", float), ("points", int), ("half_width", float)):
        # A null points or half_width means the route's default grid.
        if key == "sigma" or sizes.get(key) is not None:
            sizes[key] = _number(sizes[key], kind, f"pointer.{key}")
            if sizes[key] <= 0:
                raise ConfigError(f"pointer.{key}: must be positive, got {sizes[key]}")
    try:
        check_sigma(sizes["sigma"])
    except ValueError as exc:
        raise ConfigError(f"pointer.sigma: {exc}") from None
    params = ProtocolParams(gt=sweep[0], scheme=scheme, sigma=sizes["sigma"],
                            grid_points=sizes.get("points"), half_width=sizes.get("half_width"))

    route_pointers = ROUTE_POINTERS[protocol, scheme]
    points = params.points(route_pointers)
    default_points = replace(params, grid_points=None).points(route_pointers)
    sampled = raw.get("sampling") is not None

    def check_amplitudes(branches: int, rank_field: str | None) -> None:
        """ConfigError naming the field that takes the largest array the
        route would allocate past MAX_AMPLITUDES."""
        def amplitudes(b: int, m: int) -> int:
            cells = m if sampled else 2**route_pointers
            return max(dim * dim, b * dim * cells, 2 * m)

        if amplitudes(branches, points) <= MAX_AMPLITUDES:
            return
        if rank_field and amplitudes(1, points) <= MAX_AMPLITUDES:
            field = rank_field
        elif points != default_points and amplitudes(branches, default_points) <= MAX_AMPLITUDES:
            field = "pointer.points"
        else:
            field = "dim" if "dim" in raw else "state"
        raise ConfigError(
            f"{field}: the {protocol}/{scheme} route would hold"
            f" {amplitudes(branches, points)} amplitudes in one array ({dim}^2 for"
            f" rho, {branches} x {dim} x cells per branch and row, or 2 x {points}"
            f" pointer cells), above MAX_AMPLITUDES = 2^24"
        )

    if dim is not None:
        # before the state: a random or maximally mixed state allocates dim^2
        check_amplitudes(1, None)
    system, dim, state_label, branches = _resolve_state(raw["state"], dim, default_seed)
    check_amplitudes(branches, "state.random.rank" if "random" in raw["state"] else None)
    if protocol == "wavefunction" and not isinstance(system, StateVector):
        raise ConfigError("state: protocol wavefunction requires a pure state")
    try:
        gaussian_pointer(params.grid(route_pointers), params.sigma)
    except ValueError as exc:
        raise ConfigError(f"pointer: {exc}") from exc

    b0_label = str(raw.get("b0", "fourier-0"))
    b0 = _parse_label(b0_label, dim, "b0")
    try:
        # The checks the routes themselves run on b0.
        if protocol == "wavefunction":
            _require_unbiased_b0(b0)
            # the oracle's own test: it divides by <b0|psi>
            weak_value_pure(np.eye(dim), system, b0)
        elif protocol == "density":
            _require_uniform_b0(b0)
    except ValueError as exc:
        raise ConfigError(f"b0: {exc}") from None

    product = None
    if protocol == "product":
        prod = raw.get("product")
        if not isinstance(prod, dict) or "e" not in prod or "f" not in prod:
            raise ConfigError("product: mapping with keys e and f required")
        product = {key: str(prod[key]) for key in ("e", "f")}
        for key, label in product.items():
            _parse_label(label, dim, f"product.{key}")
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
        shots = _number(spec["shots"], int, "sampling.shots")
        if shots > MAX_AMPLITUDES:
            raise ConfigError(
                f"sampling.shots: {shots} shots would keep {2 * shots} float draws, 16 bytes"
                f" a shot as for an amplitude, above MAX_AMPLITUDES = 2^24"
            )
        try:
            sampling = ShotPlan(
                shots=shots,
                seed=_seed(seed, "sampling.seed"),
                readout_split=_number(
                    spec.get("readout_split", 0.5), float, "sampling.readout_split"
                ),
            )
        except ValueError as exc:  # the message starts with the field name
            raise ConfigError(f"sampling.{exc}") from exc

    return Scenario(
        dim=dim,
        system=system,
        rho=as_system(system)[1],
        state_label=state_label,
        protocol=protocol,
        scheme=scheme,
        sweep=sweep,
        params=params,
        b0_label=b0_label,
        b0=b0,
        product=product,
        sampling=sampling,
    )


# ---------------------------------------------------------------- running


def _product_ops(scenario: Scenario):
    """Projectors on the product scenario's E and F labels."""
    return tuple(
        projector(_parse_label(label, scenario.dim, f"product.{key}"))
        for key, label in scenario.product.items()
    )


def _exact(scenario: Scenario) -> np.ndarray:
    """Closed-form value of every setting, indexed by the setting's labels:
    [a], [a, b], [a1, a2], or [()] for the single product setting."""
    dim, rho = scenario.dim, scenario.rho
    if scenario.protocol == "wavefunction":
        return np.array([
            weak_value_pure(projector(standard_ket(dim, a)).matrix, scenario.system, scenario.b0)
            for a in range(dim)
        ])
    if scenario.protocol == "dirac":
        return dirac_exact(rho).entries
    if scenario.protocol == "density":
        return rho / dim
    e_op, f_op = _product_ops(scenario)
    return np.array(weak_average(e_op.matrix @ f_op.matrix, rho))


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


def _route_readout(scenario: Scenario, params: ProtocolParams):
    """Estimates and reconstruction fields of the wavefunction, Dirac or
    density route at one coupling."""
    if scenario.protocol == "wavefunction":
        out = direct_wavefunction(scenario.system, scenario.b0, params)
        return out.estimates, {
            "normalized": _pairs(out.normalized),
            "raw_weak_values": _pairs(out.weak_values),
        }
    if scenario.protocol == "dirac":
        out = direct_dirac(scenario.system, params)
        return out.estimates, {"entries": _matrix_pairs(out.distribution.entries)}
    out = direct_density(scenario.system, scenario.b0, params)
    return out.estimates, {
        "matrix": _matrix_pairs(out.matrix),
        "raw": _matrix_pairs(out.raw),
        "min_eigenvalue": float(out.diagnostics["min_eigenvalue"]),
        "hermiticity_defect": float(out.diagnostics["hermiticity_defect"]),
    }


def _run_sampled_dirac(scenario: Scenario, params: ProtocolParams):
    dim = scenario.dim
    exact = _exact(scenario)
    entries = np.zeros((dim, dim), dtype=complex)
    basis = fourier_basis(dim)
    rows = []
    for a in range(dim):
        # One call per weak setting: row b of the identity reads S(a, b)
        # from the same strong outcomes, and every setting and coupling
        # reads the plan's one shot record.
        setting = WeakStrongSetting(
            scenario.system, projector(standard_ket(dim, a)), basis, np.eye(dim), params,
        )
        for b, est in enumerate(sample_protocol(setting, scenario.sampling)):
            entries[a, b] = est.value
            rows.append(
                _row(scenario, f"a={a},b={b}", params.gt, est.value, exact[a, b],
                     stderr=(est.stderr_re, est.stderr_im))
            )
    return rows, {"gt": float(params.gt), "entries": _matrix_pairs(entries)}


def _run_product(scenario: Scenario, params: ProtocolParams):
    e_op, f_op = _product_ops(scenario)
    if scenario.scheme == "scheme1":
        value = scheme1_weak_product(scenario.system, e_op, f_op, params)
    elif scenario.scheme == "scheme2":
        value = scheme2_weak_product(scenario.system, e_op, f_op, params)
    else:
        dim = scenario.dim
        kind, index = scenario.product["e"].rsplit("-", 1)
        basis = standard_basis(dim) if kind == "basis" else fourier_basis(dim)
        values = [1.0 if i == int(index) else 0.0 for i in range(dim)]
        value = weak_strong_product(scenario.system, f_op, basis, values, params)
    setting = ",".join(f"{key}={label}" for key, label in scenario.product.items())
    row = _row(scenario, setting, params.gt, value, _exact(scenario)[()])
    return [row], {"gt": float(params.gt)}


def _run_one_gt(scenario: Scenario, gt: float):
    try:
        params = replace(scenario.params, gt=gt)
        if scenario.protocol == "product":
            return _run_product(scenario, params)
        if scenario.sampling is not None:
            return _run_sampled_dirac(scenario, params)
        estimates, recon = _route_readout(scenario, params)
        exact = _exact(scenario)
    except (ProtocolAbort, WrapAroundError) as exc:
        raise ProtocolAbort(f"gt={gt:g}: {exc}") from exc
    rows = [
        _row(
            scenario,
            ",".join(f"{name}={label}" for name, label in est.setting),
            gt,
            est.value,
            exact[tuple(label for _, label in est.setting)],
            prob=est.postselect_prob,
        )
        for est in estimates
    ]
    return rows, {"gt": float(gt), **recon}


def _resolve_out_dir(args) -> Path:
    out = args.out_dir or os.environ.get(OUT_DIR_ENV) or "results"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, columns: tuple[str, ...], rows: list[dict]) -> None:
    """Header, then one line per row: floats as repr, None as empty."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                "" if row[col] is None else repr(row[col]) if isinstance(row[col], float) else row[col]
                for col in columns
            )


def _manifest(scenario: Scenario, args, threads: int) -> dict:
    pointers = ROUTE_POINTERS[scenario.protocol, scenario.scheme]
    params = scenario.params
    grid = params.grid(pointers)
    kappa_by_gt = [
        {"gt": float(gt), "kappa": float((2 * params.sigma / gt) ** pointers)}
        for gt in scenario.sweep
    ]
    return {
        "version": __version__,
        "protocol": scenario.protocol,
        "scheme": scenario.scheme,
        "dim": scenario.dim,
        "state_label": scenario.state_label,
        "state_density": _matrix_pairs(scenario.rho),
        "b0_label": scenario.b0_label,
        "b0_amps": _pairs(scenario.b0.amps),
        "hbar": float(HBAR),
        "sweep": [float(g) for g in scenario.sweep],
        "pointer": {
            "points": int(grid.points),
            "half_width": float(grid.half_width),
            "sigma": float(params.sigma),
        },
        "pointers_used": pointers,
        "kappa_by_gt": kappa_by_gt,
        "postselect_floor": params.postselect_floor,
        "product": scenario.product,
        "sampling": None if scenario.sampling is None else asdict(scenario.sampling),
        "threads": threads,
        "format": args.format,
    }


def cmd_run(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"--threads: must be >= 1, got {args.threads}")
    scenario = resolve_config(load_config(args.config), args.seed)
    out_dir = _resolve_out_dir(args)
    threads = args.threads or os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(_run_one_gt, scenario, gt) for gt in scenario.sweep]
        results = [f.result() for f in futures]
    rows = [row for chunk, _ in results for row in chunk]
    recons = [recon for _, recon in results]

    if args.format == "structured":
        estimates_path = out_dir / "estimates.yaml"
        estimates_path.write_text(dump_yaml({"rows": rows}))
    else:
        estimates_path = out_dir / "estimates.csv"
        _write_csv(estimates_path, CSV_COLUMNS, rows)
    recon_path = None
    if scenario.protocol != "product":
        recon_path = out_dir / "reconstruction.yaml"
        recon_path.write_text(
            dump_yaml({"protocol": scenario.protocol, "reconstructions": recons})
        )
    manifest_path = out_dir / "manifest.yaml"
    manifest_path.write_text(dump_yaml(_manifest(scenario, args, threads)))

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
        return load_yaml(structured.read_text())["rows"]
    path = results_dir / "estimates.csv"
    if not path.exists():
        raise ConfigError(f"no estimates.csv or estimates.yaml in {results_dir}")
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        for key in CSV_COLUMNS[3:]:
            row[key] = float(row[key]) if row[key] not in (None, "") else None
    return rows


def _coupling_estimates(manifest: dict, fits: list) -> tuple[list[float], np.ndarray]:
    """The gts, largest first, and one array of estimates per gt, indexed by
    the route's setting labels: the rows a route's reconstruction is built
    from.  fits holds (gts, setting groups, values) per fitted group.
    ConfigError naming a setting outside the route's labels, or when the
    rows are not one per setting and coupling."""
    protocol, dim = manifest["protocol"], manifest["dim"]
    names = SETTING_NAMES[protocol]
    shape = (dim,) * len(names)
    flat_of = {
        ",".join(f"{name}={label}" for name, label in zip(names, idx)): k
        for k, idx in enumerate(np.ndindex(shape))
    }
    gts = sorted({gt for group_gts, _, _ in fits for gt in group_gts}, reverse=True)
    position = {gt: i for i, gt in enumerate(gts)}
    stack = np.zeros((len(gts), len(flat_of)), dtype=complex)
    filled = np.zeros(stack.shape, dtype=bool)
    rows = 0
    for group_gts, members, values in fits:
        columns = []
        for group in members:
            setting = group[0]["setting"]
            if setting not in flat_of:
                raise ConfigError(
                    f"estimates: setting {setting!r} is not a {protocol} setting at dim {dim}")
            columns.append(flat_of[setting])
        cells = np.ix_([position[gt] for gt in group_gts], columns)
        stack[cells] = values
        filled[cells] = True
        rows += values.size
    if rows != stack.size or not filled.all():
        raise ConfigError(
            f"estimates: the reconstruction needs one row per setting and coupling,"
            f" {len(flat_of)} settings x {len(gts)} couplings; got {rows} rows")
    return gts, stack.reshape(len(gts), *shape)


def _report_reconstruction(manifest: dict, fits: list) -> dict | None:
    """Each coupling's reconstruction rebuilt from its estimate rows by the
    route's own rule, extrapolated to zero coupling and scored against rho."""
    protocol = manifest["protocol"]
    if protocol not in SETTING_NAMES:
        return None
    gts, estimates = _coupling_estimates(manifest, fits)
    if len(gts) < 2:
        return None
    true_rho = _from_pairs(manifest["state_density"])
    if protocol == "density":
        mats = [hermitize_normalize(manifest["dim"] * raw) for raw in estimates]
        extrap = hermitize_normalize(extrapolate_sweep(gts, mats))
        return {
            "kind": "density",
            "extrapolated_matrix": _matrix_pairs(extrap),
            "trace_distance": float(trace_distance(extrap, true_rho)),
        }
    if protocol == "dirac":
        extrap_entries = extrapolate_sweep(gts, estimates)
        implied = hermitize_normalize(invert_dirac(extrap_entries))
        return {
            "kind": "dirac",
            "extrapolated_entries": _matrix_pairs(extrap_entries),
            "implied_matrix": _matrix_pairs(implied),
            "trace_distance": float(trace_distance(implied, true_rho)),
        }
    vecs = [normalize_weak_values(raw) for raw in estimates]
    extrap = extrapolate_sweep(gts, vecs)
    extrap = extrap / np.linalg.norm(extrap)
    outer = np.outer(extrap, extrap.conj())
    return {
        "kind": "wavefunction",
        "extrapolated_normalized": _pairs(extrap),
        "trace_distance": float(trace_distance(outer, true_rho)),
    }


def cmd_report(args) -> int:
    results_dir = Path(args.results_dir)
    manifest_path = results_dir / "manifest.yaml"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.yaml in {results_dir}")
    manifest = load_yaml(manifest_path.read_text())
    if len(manifest["sweep"]) < 2:
        raise ConfigError("report needs at least two sweep couplings")
    rows = _read_rows(results_dir)

    settings: dict[str, list[dict]] = {}
    for row in rows:
        settings.setdefault(row["setting"], []).append(row)
    # One fit per group of settings that share their sweep and the points
    # whose error the slope fit resolves: the same numbers as a fit per setting.
    groups: dict[tuple, list[list[dict]]] = {}
    for group in settings.values():
        group.sort(key=lambda r: r["gt"], reverse=True)
        key = tuple((r["gt"], r["abs_error"] > 1e-14) for r in group)
        groups.setdefault(key, []).append(group)
    summary = {}
    fits = []
    for key, members in groups.items():
        gts = [gt for gt, _ in key]
        if len(gts) < 2:
            raise ConfigError(
                f"estimates: setting {members[0][0]['setting']!r} has one row;"
                " report needs at least two sweep couplings")
        values = np.array([[complex(r["re"], r["im"]) for r in g] for g in members]).T
        errors = np.array([[r["abs_error"] for r in g] for g in members]).T
        fits.append((gts, members, values))
        try:
            slopes = convergence_slope(gts, errors)
        except ValueError:
            slopes = [None] * len(members)
        for group, extrapolated, slope in zip(members, extrapolate_sweep(gts, values), slopes):
            oracle = complex(group[0]["oracle_re"], group[0]["oracle_im"])
            summary[group[0]["setting"]] = {
                "setting": group[0]["setting"],
                "points": len(group),
                "slope": None if slope is None else float(slope),
                "extrapolated_re": float(extrapolated.real),
                "extrapolated_im": float(extrapolated.imag),
                "oracle_re": float(oracle.real),
                "oracle_im": float(oracle.imag),
                "extrapolated_abs_error": float(abs(extrapolated - oracle)),
            }
    summary = [summary[setting] for setting in settings]

    # reconstruction.yaml marks a run whose route reconstructs; the rows
    # already hold every number of the reconstruction.
    recon_summary = None
    if (results_dir / "reconstruction.yaml").exists():
        recon_summary = _report_reconstruction(manifest, fits)

    out_dir = Path(args.out_dir) if args.out_dir else results_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    report_csv = out_dir / "report.csv"
    _write_csv(report_csv, REPORT_COLUMNS, summary)
    report_yaml = out_dir / "report.yaml"
    report_yaml.write_text(
        dump_yaml({"settings": summary, "reconstruction": recon_summary})
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
    rows = [
        {"gt": gt, "ratio_re": ratio.real, "ratio_im": ratio.imag, "kappa": kappa}
        for gt, ratio, kappa in zip(result.gts, result.ratios, result.kappas)
    ]
    _write_csv(path, ("gt", "ratio_re", "ratio_im", "kappa"), rows)
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
    exact = _exact(scenario)
    doc = {
        "version": __version__,
        "protocol": scenario.protocol,
        "dim": scenario.dim,
        "state_label": scenario.state_label,
    }
    if scenario.protocol == "wavefunction":
        doc["normalized"] = _pairs(scenario.system.amps)
        doc["weak_values"] = _pairs(exact)
    elif scenario.protocol == "dirac":
        doc["entries"] = _matrix_pairs(exact)
    elif scenario.protocol == "density":
        doc["matrix"] = _matrix_pairs(scenario.rho)
        doc["triple_weak_averages"] = _matrix_pairs(exact)
    else:
        doc["value"] = _pairs([exact])[0]
    path = out_dir / "oracle.yaml"
    path.write_text(dump_yaml(doc))
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

    def out_dir(p):
        p.add_argument("--out-dir", default=None,
                       help=f"output directory (default ${OUT_DIR_ENV} or ./results)")

    def scenario(p):
        p.add_argument("config", help="scenario config (YAML)")
        p.add_argument("--seed", type=int, default=None,
                       help="default seed for random state / sampling")
        out_dir(p)

    p_run = sub.add_parser("run", help="execute a scenario sweep")
    scenario(p_run)
    p_run.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: available parallelism)")
    p_run.add_argument("--format", choices=("csv", "structured"), default="csv",
                       help="estimates table format")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="convergence fit over run outputs")
    p_report.add_argument("results_dir", help="directory produced by run")
    p_report.add_argument("--out-dir", default=None,
                          help="where to write report files (default: results dir)")
    p_report.set_defaults(func=cmd_report)

    p_cal = sub.add_parser("calibrate", help="check the scheme-1 readout constant")
    out_dir(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_oracle = sub.add_parser("oracle", help="closed-form values, no simulation")
    scenario(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ProtocolAbort, WrapAroundError) as exc:
        print(f"protocol abort: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
