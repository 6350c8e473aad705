"""The benchmark's workloads and the checks every pass makes.

Each workload builds its states from the workload seed with
`random_density(n, seed, rank=2)` and drives weakmeas only through entry points
users call: `weakmeas.cli.main(["run" / "report", ...])` in-process, or the
`weakmeas.protocols` routes.  Those are looked up on their module at call
time, so a traced pass goes through the recorder's wrappers.

A route returns every output number in a fixed order (for the comparison
with the reference and with earlier passes) and the misses found when its
estimates are compared with `weakmeas.oracle`:

* every estimate within 1e-2 (gt / gt_min)^2 of the oracle: the acceptance
  suite's 1e-2 at the smallest coupling, widened by the O((gt)^2) bias law at
  the larger ones;
* every zero-coupling extrapolation within 1e-4 of the oracle, and its
  reconstruction within trace distance 1e-4 of rho (acceptance criterion 4);
* a density reconstruction at the smallest coupling within trace distance
  1e-2 of rho (acceptance criterion 4);
* a shot-sampled estimate within 5 standard errors of the oracle in each
  quadrature.  Its extrapolation is dominated by shot noise, which grows as
  1/gt, and is not checked.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import weakmeas.cli
import weakmeas.protocols
from weakmeas.hilbert import fourier_ket, random_density, trace_distance
from weakmeas.oracle import density_from_triple_exact, dirac_exact

RANK = 2
SMALLEST_GT_TOL = 1e-2
EXTRAPOLATED_TOL = 1e-4
SHOT_SIGMAS = 5.0
PRODUCT_GTS = (0.04, 0.02)
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class RouteResult:
    values: np.ndarray
    estimates: int
    max_abs_error: float
    extrap_trace_distance: float | None
    out_bytes: int
    misses: list[str]


class RouteAbort(RuntimeError):
    """The CLI returned a non-zero exit code."""


class Checker:
    """Compares outputs with oracle values and keeps the misses."""

    def __init__(self) -> None:
        self.values: list[float] = []
        self.misses: list[str] = []
        self.estimates = 0
        self.max_abs_error = 0.0

    def output(self, *numbers) -> None:
        for z in numbers:
            z = complex(z)
            self.values += [z.real, z.imag]

    def bound(self, label: str, value: float, tol: float) -> None:
        if not value <= tol:  # also catches NaN
            self.misses.append(f"{label}: {value:.3e} > {tol:.1e}")

    def estimate(self, label: str, value: complex, oracle: complex, gt: float,
                 gt_min: float) -> None:
        self.output(value)
        err = abs(value - oracle)
        self.estimates += 1
        self.max_abs_error = max(self.max_abs_error, float(err))
        self.bound(f"{label} |error|", err, SMALLEST_GT_TOL * (gt / gt_min) ** 2)

    def sampled(self, label: str, value: complex, oracle: complex, stderr_re: float,
                stderr_im: float) -> None:
        self.output(value)
        self.estimates += 1
        self.max_abs_error = max(self.max_abs_error, float(abs(value - oracle)))
        self.bound(f"{label} |re error|", abs(value.real - oracle.real), SHOT_SIGMAS * stderr_re)
        self.bound(f"{label} |im error|", abs(value.imag - oracle.imag), SHOT_SIGMAS * stderr_im)

    def extrapolated(self, label: str, value: complex, oracle: complex) -> None:
        self.output(value)
        self.bound(f"{label} extrapolated |error|", abs(value - oracle), EXTRAPOLATED_TOL)

    def result(self, extrap_trace_distance: float | None, out_bytes: int = 0) -> RouteResult:
        return RouteResult(
            np.array(self.values), self.estimates, self.max_abs_error,
            extrap_trace_distance, out_bytes, self.misses,
        )


def _hermitize_normalize(matrix: np.ndarray) -> np.ndarray:
    herm = (matrix + matrix.conj().T) / 2
    return herm / np.real(np.trace(herm))


def _extrapolate(gts, matrices) -> np.ndarray:
    """Entrywise zero-coupling limit through the public extrapolate_sweep."""
    stack = np.array(matrices)
    out = np.empty(stack.shape[1:], dtype=complex)
    for idx in np.ndindex(out.shape):
        out[idx] = weakmeas.protocols.extrapolate_sweep(gts, stack[(slice(None),) + idx])
    return out


def _setting(text: str) -> tuple[int, ...]:
    """'a1=0,a2=3' -> (0, 3)."""
    return tuple(int(part.split("=")[1]) for part in text.split(","))


def _floats(row: dict, *keys: str) -> list[float]:
    return [float(row[k]) for k in keys]


def scenario_config(seed: int, dim: int, protocol: str, **extra) -> dict:
    return {
        "dim": dim,
        "protocol": protocol,
        "scheme": "substitution",
        "state": {"random": {"seed": seed, "rank": RANK}},
        **extra,
    }


class CliRoute:
    """`weakmeas run` then `weakmeas report` on one scenario config."""

    def __init__(self, name: str, config: dict, out_dir: Path, threads: int | None = None) -> None:
        self.name = name
        self.threads = [] if threads is None else ["--threads", str(threads)]
        out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = out_dir / f"{name}.yaml"
        self.config_path.write_text(yaml.safe_dump(config, sort_keys=False))
        self.results = out_dir / name
        scenario = weakmeas.cli.resolve_config(weakmeas.cli.load_config(str(self.config_path)))
        rho = random_density(scenario.dim, config["state"]["random"]["seed"], RANK)
        if not np.array_equal(scenario.system.matrix, rho.matrix):
            raise RuntimeError(f"{name}: config state differs from random_density")
        self.rho = rho.matrix
        self.density = scenario.protocol == "density"
        self.sampled = scenario.sampling is not None
        if self.density:
            self.oracle = density_from_triple_exact(rho, fourier_ket(scenario.dim, 0))
        else:
            self.oracle = dirac_exact(rho).entries
        self.gt_min = min(scenario.sweep)

    def __call__(self) -> RouteResult:
        shutil.rmtree(self.results, ignore_errors=True)
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = weakmeas.cli.main(
                ["run", str(self.config_path), "--out-dir", str(self.results), *self.threads]
            )
            if code == 0:
                code = weakmeas.cli.main(["report", str(self.results)])
        if code != 0:
            last = log.getvalue().strip().splitlines()[-1:] or [""]
            raise RouteAbort(f"exit code {code}: {last[0]}")
        return self._check()

    def _check(self) -> RouteResult:
        chk = Checker()
        with (self.results / "estimates.csv").open(newline="") as handle:
            for row in csv.DictReader(handle):
                idx = _setting(row["setting"])
                gt, re, im = _floats(row, "gt", "re", "im")
                label = f"gt={gt:g} {row['setting']}"
                if self.sampled:
                    chk.sampled(label, complex(re, im), self.oracle[idx],
                                *_floats(row, "stderr_re", "stderr_im"))
                else:
                    chk.estimate(label, complex(re, im), self.oracle[idx], gt, self.gt_min)
        with (self.results / "report.csv").open(newline="") as handle:
            for row in csv.DictReader(handle):
                value = complex(*_floats(row, "extrapolated_re", "extrapolated_im"))
                if self.sampled:
                    chk.output(value)
                else:
                    chk.extrapolated(row["setting"], value, self.oracle[_setting(row["setting"])])
        report = yaml.load((self.results / "report.yaml").read_text(), Loader=YAML_LOADER)
        distance = float(report["reconstruction"]["trace_distance"])
        chk.output(distance)
        if not self.sampled:
            chk.bound("extrapolated trace distance", distance, EXTRAPOLATED_TOL)
        if self.density:
            recon = yaml.load((self.results / "reconstruction.yaml").read_text(), Loader=YAML_LOADER)
            smallest = min(recon["reconstructions"], key=lambda r: r["gt"])
            pairs = np.array(smallest["matrix"], dtype=float)
            matrix = pairs[..., 0] + 1j * pairs[..., 1]
            chk.bound(f"gt={self.gt_min:g} trace distance",
                      trace_distance(matrix, self.rho), SMALLEST_GT_TOL)
        out_bytes = sum(p.stat().st_size for p in self.results.iterdir())
        return chk.result(None if self.sampled else distance, out_bytes)


class Scheme1Density:
    """direct_density(scheme="scheme1"): three pointers on a 64^3 grid."""

    def __init__(self, rho) -> None:
        self.rho = rho
        self.oracle = density_from_triple_exact(rho, fourier_ket(rho.dim, 0))

    def __call__(self) -> RouteResult:
        protocols = weakmeas.protocols
        outs = [
            protocols.direct_density(self.rho, params=protocols.ProtocolParams(gt=gt, scheme="scheme1"))
            for gt in PRODUCT_GTS
        ]
        gt_min = min(PRODUCT_GTS)
        chk = Checker()
        for gt, out in zip(PRODUCT_GTS, outs):
            for idx in np.ndindex(out.raw.shape):
                chk.estimate(f"gt={gt:g} a1,a2={idx}", out.raw[idx], self.oracle[idx], gt, gt_min)
        smallest = outs[PRODUCT_GTS.index(gt_min)].matrix
        chk.bound(f"gt={gt_min:g} trace distance",
                  trace_distance(smallest, self.rho.matrix), SMALLEST_GT_TOL)
        raw = _extrapolate(PRODUCT_GTS, [out.raw for out in outs])
        for idx in np.ndindex(raw.shape):
            chk.extrapolated(f"a1,a2={idx}", raw[idx], self.oracle[idx])
        matrix = _hermitize_normalize(_extrapolate(PRODUCT_GTS, [out.matrix for out in outs]))
        distance = trace_distance(matrix, self.rho.matrix)
        chk.output(distance)
        chk.bound("extrapolated trace distance", distance, EXTRAPOLATED_TOL)
        return chk.result(distance)


class Scheme2Dirac:
    """direct_dirac(scheme="scheme2"): conditional shear plus pointer_moments."""

    def __init__(self, rho) -> None:
        self.rho = rho
        self.oracle = dirac_exact(rho).entries

    def __call__(self) -> RouteResult:
        protocols = weakmeas.protocols
        outs = [
            protocols.direct_dirac(self.rho, params=protocols.ProtocolParams(gt=gt, scheme="scheme2"))
            for gt in PRODUCT_GTS
        ]
        entries = [out.distribution.entries for out in outs]
        chk = Checker()
        for gt, est in zip(PRODUCT_GTS, entries):
            for idx in np.ndindex(est.shape):
                chk.estimate(f"gt={gt:g} a,b={idx}", est[idx], self.oracle[idx], gt, min(PRODUCT_GTS))
        extrap = _extrapolate(PRODUCT_GTS, entries)
        for idx in np.ndindex(extrap.shape):
            chk.extrapolated(f"a,b={idx}", extrap[idx], self.oracle[idx])
        implied = _hermitize_normalize(protocols.invert_dirac(extrap))
        distance = trace_distance(implied, self.rho.matrix)
        chk.output(distance)
        chk.bound("extrapolated trace distance", distance, EXTRAPOLATED_TOL)
        return chk.result(distance)


class Workload:
    """Inputs built from one seed, and the routes one pass runs in order."""

    name = ""

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.routes: dict = {}


class DensitySweep(Workload):
    name = "density-sweep"

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.routes["density"] = CliRoute("density", scenario_config(seed, 4, "density"), out_dir)


class ProductSchemes(Workload):
    name = "product-schemes"

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        rho = random_density(2, seed, RANK)
        self.routes["scheme1-density"] = Scheme1Density(rho)
        self.routes["scheme2-dirac"] = Scheme2Dirac(rho)


class DiracScan(Workload):
    name = "dirac-scan"

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        sampling = {"shots": 100_000, "seed": seed}
        self.routes["dirac16"] = CliRoute(
            "dirac16", scenario_config(seed, 16, "dirac"), out_dir, threads=1
        )
        self.routes["dirac4-sampled"] = CliRoute(
            "dirac4-sampled", scenario_config(seed, 4, "dirac", sampling=sampling), out_dir,
            threads=1,
        )


WORKLOADS = {w.name: w for w in (DensitySweep, ProductSchemes, DiracScan)}
