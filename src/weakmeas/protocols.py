"""Direct-measurement procedures assembled from weak pointer couplings.

Four front-line protocols:

* direct_wavefunction: weakly measure each standard projector pi_a, post-
  select the uniform Fourier ket b0; the weak values are proportional to the
  amplitudes <a|psi> up to one global constant.
* direct_dirac: estimate S(a, b) = Tr[pi_b pi_a rho] for every label pair,
  either by one weak coupling plus a strong Fourier readout (substitution)
  or by the two-pointer product schemes.
* direct_density: estimate <Pi_{a1 a2}> = <a1|rho|a2>/N from the triple
  pi_a2 pi_b0 pi_a1, scanning a1 (weak) and a2 (strong outcome) with b0
  fixed; multiply by N, Hermitize, trace-normalize.
* weak product readout: Tr[EF rho] without post-selection via Scheme 1
  (independent couplings, correlated annihilation-moment readout) or
  Scheme 2 (conditional coupling).

Scheme 1 readout constant: the product moment obeys
<a1 a2>_f = (g1 t/(2 sigma1)) (g2 t/(2 sigma2)) Tr[EF rho] + O((gt)^2),
so the calibration constant is kappa = (2 sigma1/(g1 t)) (2 sigma2/(g2 t));
calibrate_scheme1 re-derives this numerically on an eigenstate case where
the relation is exact at any coupling.

Every route but Scheme 2 couples a chain of projectors, each to its own
pointer's momentum, and reads it with evolution.chain_readout: N x N algebra
over the chain's eigenvalue patterns and a small table of displaced-pointer
moments per pointer, with no system-pointer tensor.  Scheme 2 reads the same
patterns of its pair (F, E) with evolution.conditional_readout, whose table
holds the second pointer's mean displacement at each first-pointer position
q1.  A route passes the weak settings it scans (a, a1, (a, b) or (a1, a2))
as alternatives at their chain positions, so it costs one readout call per
coupling, with about 2^P pattern kets per setting for P pointers.  Each
route keeps the grid of its pointer count (ROUTE_POINTERS), so the numbers
are those of the full tensor on that grid to rounding.

Scheme 2 conventions, fixed numerically against closed-form values on
random states: with U_D = exp(-i g2 E K2 Q1 t) exp(-i g_D F D1 t),

* D = K: Re Tr[EF rho] = <Q2>_f / (g_K g2 t^2), and <K2>_f = 0;
* D = Q: Im Tr[EF rho] = <Q2>_f / (2 g_Q g2 t^2 sigma1^2).

In both variants the second pointer's *position* carries the signal and
sigma1 is the first pointer's width.  Correlating a Scheme 2 readout with a
subsequent strong outcome c is biased: it converges to the symmetrized
(<c|EF rho|c> + <c|E rho F|c>)/2 rather than <c|EF rho|c>, so the density
protocol refuses scheme2.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .evolution import (
    PostselectionError,
    ProtocolAbort,
    chain_readout,
    conditional_readout,
    weak_value_from_moments,
)
from .hilbert import (
    DensityMatrix,
    DiracDistribution,
    OperatorMatrix,
    StateVector,
    fourier_basis,
    fourier_ket,
    projector,
    standard_basis,
    standard_ket,
    unbiasedness_defect,
)
from .pointer import PointerGrid

DEFAULT_SWEEP = (0.08, 0.04, 0.02, 0.01)
DEFAULT_GRID_POINTS = {1: 512, 2: 256, 3: 64}
SCHEMES = ("substitution", "scheme1", "scheme2")
# The labels of a route's settings, one per axis of its estimate array.
SETTING_NAMES = {"wavefunction": ("a",), "dirac": ("a", "b"), "density": ("a1", "a2")}
# Pointers each (protocol, scheme) route couples; its grid is
# ProtocolParams.grid of that count, Scheme 2's two pointers included,
# though it reads them from a q1-indexed table.  Density via scheme2 is
# refused (see direct_density), so it has no entry.
ROUTE_POINTERS = {
    ("wavefunction", "substitution"): 1,
    ("dirac", "substitution"): 1,
    ("dirac", "scheme1"): 2,
    ("dirac", "scheme2"): 2,
    ("density", "substitution"): 2,
    ("density", "scheme1"): 3,
    ("product", "substitution"): 1,
    ("product", "scheme1"): 2,
    ("product", "scheme2"): 2,
}


@dataclass(frozen=True)
class ProtocolParams:
    """Coupling strengths and pointer discretization for one protocol run.

    gt is the first (or only) coupling product g*t; gt2/gt3 default to gt.
    Grid size defaults depend on how many pointers the route couples (512
    for one, 256 for two, 64 for three) and the half-width defaults to 16
    sigma.  The routes read their pointers from tables of a few displaced
    pointers on this grid (chain_readout; for Scheme 2, conditional_readout,
    one displaced second pointer per first-pointer cell and value of E), so
    the size no longer bounds memory; it is kept per pointer count so that
    every route's numbers are those of a full system-pointer tensor on the
    same grid.
    """

    gt: float = 0.02
    gt2: float | None = None
    gt3: float | None = None
    scheme: str = "substitution"
    sigma: float = 1.0
    grid_points: int | None = None
    half_width: float | None = None
    postselect_floor: float = 1e-6

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.gt <= 0:
            raise ValueError(f"gt must be positive, got {self.gt}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        for name in ("gt2", "gt3", "grid_points", "half_width"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    def couplings(self, n: int) -> tuple[float, ...]:
        extras = (self.gt2, self.gt3)
        out = [self.gt]
        for i in range(n - 1):
            out.append(self.gt if extras[i] is None else extras[i])
        return tuple(out[:n])

    def points(self, pointers: int) -> int:
        """Grid size of a route that couples this many pointers."""
        if pointers not in DEFAULT_GRID_POINTS:
            raise ValueError(f"supported pointer counts are 1..3, got {pointers}")
        return DEFAULT_GRID_POINTS[pointers] if self.grid_points is None else self.grid_points

    def grid(self, pointers: int) -> PointerGrid:
        half_width = 16.0 * self.sigma if self.half_width is None else self.half_width
        return PointerGrid(self.points(pointers), half_width)


@dataclass(frozen=True)
class ProtocolEstimate:
    """One estimated weak quantity plus the run metadata behind it."""

    value: complex
    setting: tuple[tuple[str, int], ...]
    scheme: str
    gt_products: tuple[float, ...]
    postselect_prob: float | None = None
    stderr: float | None = None


@dataclass(frozen=True)
class WavefunctionReadout:
    weak_values: np.ndarray
    normalized: np.ndarray
    postselect_probs: np.ndarray
    estimates: tuple[ProtocolEstimate, ...]


@dataclass(frozen=True)
class DiracReadout:
    distribution: DiracDistribution
    estimates: tuple[ProtocolEstimate, ...]


@dataclass(frozen=True)
class DensityReadout:
    """raw holds the <Pi_{a1 a2}> estimates; matrix is N*raw after
    Hermitization and trace normalization.  Positivity is never repaired,
    only reported through diagnostics."""

    raw: np.ndarray
    matrix: np.ndarray
    diagnostics: dict
    estimates: tuple[ProtocolEstimate, ...]


@dataclass(frozen=True)
class CalibrationResult:
    gts: tuple[float, ...]
    ratios: tuple[complex, ...]
    extrapolated: complex
    kappas: tuple[float, ...]


def _warn_if_strong(gt_product: float, sigma: float) -> None:
    if gt_product / sigma**2 > 0.05:
        warnings.warn(
            f"coupling product {gt_product:g} is outside the weak-product regime;"
            " expect visible O((gt)^2) bias",
            RuntimeWarning,
            stacklevel=3,
        )


def _require_uniform_b0(b0: StateVector) -> None:
    if np.max(np.abs(b0.amps - np.mean(b0.amps))) > 1e-10:
        raise ValueError(
            "b0 must have constant overlap with the standard basis"
            " (the uniform ket up to a global phase)"
        )


def _require_unbiased_b0(b0: StateVector) -> None:
    if unbiasedness_defect(b0) > 1e-10:
        raise ValueError("b0 must be unbiased with respect to the standard basis")


def _kappa(gts: Sequence[float], sigma: float) -> float:
    """Product readout constant prod_j 2 sigma/(g_j t)."""
    kappa = 1.0
    for gt in gts:
        kappa *= 2 * sigma / gt
    return kappa


class _Projectors(Sequence):
    """projector(kets[i]) for each ket, built when read: the alternatives of
    a scanned chain position, which chain_readout reads in blocks, so a scan
    over N settings never holds N dense N x N projectors of its own."""

    def __init__(self, kets: Sequence[StateVector]) -> None:
        self._kets = kets

    def __len__(self) -> int:
        return len(self._kets)

    def __getitem__(self, index: int) -> OperatorMatrix:
        return projector(self._kets[index])


def _estimates(values: np.ndarray, names: tuple[str, ...], scheme: str,
               gts: tuple[float, ...], probs: np.ndarray | None = None):
    """One ProtocolEstimate per entry of values, in index order, labelled by
    zip(names, index)."""
    return tuple(
        ProtocolEstimate(
            value=complex(values[idx]),
            setting=tuple(zip(names, idx)),
            scheme=scheme,
            gt_products=gts,
            postselect_prob=None if probs is None else float(probs[idx]),
        )
        for idx in np.ndindex(values.shape)
    )


def as_system(state):
    """Normalize pure/mixed input to (typed system, density matrix array)."""
    if isinstance(state, StateVector):
        return state, np.outer(state.amps, state.amps.conj())
    if isinstance(state, DensityMatrix):
        return state, state.matrix
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        ket = StateVector(arr)
        return ket, np.outer(ket.amps, ket.amps.conj())
    rho = DensityMatrix(arr)
    return rho, rho.matrix


def direct_wavefunction(
    psi: StateVector, b0: StateVector, params: ProtocolParams | None = None
) -> WavefunctionReadout:
    """Scan a, weakly measure pi_a, post-select b0, read the weak value.

    The returned weak values are proportional to the amplitudes of psi; the
    normalized field is normalize_weak_values of them, since the overall
    constant is not physical.
    """
    params = params or ProtocolParams()
    _require_unbiased_b0(b0)
    gts = params.couplings(1)
    grid = params.grid(ROUTE_POINTERS["wavefunction", "substitution"])
    probs, pq, pk = (x[:, 0] for x in chain_readout(
        psi, [_Projectors(standard_basis(psi.dim))], gts, grid, params.sigma, b0,
        {0: "Q"}, {0: "K"}))
    low = np.flatnonzero(probs < params.postselect_floor)
    if low.size:
        raise PostselectionError(
            f"post-selection probability {probs[low[0]]:.3e} below floor"
            f" {params.postselect_floor:g} at setting a={low[0]}"
        )
    raw = weak_value_from_moments((pq / probs).real, (pk / probs).real, gts[0], 1.0,
                                  params.sigma)
    estimates = _estimates(raw, SETTING_NAMES["wavefunction"], "weak_strong", gts, probs)
    return WavefunctionReadout(raw, normalize_weak_values(raw), probs, estimates)


def normalize_weak_values(raw: np.ndarray) -> np.ndarray:
    """The scan's weak values divided by their norm, rotated so that the
    first one with magnitude above 1e-6 is positive real; ProtocolAbort when
    the norm is below 1e-12."""
    norm = np.linalg.norm(raw)
    if norm < 1e-12:
        raise ProtocolAbort("weak-value readout vanished for every a")
    normalized = raw / norm
    for amp in normalized:
        if abs(amp) > 1e-6:
            return normalized * np.exp(-1j * np.angle(amp))
    return normalized


def mixed_state_response(rho, b0: StateVector) -> np.ndarray:
    """The N weak values <b0|a><a|rho|b0>/<b0|rho|b0> the pure-state scan
    would report for rho.

    Depends on rho only through the single column rho|b0>, so 2N real
    numbers: identical for rho = I/N and rho = |b0><b0|, which is why the
    scan cannot identify a mixed state.
    """
    _, r = as_system(rho)
    if b0.dim != r.shape[0]:
        raise ValueError("b0 dimension mismatch")
    column = r @ b0.amps
    denom = float(np.real(np.vdot(b0.amps, column)))
    if denom < 1e-12:
        raise ValueError(f"post-selection probability {denom:.3e} vanishes")
    return b0.amps.conj() * column / denom


def scheme1_weak_product(system, e_op, f_op,
                         params: ProtocolParams | None = None) -> complex | np.ndarray:
    """Tr[EF rho] from independent weak couplings of F then E.

    Applies exp(-i g2 E K2 t) exp(-i g1 F K1 t) and reads
    kappa * <a1 a2>_f with kappa = (2 sigma/(g1 t)) (2 sigma/(g2 t)).
    Complex output is expected whenever EF is not Hermitian.  e_op and f_op
    may each be a sequence of alternatives, read in one chain_readout call:
    the result then has one axis per such operand, F's first.
    """
    params = params or ProtocolParams()
    system, _ = as_system(system)
    gts = params.couplings(2)
    _warn_if_strong(gts[0] * gts[1], params.sigma)
    _, moment = chain_readout(
        system, [f_op, e_op], gts, params.grid(ROUTE_POINTERS["product", "scheme1"]),
        params.sigma, None, {0: "a", 1: "a"},
    )
    return _kappa(gts, params.sigma) * moment[..., 0]


def scheme2_weak_product(system, e_op, f_op,
                         params: ProtocolParams | None = None) -> complex | np.ndarray:
    """Tr[EF rho] from a conditional coupling, one variant per quadrature.

    The K variant couples F to K1 and reads Re from <Q2>/(g_K g2 t^2); the Q
    variant couples F to Q1 and reads Im from <Q2>/(2 g_Q g2 t^2 sigma1^2).
    See the module docstring for how the D = Q convention was pinned down.
    Both come from one evolution.conditional_readout call on a table of
    pointer-2 displacements indexed by q1.  e_op and f_op may each be a
    sequence of alternatives: the result then has one axis per such
    operand, F's first.
    """
    params = params or ProtocolParams()
    system, _ = as_system(system)
    gt1, gt2 = params.couplings(2)
    sigma = params.sigma
    _warn_if_strong(gt1 * gt2, sigma)
    q_k, q_q = conditional_readout(system, f_op, e_op, gt1, gt2,
                                   params.grid(ROUTE_POINTERS["product", "scheme2"]), sigma)
    value = q_k / (gt1 * gt2) + 1j * (q_q / (2 * gt1 * gt2 * sigma**2))
    return complex(value) if value.ndim == 0 else value


def weak_strong_product(
    system,
    weak_ops: OperatorMatrix | Sequence[OperatorMatrix],
    basis: Sequence[StateVector],
    outcome_values: Sequence[float],
    params: ProtocolParams | None = None,
) -> complex:
    """sum_c c P(c) <G^w>^c = Tr[C G rho], trading post-selection for a
    strong readout correlated with the weak signal.

    weak_ops may be a single Hermitian observable (one pointer, weak-value
    readout per outcome) or a chain applied first-to-last, each factor on
    its own pointer (product readout per outcome); a chain (F, E) measures
    the operator product EF.
    """
    params = params or ProtocolParams()
    system, _ = as_system(system)
    if isinstance(weak_ops, OperatorMatrix):
        chain = [weak_ops]
    else:
        chain = list(weak_ops)
    if not 1 <= len(chain) <= 3:
        raise ValueError(f"need 1 to 3 weak factors, got {len(chain)}")
    values = np.asarray(outcome_values, dtype=float)
    if values.size != len(basis):
        raise ValueError("need one outcome value per basis ket")
    n_ptr = len(chain)
    gts = params.couplings(n_ptr)
    operators = ({0: "Q"}, {0: "K"}) if n_ptr == 1 else (dict.fromkeys(range(n_ptr), "a"),)
    probs, *moments = chain_readout(system, chain, gts, params.grid(n_ptr), params.sigma,
                                    list(basis), *operators)
    if n_ptr == 1:
        pq, pk = moments
        signals = weak_value_from_moments(pq.real, pk.real, gts[0], 1.0, params.sigma)
    else:
        signals = _kappa(gts, params.sigma) * moments[0]
    # signals already carry the factor P(c)
    total = 0.0 + 0.0j
    for i, prob in enumerate(probs):
        if values[i] == 0.0 or prob < 1e-12:
            continue
        total += values[i] * signals[i]
    return complex(total)


def direct_dirac(rho, params: ProtocolParams | None = None) -> DiracReadout:
    """Estimate every S(a, b) = Tr[pi_b pi_a rho].

    Default route: one weak pi_a coupling per a followed by a strong
    Fourier-basis measurement; the (a, b) entry is P(b) times the weak value
    conditioned on outcome b.  scheme1/scheme2 estimate each entry as a
    two-pointer product instead, with E = pi_b and F = pi_a as alternatives.
    Every route reads all N^2 settings in one readout call (chain_readout,
    or conditional_readout for scheme2).
    """
    params = params or ProtocolParams()
    system, r = as_system(rho)
    n = r.shape[0]
    f_basis = fourier_basis(n)
    pi_a = _Projectors(standard_basis(n))
    if params.scheme == "substitution":
        gts = params.couplings(1)
        grid = params.grid(ROUTE_POINTERS["dirac", "substitution"])
        probs, pq, pk = chain_readout(system, [pi_a], gts, grid, params.sigma, f_basis,
                                      {0: "Q"}, {0: "K"})
        values = weak_value_from_moments(pq.real, pk.real, gts[0], 1.0, params.sigma)
        entries = np.where(probs >= 1e-12, values, 0.0)
        estimates = _estimates(entries, SETTING_NAMES["dirac"], "weak_strong", gts, probs)
    else:
        gts = params.couplings(2)
        product = scheme1_weak_product if params.scheme == "scheme1" else scheme2_weak_product
        entries = product(system, _Projectors(f_basis), pi_a, params)
        estimates = _estimates(entries, SETTING_NAMES["dirac"], params.scheme, gts)
    atol = 0.05 * max(1.0, (max(gts) / 0.02) ** 2)
    return DiracReadout(DiracDistribution(entries, atol=atol), estimates)


def direct_density(rho, b0: StateVector | None = None,
                   params: ProtocolParams | None = None) -> DensityReadout:
    """Reconstruct rho entrywise from triple-projector weak products.

    For each a1 the chain (pi_a1, pi_b0) is measured weakly; a strong
    standard-basis readout supplies a2, and P(a2) times the conditioned
    product signal estimates <Pi_{a1 a2}> = <a1|rho|a2>/N.  scheme1 instead
    couples all three projectors to their own pointers and reads the triple
    moment without any strong measurement.  Either route reads every setting
    from eigenvalue tables in one chain_readout call.  scheme2 is refused:
    conditioning its readout on a2 mixes in <a2|pi_b0 rho pi_a1|a2> (see
    module docstring).
    """
    params = params or ProtocolParams()
    system, r = as_system(rho)
    n = r.shape[0]
    if b0 is None:
        b0 = fourier_ket(n, 0)
    _require_uniform_b0(b0)
    if params.scheme == "scheme2":
        raise ValueError(
            "density reconstruction via scheme2 is biased: the conditioned"
            " readout converges to (<c|EF rho|c> + <c|E rho F|c>)/2;"
            " use scheme='substitution' or scheme='scheme1'"
        )
    e_op = projector(b0)
    s_basis = standard_basis(n)
    pi_a = _Projectors(s_basis)
    if params.scheme == "substitution":
        gts = params.couplings(2)
        grid = params.grid(ROUTE_POINTERS["density", "substitution"])
        probs, moments = chain_readout(system, [pi_a, e_op], gts, grid, params.sigma,
                                       s_basis, {0: "a", 1: "a"})
        raw = np.where(probs >= 1e-12, _kappa(gts, params.sigma) * moments, 0.0)
        estimates = _estimates(raw, SETTING_NAMES["density"], "weak_strong", gts, probs)
    else:
        gts = params.couplings(3)
        grid = params.grid(ROUTE_POINTERS["density", "scheme1"])
        _, moments = chain_readout(system, [pi_a, e_op, pi_a], gts, grid, params.sigma,
                                   None, {0: "a", 1: "a", 2: "a"})
        raw = _kappa(gts, params.sigma) * moments[..., 0]
        estimates = _estimates(raw, SETTING_NAMES["density"], "scheme1", gts)
    scaled = n * raw
    matrix = hermitize_normalize(scaled)
    diagnostics = {
        "trace_raw": complex(np.trace(scaled)),
        "hermiticity_defect": float(np.max(np.abs(scaled - scaled.conj().T))),
        "min_eigenvalue": float(np.linalg.eigvalsh(matrix)[0]),
    }
    return DensityReadout(raw, matrix, diagnostics, estimates)


def hermitize_normalize(matrix: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2 divided by its real trace; ProtocolAbort when that trace
    is below 1e-6 in magnitude."""
    hermitized = (matrix + matrix.conj().T) / 2
    trace = float(np.real(np.trace(hermitized)))
    if abs(trace) < 1e-6:
        raise ProtocolAbort(f"reconstructed trace {trace:.3e} too small to normalize")
    return hermitized / trace


def invert_dirac(entries: np.ndarray) -> np.ndarray:
    """rho_{a1 a2} = sum_b S(a1, b) exp(i 2 pi b (a1 - a2)/N), entrywise."""
    s = np.asarray(entries, dtype=complex)
    n = s.shape[0]
    idx = np.arange(n)
    diff = idx[:, None] - idx[None, :]
    phases = np.exp(2j * np.pi * np.einsum("b,ij->bij", idx, diff) / n)
    return np.einsum("ib,bij->ij", s, phases)


def dirac_to_density(dist: DiracDistribution) -> DensityMatrix:
    """Exact discrete-Fourier inversion of the Dirac distribution.

    Intended for closed-form input: the result must satisfy the density
    invariants, which finite-coupling estimates generally will not; invert
    those with invert_dirac and inspect the raw matrix instead.
    """
    return DensityMatrix(invert_dirac(dist.entries))


def calibrate_scheme1(params: ProtocolParams | None = None,
                      sweep: Sequence[float] = DEFAULT_SWEEP) -> CalibrationResult:
    """Check the Scheme 1 readout constant against an exactly solvable case.

    E = F = pi_0 on the |0> eigenstate has Tr[EF rho] = 1, so the calibrated
    readout kappa <a1 a2>_f must come out 1; the constant itself is
    kappa = (2 sigma/(g1 t)) (2 sigma/(g2 t)) per coupling pair.
    """
    base = params or ProtocolParams()
    state = standard_ket(2, 0)
    pi0 = projector(state)
    ratios = []
    kappas = []
    for gt in sweep:
        p = replace(base, gt=gt, gt2=gt, scheme="scheme1")
        ratios.append(scheme1_weak_product(state, pi0, pi0, p))
        kappas.append(_kappa(p.couplings(2), p.sigma))
    extrapolated = extrapolate_sweep(sweep, ratios)
    return CalibrationResult(tuple(sweep), tuple(ratios), extrapolated, tuple(kappas))


def extrapolate_sweep(gts: Sequence[float], values) -> complex | np.ndarray:
    """Zero-coupling limit of a sweep, assuming corrections even in gt.

    Least-squares fit of value = v0 + c1 (gt)^2 + c2 (gt)^4 (degree capped
    by the number of points); returns v0.  values[i] is the value at gts[i],
    a scalar or an array; arrays are fitted entrywise in one solve and v0
    has their shape, scalars give a complex.
    """
    gts = np.asarray(gts, dtype=float)
    values = np.asarray(values, dtype=complex)
    if values.shape[:1] != gts.shape or gts.size < 2:
        raise ValueError("need at least two sweep points to extrapolate")
    x = (gts / gts.max()) ** 2
    degree = min(gts.size - 1, 2)
    design = np.vander(x, degree + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(design, values.reshape(gts.size, -1), rcond=None)
    v0 = coef[0].reshape(values.shape[1:])
    return complex(v0) if values.ndim == 1 else v0


def convergence_slope(gts: Sequence[float], errors) -> float | np.ndarray:
    """Fitted slope of log-error against log-coupling.

    errors[i] is the error at gts[i], a scalar or a row of k errors; rows
    are fitted in one polyfit over the points where every error is
    resolvable (above 1e-14), giving k slopes.
    """
    gts = np.asarray(gts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = np.all((errors > 1e-14).reshape(gts.size, -1), axis=1)
    if mask.sum() < 2:
        raise ValueError("not enough resolvable error points to fit a slope")
    slope = np.polyfit(np.log(gts[mask]), np.log(errors[mask]), 1)[0]
    return float(slope) if errors.ndim == 1 else slope
