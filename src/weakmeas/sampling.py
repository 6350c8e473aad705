"""Shot-level Monte Carlo for the weak coupling + strong readout estimator.

Each shot prepares system (x) Gaussian pointer, couples the observable to
the pointer momentum, measures the strong basis, then reads a single
pointer quadrature: position for the first round(split * shots) shots,
momentum for the rest (the split is deterministic, not drawn).  The
estimators

    Re ~ mean(c_value * q) / gt
    Im ~ 2 sigma^2 * mean(c_value * k) / gt

converge to the weak limit of sum_c c P(c) <A^w>_c as shots grow, with the
usual 1/sqrt(shots) statistical error on top of the O((gt)^2) bias.

Reproducibility contract: draws come from a counter-based generator keyed
by the plan seed, and shot i owns exactly the stream slots 2i (strong
outcome) and 2i + 1 (readout, by inverse CDF).  Shot i reads position when
i < round(readout_split * shots) and momentum otherwise, so its record is a
pure function of (seed, shots, readout_split, i): independent of chunking
or execution order, but not of the total shot count, which moves the
position/momentum boundary.

The per-outcome pointer laws are exact: with (lambda_l, V_l) the distinct
eigenvalues and spectral projectors of the observable, outcome c leaves the
pointer in sum_l <c|V_l psi_b> T_{gt lambda_l} phi on branch b of rho, and
its position law is sum_b w_b |.|^2 (momentum likewise), read from one
displaced pointer per eigenvalue (evolution.outcome_pointer_densities).

One record serves every setting, coupling and outcome-value row of a plan.
The draws depend on the plan alone, so the plan draws them once, on first
use, and keeps them ordered by outcome draw (ShotPlan.record): per
quadrature, the outcome draws in ascending order and each shot's readout
draw at the rank of its outcome draw.  A call then finds each outcome's
shots with one boundary search per outcome (the same labels as a per-shot
search of the outcome CDF), which leaves them one contiguous slice of
readout draws; it sorts that slice alone, reads its pointer values by
inverse CDF, and keeps per outcome and quadrature only the count, sum r and
sum r^2.  Every row's mean and standard error follow from those sums, so row
v of a (V, N) stack gives exactly the estimate of a single-row call with
that row.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .evolution import outcome_pointer_densities
from .hilbert import OperatorMatrix, StateVector
from .protocols import ProtocolParams

# The most shots a plan accepts.  Its record keeps two float draws a shot,
# 16 bytes; the CLI caps shots far lower, at evolution.MAX_AMPLITUDES.
MAX_SHOTS = 2**31 - 1
# Held while a plan draws its record, so that concurrent first calls draw once.
_RECORD_LOCK = threading.Lock()


class QuadratureShots(NamedTuple):
    """The shots that read one quadrature, ordered by their outcome draws.

    outcome_sorted holds their outcome draws in ascending order, and
    readout_by_rank[i] the readout draw of the shot whose outcome draw is
    outcome_sorted[i].
    """

    outcome_sorted: np.ndarray
    readout_by_rank: np.ndarray


def _quadrature_shots(rng: np.random.Generator, size: int) -> QuadratureShots:
    """The next size shots of the stream: 2 size draws, outcome then readout."""
    u = rng.random(2 * size)
    by_outcome = np.argsort(u[0::2])
    shots = QuadratureShots(u[0::2][by_outcome], u[1::2][by_outcome])
    for array in shots:
        array.flags.writeable = False
    return shots


@dataclass(frozen=True)
class ShotPlan:
    """How many shots, which seed, and the position/momentum shot split.

    A ValueError names the field it rejects, as "<field>: ...".
    """

    shots: int
    seed: int
    readout_split: float = 0.5

    def __post_init__(self) -> None:
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots: must lie in [1, 2^31 - 1], got {self.shots}")
        if not 0.0 <= self.readout_split <= 1.0:
            raise ValueError(
                f"readout_split: must lie in [0, 1], got {self.readout_split}"
            )
        if 0 < self.readout_split < 1 and self.position_shots in (0, self.shots):
            raise ValueError(
                f"readout_split: {self.readout_split} of {self.shots} shots leaves one"
                " quadrature with zero shots; increase shots or pin readout_split to 0 or 1"
            )

    @property
    def position_shots(self) -> int:
        """Shots [0, position_shots) read position, the rest momentum."""
        return int(round(self.readout_split * self.shots))

    def record(self) -> tuple[QuadratureShots, QuadratureShots]:
        """The (position, momentum) shots, drawn on first use and kept on the plan.

        Kept outside the dataclass fields, so equality, hashing and asdict
        see only (shots, seed, readout_split).
        """
        record = self.__dict__.get("_record")
        if record is None:
            with _RECORD_LOCK:
                record = self.__dict__.get("_record")
                if record is None:
                    # position shots are the prefix of the stream
                    rng = np.random.Generator(np.random.Philox(key=self.seed))
                    n_pos = self.position_shots
                    record = (_quadrature_shots(rng, n_pos),
                              _quadrature_shots(rng, self.shots - n_pos))
                    object.__setattr__(self, "_record", record)
        return record


@dataclass(frozen=True)
class WeakStrongSetting:
    """One weakly coupled observable, one strong basis, one value per outcome.

    outcome_values is one row of N values (N = len(basis)) or a (V, N) stack
    of rows; every row is read from the same shot record.
    """

    system: StateVector | object
    observable: OperatorMatrix
    basis: Sequence[StateVector]
    outcome_values: Sequence[float] | Sequence[Sequence[float]]
    params: ProtocolParams

    def __post_init__(self) -> None:
        shape = np.shape(self.outcome_values)
        if len(shape) not in (1, 2):
            raise ValueError(
                f"outcome_values must be one row or a (V, N) stack, got shape {shape}"
            )
        if shape[-1] != len(self.basis):
            raise ValueError("need one outcome value per basis ket")


@dataclass(frozen=True)
class SampledEstimate:
    value: complex
    stderr_re: float
    stderr_im: float
    shots_position: int
    shots_momentum: int


class _OutcomeSums(NamedTuple):
    """Per outcome c: shot count, mean pointer reading, and sum of squared
    deviations from that mean, over the shots of one quadrature."""

    counts: np.ndarray
    means: np.ndarray
    squares: np.ndarray


def _cell_cdf(mass: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cdf = np.concatenate(([0.0], np.cumsum(mass)))
    cdf /= cdf[-1]
    return cdf, edges


def _outcome_sums(shots: QuadratureShots, outcome_cdf: np.ndarray, laws) -> _OutcomeSums:
    """Label each shot's outcome and reduce its readouts per outcome.

    The shots of outcome c hold the outcome ranks [bounds[c], bounds[c+1]),
    which labels them exactly as searchsorted(outcome_cdf, u, side="right")
    clamped to N - 1 does.  Their readout draws are that slice of
    readout_by_rank, sorted before the inverse CDF reads them.
    """
    n_outcomes = outcome_cdf.size
    bounds = np.concatenate(
        ([0], np.searchsorted(shots.outcome_sorted, outcome_cdf[:-1], side="left"),
         [shots.outcome_sorted.size]))
    counts = np.diff(bounds)
    means = np.zeros(n_outcomes)
    squares = np.zeros(n_outcomes)
    for c, law in enumerate(laws):
        # the shots of a law-less outcome read 0: they count, with zero sums
        if law is None or counts[c] == 0:
            continue
        readout = np.interp(np.sort(shots.readout_by_rank[bounds[c]:bounds[c + 1]]), *law)
        total = readout.sum()
        means[c] = total / counts[c]
        squares[c] = max(readout @ readout - total * means[c], 0.0)
    return _OutcomeSums(counts, means, squares)


def _row_stats(values: np.ndarray, scale: float, sums: _OutcomeSums) -> tuple[float, float]:
    """Mean and standard error of scale * values[c] * r over the shots.

    The sum of squared deviations from the mean combines per outcome as
    scale^2 values[c]^2 squares[c] + counts[c] (scale values[c] means[c] - mean)^2.
    """
    size = int(sums.counts.sum())
    if size == 0:
        return 0.0, float("inf")
    outcome_means = scale * values * sums.means
    mean = float(sums.counts @ outcome_means) / size
    if size == 1:
        return mean, float("inf")
    deviations = (scale * values) ** 2 @ sums.squares + sums.counts @ (outcome_means - mean) ** 2
    return mean, math.sqrt(float(deviations) / (size - 1)) / math.sqrt(size)


def sample_protocol(
    setting: WeakStrongSetting, plan: ShotPlan
) -> SampledEstimate | list[SampledEstimate]:
    """Simulate the exact per-outcome pointer laws once, then read the plan's shots.

    Returns one estimate for a single row of outcome values, or a list with
    one estimate per row of a (V, N) stack, all from the same shot record.
    """
    params = setting.params
    (gt,) = params.couplings(1)
    sigma = params.sigma
    grid = params.grid(1)
    probs, q_masses, k_masses = outcome_pointer_densities(
        setting.system, setting.observable, gt, grid, sigma, list(setting.basis))

    dq = grid.dq
    q_edges = np.concatenate((grid.positions - dq / 2, [grid.positions[-1] + dq / 2]))
    k_sorted = np.fft.fftshift(grid.wavenumbers)
    dk = grid.dk
    k_edges = np.concatenate((k_sorted - dk / 2, [k_sorted[-1] + dk / 2]))
    # no law for an outcome of numerically zero probability: its shots read 0
    zero = probs < 1e-14
    q_laws = [None if z else _cell_cdf(m, q_edges) for z, m in zip(zero, q_masses)]
    k_laws = [None if z else _cell_cdf(np.fft.fftshift(m), k_edges)
              for z, m in zip(zero, k_masses)]

    outcome_cdf = np.cumsum(probs)
    q_shots, k_shots = plan.record()
    q_sums = _outcome_sums(q_shots, outcome_cdf, q_laws)
    k_sums = _outcome_sums(k_shots, outcome_cdf, k_laws)

    def _estimate(values: np.ndarray) -> SampledEstimate:
        re_mean, re_err = _row_stats(values, 1 / gt, q_sums)
        im_mean, im_err = _row_stats(values, 2 * sigma**2 / gt, k_sums)
        return SampledEstimate(
            value=complex(re_mean, im_mean),
            stderr_re=re_err,
            stderr_im=im_err,
            shots_position=q_shots.outcome_sorted.size,
            shots_momentum=k_shots.outcome_sorted.size,
        )

    values = np.asarray(setting.outcome_values, dtype=float)
    if values.ndim == 1:
        return _estimate(values)
    return [_estimate(row) for row in values]
