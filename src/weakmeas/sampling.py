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

One record serves every outcome-value row of a setting: with a (V, N)
stack of values, the per-outcome laws and the shots are built once, and
each row is averaged over the same record.  Row v of a stack therefore
gives exactly the estimate of a single-row call with that row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evolution import outcome_pointer_densities
from .hilbert import OperatorMatrix, StateVector
from .protocols import ProtocolParams


@dataclass(frozen=True)
class ShotPlan:
    """How many shots, which seed, and the position/momentum shot split."""

    shots: int
    seed: int
    readout_split: float = 0.5

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if not 0.0 <= self.readout_split <= 1.0:
            raise ValueError(
                f"readout_split must lie in [0, 1], got {self.readout_split}"
            )


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


def _cell_cdf(mass: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cdf = np.concatenate(([0.0], np.cumsum(mass)))
    cdf /= cdf[-1]
    return cdf, edges


def sample_protocol(
    setting: WeakStrongSetting, plan: ShotPlan
) -> SampledEstimate | list[SampledEstimate]:
    """Simulate the exact per-outcome pointer laws once, then draw shots.

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
    laws = [
        # no law for an outcome of numerically zero probability: its shots read 0
        None if prob < 1e-14 else (
            _cell_cdf(q_mass, q_edges), _cell_cdf(np.fft.fftshift(k_mass), k_edges))
        for prob, q_mass, k_mass in zip(probs, q_masses, k_masses)
    ]

    n_pos = int(round(plan.readout_split * plan.shots))
    n_mom = plan.shots - n_pos
    if 0.0 < plan.readout_split < 1.0 and (n_pos == 0 or n_mom == 0):
        raise ValueError(
            "readout split leaves one quadrature with zero shots;"
            " increase shots or pin readout_split to 0 or 1"
        )

    rng = np.random.Generator(np.random.Philox(key=plan.seed))
    u = rng.random(2 * plan.shots)
    u_outcome = u[0::2]
    u_readout = u[1::2]

    outcome_cdf = np.cumsum(probs)
    shot_outcome = np.minimum(
        np.searchsorted(outcome_cdf, u_outcome, side="right"), probs.size - 1
    )
    # Position shots are the prefix [0, n_pos), momentum shots the rest.
    quadratures = (slice(0, n_pos), slice(n_pos, None))

    readout = np.zeros(plan.shots)
    for c_idx, law in enumerate(laws):
        if law is None:
            continue
        for part, (cdf, edges) in zip(quadratures, law):
            sel = shot_outcome[part] == c_idx
            readout[part][sel] = np.interp(u_readout[part][sel], cdf, edges)

    q_outcome, k_outcome = (shot_outcome[part] for part in quadratures)
    q_readout, k_readout = (readout[part] for part in quadratures)

    def _stats(samples: np.ndarray) -> tuple[float, float]:
        if samples.size == 0:
            return 0.0, float("inf")
        if samples.size == 1:
            return float(samples[0]), float("inf")
        return (
            float(samples.mean()),
            float(samples.std(ddof=1) / np.sqrt(samples.size)),
        )

    def _estimate(values: np.ndarray) -> SampledEstimate:
        re_mean, re_err = _stats(values[q_outcome] * q_readout / gt)
        im_mean, im_err = _stats(2 * sigma**2 * values[k_outcome] * k_readout / gt)
        return SampledEstimate(
            value=complex(re_mean, im_mean),
            stderr_re=re_err,
            stderr_im=im_err,
            shots_position=n_pos,
            shots_momentum=n_mom,
        )

    values = np.asarray(setting.outcome_values, dtype=float)
    if values.ndim == 1:
        return _estimate(values)
    return [_estimate(row) for row in values]
