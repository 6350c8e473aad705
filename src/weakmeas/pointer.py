"""Discretized one-dimensional Gaussian measurement pointer.

The pointer lives on a uniform grid q_j = -L + j * dq, dq = 2L/M, with the
conjugate momentum represented through the discrete Fourier transform
(wavenumbers 2 pi fftfreq(M, dq), spanning -pi/dq .. pi/dq after centering).
hbar = 1 throughout; couplings of the form exp(-i g A K t) translate the
pointer by +g*t*lambda for eigenvalue lambda, so positive eigenvalues produce
positive position shifts.

The initial pointer is the Gaussian phi_i(q) proportional to
exp(-q^2/(4 sigma^2)), for which the annihilation-like combination
a = Q/(2 sigma) + i K sigma satisfies a|phi_i> = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HBAR = 1.0


class WrapAroundError(ValueError):
    """A spectral translation would push amplitude around the periodic grid."""


class PointerGrid:
    """Uniform position grid with M points (power of two) on [-L, L)."""

    def __init__(self, points: int, half_width: float) -> None:
        if points < 16 or points & (points - 1) != 0:
            raise ValueError(f"points must be a power of two >= 16, got {points}")
        if half_width <= 0:
            raise ValueError(f"half_width must be positive, got {half_width}")
        self.points = int(points)
        self.half_width = float(half_width)
        self.dq = 2.0 * self.half_width / self.points
        if not (0.0 < self.dq < np.inf and np.isfinite(np.pi / self.dq)):
            raise ValueError(
                f"half_width {half_width} over {points} points gives grid spacing"
                f" {self.dq}; the spacing and its momentum range pi/dq must be finite"
                " and positive"
            )
        self.positions = -self.half_width + self.dq * np.arange(self.points)
        self.wavenumbers = 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.dq)
        self.positions.setflags(write=False)
        self.wavenumbers.setflags(write=False)

    @property
    def dk(self) -> float:
        return 2.0 * np.pi / (self.points * self.dq)

    def __repr__(self) -> str:
        return f"PointerGrid(points={self.points}, half_width={self.half_width})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointerGrid)
            and self.points == other.points
            and self.half_width == other.half_width
        )

    def __hash__(self) -> int:
        return hash((self.points, self.half_width))


@dataclass(frozen=True)
class PointerParams:
    """Coupling bundle (sigma, g, t) for one von Neumann interaction."""

    sigma: float = 1.0
    g: float = 1.0
    t: float = 0.02

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.g * self.t < 0:
            raise ValueError(f"g*t must be nonnegative, got {self.g * self.t}")

    @property
    def gt(self) -> float:
        return self.g * self.t


class PointerState:
    """Complex amplitudes on a PointerGrid, normalized so that
    sum |amps|^2 dq = 1 (tolerance 1e-10)."""

    def __init__(self, grid: PointerGrid, amps) -> None:
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        if amps.size != grid.points:
            raise ValueError(f"expected {grid.points} amplitudes, got {amps.size}")
        norm = np.sum(np.abs(amps) ** 2) * grid.dq
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"pointer state norm^2 = {norm}, expected 1")
        self.grid = grid
        self.amps = amps.copy()
        self.amps.setflags(write=False)

    @classmethod
    def normalize(cls, grid: PointerGrid, amps) -> "PointerState":
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        norm = np.sqrt(np.sum(np.abs(amps) ** 2) * grid.dq)
        if not 1e-150 <= norm < np.inf:
            raise ValueError(f"cannot normalize amplitudes of norm {norm}")
        return cls(grid, amps / norm)


def check_sigma(sigma: float) -> None:
    """ValueError unless sigma is positive and sigma**2 a normal, finite
    float.  Below that range sigma**2 underflows (to 0 at 1e-162, giving a
    Gaussian of NaN amplitudes); above it, sigma**2 overflows."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    limits = np.finfo(float)
    low, high = float(np.sqrt(limits.tiny)), float(np.sqrt(limits.max))
    if not low <= sigma < high:
        raise ValueError(
            f"sigma must lie in [{low:.3g}, {high:.3g}) so that sigma**2 is a"
            f" normal float, got {sigma}"
        )


def gaussian_pointer(grid: PointerGrid, sigma: float) -> PointerState:
    """Normalized Gaussian phi_i(q) ~ exp(-q^2/(4 sigma^2)).

    Requires a sigma that check_sigma accepts and L >= 8 sigma so the
    truncated tails stay below 1e-14; ValueError when the amplitudes' norm
    is not finite and positive.
    """
    check_sigma(sigma)
    if grid.half_width < 8 * sigma:
        raise ValueError(
            f"grid half-width {grid.half_width} too narrow for sigma {sigma}"
            " (need half_width >= 8 sigma)"
        )
    with np.errstate(over="ignore"):  # the exponent is -inf where the Gaussian is 0
        amps = np.exp(-grid.positions**2 / (4 * sigma**2))
    return PointerState.normalize(grid, amps)


def position_density(state: PointerState) -> np.ndarray:
    """Probability mass per grid cell, |amps_j|^2 dq; sums to 1."""
    return np.abs(state.amps) ** 2 * state.grid.dq


def momentum_density(state: PointerState) -> np.ndarray:
    """Probability mass per wavenumber cell, aligned with grid.wavenumbers
    (FFT ordering); sums to 1."""
    ft = np.fft.fft(state.amps)
    return np.abs(ft) ** 2 * state.grid.dq / state.grid.points


def expect_q(state: PointerState) -> float:
    return float(np.sum(state.grid.positions * position_density(state)))


def expect_k(state: PointerState) -> float:
    return float(np.sum(state.grid.wavenumbers * momentum_density(state)))


def expect_ann(state: PointerState, sigma: float) -> complex:
    """Marginal moment <a> = <Q>/(2 sigma) + i <K> sigma.

    Joint product moments such as <a1 a2> are computed in the evolution
    module (chain_readout), not from per-pointer marginals.
    """
    return expect_q(state) / (2 * sigma) + 1j * expect_k(state) * sigma


def translate(state: PointerState, shift: float) -> PointerState:
    """Apply exp(-i shift K) spectrally, moving <Q> by +shift.

    The shift is capped at L/4 so wrapped-around tail amplitude stays
    negligible for Gaussian-like states.
    """
    limit = state.grid.half_width / 4
    if abs(shift) > limit:
        raise WrapAroundError(f"shift {shift} exceeds wrap-around guard {limit}")
    ft = np.fft.fft(state.amps)
    ft *= np.exp(-1j * state.grid.wavenumbers * shift)
    return PointerState(state.grid, np.fft.ifft(ft))


def boost(state: PointerState, k0: float) -> PointerState:
    """Multiply by exp(i k0 q), moving <K> by +k0."""
    limit = np.pi / state.grid.dq / 4
    if abs(k0) > limit:
        raise WrapAroundError(f"boost {k0} exceeds wrap-around guard {limit}")
    return PointerState(state.grid, state.amps * np.exp(1j * k0 * state.grid.positions))
