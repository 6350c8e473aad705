"""Finite-dimensional Hilbert-space primitives.

Basis conventions: the standard basis is labelled a = 0..N-1, the Fourier
basis b = 0..N-1 with

    |b> = (1/sqrt(N)) sum_a exp(i 2 pi a b / N) |a>,

so overlaps are <b|a> = exp(-i 2 pi a b / N)/sqrt(N), i.e. the phase is
theta_ab = -2 pi a b / N.  The two bases are mutually unbiased:
|<a|b>|^2 = 1/N for every pair.

Product operators built here (s_ab = pi_b pi_a, triple projectors
pi_a2 pi_b0 pi_a1) are generally non-Hermitian; that is intentional and
OperatorMatrix permits it.
"""

from __future__ import annotations

import numpy as np

ATOL = 1e-12
PSD_SLACK = 1e-10


def _square_complex(entries, name: str) -> np.ndarray:
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    return mat


class StateVector:
    """Unit-norm pure state. Input amplitudes are normalized on construction."""

    def __init__(self, amps) -> None:
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        if amps.size == 0:
            raise ValueError("state vector needs at least one amplitude")
        norm = np.linalg.norm(amps)
        if norm < 1e-12:
            raise ValueError("cannot normalize a (near-)zero vector")
        self.amps = amps / norm
        self.amps.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.amps.size

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>."""
        return complex(np.vdot(self.amps, other.amps))

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


class DensityMatrix:
    """N x N density operator: Hermitian, unit trace, positive semidefinite.

    Construction validates all three invariants (tolerances 1e-12 for the
    algebraic ones, -1e-10 eigenvalue slack for positivity) and does not
    repair violations.
    """

    def __init__(self, entries) -> None:
        mat = _square_complex(entries, "density matrix")
        defect = np.max(np.abs(mat - mat.conj().T))
        if defect > ATOL:
            raise ValueError(f"density matrix not Hermitian (defect {defect:.2e})")
        tr = np.trace(mat)
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"density matrix trace {tr} != 1")
        low = np.linalg.eigvalsh(mat)[0]
        if low < -PSD_SLACK:
            raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")
        self.matrix = mat.copy()
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, purity={self.purity:.4f})"


class OperatorMatrix:
    """General N x N operator. Non-Hermitian entries are allowed; the
    ``hermitian`` attribute is advisory and computed at construction."""

    def __init__(self, entries) -> None:
        mat = _square_complex(entries, "operator")
        self.matrix = mat.copy()
        self.matrix.setflags(write=False)
        self.hermitian = bool(np.max(np.abs(mat - mat.conj().T)) <= ATOL)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        tag = "hermitian" if self.hermitian else "non-hermitian"
        return f"OperatorMatrix(dim={self.dim}, {tag})"


class BasisLabel:
    """Label (kind, index) identifying a standard or Fourier basis ket."""

    KINDS = ("standard", "fourier")

    def __init__(self, kind: str, index: int) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {kind!r}")
        if index < 0:
            raise ValueError(f"index must be nonnegative, got {index}")
        self.kind = kind
        self.index = int(index)

    def ket(self, dim: int) -> StateVector:
        if self.kind == "standard":
            return standard_ket(dim, self.index)
        return fourier_ket(dim, self.index)

    def __repr__(self) -> str:
        return f"BasisLabel({self.kind!r}, {self.index})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BasisLabel)
            and self.kind == other.kind
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.index))


class DiracDistribution:
    """Discrete Dirac quasi-probability S(a, b) = <a|rho|b><b|a>.

    Rows are standard-basis labels a, columns Fourier labels b.  The entries
    sum to 1 for any unit-trace rho; ``atol`` sets how strictly that is
    enforced (1e-10 for closed-form input, looser for finite-coupling
    estimates).
    """

    def __init__(self, entries, atol: float = 1e-10) -> None:
        mat = _square_complex(entries, "Dirac distribution")
        total = mat.sum()
        if abs(total - 1.0) > atol:
            raise ValueError(
                f"Dirac distribution entries sum to {total}, expected 1 within {atol:g}"
            )
        self.entries = mat.copy()
        self.entries.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"DiracDistribution(dim={self.dim})"


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, (OperatorMatrix, DensityMatrix)):
        return op.matrix
    return np.asarray(op, dtype=complex)


def standard_ket(dim: int, a: int) -> StateVector:
    """|a> in the standard basis."""
    if not 0 <= a < dim:
        raise ValueError(f"index {a} out of range for dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[a] = 1.0
    return StateVector(amps)


def fourier_ket(dim: int, b: int) -> StateVector:
    """|b> with amplitudes exp(i 2 pi a b / N)/sqrt(N) at position a."""
    if not 0 <= b < dim:
        raise ValueError(f"index {b} out of range for dimension {dim}")
    a = np.arange(dim)
    return StateVector(np.exp(2j * np.pi * a * b / dim) / np.sqrt(dim))


def fourier_basis(dim: int) -> list[StateVector]:
    return [fourier_ket(dim, b) for b in range(dim)]


def standard_basis(dim: int) -> list[StateVector]:
    return [standard_ket(dim, a) for a in range(dim)]


def projector(ket: StateVector) -> OperatorMatrix:
    """Rank-1 projector |ket><ket|."""
    return OperatorMatrix(np.outer(ket.amps, ket.amps.conj()))


def unbiasedness_defect(ket: StateVector) -> float:
    """Worst deviation of |<a|ket>| from 1/sqrt(N) over the standard basis."""
    return float(np.max(np.abs(np.abs(ket.amps) - 1.0 / np.sqrt(ket.dim))))


def s_ab_operator(dim: int, a: int, b: int) -> OperatorMatrix:
    """Projector product S_ab = pi_b pi_a = <b|a> |b><a|.

    Non-Hermitian for any a, b; its trace is |<b|a>|^2 = 1/N.
    """
    ka = standard_ket(dim, a)
    kb = fourier_ket(dim, b)
    coeff = np.vdot(kb.amps, ka.amps)
    return OperatorMatrix(coeff * np.outer(kb.amps, ka.amps.conj()))


def triple_projector(dim: int, a1: int, a2: int, b0: StateVector) -> OperatorMatrix:
    """Pi_{a1 a2} = pi_a2 pi_b0 pi_a1 = <a2|b0><b0|a1> |a2><a1|.

    b0 must be unbiased with respect to the standard basis
    (|<a|b0>| = 1/sqrt(N) for every a, tolerance 1e-10).
    """
    if b0.dim != dim:
        raise ValueError("b0 dimension mismatch")
    defect = unbiasedness_defect(b0)
    if defect > 1e-10:
        raise ValueError(
            f"b0 is not unbiased with respect to the standard basis (defect {defect:.2e})"
        )
    k1 = standard_ket(dim, a1)
    k2 = standard_ket(dim, a2)
    coeff = np.vdot(k2.amps, b0.amps) * np.vdot(b0.amps, k1.amps)
    return OperatorMatrix(coeff * np.outer(k2.amps, k1.amps.conj()))


def expectation(op, rho) -> complex:
    """Tr[op . rho]. Accepts wrapper types or plain arrays."""
    a = _as_matrix(op)
    r = _as_matrix(rho)
    if a.shape != r.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {r.shape}")
    return complex(np.trace(a @ r))


def random_state(dim: int, seed: int) -> StateVector:
    """Haar-ish random pure state from seeded complex normal deviates."""
    rng = np.random.default_rng(seed)
    return StateVector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def random_density(dim: int, seed: int, rank: int) -> DensityMatrix:
    """Ginibre-construction random density matrix of the requested rank.

    rho = G G^dag / Tr[G G^dag] with G an N x rank matrix of seeded complex
    normal deviates; deterministic per (dim, seed, rank).
    """
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat))


def trace_distance(rho_a, rho_b) -> float:
    """T(rho_a, rho_b) = (1/2) sum |eigenvalues of (rho_a - rho_b)|."""
    diff = _as_matrix(rho_a) - _as_matrix(rho_b)
    diff = (diff + diff.conj().T) / 2
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))
