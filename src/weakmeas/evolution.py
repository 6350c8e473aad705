"""Exact joint evolution of a system coupled to Gaussian pointers.

A JointState is an ensemble of pure branches: mixed system states enter as
the eigendecomposition of rho (one branch per eigenvector, weighted by the
eigenvalue), which is exact for every expectation value by linearity of
Tr[. rho].  Each branch is a complex tensor of shape (N, M_1, ..., M_P),
axis 0 the system and one axis per pointer.

Couplings are the impulsive von Neumann unitaries

    exp(-i g A K t)            momentum coupling, translates the pointer,
    exp(-i g A Q t)            position coupling, kicks its momentum,
    exp(-i g2 E K_dst Q_src t) conditional coupling between two pointers,

applied on the range of the Hermitian system factor only: with V the
eigenvectors of nonzero eigenvalue, psi -> psi + V[(T_lambda - 1)(V^dag psi)],
T_lambda the translation (or kick) for eigenvalue lambda.  A rank-one
projector therefore transforms 1/N of the tensor.  All operations preserve
branch norms and return new immutable states.

Readout is one system-resolved moment per pointer operator A (a product of
Q, K or a = Q/(2 sigma) + i sigma K over distinct pointers):

    G[s, s'] = sum_b w_b <psi_b[s]| A |psi_b[s']>,

so P(c) <A>_c = c^T G conj(c) for every strong outcome or post-selected
ket c at once, and the unconditioned moment is Tr G.  A costs one FFT pair
along each pointer axis it acts on; no conditioned state is built.  This is
the complex weak-value readout <Q> + i<K> of Jozsa, PRA 76, 044103 (2007).

A pointer that is coupled last and read only by the final moment need not
be a tensor axis: last_pointer_moments reads <A a> from G_A and a table
x(lambda) = <T_{gt lambda} phi| a |T_{gt lambda} phi> over the eigenvalues
of the last observable, one 1-d FFT pair per eigenvalue, since the last
coupling then acts as a strong measurement in that observable's eigenbasis.

Accumulated worst-case displacements are tracked per pointer and capped at a
quarter of the grid extent in the relevant representation, keeping spectral
wrap-around below Gaussian tail level.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .hilbert import DensityMatrix, OperatorMatrix, StateVector
from .pointer import PointerGrid, WrapAroundError, gaussian_pointer

HERMITIAN_TOL = 1e-10
POINTER_VARIABLES = ("Q", "K", "a")


class PostselectionError(RuntimeError):
    """Post-selection outcome has (numerically) zero probability."""


class Branch(NamedTuple):
    weight: float
    amps: np.ndarray


class JointState:
    """Weighted ensemble of pure system-pointer branches."""

    def __init__(
        self,
        branches: Sequence[Branch],
        grids: Sequence[PointerGrid],
        sigmas: Sequence[float],
        q_shifts: Sequence[float] | None = None,
        k_shifts: Sequence[float] | None = None,
    ) -> None:
        self.grids = tuple(grids)
        self.sigmas = tuple(float(s) for s in sigmas)
        if len(self.grids) != len(self.sigmas):
            raise ValueError("need one sigma per pointer grid")
        self.q_shifts = tuple(q_shifts) if q_shifts is not None else (0.0,) * len(self.grids)
        self.k_shifts = tuple(k_shifts) if k_shifts is not None else (0.0,) * len(self.grids)
        measure = self.measure
        shape_tail = tuple(g.points for g in self.grids)
        checked = []
        total = 0.0
        for weight, amps in branches:
            amps = np.asarray(amps, dtype=complex)
            if amps.shape[1:] != shape_tail:
                raise ValueError(
                    f"branch shape {amps.shape} incompatible with grids {shape_tail}"
                )
            norm = np.sum(np.abs(amps) ** 2) * measure
            if abs(norm - 1.0) > 1e-10:
                raise ValueError(f"branch norm^2 = {norm}, expected 1")
            if not 0.0 < weight <= 1.0 + 1e-12:
                raise ValueError(f"branch weight {weight} outside (0, 1]")
            total += weight
            checked.append(Branch(float(weight), amps))
        if not checked:
            raise ValueError("joint state needs at least one branch")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"branch weights sum to {total}, expected 1")
        self.branches = tuple(checked)

    @property
    def measure(self) -> float:
        out = 1.0
        for g in self.grids:
            out *= g.dq
        return out

    @property
    def num_pointers(self) -> int:
        return len(self.grids)

    @property
    def dim(self) -> int:
        return self.branches[0].amps.shape[0]

    def _replace_branches(self, branches, q_shifts=None, k_shifts=None) -> "JointState":
        return JointState(
            branches,
            self.grids,
            self.sigmas,
            self.q_shifts if q_shifts is None else q_shifts,
            self.k_shifts if k_shifts is None else k_shifts,
        )

    def __repr__(self) -> str:
        return (
            f"JointState(dim={self.dim}, pointers={self.num_pointers},"
            f" branches={len(self.branches)})"
        )


@dataclass(frozen=True)
class CouplingSpec:
    """One von Neumann interaction: Hermitian observable, target pointer,
    strength g, duration t, and which pointer variable it couples to."""

    observable: OperatorMatrix
    pointer_index: int
    g: float
    t: float
    variable: str = "K"

    def __post_init__(self) -> None:
        if self.variable not in ("K", "Q"):
            raise ValueError(f"variable must be 'K' or 'Q', got {self.variable!r}")
        m = self.observable.matrix
        defect = np.max(np.abs(m - m.conj().T))
        if defect > HERMITIAN_TOL:
            raise ValueError(
                f"coupling observable not Hermitian (defect {defect:.2e});"
                " non-Hermitian products arise from coupling sequences only"
            )

    @property
    def gt(self) -> float:
        return self.g * self.t


def _eigs(op: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a Hermitian op and its eigenvectors (columns)."""
    m = op.matrix
    lam, vecs = np.linalg.eigh(m)
    # projectors get their exact {0, 1} spectrum back
    if np.max(np.abs(m @ m - m)) <= HERMITIAN_TOL:
        lam = np.where(lam > 0.5, 1.0, 0.0)
    return lam, vecs


def _range_eigs(op: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero eigenvalues of a Hermitian op and their eigenvectors (columns)."""
    lam, vecs = _eigs(op)
    keep = lam != 0.0
    return lam[keep], vecs[:, keep]


def _check_shift(shift: float, grid: PointerGrid) -> None:
    """Wrap guard of a momentum coupling: accumulated shift <= L/4."""
    limit = grid.half_width / 4
    if shift > limit:
        raise WrapAroundError(
            f"accumulated pointer shift {shift:.3g} exceeds guard {limit:.3g}"
        )


def _couple_on_range(joint: JointState, vecs: np.ndarray, phase: np.ndarray,
                     fft_axis: int | None) -> list[Branch]:
    """psi + V[(U - 1)(V^dag psi)] per branch, U = phase applied in the
    representation where fft_axis (if any) is in momentum space.

    Eigenvectors outside V carry eigenvalue 0, on which the coupling acts as
    the identity; system rows where V vanishes are left untouched.
    """
    rows = np.flatnonzero(np.any(vecs != 0.0, axis=1))
    out = []
    for weight, amps in joint.branches:
        comp = np.tensordot(vecs.conj().T, amps, axes=(1, 0))
        if fft_axis is None:
            moved = comp * phase
        else:
            moved = np.fft.fft(comp, axis=fft_axis)
            moved *= phase
            moved = np.fft.ifft(moved, axis=fft_axis)
        moved -= comp
        # one system row at a time: a full V @ moved temporary raises the
        # peak memory of three-pointer states
        new = amps.copy()
        for s in rows:
            new[s] += np.tensordot(vecs[s], moved, axes=(0, 0))
        out.append(Branch(weight, new))
    return out


def _axis_view(vec: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = vec.size
    return vec.reshape(shape)


def make_joint(system, pointers: Sequence[tuple[PointerGrid, float]]) -> JointState:
    """Assemble system (x) phi_i (x) ... (x) phi_i.

    Mixed systems become one branch per eigenvector of rho; eigenvalues
    below 1e-12 are dropped and the remaining weights renormalized.
    """
    grids = [g for g, _ in pointers]
    sigmas = [s for _, s in pointers]
    pointer_amps = [gaussian_pointer(g, s).amps for g, s in pointers]
    if isinstance(system, StateVector):
        vecs = [(1.0, system.amps)]
    elif isinstance(system, DensityMatrix):
        w, v = np.linalg.eigh(system.matrix)
        keep = w > 1e-12
        w, v = w[keep], v[:, keep]
        w = w / w.sum()
        vecs = [(float(wi), v[:, i]) for i, wi in enumerate(w)]
    else:
        raise TypeError(f"system must be StateVector or DensityMatrix, got {type(system)}")
    branches = []
    for weight, vec in vecs:
        amps = vec
        for pa in pointer_amps:
            amps = np.multiply.outer(amps, pa)
        branches.append(Branch(weight, amps))
    return JointState(branches, grids, sigmas)


def apply_coupling(joint: JointState, spec: CouplingSpec) -> JointState:
    """exp(-i g A D t) with D the chosen variable of one pointer."""
    idx = spec.pointer_index
    if not 0 <= idx < joint.num_pointers:
        raise ValueError(f"pointer index {idx} out of range")
    gt = spec.gt
    if gt == 0.0:
        return joint
    if spec.observable.dim != joint.dim:
        raise ValueError("observable dimension does not match the system")
    lam, vecs = _range_eigs(spec.observable)
    grid = joint.grids[idx]
    reach = abs(gt) * float(np.max(np.abs(lam), initial=0.0))
    q_shifts = list(joint.q_shifts)
    k_shifts = list(joint.k_shifts)
    if spec.variable == "K":
        q_shifts[idx] += reach
        _check_shift(q_shifts[idx], grid)
    else:
        k_shifts[idx] += reach
        limit = np.pi / grid.dq / 4
        if k_shifts[idx] > limit:
            raise WrapAroundError(
                f"accumulated momentum kick {k_shifts[idx]:.3g} exceeds guard {limit:.3g}"
            )
    ax = idx + 1
    nd = joint.num_pointers + 1
    lam_b = _axis_view(lam, nd, 0)
    if spec.variable == "K":
        phase = np.exp(-1j * gt * lam_b * _axis_view(grid.wavenumbers, nd, ax))
        out = _couple_on_range(joint, vecs, phase, ax)
    else:
        phase = np.exp(-1j * gt * lam_b * _axis_view(grid.positions, nd, ax))
        out = _couple_on_range(joint, vecs, phase, None)
    return joint._replace_branches(out, q_shifts=tuple(q_shifts), k_shifts=tuple(k_shifts))


def apply_conditional_coupling(
    joint: JointState,
    e_op: OperatorMatrix,
    src_pointer: int,
    dst_pointer: int,
    g2: float,
    t: float,
) -> JointState:
    """exp(-i g2 E K_dst Q_src t): translate pointer dst by g2*t*lambda_E*q_src."""
    if src_pointer == dst_pointer:
        raise ValueError("source and destination pointer must differ")
    for idx in (src_pointer, dst_pointer):
        if not 0 <= idx < joint.num_pointers:
            raise ValueError(f"pointer index {idx} out of range")
    m = e_op.matrix
    if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
        raise ValueError("conditional coupling requires a Hermitian observable")
    gt = g2 * t
    if gt == 0.0:
        return joint
    lam, vecs = _range_eigs(e_op)
    src_grid = joint.grids[src_pointer]
    dst_grid = joint.grids[dst_pointer]
    reach = abs(gt) * float(np.max(np.abs(lam), initial=0.0)) * src_grid.half_width
    q_shifts = list(joint.q_shifts)
    q_shifts[dst_pointer] += reach
    limit = dst_grid.half_width / 4
    if q_shifts[dst_pointer] > limit:
        raise WrapAroundError(
            f"worst-case conditional shift {q_shifts[dst_pointer]:.3g}"
            f" exceeds guard {limit:.3g}"
        )
    src_ax, dst_ax = src_pointer + 1, dst_pointer + 1
    nd = joint.num_pointers + 1
    phase = np.exp(
        -1j
        * gt
        * _axis_view(lam, nd, 0)
        * _axis_view(src_grid.positions, nd, src_ax)
        * _axis_view(dst_grid.wavenumbers, nd, dst_ax)
    )
    out = _couple_on_range(joint, vecs, phase, dst_ax)
    return joint._replace_branches(out, q_shifts=tuple(q_shifts))


def _project(joint: JointState, c: StateVector) -> tuple[float, JointState | None]:
    measure = joint.measure
    projected = []
    prob = 0.0
    for weight, amps in joint.branches:
        cond = np.tensordot(c.amps.conj(), amps, axes=(0, 0))
        p_branch = float(np.sum(np.abs(cond) ** 2) * measure)
        prob += weight * p_branch
        projected.append((weight, p_branch, cond))
    if prob < 1e-14:
        return prob, None
    branches = []
    for weight, p_branch, cond in projected:
        mass = weight * p_branch / prob
        if mass < 1e-15:
            continue
        amps = np.multiply.outer(c.amps, cond / np.sqrt(p_branch))
        branches.append(Branch(mass, amps))
    total = sum(b.weight for b in branches)
    branches = [Branch(b.weight / total, b.amps) for b in branches]
    return prob, joint._replace_branches(branches)


def _check_ket_dim(joint: JointState, c: StateVector) -> None:
    if c.dim != joint.dim:
        raise ValueError("post-selection ket dimension mismatch")


def _check_postselection(prob: float) -> None:
    if prob < 1e-14:
        raise PostselectionError(
            f"post-selection probability {prob:.3e} is numerically zero"
        )


def postselect(joint: JointState, c: StateVector) -> tuple[float, JointState]:
    """Project the system on |c>, renormalize, and report the probability.

    After projection the system factor is |c> itself; the pointers keep the
    conditional amplitudes.  The probability equals <c|rho'|c> of the evolved
    reduced system state.
    """
    _check_ket_dim(joint, c)
    prob, conditioned = _project(joint, c)
    _check_postselection(prob)
    return prob, conditioned


def _basis_rows(joint: JointState, basis: Sequence[StateVector]) -> np.ndarray:
    """Rows of a complete orthonormal basis, or ValueError."""
    dim = joint.dim
    if len(basis) != dim:
        raise ValueError(f"need a complete basis of {dim} kets, got {len(basis)}")
    rows = np.array([b.amps for b in basis])
    gram = rows @ rows.conj().T
    if np.max(np.abs(gram - np.eye(dim))) > 1e-10:
        raise ValueError("measurement basis is not orthonormal")
    return rows


def _check_probability_sum(total: float) -> None:
    if abs(total - 1.0) > 1e-10:
        raise RuntimeError(f"outcome probabilities sum to {total}, expected 1")


def strong_measure(
    joint: JointState, basis: Sequence[StateVector]
) -> list[tuple[int, float, JointState | None]]:
    """Projective measurement in a complete orthonormal basis.

    Returns one (outcome index, probability, conditioned state) triple per
    basis ket; the conditioned state is None when the probability is
    numerically zero.  Probabilities sum to 1 within 1e-10.  Readouts that
    only need pointer moments per outcome use strong_readout instead.
    """
    _basis_rows(joint, basis)
    results = [(i, *_project(joint, ket)) for i, ket in enumerate(basis)]
    _check_probability_sum(sum(prob for _, prob, _ in results))
    return results


def reduced_system_density(joint: JointState) -> np.ndarray:
    """Trace out all pointers; returns the N x N system density matrix."""
    pointer_axes = list(range(1, joint.num_pointers + 1))
    rho = np.zeros((joint.dim, joint.dim), dtype=complex)
    for weight, amps in joint.branches:
        rho += weight * np.tensordot(amps, amps.conj(), axes=(pointer_axes, pointer_axes))
    return rho * joint.measure


def reduced_position_density(joint: JointState, idx: int) -> np.ndarray:
    """Probability mass per position cell of pointer idx; sums to 1."""
    if not 0 <= idx < joint.num_pointers:
        raise ValueError(f"pointer index {idx} out of range")
    ax = idx + 1
    mass = np.zeros(joint.grids[idx].points)
    for weight, amps in joint.branches:
        dens = np.abs(amps) ** 2
        other = tuple(a for a in range(amps.ndim) if a != ax)
        mass += weight * dens.sum(axis=other)
    return mass * joint.measure


def reduced_momentum_density(joint: JointState, idx: int) -> np.ndarray:
    """Probability mass per wavenumber cell (FFT order) of pointer idx."""
    if not 0 <= idx < joint.num_pointers:
        raise ValueError(f"pointer index {idx} out of range")
    ax = idx + 1
    grid = joint.grids[idx]
    mass = np.zeros(grid.points)
    for weight, amps in joint.branches:
        ft = np.fft.fft(amps, axis=ax)
        dens = np.abs(ft) ** 2
        other = tuple(a for a in range(amps.ndim) if a != ax)
        mass += weight * dens.sum(axis=other)
    return mass * joint.measure / grid.points


def _apply_pointer_variable(amps: np.ndarray, grid: PointerGrid, sigma: float,
                            ax: int, variable: str) -> np.ndarray:
    """Q, K or a = Q/(2 sigma) + i sigma K on tensor axis ax, as a new array."""
    nd = amps.ndim
    if variable == "Q":
        return amps * _axis_view(grid.positions, nd, ax)
    out = np.fft.fft(amps, axis=ax)
    out *= _axis_view(grid.wavenumbers, nd, ax)
    out = np.fft.ifft(out, axis=ax)
    if variable == "a":
        out *= 1j * sigma
        out += amps * _axis_view(grid.positions / (2.0 * sigma), nd, ax)
    return out


def system_moments(joint: JointState, *operators: Mapping[int, str]) -> np.ndarray:
    """System-resolved pointer moments, one N x N matrix per operator.

    Each operator maps pointer index -> variable ("Q", "K" or "a"), its
    factors acting on distinct pointers (so they commute); an empty mapping
    is the identity.  Returns G[i, s, s'] = sum_b w_b <psi_b[s]| A_i
    |psi_b[s']>: Tr G[i] is the joint moment <A_i>, and c^T G[i] conj(c) is
    P(c) <A_i>_c for the conditioned pointers after outcome |c>.
    """
    for op in operators:
        for idx, variable in op.items():
            if not 0 <= idx < joint.num_pointers:
                raise ValueError(f"pointer index {idx} out of range")
            if variable not in POINTER_VARIABLES:
                raise ValueError(
                    f"pointer variable must be one of {POINTER_VARIABLES}, got {variable!r}"
                )
    n = joint.dim
    out = np.zeros((len(operators), n, n), dtype=complex)
    for weight, amps in joint.branches:
        kets = amps.reshape(n, -1)
        for i, op in enumerate(operators):
            applied = amps
            for idx, variable in op.items():
                applied = _apply_pointer_variable(
                    applied, joint.grids[idx], joint.sigmas[idx], idx + 1, variable
                )
            if applied is amps:
                applied = amps.conj()
            else:
                np.conjugate(applied, out=applied)
            # G[s, s'] = conj(sum_x psi[s, x] conj(A psi)[s', x])
            out[i] += weight * np.conj(kets @ applied.reshape(n, -1).T)
    return out * joint.measure


def _outcome_moments(joint: JointState, rows: np.ndarray,
                     operators: Sequence[Mapping[int, str]]) -> np.ndarray:
    """Row 0: P(c) per ket row c; row i: P(c) <A_i>_c."""
    moments = system_moments(joint, {}, *operators)
    return np.einsum("cs,ost,ct->oc", rows, moments, rows.conj())


def strong_readout(joint: JointState, basis: Sequence[StateVector],
                   *operators: Mapping[int, str]) -> tuple[np.ndarray, ...]:
    """Strong measurement in a complete orthonormal basis, read as moments.

    Returns (P, P<A_1>, P<A_2>, ...): the outcome probabilities (real, in
    basis order, summing to 1 within 1e-10) and, per pointer operator (see
    system_moments), P(c) times its moment on the pointers conditioned on
    outcome c.  Same numbers as strong_measure followed by a moment of each
    conditioned state, without building those states.
    """
    out = _outcome_moments(joint, _basis_rows(joint, basis), operators)
    probs = out[0].real
    _check_probability_sum(float(probs.sum()))
    return (probs, *out[1:])


def postselected_moments(joint: JointState, c: StateVector,
                         *operators: Mapping[int, str]) -> tuple[float, np.ndarray]:
    """Post-select |c> and read each pointer operator's conditioned moment.

    Returns (P(c), [<A_1>_f, <A_2>_f, ...]) with the probability and checks
    of postselect, without building the conditioned state.
    """
    _check_ket_dim(joint, c)
    out = _outcome_moments(joint, c.amps[None, :], operators)[:, 0]
    prob = float(out[0].real)
    _check_postselection(prob)
    return prob, out[1:] / prob


def pointer_moments(joint: JointState, idx: int) -> tuple[float, float]:
    """(<Q>_f, <K>_f) of pointer idx on the branch-weighted reduced state."""
    q, k = np.trace(system_moments(joint, {idx: "Q"}, {idx: "K"}), axis1=1, axis2=2)
    return float(q.real), float(k.real)


def joint_ann_moment(joint: JointState, idx1: int, idx2: int, *more: int) -> complex:
    """<a_i a_j ...> with a = Q/(2 sigma) + i K sigma per pointer.

    A genuine operator moment on the joint tensor: the trace of the
    system-resolved moment of the product, one FFT pair per pointer.
    """
    indices = (idx1, idx2) + more
    if len(set(indices)) != len(indices):
        raise ValueError(f"pointer indices must be distinct, got {indices}")
    (moment,) = system_moments(joint, dict.fromkeys(indices, "a"))
    return complex(np.trace(moment))


def last_pointer_moments(joint: JointState, operator: Mapping[int, str],
                         observables: Sequence[OperatorMatrix], gt: float,
                         grid: PointerGrid, sigma: float) -> np.ndarray:
    """<A a> with a on one more pointer, coupled last and read from a table.

    For each Hermitian observable O: the trace of system_moments for A times
    a on a fresh Gaussian pointer (grid, sigma) appended to joint after
    apply_coupling(CouplingSpec(O, <that pointer>, gt, 1.0)), computed
    without that pointer's axis.  The coupling is the last operation on the
    state and only this moment reads the pointer, so with (lambda_c, v_c)
    the full eigenbasis of O the coupled state is
    sum_c (v_c v_c^dag psi) (x) T_{gt lambda_c} phi, the cross terms vanish
    in the trace over the system, and

        <A a> = sum_c x(lambda_c) v_c^T G_A conj(v_c),

    G_A = system_moments(joint, A), x(lambda) = <T phi| a |T phi> on the
    same grid, Gaussian and spectral translation (one FFT pair per
    eigenvalue).  The last factor acts as a strong measurement of O, each
    outcome weighted by its displaced pointer's moment.  Same wrap guard and
    message as apply_coupling on a fresh pointer.  Returns one moment per
    observable.
    """
    spectra = []
    for obs in observables:
        if obs.dim != joint.dim:
            raise ValueError("observable dimension does not match the system")
        m = obs.matrix
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("coupling observable not Hermitian")
        lam, vecs = _eigs(obs)
        _check_shift(abs(gt) * float(np.max(np.abs(lam), initial=0.0)), grid)
        spectra.append((lam, vecs))
    (gram,) = system_moments(joint, operator)
    phi_hat = np.fft.fft(gaussian_pointer(grid, sigma).amps)
    out = np.empty(len(spectra), dtype=complex)
    for i, (lam, vecs) in enumerate(spectra):
        shifted = np.fft.ifft(phi_hat * np.exp(-1j * gt * np.outer(lam, grid.wavenumbers)),
                              axis=1)
        read = _apply_pointer_variable(shifted, grid, sigma, 1, "a")
        table = np.sum(shifted.conj() * read, axis=1) * grid.dq
        out[i] = table @ np.einsum("sc,st,tc->c", vecs, gram, vecs.conj())
    return out


def weak_value_from_moments(qf: float, kf: float, g: float, t: float, sigma: float) -> complex:
    """<A^w> = <Q>_f/(g t) + i <K>_f 2 sigma^2/(g t), hbar = 1."""
    gt = g * t
    if gt <= 0:
        raise ValueError(f"need positive coupling g*t, got {gt}")
    return qf / gt + 1j * kf * 2.0 * sigma**2 / gt
