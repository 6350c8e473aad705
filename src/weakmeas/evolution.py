"""Exact evolution of a system coupled to Gaussian pointers.

Couplings are the impulsive von Neumann unitaries

    exp(-i g A K t)            momentum coupling, translates the pointer,
    exp(-i g A Q t)            position coupling, kicks its momentum,
    exp(-i g2 E K_dst Q_src t) conditional coupling between two pointers.

Every route but Scheme 2 couples a chain of Hermitian observables
O_j = sum_lambda lambda V^j_lambda, one momentum-translated pointer each,
and then reads pointer moments, optionally with a strong outcome or a
post-selected ket c.  Such a chain leaves

    sum_{lambda} (V^P_{lambda_P} ... V^1_{lambda_1} psi) (x) T_{gt_1 lambda_1} phi
                                              (x) ... (x) T_{gt_P lambda_P} phi,

a sum over eigenvalue patterns, so every moment of a product A of Q, K or
a = Q/(2 sigma) + i sigma K over distinct pointers is N x N algebra over
small per-pointer tables (chain_readout):

    P(c) <A>_c = sum_{lambda, mu} prod_j x_j(lambda_j, mu_j)
                 <c| V^P_{lambda_P} ... V^1_{lambda_1} rho V^1_{mu_1} ... V^P_{mu_P} |c>,
    x_j(lambda, mu) = <T_{gt_j mu} phi| A_j |T_{gt_j lambda} phi>,

with one displaced pointer per distinct eigenvalue (two for a projector),
each computed on the route's grid by the same spectral translation the
tensor coupling uses.  This is the complex weak-value readout <Q> + i<K> of
Jozsa, PRA 76, 044103 (2007) with the Gaussian overlaps kept, so the numbers
are those of the full system-pointer tensor to rounding.  A chain position
may list alternatives (the weak settings a route scans): the tables are
built once over the union of their eigenvalues, so a route reads all its
settings in one call, about 2^P pattern kets per setting for a chain of P
projectors.  The per-outcome pointer laws of shot sampling come from the
same patterns (outcome_pointer_densities).

Scheme 2 couples F to pointer 1 and then E to pointer 2 conditioned on
pointer 1's position, exp(-i g2 E K2 Q1 t), which shifts pointer 2 by
gt2 lambda q1 on E's value lambda.  Only <Q2> reads pointer 2 and no strong
outcome follows, so terms between different values of E vanish in the trace
over the system, and the readout is the same pattern algebra over the chain
(F, E) with one q1-indexed table (conditional_readout):

    <Q2> = sum_{lambda, q1} x(gt2 lambda q1) p_lambda(q1) dq,
    x(d) = <T_d phi| Q |T_d phi>       (displacement_table),

p_lambda(q1) the weight of E's value lambda at pointer-1 position q1 after
the F coupling.  x is built once per call over the union of E's values.

The full tensor stays as the tests' reference: a JointState is an ensemble
of pure branches, one per eigenvector of rho weighted by its eigenvalue,
each a complex tensor of shape (N, M_1, ..., M_P) with axis 0 the system
and one axis per pointer.  Its couplings (apply_coupling,
apply_conditional_coupling) act on the range of the Hermitian system factor
only: with V the eigenvectors of nonzero eigenvalue, psi -> psi +
V[(T_lambda - 1)(V^dag psi)].  Its readout is one system-resolved moment
per pointer operator, G[s, s'] = sum_b w_b <psi_b[s]| A |psi_b[s']>
(system_moments, pointer_moments), one FFT pair per factor.  No route
builds one.

Accumulated worst-case displacements are tracked per pointer and capped at a
quarter of the grid extent in the relevant representation, keeping spectral
wrap-around below Gaussian tail level.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .hilbert import DensityMatrix, OperatorMatrix, StateVector
from .pointer import PointerGrid, WrapAroundError, gaussian_pointer

HERMITIAN_TOL = 1e-10
POINTER_VARIABLES = ("Q", "K", "a")
# The most complex amplitudes a config may ask a route to hold in one array:
# dim^2 for rho; branches x dim x cells for the route's per-branch state,
# the branches bounded by the state's rank; and 2 x points for the two
# displaced pointers of a projector's table.  The cells per branch and
# system row are points for the per-outcome pointer laws of a sampled run,
# and otherwise the 2^P eigenvalue patterns of a chain of P projectors read
# from tables, Scheme 2's pair (F, E) included; no route holds a pointer
# tensor.  chain_readout and conditional_readout read their settings in
# blocks held under this bound (one setting at least), and
# displacement_table its displaced pointers (one at least).  A
# sampled run's plan keeps its shot record for the whole run: 2 x shots
# float draws, 16 bytes a shot as for an amplitude, so shots is capped at
# the same number (sampling.ShotPlan itself accepts up to 2^31 - 1).
# 2^24 amplitudes are 256 MiB, and a route holds a few such arrays at
# once.  Larger values used to allocate until the process was killed.
MAX_AMPLITUDES = 2**24


class ProtocolAbort(RuntimeError):
    """A route's deliberate abort on one of its own checks: a post-selection
    that fails, outcome probabilities that drift from 1, a readout or a
    reconstructed trace that vanishes.  Bad input raises ValueError instead
    and a wrapped pointer WrapAroundError."""


class PostselectionError(ProtocolAbort):
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
        _require_hermitian(self.observable)

    @property
    def gt(self) -> float:
        return self.g * self.t


def _require_hermitian(op: OperatorMatrix) -> None:
    m = op.matrix
    defect = np.max(np.abs(m - m.conj().T))
    if defect > HERMITIAN_TOL:
        raise ValueError(
            f"coupling observable not Hermitian (defect {defect:.2e});"
            " non-Hermitian products arise from coupling sequences only"
        )


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


def _check_kick(kick: float, grid: PointerGrid) -> None:
    """Wrap guard of a position coupling: accumulated kick <= pi/(4 dq)."""
    limit = np.pi / grid.dq / 4
    if kick > limit:
        raise WrapAroundError(
            f"accumulated momentum kick {kick:.3g} exceeds guard {limit:.3g}"
        )


def _check_conditional(shift: float, grid: PointerGrid) -> None:
    """Wrap guard of a conditional coupling: worst-case shift <= L/4."""
    limit = grid.half_width / 4
    if shift > limit:
        raise WrapAroundError(
            f"worst-case conditional shift {shift:.3g} exceeds guard {limit:.3g}"
        )


def _require_conditional_hermitian(op: OperatorMatrix) -> None:
    m = op.matrix
    if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
        raise ValueError("conditional coupling requires a Hermitian observable")


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


def _branches(system) -> tuple[np.ndarray, np.ndarray]:
    """(weights, kets): a pure state is one branch; a mixed one has one
    branch per eigenvector of rho, eigenvalues below 1e-12 dropped and the
    remaining weights renormalized."""
    if isinstance(system, StateVector):
        return np.ones(1), system.amps[None, :]
    if isinstance(system, DensityMatrix):
        w, v = np.linalg.eigh(system.matrix)
        keep = w > 1e-12
        w, v = w[keep], v[:, keep]
        return w / w.sum(), v.T
    raise TypeError(f"system must be StateVector or DensityMatrix, got {type(system)}")


def make_joint(system, pointers: Sequence[tuple[PointerGrid, float]]) -> JointState:
    """Assemble system (x) phi_i (x) ... (x) phi_i, one branch per
    eigenvector of a mixed system (see _branches)."""
    grids = [g for g, _ in pointers]
    sigmas = [s for _, s in pointers]
    pointer_amps = [gaussian_pointer(g, s).amps for g, s in pointers]
    branches = []
    for weight, vec in zip(*_branches(system)):
        amps = vec
        for pa in pointer_amps:
            amps = np.multiply.outer(amps, pa)
        branches.append(Branch(float(weight), amps))
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
        _check_kick(k_shifts[idx], grid)
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
    _require_conditional_hermitian(e_op)
    gt = g2 * t
    if gt == 0.0:
        return joint
    lam, vecs = _range_eigs(e_op)
    src_grid = joint.grids[src_pointer]
    dst_grid = joint.grids[dst_pointer]
    reach = abs(gt) * float(np.max(np.abs(lam), initial=0.0)) * src_grid.half_width
    q_shifts = list(joint.q_shifts)
    q_shifts[dst_pointer] += reach
    _check_conditional(q_shifts[dst_pointer], dst_grid)
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


def _basis_rows(basis: Sequence[StateVector], dim: int) -> np.ndarray:
    """Rows of a complete orthonormal basis, or ValueError."""
    if len(basis) != dim:
        raise ValueError(f"need a complete basis of {dim} kets, got {len(basis)}")
    rows = np.array([b.amps for b in basis])
    gram = rows @ rows.conj().T
    if np.max(np.abs(gram - np.eye(dim))) > 1e-10:
        raise ValueError("measurement basis is not orthonormal")
    return rows


def _check_probability_sum(total: float, where: str = "") -> None:
    if abs(total - 1.0) > 1e-10:
        raise ProtocolAbort(f"outcome probabilities sum to {total}, expected 1{where}")


def _check_operators(operators: Sequence[Mapping[int, str]], pointers: int) -> None:
    for op in operators:
        for idx, variable in op.items():
            if not 0 <= idx < pointers:
                raise ValueError(f"pointer index {idx} out of range")
            if variable not in POINTER_VARIABLES:
                raise ValueError(
                    f"pointer variable must be one of {POINTER_VARIABLES}, got {variable!r}"
                )


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
    _check_operators(operators, joint.num_pointers)
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


class _Position(NamedTuple):
    """One chain position: how many alternatives it lists (one when the
    chain gives a single observable), the union of their distinct
    eigenvalues, and spectra(ks), the checked spectra (lam, vecs) of the
    alternatives ks, kept from the checks when all fit in one array."""

    count: int
    values: np.ndarray
    spectra: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _spectra(alternatives: Sequence[OperatorMatrix], ks: Sequence[int], dim: int,
             where: Callable[[int], str], guard: Callable[[float], None],
             hermitian: Callable[[OperatorMatrix], None]) -> tuple[np.ndarray, np.ndarray]:
    """Spectra (lam, vecs) of the alternatives ks of one position, each after
    hermitian(op) and the dimension check of apply_coupling, then
    guard(max |lambda|), the wrap guard of its coupling on a fresh pointer;
    where(k) names alternative k in a failed check's message."""
    lam = np.empty((len(ks), dim))
    vecs = np.empty((len(ks), dim, dim), dtype=complex)
    for i, k in enumerate(ks):
        op = alternatives[k]
        try:
            hermitian(op)
            if op.dim != dim:
                raise ValueError("observable dimension does not match the system")
        except ValueError as exc:
            raise ValueError(f"{exc}{where(k)}") from None
        lam[i], vecs[i] = _eigs(op)
    for k, top in zip(ks, np.max(np.abs(lam), axis=1, initial=0.0)):
        try:
            guard(float(top))
        except WrapAroundError as exc:
            raise WrapAroundError(f"{exc}{where(k)}") from None
    return lam, vecs


def _position(obs, j: int, dim: int, guard: Callable[[float], None],
              hermitian: Callable[[OperatorMatrix], None] = _require_hermitian) -> _Position:
    """Chain position j, one observable or a sequence of alternatives, with
    every alternative checked in order (see _spectra)."""
    if isinstance(obs, OperatorMatrix):
        alternatives, where = (obs,), lambda k: ""
    else:
        alternatives, where = obs, lambda k: f" (chain position {j}, alternative {k})"
    if len(alternatives) == 0:
        raise ValueError(f"chain position {j} lists no alternatives")

    def spectra(ks):
        return _spectra(alternatives, ks, dim, where, guard, hermitian)

    count = len(alternatives)
    chunk = max(1, MAX_AMPLITUDES // dim**2)
    lams = []
    for start in range(0, count, chunk):
        lam, vecs = spectra(range(start, min(start + chunk, count)))
        lams.append(lam)
    # sorted distinct eigenvalues; np.unique would import numpy.ma
    # (about 1 MiB resident) on its first call
    values = np.sort(np.concatenate(lams), axis=None)
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    if count > chunk:
        return _Position(count, values, spectra)  # each block recomputes its own
    return _Position(count, values, lambda ks: (lam[ks], vecs[ks]))


def _chain_positions(observables, gts: Sequence[float], grid: PointerGrid,
                     dim: int) -> list[_Position]:
    """Every alternative of every position checked in chain order against
    the wrap guard of its momentum coupling (see _spectra)."""
    if len(observables) != len(gts):
        raise ValueError("need one coupling per observable")
    return [_position(obs, j, dim, lambda top, gt=gt: _check_shift(abs(gt) * top, grid))
            for j, (obs, gt) in enumerate(zip(observables, gts))]


def _chain_patterns(kets: np.ndarray, positions: Sequence[_Position],
                    settings: Sequence[np.ndarray]) -> np.ndarray:
    """Pattern kets V_l psi_b of the given settings, shape (B, S, L, N).

    settings[j][s] is the alternative position j takes in setting s.  V_l =
    V^P_{l_P} ... V^1_{l_1} runs over the eigenvalue patterns l of the chain,
    the first coupling's index slowest, V^j_lambda the spectral projector of
    position j's alternative on the value lambda of its union (zero where
    the alternative lacks that value), applied through the alternative's
    eigenvectors: V_lambda psi = V [1(lam = lambda) (V^dag psi)].
    """
    branches, dim = kets.shape
    amps = kets[:, None, None, :]
    for position, chosen in zip(positions, settings):
        if np.all(chosen == chosen[0]):
            chosen = chosen[:1]  # one alternative for the whole block, broadcast
        lam, vecs = position.spectra(chosen)
        # (B, S, M, L, N): the eigen-components of every earlier pattern m
        # that belong to each value of this position, back in the system basis
        comps = np.matmul(amps, vecs.conj())[:, :, :, None, :]
        comps = comps * (lam[:, None, None, :] == position.values[:, None])
        amps = np.matmul(comps, np.swapaxes(vecs, -1, -2)[:, None])
        amps = amps.reshape(branches, amps.shape[1], -1, dim)
    return amps


def _pattern_moments(weights: np.ndarray, kets: np.ndarray, positions: Sequence[_Position],
                     tables: Sequence[np.ndarray], rows: np.ndarray | None) -> np.ndarray:
    """sum_b w_b sum_{l, m} <c|V_l psi_b> table[l, m] conj(<c|V_m psi_b>) for
    every table, setting (flat, the first position slowest) and outcome row
    c, or the trace over the system when rows is None: shape (tables,
    settings, rows or 1).  Settings are read in blocks whose pattern kets and
    eigenvector stacks stay under MAX_AMPLITUDES (one setting at least)."""
    counts = tuple(p.count for p in positions)
    total = int(np.prod(counts))
    dim = kets.shape[1]
    # a setting's pattern kets, and the eigenvectors of its alternatives
    per_setting = max(kets.shape[0] * tables[0].shape[0] * dim, dim * dim)
    block = max(1, MAX_AMPLITUDES // per_setting)
    out = np.empty((len(tables), total, 1 if rows is None else rows.shape[0]), dtype=complex)
    for start in range(0, total, block):
        flat = np.arange(start, min(start + block, total))
        amps = _chain_patterns(kets, positions, np.unravel_index(flat, counts))
        if rows is not None:
            amps = amps @ rows.conj().T  # <c|V_l psi_b>, one column per outcome c
        conj = amps.conj()
        for i, table in enumerate(tables):
            moment = np.einsum("b,bslc,lm,bsmc->sc", weights, amps, table, conj)
            # no outcome: the trace over the system rows
            out[i, flat] = moment.sum(axis=1, keepdims=True) if rows is None else moment
    return out


def _displaced(phi_hat: np.ndarray, grid: PointerGrid, values: np.ndarray,
               gt: float) -> np.ndarray:
    """fft of T_{gt lambda} phi, one row per eigenvalue lambda, from
    phi_hat = fft(phi): the spectral translation of apply_coupling."""
    return phi_hat * np.exp(-1j * gt * values[:, None] * grid.wavenumbers)


def _pointer_table(shifted: np.ndarray, grid: PointerGrid, sigma: float,
                   variable: str | None) -> np.ndarray:
    """x[l, m] = <T_m phi| A |T_l phi> over the rows of shifted, A the
    identity (None) or the pointer variable Q, K or a."""
    applied = shifted if variable is None else _apply_pointer_variable(
        shifted, grid, sigma, 1, variable)
    return applied @ shifted.conj().T * grid.dq


def chain_readout(system, observables, gts: Sequence[float], grid: PointerGrid, sigma: float,
                  outcomes: Sequence[StateVector] | StateVector | None,
                  *operators: Mapping[int, str]) -> tuple[np.ndarray, ...]:
    """Moments of a chain of momentum couplings, read from eigenvalue tables.

    observables[j] is coupled to pointer j's momentum with g t = gts[j],
    first to last, every pointer a Gaussian of width sigma on grid.  A
    position is one Hermitian observable or a sequence of alternatives (the
    weak settings of a scan), each read as its own chain.  Each operator
    maps pointer index -> variable ("Q", "K" or "a") over distinct pointers,
    as in system_moments.  outcomes is a complete orthonormal basis (a
    strong measurement), one post-selected ket, or None (no outcome).
    Returns (P, P<A_1>, P<A_2>, ...), arrays with one leading axis per
    position that lists alternatives, then the outcome rows (N for a basis,
    one otherwise):

        P(c) <A>_c = sum_b w_b sum_{l, m} <c|V_l psi_b> x(l, m) conj(<c|V_m psi_b>),

    x(l, m) = prod_j x_j(l_j, m_j) with x_j the table of pointer j's factor
    of A (the overlap table for a pointer A does not read).  These are the
    numbers of system_moments on the coupled JointState to rounding, with
    no pointer tensor.  The tables span the union of each position's
    eigenvalues and are built once per call, from two displaced pointers per
    coupling of projectors; a chain of P projectors then costs 2^P pattern
    kets per setting, read in blocks of settings whose arrays stay under
    MAX_AMPLITUDES.  Probabilities are real; each setting keeps the 1e-10
    probability-sum check of a basis or the numerically-zero check of a
    post-selected ket (PostselectionError), and every alternative the
    checks of _spectra.  A failed check names its setting: one alternative
    index per position that lists alternatives, in chain order.
    """
    weights, kets = _branches(system)
    dim = kets.shape[1]
    rows = None
    if isinstance(outcomes, StateVector):
        if outcomes.dim != dim:
            raise ValueError("post-selection ket dimension mismatch")
        rows = outcomes.amps[None, :]
    elif outcomes is not None:
        rows = _basis_rows(outcomes, dim)
    _check_operators(operators, len(observables))
    positions = _chain_positions(observables, gts, grid, dim)
    phi_hat = np.fft.fft(gaussian_pointer(grid, sigma).amps)
    shifted = [np.fft.ifft(_displaced(phi_hat, grid, p.values, gt), axis=1)
               for p, gt in zip(positions, gts)]
    tables = []
    for op in ({}, *operators):
        table = np.ones((1, 1))
        for j, pointer in enumerate(shifted):
            x = _pointer_table(pointer, grid, sigma, op.get(j))
            # Kronecker product: the earlier pointers' pattern index slowest
            table = np.multiply.outer(table, x).transpose(0, 2, 1, 3)
            table = table.reshape(table.shape[0] * table.shape[1], -1)
        tables.append(table)
    out = _pattern_moments(weights, kets, positions, tables, rows)
    probs = out[0].real
    counts = tuple(p.count for p in positions)
    batched = [j for j, obs in enumerate(observables) if not isinstance(obs, OperatorMatrix)]

    def where(s: int) -> str:
        index = np.unravel_index(s, counts)
        return f" at setting {','.join(str(index[j]) for j in batched)}" if batched else ""

    if isinstance(outcomes, StateVector):
        low = np.flatnonzero(probs[:, 0] < 1e-14)
        if low.size:
            raise PostselectionError(f"post-selection probability {probs[low[0], 0]:.3e}"
                                     f" is numerically zero{where(low[0])}")
    elif outcomes is not None:
        sums = probs.sum(axis=1)
        drift = np.flatnonzero(np.abs(sums - 1.0) > 1e-10)
        if drift.size:
            _check_probability_sum(float(sums[drift[0]]), where(drift[0]))
    shape = tuple(counts[j] for j in batched) + out.shape[2:]
    return (probs.reshape(shape), *(moment.reshape(shape) for moment in out[1:]))


def displacement_table(grid: PointerGrid, sigma: float, shifts) -> np.ndarray:
    """x(d) = <T_d phi| Q |T_d phi> for every shift d of shifts (any shape).

    phi is the Gaussian of width sigma on grid and T_d the spectral
    translation of apply_coupling, so x(d) = d in the continuum and on a
    grid that holds the displaced pointer.  Each distinct shift is
    displaced once (a zero eigenvalue gives a row of zero shifts), in blocks
    of pointers under MAX_AMPLITUDES (one pointer at least).
    """
    shifts = np.asarray(shifts, dtype=float)
    # distinct shifts by sorting; np.unique would import numpy.ma
    order = np.argsort(shifts, axis=None)
    ordered = shifts.ravel()[order]
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    phi_hat = np.fft.fft(gaussian_pointer(grid, sigma).amps)
    # fftfreq order: the wavenumbers past M/2 negate those below it, so
    # their phases are conjugates
    half = grid.points // 2 + 1
    x = np.empty(distinct.size)
    block = max(1, MAX_AMPLITUDES // grid.points)
    for start in range(0, distinct.size, block):
        phase = np.exp(-1j * distinct[start:start + block, None] * grid.wavenumbers[:half])
        phase = np.concatenate((phase, phase[:, half - 2:0:-1].conj()), axis=1)
        shifted = np.fft.ifft(phi_hat * phase, axis=1)
        x[start:start + block] = np.abs(shifted) ** 2 @ grid.positions * grid.dq
    out = np.empty(shifts.size)
    out[order] = x[np.cumsum(first) - 1]
    return out.reshape(shifts.shape)


def conditional_readout(system, f_op, e_op, gt1: float, gt2: float, grid: PointerGrid,
                        sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """<Q2> of Scheme 2 in both variants, read from a q1-indexed table.

    F is coupled to pointer 1's momentum K1 (variant K) or position Q1
    (variant Q) with g t = gt1, then E conditionally to pointer 2,
    exp(-i gt2 E K2 Q1); both pointers are Gaussians of width sigma on
    grid.  f_op and e_op are each a Hermitian observable or a sequence of
    alternatives.  Returns (<Q2>_K, <Q2>_Q), real arrays with one axis per
    operand that lists alternatives, F's first.

    The conditional coupling shifts pointer 2 by gt2 lambda q1 on E's value
    lambda.  Only <Q2> reads pointer 2, and terms between different values
    of E vanish in the trace over the system, so

        <Q2> = sum_b w_b sum_{f, f', lambda} <V_lambda V_f' psi_b|V_lambda V_f psi_b> y_lambda(f, f'),
        y_lambda(f, f') = sum_{q1} chi_f(q1) conj(chi_f'(q1)) x(gt2 lambda q1) dq,

    with chi_f = T_{gt1 f} phi (K) or exp(-i gt1 f Q) phi (Q) the first
    pointer after F's value f and x the displacement_table, built once per
    call over the union of E's values and shared by both variants.  The
    pattern kets V_lambda V_f psi_b are those of chain_readout for the
    chain (F, E).  These are the numbers of pointer_moments on the two-pointer
    JointState after apply_coupling and apply_conditional_coupling to
    rounding, with no pointer tensor.  Every alternative of F gets the
    Hermitian and dimension checks and the shift and kick guards of
    apply_coupling, then every alternative of E the checks of
    apply_conditional_coupling, its reach gt2 max|lambda| half_width; a
    failed check names its alternative as chain_readout does.
    """
    weights, kets = _branches(system)
    dim = kets.shape[1]

    def f_guard(top: float) -> None:
        _check_shift(abs(gt1) * top, grid)
        _check_kick(abs(gt1) * top, grid)

    f_pos = _position(f_op, 0, dim, f_guard)
    e_pos = _position(e_op, 1, dim,
                      lambda top: _check_conditional(abs(gt2) * top * grid.half_width, grid),
                      _require_conditional_hermitian)
    phi = gaussian_pointer(grid, sigma).amps
    chis = (np.fft.ifft(_displaced(np.fft.fft(phi), grid, f_pos.values, gt1), axis=1),
            phi * np.exp(-1j * gt1 * f_pos.values[:, None] * grid.positions))
    x = displacement_table(grid, sigma, gt2 * e_pos.values[:, None] * grid.positions)
    patterns = f_pos.values.size * e_pos.values.size
    same_value = np.eye(e_pos.values.size)[None, :, None, :]
    tables = []
    for chi in chis:
        y = np.einsum("fq,gq,lq->flg", chi, chi.conj(), x) * grid.dq
        # pattern (f, lambda), F's value slowest, paired only with its own lambda
        tables.append((y[..., None] * same_value).reshape(patterns, patterns))
    out = _pattern_moments(weights, kets, [f_pos, e_pos], tables, None)
    shape = tuple(p.count for p, op in zip((f_pos, e_pos), (f_op, e_op))
                  if not isinstance(op, OperatorMatrix))
    return tuple(moment[:, 0].real.reshape(shape) for moment in out)


def outcome_pointer_densities(system, observable: OperatorMatrix, gt: float,
                              grid: PointerGrid, sigma: float,
                              basis: Sequence[StateVector]) -> tuple[np.ndarray, ...]:
    """Pointer laws per strong outcome after one momentum coupling.

    Couples observable to a Gaussian pointer (grid, sigma) with g t = gt,
    then measures the complete orthonormal basis.  Returns (P, Q, K): P[c]
    the outcome probabilities (summing to 1 within 1e-10), and Q[c] and K[c]
    the position and momentum (FFT order) mass per cell of the pointer
    jointly with outcome c, each summing to P[c]:

        Q[c] = sum_b w_b |sum_l <c|V_l psi_b> T_{gt lambda_l} phi|^2 dq,

    and K likewise with the displaced pointers in momentum space.  Same
    patterns, displaced pointers and checks as chain_readout.
    """
    weights, kets = _branches(system)
    rows = _basis_rows(basis, kets.shape[1])
    (position,) = _chain_positions([observable], [gt], grid, kets.shape[1])
    amps = _chain_patterns(kets, [position], [np.zeros(1, dtype=int)])[:, 0]
    # (B, C, L) outcome amplitudes of each displaced pointer
    amps = np.swapaxes(amps @ rows.conj().T, 1, 2)
    k_pointers = _displaced(np.fft.fft(gaussian_pointer(grid, sigma).amps), grid,
                            position.values, gt)
    q_pointers = np.fft.ifft(k_pointers, axis=1)
    q_mass = np.einsum("b,bcq->cq", weights, np.abs(amps @ q_pointers) ** 2) * grid.dq
    k_mass = np.einsum("b,bck->ck", weights, np.abs(amps @ k_pointers) ** 2)
    k_mass *= grid.dq / grid.points
    probs = q_mass.sum(axis=1)
    _check_probability_sum(float(probs.sum()))
    return probs, q_mass, k_mass


def weak_value_from_moments(qf: float, kf: float, g: float, t: float, sigma: float) -> complex:
    """<A^w> = <Q>_f/(g t) + i <K>_f 2 sigma^2/(g t), hbar = 1."""
    gt = g * t
    if gt <= 0:
        raise ValueError(f"need positive coupling g*t, got {gt}")
    return qf / gt + 1j * kf * 2.0 * sigma**2 / gt
