from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from weakmeas import evolution
from weakmeas.evolution import (
    Branch,
    CouplingSpec,
    JointState,
    PostselectionError,
    apply_conditional_coupling,
    apply_coupling,
    chain_readout,
    conditional_readout,
    displacement_table,
    joint_ann_moment,
    make_joint,
    outcome_pointer_densities,
    pointer_moments,
    system_moments,
    weak_value_from_moments,
)
from weakmeas.hilbert import (
    DensityMatrix,
    OperatorMatrix,
    StateVector,
    fourier_basis,
    fourier_ket,
    projector,
    random_density,
    random_state,
    standard_basis,
    standard_ket,
)
from weakmeas.pointer import PointerGrid, WrapAroundError

GRID = PointerGrid(512, 16.0)
PI0 = projector(standard_ket(2, 0))


def one_pointer(system):
    return make_joint(system, [(GRID, 1.0)])


# Full-tensor references: the reduced states of a JointState.


def reduced_system_density(joint):
    """Trace out all pointers; the N x N system density matrix."""
    axes = list(range(1, joint.num_pointers + 1))
    rho = sum(w * np.tensordot(amps, amps.conj(), axes=(axes, axes))
              for w, amps in joint.branches)
    return rho * joint.measure


def _pointer_mass(joint, idx, transform):
    ax = idx + 1
    mass = 0.0
    for weight, amps in joint.branches:
        dens = np.abs(transform(amps, ax)) ** 2
        mass = mass + weight * dens.sum(axis=tuple(a for a in range(amps.ndim) if a != ax))
    return mass * joint.measure


def reduced_position_density(joint, idx):
    """Probability mass per position cell of pointer idx; sums to 1."""
    return _pointer_mass(joint, idx, lambda amps, ax: amps)


def reduced_momentum_density(joint, idx):
    """Probability mass per wavenumber cell (FFT order) of pointer idx."""
    mass = _pointer_mass(joint, idx, lambda amps, ax: np.fft.fft(amps, axis=ax))
    return mass / joint.grids[idx].points


def postselect(joint, c):
    """(P(c), the normalized JointState after outcome |c>): the system factor
    is |c>, each branch keeps its conditioned pointer amplitudes, reweighted
    by its share of P(c)."""
    conds = [(w, np.tensordot(c.amps.conj(), amps, axes=(0, 0))) for w, amps in joint.branches]
    masses = [w * float(np.sum(np.abs(cond) ** 2) * joint.measure) for w, cond in conds]
    prob = sum(masses)
    branches = [
        Branch(mass / prob, np.multiply.outer(c.amps, cond * np.sqrt(w / mass)))
        for (w, cond), mass in zip(conds, masses) if mass / prob > 1e-15
    ]
    total = sum(b.weight for b in branches)
    branches = [Branch(b.weight / total, b.amps) for b in branches]
    return prob, JointState(branches, joint.grids, joint.sigmas)


class TestMakeJoint:
    def test_pure_state_single_branch(self):
        joint = one_pointer(standard_ket(2, 0))
        assert len(joint.branches) == 1
        assert joint.branches[0].weight == 1.0

    def test_maximally_mixed_two_branches(self):
        joint = one_pointer(DensityMatrix(np.eye(2) / 2))
        assert len(joint.branches) == 2
        assert_allclose(sorted(b.weight for b in joint.branches), [0.5, 0.5])

    def test_rank_two_weights(self):
        rho = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
        weights = sorted(b.weight for b in one_pointer(rho).branches)
        assert_allclose(weights, [0.1, 0.9], atol=1e-12)

    def test_reduced_density_round_trip(self):
        rho = random_density(3, seed=4, rank=2)
        joint = make_joint(rho, [(GRID, 1.0)])
        assert_allclose(reduced_system_density(joint), rho.matrix, atol=1e-10)


class TestApplyCoupling:
    def test_eigenstate_translation_exact(self):
        """On an eigenstate the pointer is rigidly translated by gt * eigenvalue."""
        a = OperatorMatrix(np.diag([0.7, -0.2]).astype(complex))
        joint = apply_coupling(one_pointer(standard_ket(2, 0)),
                               CouplingSpec(a, 0, 0.5, 1.0))
        qf, kf = pointer_moments(joint, 0)
        assert qf == pytest.approx(0.5 * 0.7, abs=1e-10)
        assert kf == pytest.approx(0.0, abs=1e-12)

    def test_zero_coupling_identity(self):
        joint = one_pointer(standard_ket(2, 0))
        after = apply_coupling(joint, CouplingSpec(PI0, 0, 0.0, 1.0))
        assert_allclose(pointer_moments(after, 0), pointer_moments(joint, 0),
                        atol=1e-14)

    def test_weak_average_convergence(self):
        """<Q>_f / gt approaches Tr[pi_0 rho] = 0.5 with O((gt)^2) error."""
        psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
        for gt in (0.08, 0.02):
            joint = apply_coupling(one_pointer(psi), CouplingSpec(PI0, 0, gt, 1.0))
            qf, _ = pointer_moments(joint, 0)
            assert abs(qf / gt - 0.5) < 2 * gt**2

    def test_position_coupling_kicks_momentum(self):
        spec = CouplingSpec(PI0, 0, 0.3, 1.0, variable="Q")
        joint = apply_coupling(one_pointer(standard_ket(2, 0)), spec)
        qf, kf = pointer_moments(joint, 0)
        assert kf == pytest.approx(-0.3, abs=1e-10)
        assert qf == pytest.approx(0.0, abs=1e-12)

    def test_non_hermitian_observable_rejected(self):
        bad = OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            CouplingSpec(bad, 0, 0.02, 1.0)

    def test_wrap_guard(self):
        with pytest.raises(WrapAroundError):
            apply_coupling(one_pointer(standard_ket(2, 0)),
                           CouplingSpec(PI0, 0, 5.0, 1.0))

    def test_branch_norms_preserved(self):
        rho = random_density(2, seed=9, rank=2)
        joint = apply_coupling(make_joint(rho, [(GRID, 1.0)]),
                               CouplingSpec(PI0, 0, 0.08, 1.0))
        for _, amps in joint.branches:
            norm = np.sum(np.abs(amps) ** 2) * joint.measure
            assert norm == pytest.approx(1.0, abs=1e-10)


class TestConditionalCoupling:
    def two_pointer(self, system):
        grid = PointerGrid(256, 16.0)
        return make_joint(system, [(grid, 1.0), (grid, 1.0)])

    def test_zero_coupling_identity(self):
        joint = self.two_pointer(standard_ket(2, 0))
        after = apply_conditional_coupling(joint, PI0, 0, 1, 0.0, 1.0)
        assert_allclose(pointer_moments(after, 1), pointer_moments(joint, 1),
                        atol=1e-14)

    def test_identity_observable_relays_src_position(self):
        """With E = I the dst shift is g2 t <Q_src> by linearity."""
        joint = self.two_pointer(standard_ket(2, 0))
        # displace the source pointer by coupling the identity with gt = q0
        eye = OperatorMatrix(np.eye(2, dtype=complex))
        joint = apply_coupling(joint, CouplingSpec(eye, 0, 0.8, 1.0))
        joint = apply_conditional_coupling(joint, eye, 0, 1, 0.2, 1.0)
        q2, _ = pointer_moments(joint, 1)
        assert q2 == pytest.approx(0.2 * 0.8, abs=1e-9)

    def test_wrap_guard_on_dst(self):
        joint = self.two_pointer(standard_ket(2, 0))
        eye = OperatorMatrix(np.eye(2, dtype=complex))
        with pytest.raises(WrapAroundError):
            apply_conditional_coupling(joint, eye, 0, 1, 2.0, 1.0)

    def test_same_pointer_rejected(self):
        joint = self.two_pointer(standard_ket(2, 0))
        with pytest.raises(ValueError):
            apply_conditional_coupling(joint, PI0, 1, 1, 0.1, 1.0)


class TestPostselect:
    def test_orthogonal_outcome_errors(self):
        with pytest.raises(PostselectionError):
            chain_readout(standard_ket(2, 0), [PI0], [0.02], GRID, 1.0, standard_ket(2, 1))

    def test_same_state_probability_one(self):
        psi = StateVector(np.array([0.6, 0.8]))
        (prob,), (pq,), (pk,) = chain_readout(psi, [PI0], [0.0], GRID, 1.0, psi,
                                              {0: "Q"}, {0: "K"})
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert_allclose((pq, pk), (0.0, 0.0), atol=1e-12)

    def test_probability_scales_quadratically_near_orthogonal(self):
        """pi/4 pre/post pair is orthogonal, so prob ~ (gt)^2."""
        psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
        c = StateVector(np.array([1.0, -1.0]) / np.sqrt(2))
        probs = [chain_readout(psi, [PI0], [gt], GRID, 1.0, c)[0][0] for gt in (0.04, 0.02)]
        assert probs[0] / probs[1] == pytest.approx(4.0, rel=0.05)

    def test_matches_reduced_state_probability(self):
        rho = random_density(2, seed=1, rank=2)
        joint = apply_coupling(make_joint(rho, [(GRID, 1.0)]),
                               CouplingSpec(PI0, 0, 0.05, 1.0))
        c = StateVector(np.array([0.6, 0.8j]))
        (prob,) = chain_readout(rho, [PI0], [0.05], GRID, 1.0, c)
        reduced = reduced_system_density(joint)
        assert prob[0] == pytest.approx(
            float(np.real(np.vdot(c.amps, reduced @ c.amps))), abs=1e-10
        )

    def test_keeps_the_ket_checks(self):
        with pytest.raises(ValueError, match="dimension"):
            chain_readout(standard_ket(2, 0), [PI0], [0.02], GRID, 1.0, standard_ket(3, 0))


class TestStrongMeasure:
    def test_eigenstate(self):
        (probs,) = chain_readout(standard_ket(2, 0), [PI0], [0.02], GRID, 1.0,
                                 standard_basis(2))
        assert_allclose(probs, [1.0, 0.0], atol=1e-12)

    def test_unbiased_basis_uniform(self):
        (probs,) = chain_readout(standard_ket(2, 0), [PI0], [0.02], GRID, 1.0,
                                 fourier_basis(2))
        assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_maximally_mixed_uniform(self):
        (probs,) = chain_readout(DensityMatrix(np.eye(2) / 2), [PI0], [0.02], GRID, 1.0,
                                 standard_basis(2))
        assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_non_orthonormal_basis_rejected(self):
        bad = [standard_ket(2, 0), StateVector(np.array([0.6, 0.8]))]
        with pytest.raises(ValueError, match="orthonormal"):
            chain_readout(standard_ket(2, 0), [PI0], [0.02], GRID, 1.0, bad)

    def test_incomplete_basis_rejected(self):
        with pytest.raises(ValueError, match="complete basis"):
            chain_readout(standard_ket(2, 0), [PI0], [0.02], GRID, 1.0, [standard_ket(2, 0)])


class TestJointAnnMoment:
    def two_pointer(self, system):
        grid = PointerGrid(256, 16.0)
        return make_joint(system, [(grid, 1.0), (grid, 1.0)])

    def test_unshifted_gaussians_vanish(self):
        joint = self.two_pointer(standard_ket(2, 0))
        assert abs(joint_ann_moment(joint, 0, 1)) < 1e-12

    def test_single_displacement_vanishes(self):
        """a_2 still annihilates its Gaussian, killing the product."""
        joint = self.two_pointer(standard_ket(2, 0))
        eye = OperatorMatrix(np.eye(2, dtype=complex))
        joint = apply_coupling(joint, CouplingSpec(eye, 0, 0.5, 1.0))
        assert abs(joint_ann_moment(joint, 0, 1)) < 1e-12

    def test_index_collision_rejected(self):
        joint = self.two_pointer(standard_ket(2, 0))
        with pytest.raises(ValueError):
            joint_ann_moment(joint, 1, 1)


def reference_ann_moment(joint, indices):
    """<prod_i a_i> summed over the 2^P mixed position/momentum densities.

    Independent of the engine's operator application: a = Q/(2 sigma) +
    i sigma K is expanded, and each term is a density contraction in the
    representation where its factors are diagonal.
    """
    total = 0j
    for picks in product("QK", repeat=len(indices)):
        k_axes = [idx + 1 for idx, pick in zip(indices, picks) if pick == "K"]
        coeff = 1.0 + 0j
        term = 0.0
        for weight, amps in joint.branches:
            dens = np.abs(np.fft.fftn(amps, axes=k_axes) if k_axes else amps) ** 2
            for idx, pick in zip(indices, picks):
                grid = joint.grids[idx]
                vec = grid.positions if pick == "Q" else grid.wavenumbers / grid.points
                dens = dens * vec.reshape([-1 if a == idx + 1 else 1 for a in range(dens.ndim)])
            term += weight * dens.sum()
        for idx, pick in zip(indices, picks):
            sigma = joint.sigmas[idx]
            coeff *= 1 / (2 * sigma) if pick == "Q" else 1j * sigma
        total += coeff * term * joint.measure
    return total


READOUT_GRIDS = {1: PointerGrid(128, 16.0), 2: PointerGrid(64, 16.0), 3: PointerGrid(32, 16.0)}


def coupled_joint(pointers, rank, n=3):
    """n-level system, one random projector coupled per pointer, K and Q
    variables alternating, couplings large enough for O(0.1) moments, and a
    pointer width other than 1 so every sigma factor shows."""
    system = random_state(n, 11) if rank == 1 else random_density(n, 11, rank)
    joint = make_joint(system, [(READOUT_GRIDS[pointers], 1.25)] * pointers)
    for j in range(pointers):
        spec = CouplingSpec(projector(random_state(n, 20 + j)), j, 0.3 + 0.1 * j, 1.0,
                            "K" if j % 2 == 0 else "Q")
        joint = apply_coupling(joint, spec)
    return joint


class TestResolvedReadout:
    @pytest.mark.parametrize("pointers", [2, 3])
    def test_joint_moment_is_the_trace(self, pointers):
        joint = coupled_joint(pointers, 2)
        indices = tuple(range(pointers))
        expected = reference_ann_moment(joint, indices)
        assert abs(expected) > 1e-3
        assert abs(joint_ann_moment(joint, *indices) - expected) < 1e-12
        (moment,) = system_moments(joint, dict.fromkeys(indices, "a"))
        assert abs(np.trace(moment) - expected) < 1e-12

    def test_pointer_moments_match_reduced_densities(self):
        joint = coupled_joint(2, 2)
        for idx in (0, 1):
            grid = joint.grids[idx]
            qf = np.sum(grid.positions * reduced_position_density(joint, idx))
            kf = np.sum(grid.wavenumbers * reduced_momentum_density(joint, idx))
            assert_allclose(pointer_moments(joint, idx), (qf, kf), atol=1e-12)

    def test_identity_moment_is_reduced_density(self):
        joint = coupled_joint(2, 2)
        (gram,) = system_moments(joint, {})
        assert_allclose(gram, reduced_system_density(joint).T, atol=1e-12)

    def test_bad_operator_rejected(self):
        joint = one_pointer(standard_ket(2, 0))
        with pytest.raises(ValueError, match="out of range"):
            system_moments(joint, {1: "Q"})
        with pytest.raises(ValueError, match="variable"):
            system_moments(joint, {0: "P"})


def full_eigenbasis_coupling(joint, matrix, phase_of, fft_axis):
    """V U_lambda V^dag psi over every eigenvector, per branch amplitudes."""
    lam, vecs = np.linalg.eigh(matrix)
    phase = phase_of(lam.reshape([-1] + [1] * joint.num_pointers))
    out = []
    for _, amps in joint.branches:
        eig = np.tensordot(vecs.conj().T, amps, axes=(1, 0))
        if fft_axis is None:
            eig = eig * phase
        else:
            eig = np.fft.ifft(np.fft.fft(eig, axis=fft_axis) * phase, axis=fft_axis)
        out.append(np.tensordot(vecs, eig, axes=(1, 0)))
    return out


def rank_two_observable(n=3):
    """Hermitian, not a projector, eigenvalues (0.7, -0.4, 0, ...)."""
    q, _ = np.linalg.qr(random_state(n * n, 31).amps.reshape(n, n))
    lam = np.zeros(n)
    lam[:2] = (0.7, -0.4)
    return OperatorMatrix(q @ np.diag(lam) @ q.conj().T)


class TestRangeCoupling:
    GRID = PointerGrid(64, 16.0)

    def start(self):
        joint = make_joint(random_density(3, 8, 2), [(self.GRID, 1.0)] * 2)
        # displace pointer 0 so a conditional coupling has a source signal
        return apply_coupling(joint, CouplingSpec(projector(random_state(3, 9)), 0, 0.5, 1.0))

    @pytest.mark.parametrize("variable", ["K", "Q"])
    @pytest.mark.parametrize("kind", ["projector", "observable"])
    def test_matches_full_eigenbasis(self, kind, variable):
        op = projector(random_state(3, 4)) if kind == "projector" else rank_two_observable()
        joint = self.start()
        gt = 0.4
        nd = 3
        if variable == "K":
            k = self.GRID.wavenumbers.reshape(1, 1, -1)
            expected = full_eigenbasis_coupling(
                joint, op.matrix, lambda lam: np.exp(-1j * gt * lam * k), nd - 1)
        else:
            q = self.GRID.positions.reshape(1, 1, -1)
            expected = full_eigenbasis_coupling(
                joint, op.matrix, lambda lam: np.exp(-1j * gt * lam * q), None)
        coupled = apply_coupling(joint, CouplingSpec(op, 1, gt, 1.0, variable))
        for branch, ref in zip(coupled.branches, expected):
            assert np.max(np.abs(branch.amps - ref)) < 1e-12

    @pytest.mark.parametrize("kind", ["projector", "observable"])
    def test_conditional_matches_full_eigenbasis(self, kind):
        op = projector(random_state(3, 4)) if kind == "projector" else rank_two_observable()
        joint = self.start()
        gt = 0.05
        q_src = self.GRID.positions.reshape(1, -1, 1)
        k_dst = self.GRID.wavenumbers.reshape(1, 1, -1)
        expected = full_eigenbasis_coupling(
            joint, op.matrix, lambda lam: np.exp(-1j * gt * lam * q_src * k_dst), 2)
        coupled = apply_conditional_coupling(joint, op, 0, 1, gt, 1.0)
        for branch, ref in zip(coupled.branches, expected):
            assert np.max(np.abs(branch.amps - ref)) < 1e-12

    def test_standard_projector_moves_one_row(self):
        joint = self.start()
        coupled = apply_coupling(joint, CouplingSpec(projector(standard_ket(3, 1)), 1, 0.4, 1.0))
        for before, after in zip(joint.branches, coupled.branches):
            assert np.array_equal(before.amps[[0, 2]], after.amps[[0, 2]])
            assert not np.allclose(before.amps[1], after.amps[1])


def three_level_observable():
    """Hermitian, not a projector: diag(0, 1, 2) + 0.3 J."""
    return OperatorMatrix(np.diag([0.0, 1.0, 2.0]) + 0.3 * np.ones((3, 3)))


def chain_ops(kind, pointers, n=3):
    """A random projector per pointer, or diag(0, 1, 2) + 0.3 J on each."""
    if kind == "observable":
        return [three_level_observable()] * pointers
    return [projector(random_state(n, 20 + j)) for j in range(pointers)]


def tensor_readout(system, ops, gts, grid, sigma, outcomes, *operators):
    """chain_readout on the full tensor: make_joint, apply_coupling per op,
    then c^T G conj(c) of system_moments per outcome row (the trace for
    None)."""
    joint = make_joint(system, [(grid, sigma)] * len(ops))
    for j, (op, gt) in enumerate(zip(ops, gts)):
        joint = apply_coupling(joint, CouplingSpec(op, j, gt, 1.0))
    moments = system_moments(joint, {}, *operators)
    if outcomes is None:
        return np.trace(moments, axis1=1, axis2=2)[:, None]
    rows = np.array([c.amps for c in outcomes])
    return np.einsum("cs,ost,ct->oc", rows, moments, rows.conj())


def outcome_rows(kind, n=3):
    return {"standard": standard_basis(n), "fourier": fourier_basis(n),
            "ket": random_state(n, 5), "none": None}[kind]


class TestChainReadout:
    SIGMA = 1.25

    @pytest.mark.parametrize("rows", ["standard", "fourier", "ket", "none"])
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("kind", ["projector", "observable"])
    @pytest.mark.parametrize("pointers", [1, 2, 3])
    def test_matches_the_full_tensor(self, pointers, kind, rank, rows):
        system = random_state(3, 11) if rank == 1 else random_density(3, 11, rank)
        ops = chain_ops(kind, pointers)
        gts = [0.3 + 0.1 * j for j in range(pointers)]
        grid = READOUT_GRIDS[pointers]
        last = pointers - 1
        operators = ({0: "Q"}, {last: "K"}, {0: "K", last: "Q"},
                     dict.fromkeys(range(pointers), "a"), {last: "a"})
        outcomes = outcome_rows(rows)
        got = np.array(chain_readout(system, ops, gts, grid, self.SIGMA, outcomes, *operators))
        ref_rows = [outcomes] if isinstance(outcomes, StateVector) else outcomes
        expected = tensor_readout(system, ops, gts, grid, self.SIGMA, ref_rows, *operators)
        assert got.shape == expected.shape
        assert np.max(np.abs(expected[1:])) > 1e-3
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_no_rows_is_the_unconditioned_moment(self):
        system = random_density(3, 11, 2)
        ops = chain_ops("projector", 2)
        (prob,), (moment,) = chain_readout(system, ops, [0.3, 0.4], READOUT_GRIDS[2],
                                           self.SIGMA, None, {0: "a", 1: "a"})
        assert prob == pytest.approx(1.0, abs=1e-12)
        joint = make_joint(system, [(READOUT_GRIDS[2], self.SIGMA)] * 2)
        for j, (op, gt) in enumerate(zip(ops, [0.3, 0.4])):
            joint = apply_coupling(joint, CouplingSpec(op, j, gt, 1.0))
        assert abs(moment - joint_ann_moment(joint, 0, 1)) < 1e-12

    def test_post_selected_ket_matches_the_conditioned_state(self):
        system = random_density(3, 11, 2)
        op, c = projector(random_state(3, 20)), random_state(3, 5)
        (prob,), (pq,), (pk,) = chain_readout(system, [op], [0.3], READOUT_GRIDS[1],
                                              self.SIGMA, c, {0: "Q"}, {0: "K"})
        joint = apply_coupling(make_joint(system, [(READOUT_GRIDS[1], self.SIGMA)]),
                               CouplingSpec(op, 0, 0.3, 1.0))
        ref_prob, state = postselect(joint, c)
        assert prob == pytest.approx(ref_prob, abs=1e-12)
        assert_allclose((pq.real / prob, pk.real / prob), pointer_moments(state, 0), atol=1e-12)

    @pytest.mark.parametrize("gt", [1.5, 2.1, 3.9, 4.1, -4.1])
    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("kind", ["projector", "observable"])
    def test_wrap_guard_fires_where_apply_coupling_does(self, kind, position, gt):
        grid = PointerGrid(64, 16.0)
        op = chain_ops(kind, 1)[0]
        ops = [projector(random_state(3, 21))]
        ops.insert(position, op)
        gts = [0.3]
        gts.insert(position, gt)
        system = random_state(3, 11)
        errors = []
        for run in (
            lambda: tensor_readout(system, ops, gts, grid, self.SIGMA, None),
            lambda: chain_readout(system, ops, gts, grid, self.SIGMA, None),
        ):
            try:
                run()
                errors.append(None)
            except WrapAroundError as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1]
        reach = abs(gt) * np.max(np.abs(np.linalg.eigvalsh(op.matrix)))
        assert (errors[0] is None) == (reach <= grid.half_width / 4)

    def test_rejects_bad_chains_and_operators(self):
        psi = random_state(3, 11)
        with pytest.raises(ValueError, match="dimension"):
            chain_readout(psi, [PI0], [0.1], GRID, 1.0, None)
        skew = OperatorMatrix(np.triu(np.ones((3, 3))))
        with pytest.raises(ValueError, match="Hermitian"):
            chain_readout(psi, [skew], [0.1], GRID, 1.0, None)
        op = projector(random_state(3, 20))
        with pytest.raises(ValueError, match="one coupling per observable"):
            chain_readout(psi, [op, op], [0.1], GRID, 1.0, None)
        with pytest.raises(ValueError, match="out of range"):
            chain_readout(psi, [op], [0.1], GRID, 1.0, None, {1: "Q"})
        with pytest.raises(ValueError, match="variable"):
            chain_readout(psi, [op], [0.1], GRID, 1.0, None, {0: "P"})


def random_hermitian(n, seed):
    """A Hermitian matrix of spectral radius at most 1 with a random spectrum."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = m + m.conj().T
    return OperatorMatrix(m / np.max(np.abs(np.linalg.eigvalsh(m))))


class TestBatchedChainReadout:
    """Alternatives at a chain position read as the loop of single chains."""

    SIGMA = 1.25

    @settings(max_examples=40, deadline=None)
    @given(pointers=st.integers(1, 3), rows=st.sampled_from(["fourier", "ket", "none"]),
           rank=st.integers(1, 3), seed=st.integers(0, 2**16), data=st.data())
    def test_equals_the_loop_of_single_calls(self, pointers, rows, rank, seed, data):
        system = random_state(3, seed) if rank == 1 else random_density(3, seed, rank)
        batched = data.draw(st.sets(st.integers(0, pointers - 1), min_size=1), "batched")
        differ = data.draw(st.sampled_from(sorted(batched)), "differ")
        observables = []
        for j in range(pointers):
            if j == differ:  # spectra differ from one alternative to the next
                alts = [random_hermitian(3, seed + 7 * k + j) for k in range(3)]
            else:
                alts = [projector(random_state(3, seed + 11 * k + j)) for k in range(2)]
            observables.append(alts if j in batched else alts[0])
        gts = [0.3 + 0.1 * j for j in range(pointers)]
        grid = READOUT_GRIDS[pointers]
        operators = ({0: "Q"}, {pointers - 1: "K"}, dict.fromkeys(range(pointers), "a"))
        outcomes = outcome_rows(rows)
        got = chain_readout(system, observables, gts, grid, self.SIGMA, outcomes, *operators)
        counts = [len(obs) for j, obs in enumerate(observables) if j in batched]
        for out in got:
            assert out.shape == (*counts, 3 if rows == "fourier" else 1)
        for index in np.ndindex(*counts):
            chosen = dict(zip(sorted(batched), index))
            chain = [obs[chosen[j]] if j in batched else obs for j, obs in enumerate(observables)]
            single = chain_readout(system, chain, gts, grid, self.SIGMA, outcomes, *operators)
            for out, ref in zip(got, single):
                assert np.max(np.abs(out[index] - ref)) < 1e-12

    # A setting holds 2 branches x (2 x 3 x 2) patterns x 3 rows = 72
    # amplitudes, and a position's spectra 9 per alternative: 216 reads three
    # settings a block, 27 one setting a block with every position's spectra
    # checked three alternatives at a time and recomputed per block.
    @pytest.mark.parametrize("bound", [216, 27])
    def test_blocks_under_the_amplitude_bound_read_the_same(self, monkeypatch, bound):
        system = random_density(3, 4, 2)
        alts = [projector(random_state(3, k)) for k in range(4)]
        chain = [alts, random_hermitian(3, 9), alts]
        args = ([0.3, 0.4, 0.5], READOUT_GRIDS[3], self.SIGMA, None, {0: "a", 1: "a", 2: "a"})
        whole = chain_readout(system, chain, *args)
        monkeypatch.setattr(evolution, "MAX_AMPLITUDES", bound)
        blocks = chain_readout(system, chain, *args)
        for a, b in zip(whole, blocks):
            assert a.shape == (4, 4, 1)
            assert np.max(np.abs(a - b)) < 1e-15

    def test_a_failed_check_names_its_setting(self):
        psi = standard_ket(2, 0)
        # only the coupling to |+><+| moves any amplitude onto |1>
        alts = [projector(fourier_basis(2)[0]), PI0]
        with pytest.raises(PostselectionError, match="numerically zero at setting 1$"):
            chain_readout(psi, [alts], [0.02], GRID, 1.0, standard_ket(2, 1))
        wide = [PI0, OperatorMatrix(np.diag([0.0, 300.0]))]
        with pytest.raises(WrapAroundError, match=r"\(chain position 1, alternative 1\)$"):
            chain_readout(psi, [PI0, wide], [0.02, 0.02], GRID, 1.0, None)
        skew = OperatorMatrix(np.triu(np.ones((2, 2))))
        with pytest.raises(ValueError, match=r"Hermitian.*\(chain position 0, alternative 2\)$"):
            chain_readout(psi, [[PI0, PI0, skew]], [0.02], GRID, 1.0, None)
        with pytest.raises(ValueError, match=r"dimension.*alternative 0\)$"):
            chain_readout(psi, [[projector(standard_ket(3, 0))]], [0.02], GRID, 1.0, None)
        with pytest.raises(ValueError, match="lists no alternatives"):
            chain_readout(psi, [[]], [0.02], GRID, 1.0, None)

    def test_probability_drift_names_its_setting(self, monkeypatch):
        # A basis that passes _basis_rows but is scaled inside the readout.
        rows = evolution._basis_rows
        monkeypatch.setattr(evolution, "_basis_rows", lambda basis, dim: 1.1 * rows(basis, dim))
        with pytest.raises(evolution.ProtocolAbort, match="expected 1 at setting 0$"):
            chain_readout(standard_ket(2, 0), [[PI0, PI0]], [0.02], GRID, 1.0,
                          standard_basis(2))


def tensor_conditional(system, f_op, e_op, gt1, gt2, grid, sigma):
    """conditional_readout on the full tensor: per variant, make_joint,
    apply_coupling of F to K1 or Q1, apply_conditional_coupling of E, then
    <Q2> from pointer_moments."""
    out = []
    for variable in ("K", "Q"):
        joint = make_joint(system, [(grid, sigma)] * 2)
        joint = apply_coupling(joint, CouplingSpec(f_op, 0, gt1, 1.0, variable))
        joint = apply_conditional_coupling(joint, e_op, 0, 1, gt2, 1.0)
        out.append(pointer_moments(joint, 1)[0])
    return tuple(out)


def degenerate_hermitian(values, seed):
    """U diag(values) U^dag for a random unitary U: zero and repeated
    eigenvalues as values lists them."""
    n = len(values)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    m = u @ np.diag(np.asarray(values, dtype=float)) @ u.conj().T
    return OperatorMatrix((m + m.conj().T) / 2)


class TestConditionalReadout:
    """Scheme 2 read from a q1-indexed table gives the tensor's <Q2>."""

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 4), seed=st.integers(0, 2**16), data=st.data())
    def test_matches_the_full_tensor(self, dim, seed, data):
        rank = data.draw(st.integers(1, dim))
        system = random_state(dim, seed) if rank == 1 else random_density(dim, seed, rank)
        spectrum = st.lists(st.sampled_from([-1.5, -0.5, 0.0, 0.0, 1.0, 2.0]),
                            min_size=dim, max_size=dim)
        f_op = degenerate_hermitian(data.draw(spectrum), seed + 1)
        e_op = degenerate_hermitian(data.draw(spectrum), seed + 2)
        sigma = data.draw(st.sampled_from([0.8, 1.0, 1.5]))
        grid = PointerGrid(data.draw(st.sampled_from([64, 128, 256])),
                           data.draw(st.sampled_from([12.0, 16.0, 20.0])) * sigma)
        gt1 = data.draw(st.floats(0.01, 0.3))
        gt2 = data.draw(st.floats(0.005, 0.1))
        table = conditional_readout(system, f_op, e_op, gt1, gt2, grid, sigma)
        tensor = tensor_conditional(system, f_op, e_op, gt1, gt2, grid, sigma)
        assert_allclose(table, tensor, rtol=0, atol=1e-12)

    def test_alternatives_read_as_the_loop_of_single_calls(self):
        rho = random_density(3, 8, 2)
        fs = [projector(random_state(3, 30 + j)) for j in range(3)] + [three_level_observable()]
        es = [projector(fourier_ket(3, 1)), degenerate_hermitian([0.0, 1.0, 1.0], 4)]
        q_k, q_q = conditional_readout(rho, fs, es, 0.05, 0.04, GRID, 1.0)
        assert q_k.shape == q_q.shape == (4, 2)
        for i, f_op in enumerate(fs):
            for j, e_op in enumerate(es):
                single = conditional_readout(rho, f_op, e_op, 0.05, 0.04, GRID, 1.0)
                assert_allclose((q_k[i, j], q_q[i, j]), single, rtol=0, atol=1e-15)

    def test_checks_name_the_alternative(self):
        bad = OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        with pytest.raises(ValueError, match="^conditional coupling requires a Hermitian"
                                             r" observable \(chain position 1, alternative 1\)$"):
            conditional_readout(standard_ket(2, 0), PI0, [PI0, bad], 0.02, 0.02, GRID, 1.0)
        with pytest.raises(ValueError, match="^coupling observable not Hermitian"):
            conditional_readout(standard_ket(2, 0), bad, PI0, 0.02, 0.02, GRID, 1.0)
        with pytest.raises(ValueError, match="^observable dimension does not match"):
            conditional_readout(standard_ket(2, 0), PI0, projector(standard_ket(3, 0)),
                                0.02, 0.02, GRID, 1.0)

    # Each guard at its boundary: F's shift (limit L/4 = 4), F's kick on a
    # 64-point grid (limit pi/(4 dq) = pi/2, below the shift limit), and the
    # conditional reach gt2 max|lambda_E| L (limit L/4).
    @pytest.mark.parametrize("grid, gt1, gt2, bumped", [
        (PointerGrid(256, 16.0), 4.0, 0.01, 0),
        (PointerGrid(64, 16.0), np.pi / 0.5 / 4, 0.01, 0),
        (PointerGrid(256, 16.0), 0.05, 0.25, 1),
    ], ids=["shift", "kick", "conditional"])
    def test_wrap_guards_match_the_tensor(self, grid, gt1, gt2, bumped):
        rho = random_density(2, 5, 2)
        e_op = projector(fourier_ket(2, 1))
        passing = conditional_readout(rho, PI0, e_op, gt1, gt2, grid, 1.0)
        assert_allclose(passing, tensor_conditional(rho, PI0, e_op, gt1, gt2, grid, 1.0),
                        rtol=0, atol=1e-12)
        gts = [gt1, gt2]
        gts[bumped] = np.nextafter(gts[bumped], np.inf)
        with pytest.raises(WrapAroundError) as tensor:
            tensor_conditional(rho, PI0, e_op, *gts, grid, 1.0)
        with pytest.raises(WrapAroundError) as table:
            conditional_readout(rho, PI0, e_op, *gts, grid, 1.0)
        assert str(table.value) == str(tensor.value)


class TestDisplacementTable:
    """x(d) = <T_d phi|Q|T_d phi> against its continuum value d."""

    @staticmethod
    def error(grid):
        shifts = np.linspace(-grid.half_width / 4, grid.half_width / 4, 201)
        return np.max(np.abs(displacement_table(grid, 1.0, shifts) - shifts))

    def test_default_grid_is_exact_to_rounding(self):
        assert self.error(PointerGrid(256, 16.0)) <= 1e-12

    @pytest.mark.parametrize("grid", [PointerGrid(256, 8.0), PointerGrid(32, 16.0)],
                             ids=["half_width-8", "points-32"])
    def test_a_cut_grid_shows_its_error(self, grid):
        # about 1.9e-8 (tails cut) and 1.4e-8 (momentum tails cut)
        assert 1e-10 < self.error(grid) < 1e-6

    def test_each_shift_reads_its_own_pointer(self):
        shifts = np.array([[0.0, 0.5, -0.0], [0.5, 1.25, 0.0]])
        table = displacement_table(GRID, 1.2, shifts)
        assert table.shape == shifts.shape
        for d, x in zip(shifts.ravel(), table.ravel()):
            assert x == pytest.approx(displacement_table(GRID, 1.2, [d])[0], rel=0, abs=1e-15)
        assert displacement_table(GRID, 1.2, np.zeros(0)).shape == (0,)


class TestOutcomePointerDensities:
    GRID = PointerGrid(128, 16.0)
    SIGMA = 1.25

    @pytest.mark.parametrize("basis_kind", ["standard", "fourier"])
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("kind", ["projector", "observable"])
    def test_match_the_conditioned_tensor(self, kind, rank, basis_kind):
        system = random_state(3, 11) if rank == 1 else random_density(3, 11, rank)
        (op,) = chain_ops(kind, 1)
        basis = outcome_rows(basis_kind)
        probs, q_mass, k_mass = outcome_pointer_densities(
            system, op, 0.6, self.GRID, self.SIGMA, basis)
        joint = apply_coupling(make_joint(system, [(self.GRID, self.SIGMA)]),
                               CouplingSpec(op, 0, 0.6, 1.0))
        for c, ket in enumerate(basis):
            prob, state = postselect(joint, ket)
            assert probs[c] == pytest.approx(prob, abs=1e-12)
            assert prob > 1e-3
            for mass, reference in ((q_mass[c], reduced_position_density(state, 0)),
                                    (k_mass[c], reduced_momentum_density(state, 0))):
                assert np.max(np.abs(mass - prob * reference)) < 1e-12
                # the tables sample_protocol inverts
                cdf = np.cumsum(mass) / mass.sum()
                assert np.max(np.abs(cdf - np.cumsum(reference))) < 1e-12

    def test_keep_the_basis_checks_and_the_wrap_guard(self):
        bad = [standard_ket(2, 0), StateVector(np.array([0.6, 0.8]))]
        with pytest.raises(ValueError, match="orthonormal"):
            outcome_pointer_densities(standard_ket(2, 0), PI0, 0.02, GRID, 1.0, bad)
        with pytest.raises(WrapAroundError):
            outcome_pointer_densities(standard_ket(2, 0), PI0, 5.0, GRID, 1.0,
                                      standard_basis(2))


class TestWeakValueFromMoments:
    def test_formula_cases(self):
        assert weak_value_from_moments(0.01, 0.0, 0.02, 1.0, 1.0) == pytest.approx(0.5)
        assert weak_value_from_moments(0.0, 0.005, 0.02, 1.0, 1.0) == pytest.approx(
            0.5j
        )
        assert weak_value_from_moments(0.02 * 0.7, 0.0, 0.02, 1.0, 1.0) == (
            pytest.approx(0.7)
        )

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            weak_value_from_moments(0.1, 0.0, 0.0, 1.0, 1.0)


def test_strong_limit_recovers_born_probabilities():
    """gt >> sigma: thresholding the pointer position reproduces Born statistics."""
    grid = PointerGrid(2048, 64.0)
    rho = random_density(2, seed=12, rank=2)
    _, q_mass, _ = outcome_pointer_densities(rho, PI0, 10.0, grid, 1.0, fourier_basis(2))
    mass = q_mass.sum(axis=0)
    p_hit = float(mass[grid.positions > 5.0].sum())
    assert abs(p_hit - rho.matrix[0, 0].real) < 1e-3
