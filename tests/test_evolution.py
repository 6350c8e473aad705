from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from weakmeas.evolution import (
    CouplingSpec,
    PostselectionError,
    apply_conditional_coupling,
    apply_coupling,
    joint_ann_moment,
    last_pointer_moments,
    make_joint,
    pointer_moments,
    postselect,
    postselected_moments,
    reduced_momentum_density,
    reduced_position_density,
    reduced_system_density,
    strong_measure,
    strong_readout,
    system_moments,
    weak_value_from_moments,
)
from weakmeas.hilbert import (
    DensityMatrix,
    OperatorMatrix,
    StateVector,
    fourier_basis,
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
        joint = one_pointer(standard_ket(2, 0))
        with pytest.raises(PostselectionError):
            postselect(joint, standard_ket(2, 1))

    def test_same_state_probability_one(self):
        psi = StateVector(np.array([0.6, 0.8]))
        prob, conditioned = postselect(one_pointer(psi), psi)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert_allclose(pointer_moments(conditioned, 0), (0.0, 0.0), atol=1e-12)

    def test_probability_scales_quadratically_near_orthogonal(self):
        """pi/4 pre/post pair is orthogonal, so prob ~ (gt)^2."""
        psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
        c = StateVector(np.array([1.0, -1.0]) / np.sqrt(2))
        probs = []
        for gt in (0.04, 0.02):
            joint = apply_coupling(one_pointer(psi), CouplingSpec(PI0, 0, gt, 1.0))
            probs.append(postselect(joint, c)[0])
        assert probs[0] / probs[1] == pytest.approx(4.0, rel=0.05)

    def test_matches_reduced_state_probability(self):
        rho = random_density(2, seed=1, rank=2)
        joint = apply_coupling(make_joint(rho, [(GRID, 1.0)]),
                               CouplingSpec(PI0, 0, 0.05, 1.0))
        c = StateVector(np.array([0.6, 0.8j]))
        prob, _ = postselect(joint, c)
        reduced = reduced_system_density(joint)
        assert prob == pytest.approx(
            float(np.real(np.vdot(c.amps, reduced @ c.amps))), abs=1e-10
        )


class TestStrongMeasure:
    def test_eigenstate(self):
        results = strong_measure(one_pointer(standard_ket(2, 0)), standard_basis(2))
        assert results[0][1] == pytest.approx(1.0, abs=1e-12)
        assert results[1][1] == pytest.approx(0.0, abs=1e-12)
        assert results[1][2] is None

    def test_unbiased_basis_uniform(self):
        results = strong_measure(one_pointer(standard_ket(2, 0)), fourier_basis(2))
        for _, prob, _ in results:
            assert prob == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed_uniform(self):
        joint = one_pointer(DensityMatrix(np.eye(2) / 2))
        for _, prob, _ in strong_measure(joint, standard_basis(2)):
            assert prob == pytest.approx(0.5, abs=1e-12)

    def test_non_orthonormal_basis_rejected(self):
        bad = [standard_ket(2, 0), StateVector(np.array([0.6, 0.8]))]
        with pytest.raises(ValueError, match="orthonormal"):
            strong_measure(one_pointer(standard_ket(2, 0)), bad)


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
    @pytest.mark.parametrize("basis_kind", ["standard", "fourier"])
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("pointers", [1, 2, 3])
    def test_matches_conditioned_states(self, pointers, rank, basis_kind):
        joint = coupled_joint(pointers, rank)
        basis = standard_basis(3) if basis_kind == "standard" else fourier_basis(3)
        indices = tuple(range(pointers))
        probs, pq, pk, pa = strong_readout(
            joint, basis, {0: "Q"}, {0: "K"}, dict.fromkeys(indices, "a")
        )
        for i, prob, conditioned in strong_measure(joint, basis):
            assert probs[i] == pytest.approx(prob, abs=1e-12)
            qf, kf = pointer_moments(conditioned, 0)
            assert abs(pq[i] - prob * qf) < 1e-12
            assert abs(pk[i] - prob * kf) < 1e-12
            assert abs(pa[i] - prob * reference_ann_moment(conditioned, indices)) < 1e-12
            if pointers > 1:
                assert abs(pa[i] - prob * joint_ann_moment(conditioned, *indices)) < 1e-12

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

    @pytest.mark.parametrize("rank", [1, 2])
    def test_postselected_moments_match_postselect(self, rank):
        joint = coupled_joint(1, rank)
        c = random_state(3, 5)
        prob, (qf, kf) = postselected_moments(joint, c, {0: "Q"}, {0: "K"})
        ref_prob, conditioned = postselect(joint, c)
        assert prob == pytest.approx(ref_prob, abs=1e-12)
        assert_allclose((qf, kf), pointer_moments(conditioned, 0), atol=1e-12)

    def test_postselected_moments_keep_postselect_checks(self):
        joint = one_pointer(standard_ket(2, 0))
        with pytest.raises(PostselectionError):
            postselected_moments(joint, standard_ket(2, 1), {0: "Q"})
        with pytest.raises(ValueError, match="dimension"):
            postselected_moments(joint, standard_ket(3, 0), {0: "Q"})

    def test_strong_readout_keeps_basis_checks(self):
        joint = one_pointer(standard_ket(2, 0))
        with pytest.raises(ValueError, match="complete basis"):
            strong_readout(joint, [standard_ket(2, 0)])
        bad = [standard_ket(2, 0), StateVector(np.array([0.6, 0.8]))]
        with pytest.raises(ValueError, match="orthonormal"):
            strong_readout(joint, bad)

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


class TestLastPointerMoments:
    GRID = PointerGrid(64, 16.0)
    SIGMA = 1.25

    def chain(self, system, pointers, last=None, gt=0.4):
        """system (x) Gaussians, projector j coupled to pointer j, then
        last (if given) coupled to one more pointer with gt."""
        extra = 0 if last is None else 1
        joint = make_joint(system, [(self.GRID, self.SIGMA)] * (pointers + extra))
        for j in range(pointers):
            spec = CouplingSpec(projector(random_state(3, 20 + j)), j, 0.3 + 0.1 * j, 1.0)
            joint = apply_coupling(joint, spec)
        if last is not None:
            joint = apply_coupling(joint, CouplingSpec(last, pointers, gt, 1.0))
        return joint

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("kind", ["projector", "observable"])
    @pytest.mark.parametrize("pointers", [0, 1, 2])
    def test_matches_the_full_tensor(self, pointers, kind, rank):
        system = random_state(3, 11) if rank == 1 else random_density(3, 11, 2)
        op = projector(random_state(3, 7)) if kind == "projector" else three_level_observable()
        operator = dict.fromkeys(range(pointers), "a")
        full = self.chain(system, pointers, last=op)
        (moment,) = system_moments(full, {**operator, pointers: "a"})
        expected = np.trace(moment)
        assert abs(expected) > 1e-6
        if pointers:
            assert abs(joint_ann_moment(full, *range(pointers + 1)) - expected) < 1e-14
        (got,) = last_pointer_moments(
            self.chain(system, pointers), operator, [op], 0.4, self.GRID, self.SIGMA
        )
        assert abs(got - expected) < 1e-14

    def test_one_moment_per_observable(self):
        system = random_density(3, 11, 2)
        ops = [projector(k) for k in standard_basis(3)] + [three_level_observable()]
        joint = self.chain(system, 2)
        got = last_pointer_moments(joint, {0: "a", 1: "Q"}, ops, 0.4, self.GRID, self.SIGMA)
        for op, value in zip(ops, got):
            (moment,) = system_moments(self.chain(system, 2, last=op), {0: "a", 1: "Q", 2: "a"})
            assert abs(value - np.trace(moment)) < 1e-14

    @pytest.mark.parametrize("gt", [1.5, 2.1, 3.9, 4.1, -4.1])
    @pytest.mark.parametrize("kind", ["projector", "observable"])
    def test_wrap_guard_fires_where_apply_coupling_does(self, kind, gt):
        op = projector(random_state(3, 7)) if kind == "projector" else three_level_observable()
        system = random_state(3, 11)
        errors = []
        for run in (
            lambda: self.chain(system, 1, last=op, gt=gt),
            lambda: last_pointer_moments(self.chain(system, 1), {0: "a"}, [op], gt,
                                         self.GRID, self.SIGMA),
        ):
            try:
                run()
                errors.append(None)
            except WrapAroundError as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1]
        assert (errors[0] is None) == (abs(gt) * np.max(np.abs(np.linalg.eigvalsh(op.matrix))) <= 4)

    def test_rejects_mismatched_and_non_hermitian_observables(self):
        joint = self.chain(random_state(3, 11), 1)
        with pytest.raises(ValueError, match="dimension"):
            last_pointer_moments(joint, {}, [PI0], 0.1, self.GRID, self.SIGMA)
        skew = OperatorMatrix(np.triu(np.ones((3, 3))))
        with pytest.raises(ValueError, match="Hermitian"):
            last_pointer_moments(joint, {}, [skew], 0.1, self.GRID, self.SIGMA)


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
    joint = make_joint(rho, [(grid, 1.0)])
    joint = apply_coupling(joint, CouplingSpec(PI0, 0, 10.0, 1.0))
    mass = reduced_position_density(joint, 0)
    p_hit = float(mass[grid.positions > 5.0].sum())
    assert abs(p_hit - rho.matrix[0, 0].real) < 1e-3
