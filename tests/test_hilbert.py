import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from weakmeas.hilbert import (
    BasisLabel,
    DensityMatrix,
    DiracDistribution,
    OperatorMatrix,
    StateVector,
    expectation,
    fourier_basis,
    fourier_ket,
    projector,
    random_density,
    random_state,
    s_ab_operator,
    standard_ket,
    trace_distance,
    triple_projector,
    unbiasedness_defect,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestStateVector:
    def test_normalizes_on_construction(self):
        psi = StateVector([3.0, 4.0])
        assert_allclose(np.linalg.norm(psi.amps), 1.0, atol=1e-12)
        assert_allclose(psi.amps, [0.6, 0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            StateVector([0.0, 0.0])

    def test_overlap(self):
        a = standard_ket(2, 0)
        b = fourier_ket(2, 0)
        assert_allclose(a.overlap(b), INV_SQRT2)

    def test_amps_read_only(self):
        psi = standard_ket(2, 0)
        with pytest.raises(ValueError):
            psi.amps[0] = 5.0


class TestDensityMatrix:
    def test_valid(self):
        rho = DensityMatrix(np.eye(3) / 3)
        assert rho.dim == 3
        assert_allclose(rho.purity, 1 / 3)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix([[0.5, 0.1], [0.3, 0.5]])

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix([[1.2, 0.0], [0.0, -0.2]])

    def test_repr_reports_purity(self):
        assert repr(DensityMatrix(np.eye(2) / 2)) == "DensityMatrix(dim=2, purity=0.5000)"


class TestFourierBasis:
    def test_qubit_kets(self):
        assert_allclose(fourier_ket(2, 0).amps, [INV_SQRT2, INV_SQRT2], atol=1e-15)
        assert_allclose(fourier_ket(2, 1).amps, [INV_SQRT2, -INV_SQRT2], atol=1e-15)

    def test_quartit_ket(self):
        assert_allclose(fourier_ket(4, 1).amps, np.array([1, 1j, -1, -1j]) / 2,
                        atol=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            fourier_ket(4, 4)

    @given(st.integers(2, 8))
    @settings(deadline=None)
    def test_overlap_phase_convention(self, n):
        """<b|a> = exp(-i 2 pi a b / N) / sqrt(N) entrywise."""
        for a in range(n):
            ka = standard_ket(n, a)
            for b in range(n):
                got = fourier_ket(n, b).overlap(ka)
                want = np.exp(-2j * np.pi * a * b / n) / np.sqrt(n)
                assert abs(got - want) < 1e-12

    @given(st.integers(2, 8))
    @settings(deadline=None)
    def test_mutually_unbiased(self, n):
        for b in range(n):
            ket = fourier_ket(n, b)
            assert_allclose(np.abs(ket.amps) ** 2, np.full(n, 1 / n), atol=1e-12)

    def test_completeness(self):
        for n in range(2, 9):
            total = sum(projector(k).matrix for k in fourier_basis(n))
            assert_allclose(total, np.eye(n), atol=1e-12)


class TestProjector:
    def test_examples(self):
        assert_allclose(projector(standard_ket(2, 0)).matrix, [[1, 0], [0, 0]])
        assert_allclose(projector(fourier_ket(2, 0)).matrix,
                        np.full((2, 2), 0.5), atol=1e-15)
        assert_allclose(projector(fourier_ket(2, 1)).matrix,
                        [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_idempotent_rank_one(self):
        p = projector(random_state(5, seed=2)).matrix
        assert_allclose(p @ p, p, atol=1e-12)
        assert_allclose(p, p.conj().T, atol=1e-12)
        assert_allclose(np.linalg.matrix_rank(p), 1)


class TestSabOperator:
    def test_examples(self):
        assert_allclose(s_ab_operator(2, 0, 0).matrix,
                        [[0.5, 0], [0.5, 0]], atol=1e-15)
        assert_allclose(s_ab_operator(2, 1, 1).matrix,
                        [[0, -0.5], [0, 0.5]], atol=1e-15)

    def test_trace_is_inverse_dim(self):
        for n in (2, 3, 5, 8):
            for a in range(n):
                for b in range(n):
                    tr = np.trace(s_ab_operator(n, a, b).matrix)
                    assert abs(tr - 1 / n) < 1e-12

    def test_matches_projector_product(self):
        for n in range(2, 9):
            for a in range(n):
                for b in range(n):
                    explicit = (projector(fourier_ket(n, b)).matrix
                                @ projector(standard_ket(n, a)).matrix)
                    assert_allclose(s_ab_operator(n, a, b).matrix, explicit,
                                    atol=1e-12)

    def test_not_hermitian_allowed(self):
        op = s_ab_operator(2, 0, 1)
        assert not op.hermitian


class TestTripleProjector:
    def test_examples(self):
        b0 = fourier_ket(2, 0)
        assert_allclose(triple_projector(2, 0, 1, b0).matrix,
                        [[0, 0], [0.5, 0]], atol=1e-15)
        assert_allclose(triple_projector(2, 0, 0, b0).matrix,
                        [[0.5, 0], [0, 0]], atol=1e-15)

    def test_weak_average_on_maximally_mixed(self):
        got = expectation(triple_projector(2, 0, 0, fourier_ket(2, 0)),
                          DensityMatrix(np.eye(2) / 2))
        assert_allclose(got, 0.25, atol=1e-14)

    def test_biased_b0_rejected(self):
        with pytest.raises(ValueError, match="unbiased"):
            triple_projector(2, 0, 1, standard_ket(2, 0))

    def test_matches_explicit_product(self):
        b0 = fourier_ket(3, 0)
        pi_b0 = projector(b0).matrix
        for a1 in range(3):
            for a2 in range(3):
                explicit = (projector(standard_ket(3, a2)).matrix @ pi_b0
                            @ projector(standard_ket(3, a1)).matrix)
                assert_allclose(triple_projector(3, a1, a2, b0).matrix, explicit,
                                atol=1e-12)


class TestExpectation:
    def test_examples(self):
        pure0 = DensityMatrix([[1, 0], [0, 0]])
        assert_allclose(expectation(projector(standard_ket(2, 0)), pure0), 1.0)
        assert_allclose(expectation(s_ab_operator(2, 0, 0), pure0), 0.5)

    def test_maximally_mixed_gives_trace_over_n(self):
        rng = np.random.default_rng(0)
        op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        got = expectation(op, DensityMatrix(np.eye(4) / 4))
        assert_allclose(got, np.trace(op) / 4, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(np.eye(2), DensityMatrix(np.eye(3) / 3))


class TestRandomStates:
    def test_rank_one_is_pure(self):
        rho = random_density(2, seed=7, rank=1)
        assert_allclose(rho.purity, 1.0, atol=1e-12)

    def test_rank_two_is_mixed(self):
        assert random_density(2, seed=7, rank=2).purity < 1.0

    def test_deterministic(self):
        a = random_density(3, seed=5, rank=2)
        b = random_density(3, seed=5, rank=2)
        assert_allclose(a.matrix, b.matrix, atol=0)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            random_density(2, seed=1, rank=3)

    @given(st.integers(2, 8), st.integers(0, 100))
    @settings(deadline=None, max_examples=30)
    def test_random_state_normalized(self, n, seed):
        assert abs(np.linalg.norm(random_state(n, seed).amps) - 1) < 1e-12


class TestBasisLabel:
    def test_ket_construction(self):
        assert_allclose(BasisLabel("standard", 1).ket(3).amps, [0, 1, 0])
        assert_allclose(BasisLabel("fourier", 0).ket(2).amps,
                        [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_equality_and_hashing(self):
        assert BasisLabel("fourier", 2) == BasisLabel("fourier", 2)
        assert BasisLabel("fourier", 2) != BasisLabel("standard", 2)
        assert len({BasisLabel("standard", 0), BasisLabel("standard", 0)}) == 1

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            BasisLabel("hadamard", 0)


def test_unbiasedness_defect():
    assert unbiasedness_defect(fourier_ket(5, 3)) < 1e-12
    assert unbiasedness_defect(standard_ket(2, 0)) > 0.2


def test_trace_distance():
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    assert_allclose(trace_distance(p0, p1), 1.0, atol=1e-12)
    assert_allclose(trace_distance(p0, p0), 0.0, atol=1e-12)


def test_dirac_distribution_requires_unit_sum():
    good = np.full((2, 2), 0.25, dtype=complex)
    DiracDistribution(good)
    with pytest.raises(ValueError, match="sum"):
        DiracDistribution(good * 2)


def test_operator_matrix_hermitian_flag():
    assert OperatorMatrix(np.eye(2)).hermitian
    assert not OperatorMatrix([[0, 1], [0, 0]]).hermitian
