from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from weakmeas.evolution import (
    CouplingSpec,
    PostselectionError,
    apply_coupling,
    joint_ann_moment,
    make_joint,
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
    s_ab_operator,
    standard_basis,
    standard_ket,
    trace_distance,
)
from weakmeas.oracle import density_from_triple_exact, dirac_exact, weak_average
from weakmeas import evolution, protocols
from weakmeas.protocols import (
    ROUTE_POINTERS,
    ProtocolParams,
    _kappa,
    calibrate_scheme1,
    convergence_slope,
    dirac_to_density,
    direct_density,
    direct_dirac,
    direct_wavefunction,
    extrapolate_sweep,
    hermitize_normalize,
    invert_dirac,
    mixed_state_response,
    scheme1_weak_product,
    scheme2_weak_product,
    weak_strong_product,
)

PI0 = projector(standard_ket(2, 0))
B0 = fourier_ket(2, 0)
PLUS = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))


class TestProtocolParams:
    def test_defaults(self):
        p = ProtocolParams()
        assert p.gt == 0.02
        assert p.scheme == "substitution"
        assert p.couplings(3) == (0.02, 0.02, 0.02)

    def test_explicit_second_coupling(self):
        p = ProtocolParams(gt=0.04, gt2=0.01)
        assert p.couplings(2) == (0.04, 0.01)

    def test_grid_defaults_shrink_with_pointer_count(self):
        p = ProtocolParams()
        assert p.grid(1).positions.size == 512
        assert p.grid(2).positions.size == 256
        assert p.grid(3).positions.size == 64
        assert p.grid(1).half_width == 16.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolParams(scheme="scheme3")
        with pytest.raises(ValueError):
            ProtocolParams(gt=0.0)
        with pytest.raises(ValueError):
            ProtocolParams(sigma=-1.0)
        with pytest.raises(ValueError):
            ProtocolParams().grid(4)

    @pytest.mark.parametrize("field", ["gt2", "gt3"])
    @pytest.mark.parametrize("value", [0.0, -0.01])
    def test_secondary_couplings_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            ProtocolParams(**{field: value})

    @pytest.mark.parametrize("field", ["grid_points", "half_width"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_grid_sizes_must_be_positive(self, field, value):
        # 0 used to fall through to the default grid instead of failing.
        with pytest.raises(ValueError, match=field):
            ProtocolParams(**{field: value})

    def test_explicit_grid_is_used(self):
        grid = ProtocolParams(grid_points=128, half_width=12.0).grid(1)
        assert grid.points == 128
        assert grid.half_width == 12.0


class TestDirectWavefunction:
    def test_reference_state_gives_uniform_weak_values(self):
        out = direct_wavefunction(PLUS, B0)
        assert_allclose(out.weak_values, [0.5, 0.5], atol=1e-3)
        assert_allclose(out.normalized, PLUS.amps, atol=1e-3)

    def test_real_amplitudes_recovered(self):
        psi = StateVector(np.array([0.6, 0.8]))
        out = direct_wavefunction(psi, B0)
        assert_allclose(out.normalized, psi.amps, atol=1e-3)

    def test_complex_phase_recovered(self):
        psi = StateVector(np.array([1.0, 1.0j]) / np.sqrt(2))
        out = direct_wavefunction(psi, B0)
        assert_allclose(out.normalized, psi.amps, atol=1e-3)

    def test_postselect_probs_reported(self):
        out = direct_wavefunction(PLUS, B0)
        assert out.postselect_probs.shape == (2,)
        assert np.all(out.postselect_probs > 0.9)

    def test_biased_reference_rejected(self):
        with pytest.raises(ValueError):
            direct_wavefunction(PLUS, standard_ket(2, 0))

    def test_orthogonal_reference_aborts(self):
        psi = StateVector(np.array([1.0, -1.0]) / np.sqrt(2))
        with pytest.raises(PostselectionError):
            direct_wavefunction(psi, B0, ProtocolParams(gt=0.001))


class TestMixedStateResponse:
    def test_mixed_and_reference_indistinguishable(self):
        """rho|b0> is the same column for I/2 and |b0><b0|, so the scan
        output coincides: the protocol certifies a pure state only if
        purity is known beforehand."""
        mixed = mixed_state_response(DensityMatrix(np.eye(2) / 2), B0)
        pure = mixed_state_response(
            DensityMatrix(np.outer(B0.amps, B0.amps.conj())), B0
        )
        assert_allclose(mixed, pure, atol=1e-14)
        assert_allclose(mixed, [0.5, 0.5], atol=1e-14)

    def test_pure_state_response_proportional_to_amplitudes(self):
        psi = StateVector(np.array([0.6, 0.8]))
        rho = DensityMatrix(np.outer(psi.amps, psi.amps.conj()))
        response = mixed_state_response(rho, B0)
        ratio = response / psi.amps
        assert abs(ratio[0] - ratio[1]) < 1e-12

    def test_matches_weak_scan_in_weak_limit(self):
        psi = StateVector(np.array([0.6, 0.8]))
        rho = DensityMatrix(np.outer(psi.amps, psi.amps.conj()))
        scan = direct_wavefunction(psi, B0, ProtocolParams(gt=0.005))
        assert_allclose(mixed_state_response(rho, B0), scan.weak_values, atol=1e-4)

    def test_zero_overlap_rejected(self):
        rho = DensityMatrix(np.outer(PLUS.amps, PLUS.amps.conj()))
        minus = StateVector(np.array([1.0, -1.0]) / np.sqrt(2))
        with pytest.raises(ValueError):
            mixed_state_response(rho, minus)


class TestScheme1Product:
    def test_exact_on_shared_eigenstate(self):
        """No weak-regime error at all when rho is an E and F eigenstate."""
        value = scheme1_weak_product(standard_ket(2, 0), PI0, PI0,
                                     ProtocolParams(gt=0.1, scheme="scheme1"))
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_projector_pair(self):
        value = scheme1_weak_product(standard_ket(2, 0), projector(B0), PI0,
                                     ProtocolParams(scheme="scheme1"))
        assert value == pytest.approx(0.5, abs=1e-3)

    def test_complex_product_against_oracle(self):
        psi = StateVector(np.array([0.8, 0.6j]))
        rho = DensityMatrix(np.outer(psi.amps, psi.amps.conj()))
        e_op = projector(fourier_ket(2, 1))
        oracle = weak_average(
            type(e_op)(e_op.matrix @ PI0.matrix), rho
        )
        value = scheme1_weak_product(rho, e_op, PI0, ProtocolParams(scheme="scheme1"))
        assert abs(oracle.imag) > 0.05
        assert value == pytest.approx(oracle, abs=1e-3)

    def test_quadratic_convergence(self):
        rho = random_density(2, seed=5, rank=2)
        e_op = projector(fourier_ket(2, 1))
        oracle = weak_average(type(e_op)(e_op.matrix @ PI0.matrix), rho)
        errors = []
        gts = (0.08, 0.04, 0.02)
        for gt in gts:
            value = scheme1_weak_product(
                rho, e_op, PI0, ProtocolParams(gt=gt, scheme="scheme1")
            )
            errors.append(abs(value - oracle))
        assert convergence_slope(gts, errors) == pytest.approx(2.0, abs=0.2)

    def test_strong_coupling_warns(self):
        with pytest.warns(RuntimeWarning):
            scheme1_weak_product(standard_ket(2, 0), PI0, PI0,
                                 ProtocolParams(gt=0.3, scheme="scheme1"))


class TestScheme2Product:
    def test_exact_on_shared_eigenstate(self):
        value = scheme2_weak_product(standard_ket(2, 0), PI0, PI0,
                                     ProtocolParams(gt=0.1, scheme="scheme2"))
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_agrees_with_scheme1(self):
        rho = random_density(2, seed=6, rank=2)
        e_op = projector(fourier_ket(2, 1))
        p1 = ProtocolParams(gt=0.02, scheme="scheme1")
        p2 = ProtocolParams(gt=0.02, scheme="scheme2")
        v1 = scheme1_weak_product(rho, e_op, PI0, p1)
        v2 = scheme2_weak_product(rho, e_op, PI0, p2)
        assert v2 == pytest.approx(v1, abs=1e-3)

    def test_complex_product_against_oracle(self):
        rho = random_density(2, seed=6, rank=2)
        e_op = projector(fourier_ket(2, 1))
        oracle = weak_average(type(e_op)(e_op.matrix @ PI0.matrix), rho)
        value = scheme2_weak_product(rho, e_op, PI0,
                                     ProtocolParams(scheme="scheme2"))
        assert value == pytest.approx(oracle, abs=1e-3)


class TestWeakStrongProduct:
    def test_single_factor_identity_readout(self):
        rho = DensityMatrix(np.eye(2) / 2)
        basis = [fourier_ket(2, b) for b in range(2)]
        total = weak_strong_product(rho, PI0, basis, [1.0, 1.0])
        assert total == pytest.approx(0.5, abs=1e-3)

    def test_signed_readout_vanishes_on_eigenstate(self):
        basis = [fourier_ket(2, b) for b in range(2)]
        total = weak_strong_product(standard_ket(2, 0), PI0, basis, [1.0, -1.0])
        assert total == pytest.approx(0.0, abs=1e-10)

    def test_chain_estimates_density_element(self):
        rho = random_density(2, seed=7, rank=2)
        basis = [standard_ket(2, a) for a in range(2)]
        chain = [projector(standard_ket(2, 0)), projector(B0)]
        total = weak_strong_product(rho, chain, basis, [0.0, 1.0])
        assert total == pytest.approx(rho.matrix[0, 1] / 2, abs=1e-3)

    def test_chain_length_validated(self):
        basis = [standard_ket(2, a) for a in range(2)]
        with pytest.raises(ValueError):
            weak_strong_product(standard_ket(2, 0), [], basis, [1.0, 1.0])
        with pytest.raises(ValueError):
            weak_strong_product(standard_ket(2, 0), [PI0] * 4, basis, [1.0, 1.0])

    def test_values_length_validated(self):
        basis = [standard_ket(2, a) for a in range(2)]
        with pytest.raises(ValueError):
            weak_strong_product(standard_ket(2, 0), PI0, basis, [1.0])


class TestDirectDirac:
    def test_standard_eigenstate(self):
        out = direct_dirac(DensityMatrix(np.diag([1.0, 0.0]).astype(complex)))
        assert_allclose(out.distribution.entries, [[0.5, 0.5], [0.0, 0.0]],
                        atol=1e-3)

    def test_maximally_mixed(self):
        out = direct_dirac(DensityMatrix(np.eye(2) / 2))
        assert_allclose(out.distribution.entries, 0.25 * np.ones((2, 2)),
                        atol=1e-3)

    def test_random_state_against_oracle(self):
        rho = random_density(3, seed=2, rank=2)
        out = direct_dirac(rho)
        assert_allclose(out.distribution.entries, dirac_exact(rho).entries,
                        atol=1e-4)

    def test_scheme1_route_agrees(self):
        rho = random_density(2, seed=3, rank=2)
        out = direct_dirac(rho, ProtocolParams(scheme="scheme1"))
        assert_allclose(out.distribution.entries, dirac_exact(rho).entries,
                        atol=1e-3)

    def test_scheme2_route_agrees(self):
        rho = random_density(2, seed=3, rank=2)
        out = direct_dirac(rho, ProtocolParams(scheme="scheme2"))
        assert_allclose(out.distribution.entries, dirac_exact(rho).entries,
                        atol=1e-3)

    def test_estimates_carry_settings(self):
        out = direct_dirac(DensityMatrix(np.eye(2) / 2))
        settings_seen = {e.setting for e in out.estimates}
        assert (("a", 0), ("b", 1)) in settings_seen
        assert len(settings_seen) == 4


class TestDirectDensity:
    def test_maximally_mixed(self):
        out = direct_density(DensityMatrix(np.eye(2) / 2))
        assert_allclose(out.raw, np.eye(2) / 4, atol=1e-4)
        assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-4)

    def test_pure_eigenstate(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        out = direct_density(rho)
        assert trace_distance(out.matrix, rho.matrix) < 1e-3

    def test_error_shrinks_with_coupling(self):
        rho = random_density(4, seed=7, rank=2)
        errs = [
            trace_distance(direct_density(rho, params=ProtocolParams(gt=gt)).matrix,
                           rho.matrix)
            for gt in (0.04, 0.02)
        ]
        assert errs[1] < errs[0]

    def test_triple_pointer_route(self):
        rho = random_density(2, seed=8, rank=2)
        out = direct_density(rho, params=ProtocolParams(scheme="scheme1"))
        assert trace_distance(out.matrix, rho.matrix) < 1e-3
        assert_allclose(out.raw, density_from_triple_exact(rho, B0), atol=1e-3)

    def test_scheme2_refused(self):
        with pytest.raises(ValueError, match="biased"):
            direct_density(DensityMatrix(np.eye(2) / 2),
                           params=ProtocolParams(scheme="scheme2"))

    def test_biased_reference_refused(self):
        with pytest.raises(ValueError):
            direct_density(DensityMatrix(np.eye(2) / 2), b0=standard_ket(2, 0))

    def test_diagnostics_reported(self):
        out = direct_density(random_density(2, seed=9, rank=2))
        assert set(out.diagnostics) == {
            "trace_raw", "hermiticity_defect", "min_eigenvalue"
        }
        assert out.diagnostics["hermiticity_defect"] < 1e-3
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestDiracInversion:
    def test_eigenstate_round_trip(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        assert_allclose(dirac_to_density(dirac_exact(rho)).matrix, rho.matrix,
                        atol=1e-12)

    def test_random_round_trip(self):
        rho = random_density(4, seed=3, rank=3)
        back = invert_dirac(dirac_exact(rho).entries)
        assert np.max(np.abs(back - rho.matrix)) < 1e-12

    def test_inverts_estimated_distribution(self):
        rho = random_density(2, seed=4, rank=2)
        out = direct_dirac(rho)
        back = invert_dirac(out.distribution.entries)
        assert np.max(np.abs(back - rho.matrix)) < 1e-3


class TestCalibration:
    def test_ratios_are_unity(self):
        result = calibrate_scheme1()
        assert_allclose(np.asarray(result.ratios, dtype=complex), 1.0, atol=1e-10)
        assert result.extrapolated == pytest.approx(1.0, abs=1e-10)

    def test_kappa_values(self):
        result = calibrate_scheme1(sweep=(0.1, 0.05))
        assert result.kappas == ((2 / 0.1) ** 2, (2 / 0.05) ** 2)


class TestSweepHelpers:
    def test_exact_quadratic_recovery(self):
        gts = np.array([0.08, 0.04, 0.02, 0.01])
        values = 0.7 - 3.0 * gts**2 + 5.0 * gts**4
        assert extrapolate_sweep(gts, values) == pytest.approx(0.7, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        v0=st.floats(-5, 5),
        c1=st.floats(-10, 10),
        c2=st.floats(-10, 10),
    )
    def test_recovers_any_even_expansion(self, v0, c1, c2):
        gts = np.array([0.08, 0.04, 0.02, 0.01])
        values = v0 + c1 * gts**2 + c2 * gts**4
        assert extrapolate_sweep(gts, values) == pytest.approx(v0, abs=1e-7)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            extrapolate_sweep([0.02], [0.5])

    def test_values_need_one_entry_per_coupling(self):
        with pytest.raises(ValueError):
            extrapolate_sweep([0.04, 0.02], [0.5, 0.4, 0.3])
        with pytest.raises(ValueError):
            extrapolate_sweep([0.04, 0.02], np.zeros((3, 2)))

    def test_scalar_values_give_a_complex(self):
        assert type(extrapolate_sweep([0.04, 0.02], np.array([0.5, 0.4]))) is complex

    @pytest.mark.parametrize("shape", [(4, 4), (3,)])
    def test_stack_equals_entrywise_scalar_calls(self, shape):
        gts = [0.08, 0.04, 0.02, 0.01]
        rng = np.random.default_rng(11)
        stack = rng.normal(size=(4, *shape)) + 1j * rng.normal(size=(4, *shape))
        out = extrapolate_sweep(gts, stack)
        assert out.shape == shape
        entrywise = np.empty(shape, dtype=complex)
        for idx in np.ndindex(shape):
            entrywise[idx] = extrapolate_sweep(gts, stack[(slice(None), *idx)])
        assert np.array_equal(out, entrywise)

    def test_hermitize_normalize(self):
        m = np.array([[2.0, 1.0 + 1.0j], [0.0, 2.0]])
        out = hermitize_normalize(m)
        assert_allclose(out, out.conj().T, atol=0)
        assert np.trace(out) == pytest.approx(1.0, abs=1e-15)
        assert out[0, 1] == pytest.approx((0.5 + 0.5j) / 4, abs=1e-15)

    def test_hermitize_normalize_refuses_vanishing_trace(self):
        with pytest.raises(RuntimeError, match="too small to normalize"):
            hermitize_normalize(np.diag([1.0, -1.0 + 1e-9]))

    def test_slope_of_quadratic_errors(self):
        gts = np.array([0.08, 0.04, 0.02])
        assert convergence_slope(gts, 3 * gts**2) == pytest.approx(2.0, abs=1e-6)

    def test_unresolvable_errors_rejected(self):
        with pytest.raises(ValueError):
            convergence_slope([0.08, 0.04], [1e-16, 1e-16])


def test_sab_weak_average_matches_scheme1():
    """The non-Hermitian S_ab operator is a pi_b pi_a product, so scheme 1
    estimates its weak average without any post-selection."""
    rho = random_density(2, seed=10, rank=2)
    oracle = weak_average(s_ab_operator(2, 0, 1), rho)
    value = scheme1_weak_product(
        rho, projector(fourier_ket(2, 1)), PI0,
        ProtocolParams(gt=0.01, scheme="scheme1"),
    )
    assert value == pytest.approx(oracle, abs=5e-4)


def full_tensor_product(system, ops, params):
    """kappa <a_1 ... a_P> with every op coupled to its own pointer of one
    joint tensor on the route's grid, read by joint_ann_moment."""
    gts = params.couplings(len(ops))
    grid = params.grid(len(ops))
    joint = make_joint(system, [(grid, params.sigma)] * len(ops))
    for j, op in enumerate(ops):
        joint = apply_coupling(joint, CouplingSpec(op, j, gts[j], 1.0))
    return _kappa(gts, params.sigma) * joint_ann_moment(joint, *range(len(ops)))


class TestScheme1FullTensor:
    """The Scheme 1 routes read their last pointer from a table; their
    numbers are those of the full tensor."""

    PARAMS = ProtocolParams(gt=0.05, gt2=0.03, gt3=0.04, sigma=1.25, grid_points=32,
                            scheme="scheme1")

    def test_density_raw(self):
        rho = random_density(2, 5, 2)
        out = direct_density(rho, params=self.PARAMS)
        kets = standard_basis(2)
        e_op = projector(fourier_ket(2, 0))
        expected = np.array([
            [full_tensor_product(rho, [projector(k1), e_op, projector(k2)], self.PARAMS)
             for k2 in kets]
            for k1 in kets
        ])
        kappa = _kappa(self.PARAMS.couplings(3), self.PARAMS.sigma)
        assert_allclose(out.raw, expected, rtol=0, atol=1e-17 * kappa)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_weak_product(self, rank):
        system = random_state(3, 6) if rank == 1 else random_density(3, 6, 2)
        e_op, f_op = projector(fourier_ket(3, 1)), projector(random_state(3, 8))
        params = replace(self.PARAMS, grid_points=None)
        value = scheme1_weak_product(system, e_op, f_op, params)
        assert abs(value - full_tensor_product(system, [f_op, e_op], params)) < 1e-12


def _call_route(protocol, scheme, dim=2):
    """The library call behind one (protocol, scheme) route of the CLI."""
    rho, p = random_density(dim, seed=3, rank=2), ProtocolParams(gt=0.01, scheme=scheme)
    b0, pi0 = fourier_ket(dim, 0), projector(standard_ket(dim, 0))
    if protocol == "wavefunction":
        return direct_wavefunction(random_state(dim, 1), b0, p)
    if protocol == "dirac":
        return direct_dirac(rho, p)
    if protocol == "density":
        return direct_density(rho, b0, p)
    if scheme == "substitution":
        return weak_strong_product(rho, pi0, fourier_basis(dim), [1.0] + [0.0] * (dim - 1), p)
    run = scheme1_weak_product if scheme == "scheme1" else scheme2_weak_product
    return run(rho, pi0, pi0, p)


def _alternatives(position):
    """The observables a chain position lists: one, or a sequence of them."""
    return [position] if isinstance(position, OperatorMatrix) else list(position)


@pytest.mark.parametrize("protocol, scheme", sorted(ROUTE_POINTERS))
def test_route_table_counts_the_pointers_each_route_builds(monkeypatch, protocol, scheme):
    """Every chain a route runs couples ROUTE_POINTERS pointers, all on the
    grid of that count, and no route builds a JointState.  Scheme 2 reads
    its pair (F, E) with conditional_readout; every other route reads its
    pointers from eigenvalue tables (chain_readout), one position per
    pointer.  Each position is one observable or the alternatives of a
    scanned setting."""
    states, chains, pairs = [], [], []  # JointStates built / chains / Scheme 2 pairs read
    init = evolution.JointState.__init__
    readout, conditional = protocols.chain_readout, protocols.conditional_readout

    def record_state(self, branches, grids, *args):
        states.append((len(grids), set(grids)))
        init(self, branches, grids, *args)

    def record_chain(system, observables, gts, grid, *args):
        for position in observables:
            assert all(isinstance(op, OperatorMatrix) for op in _alternatives(position))
        chains.append((len(observables), {grid}))
        return readout(system, observables, gts, grid, *args)

    def record_pair(system, f_op, e_op, gt1, gt2, grid, sigma):
        for position in (f_op, e_op):
            assert all(isinstance(op, OperatorMatrix) for op in _alternatives(position))
        pairs.append((2, {grid}))
        return conditional(system, f_op, e_op, gt1, gt2, grid, sigma)

    monkeypatch.setattr(evolution.JointState, "__init__", record_state)
    monkeypatch.setattr(protocols, "chain_readout", record_chain)
    monkeypatch.setattr(protocols, "conditional_readout", record_pair)
    _call_route(protocol, scheme)
    pointers = ROUTE_POINTERS[protocol, scheme]
    grid = ProtocolParams().grid(pointers)
    assert not states
    if scheme == "scheme2":
        assert pairs and not chains
    else:
        assert chains and not pairs
    for count, grids in chains + pairs:
        assert count == pointers
        assert grids == {grid}


@pytest.mark.parametrize("dim", [2, 4, 16])
@pytest.mark.parametrize("protocol, scheme", sorted(k for k in ROUTE_POINTERS if k[1] != "scheme2"))
def test_every_table_route_reads_its_settings_in_one_call(monkeypatch, protocol, scheme, dim):
    """One chain_readout call per route call, whatever the dimension: the
    scanned settings are alternatives of that call, dim of them at each
    scanned position."""
    calls = []
    readout = protocols.chain_readout

    def record_chain(system, observables, *args):
        calls.append([len(_alternatives(position)) for position in observables])
        return readout(system, observables, *args)

    monkeypatch.setattr(protocols, "chain_readout", record_chain)
    _call_route(protocol, scheme, dim)
    assert len(calls) == 1
    scanned = {("wavefunction", "substitution"): [dim], ("dirac", "substitution"): [dim],
               ("dirac", "scheme1"): [dim, dim], ("density", "substitution"): [dim, 1],
               ("density", "scheme1"): [dim, 1, dim]}
    assert calls[0] == scanned.get((protocol, scheme), [1] * ROUTE_POINTERS[protocol, scheme])


@pytest.mark.parametrize("dim", [2, 4, 16])
def test_scheme2_dirac_reads_one_displacement_table(monkeypatch, dim):
    """direct_dirac(scheme2) reads all N^2 settings from one q1-indexed
    table over E's values {0, 1}, and builds no JointState."""
    tables = []
    table = evolution.displacement_table

    def record(grid, sigma, shifts):
        tables.append(np.shape(shifts))
        return table(grid, sigma, shifts)

    def refuse(self, *args, **kwargs):
        raise AssertionError("direct_dirac built a JointState")

    monkeypatch.setattr(evolution, "displacement_table", record)
    monkeypatch.setattr(evolution.JointState, "__init__", refuse)
    rho = random_density(dim, seed=4, rank=2)
    params = ProtocolParams(gt=0.02, scheme="scheme2")
    out = direct_dirac(rho, params)
    assert tables == [(2, params.points(ROUTE_POINTERS["dirac", "scheme2"]))]
    assert out.distribution.entries.shape == (dim, dim)
    assert np.max(np.abs(out.distribution.entries - dirac_exact(rho).entries)) < 1e-4
