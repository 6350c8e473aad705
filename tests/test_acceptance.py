"""End-to-end acceptance checks, one test per release criterion.

Each test prints as a single pass/fail line under pytest -v and enforces
its own wall-clock budget, so a regression in either accuracy or runtime
fails the gate.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from weakmeas.evolution import chain_readout, weak_value_from_moments
from weakmeas.hilbert import (
    DensityMatrix,
    StateVector,
    fourier_ket,
    projector,
    random_density,
    random_state,
    standard_ket,
    trace_distance,
)
from weakmeas.oracle import (
    density_from_triple_exact,
    dirac_exact,
    weak_average,
    weak_strong_exact,
    weak_value_mixed,
    weak_value_pure,
)
from weakmeas.pointer import PointerGrid
from weakmeas.protocols import (
    ProtocolParams,
    calibrate_scheme1,
    convergence_slope,
    dirac_to_density,
    direct_density,
    mixed_state_response,
    scheme1_weak_product,
    scheme2_weak_product,
)
from weakmeas.sampling import ShotPlan, WeakStrongSetting, sample_protocol

SWEEP = (0.08, 0.04, 0.02, 0.01)
GRID1 = PointerGrid(512, 16.0)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def postselected_ket(dim, seed, psi, floor=0.1):
    """Random post-selection ket with overlap magnitude at least floor."""
    while True:
        c = random_state(dim, seed)
        if abs(np.vdot(c.amps, psi.amps)) >= floor:
            return c
        seed += 1000


def simulated_weak_value(psi, a_op, c, gt, sigma=1.0):
    (prob,), (pq,), (pk,) = chain_readout(psi, [a_op], [gt], GRID1, sigma, c,
                                          {0: "Q"}, {0: "K"})
    return weak_value_from_moments(pq.real / prob, pk.real / prob, gt, 1.0, sigma)


def assert_converges(gts, errors):
    for prev, nxt in zip(errors, errors[1:]):
        assert nxt < prev
    assert convergence_slope(gts, errors) >= 0.9


def extrapolate_stack(gts, mats):
    x = (np.asarray(gts, dtype=float) / max(gts)) ** 2
    design = np.vander(x, 3, increasing=True)
    flat = np.array([np.asarray(m).reshape(-1) for m in mats])
    coef, *_ = np.linalg.lstsq(design, flat, rcond=None)
    return coef[0].reshape(np.shape(mats[0]))


def test_criterion_1_oracle_identity_suite():
    """Four closed-form identities hold to 1e-12 on 105 instances each."""
    start = time.monotonic()
    seed = 0
    for n in range(2, 9):
        for _ in range(15):
            seed += 1
            psi = random_state(n, seed)
            rho_pure = DensityMatrix(np.outer(psi.amps, psi.amps.conj()))
            rho = random_density(n, seed, rank=1 + seed % n)
            a_op = random_hermitian(n, seed)

            # mixed-state weak value reduces to the pure one on a pure state
            c = postselected_ket(n, seed + 7, psi, floor=0.01)
            assert abs(
                weak_value_mixed(a_op, rho_pure, c) - weak_value_pure(a_op, psi, c)
            ) <= 1e-12

            # quasi-probability marginals are the two Born distributions
            dist = dirac_exact(rho)
            assert np.max(np.abs(
                dist.entries.sum(axis=1) - np.diag(rho.matrix)
            )) <= 1e-12
            fourier_probs = np.array([
                np.vdot(fourier_ket(n, b).amps, rho.matrix @ fourier_ket(n, b).amps)
                for b in range(n)
            ])
            assert np.max(np.abs(dist.entries.sum(axis=0) - fourier_probs)) <= 1e-12

            # triple-projector weak averages are scaled density elements
            assert np.max(np.abs(
                density_from_triple_exact(rho, fourier_ket(n, 0)) - rho.matrix / n
            )) <= 1e-12

            # outcome-weighted conditional sum equals the operator trace
            g_op = random_matrix(n, seed + 3)
            c_op = random_hermitian(n, seed + 5)
            assert abs(
                weak_strong_exact(rho, g_op, c_op)
                - np.trace(c_op @ g_op @ rho.matrix)
            ) <= 1e-12
    assert time.monotonic() - start <= 10.0


def test_criterion_2_dirac_round_trip():
    """Fourier inversion of the exact quasi-probability returns rho to 1e-12."""
    start = time.monotonic()
    seed = 100
    for n in range(2, 17):
        for _ in range(20):
            seed += 1
            rho = random_density(n, seed, rank=1 + seed % n)
            back = dirac_to_density(dirac_exact(rho))
            assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-12
    assert time.monotonic() - start <= 5.0


def test_criterion_3_weak_limit_convergence():
    """Simulated weak values and weak averages approach the oracle as gt
    shrinks: error strictly decreasing, log-log slope at least 0.9."""
    start = time.monotonic()
    seed = 200
    for n in (2, 4):
        for _ in range(20):
            seed += 1
            psi = random_state(n, seed)
            rho = DensityMatrix(np.outer(psi.amps, psi.amps.conj()))

            # post-selected weak value of pi_0
            a_op = projector(standard_ket(n, 0))
            c = postselected_ket(n, seed + 13, psi)
            oracle = weak_value_pure(a_op, psi, c)
            errors = [
                abs(simulated_weak_value(psi, a_op, c, gt) - oracle)
                for gt in SWEEP
            ]
            assert_converges(SWEEP, errors)

            # non-post-selected weak average of the largest product entry
            dist = dirac_exact(rho)
            a, b = np.unravel_index(np.argmax(np.abs(dist.entries)), (n, n))
            oracle = dist.entries[a, b]
            errors = [
                abs(
                    scheme1_weak_product(
                        rho,
                        projector(fourier_ket(n, b)),
                        projector(standard_ket(n, a)),
                        ProtocolParams(gt=gt, scheme="scheme1"),
                    )
                    - oracle
                )
                for gt in SWEEP
            ]
            assert_converges(SWEEP, errors)
    assert time.monotonic() - start <= 120.0


def test_criterion_4_density_reconstruction():
    """Entrywise reconstruction lands within 1e-2 of rho at gt=0.01 and
    within 1e-4 after zero-coupling extrapolation of the sweep."""
    start = time.monotonic()
    cases = [(2, s) for s in range(300, 305)] + [(4, s) for s in range(305, 310)]
    for n, seed in cases:
        rho = random_density(n, seed, rank=2)
        mats = [
            direct_density(rho, params=ProtocolParams(gt=gt)).matrix
            for gt in SWEEP
        ]
        assert trace_distance(mats[-1], rho.matrix) <= 1e-2
        extrap = extrapolate_stack(SWEEP, mats)
        extrap = (extrap + extrap.conj().T) / 2
        extrap = extrap / np.real(np.trace(extrap))
        assert trace_distance(extrap, rho.matrix) <= 1e-4
    assert time.monotonic() - start <= 300.0


def test_criterion_5_scheme_cross_validation():
    """Both two-pointer product schemes agree with Tr[EF rho] within 5%
    relative at gt=0.01, and the calibrated readout constant is unity
    within 1% after extrapolation."""
    start = time.monotonic()
    cases = [(2, s) for s in range(400, 405)] + [(4, s) for s in range(405, 410)]
    for n, seed in cases:
        rho = random_density(n, seed, rank=2)
        dist = dirac_exact(rho)
        a, b = np.unravel_index(np.argmax(np.abs(dist.entries)), (n, n))
        e_op = projector(fourier_ket(n, b))
        f_op = projector(standard_ket(n, a))
        oracle = weak_average(e_op.matrix @ f_op.matrix, rho)
        assert abs(oracle) >= 0.05
        for scheme, run in (("scheme1", scheme1_weak_product),
                            ("scheme2", scheme2_weak_product)):
            value = run(rho, e_op, f_op, ProtocolParams(gt=0.01, scheme=scheme))
            assert abs(value - oracle) / abs(oracle) <= 0.05

    calibration = calibrate_scheme1()
    assert abs(calibration.extrapolated - 1.0) <= 0.01
    for gt, kappa in zip(calibration.gts, calibration.kappas):
        assert kappa == pytest.approx((2.0 / gt) ** 2)
    assert time.monotonic() - start <= 300.0


def test_criterion_6_anomalous_weak_value():
    """A near-orthogonal post-selection yields a weak value near -1.366,
    far outside the [0, 1] eigenvalue range of the projector."""
    start = time.monotonic()
    theta = np.pi / 3
    psi = StateVector(np.array([np.cos(theta), np.sin(theta)]))
    c = StateVector(np.array([1.0, -1.0]) / np.sqrt(2))
    a_op = projector(standard_ket(2, 0))
    oracle = weak_value_pure(a_op, psi, c)
    assert oracle == pytest.approx(-(1 + np.sqrt(3)) / 2, abs=1e-12)

    value = simulated_weak_value(psi, a_op, c, gt=0.01)
    assert abs(value - oracle) / abs(oracle) <= 0.05
    assert value.real < 0.0
    assert time.monotonic() - start <= 10.0


def test_criterion_7_mixed_state_insufficiency():
    """The pure-state scan cannot tell I/N from |b0><b0|: identical output."""
    start = time.monotonic()
    for n in range(2, 9):
        b0 = fourier_ket(n, 0)
        mixed = mixed_state_response(DensityMatrix(np.eye(n) / n), b0)
        pure = mixed_state_response(
            DensityMatrix(np.outer(b0.amps, b0.amps.conj())), b0
        )
        assert np.max(np.abs(mixed - pure)) <= 1e-12
    assert time.monotonic() - start <= 1.0


def test_criterion_8_sampling_statistics():
    """Shot-noise stderr scales as shots^-0.5 within 0.1 of the exponent,
    and a fixed seed reproduces the estimate exactly."""
    start = time.monotonic()
    rho = random_density(2, seed=500, rank=2)
    setting = WeakStrongSetting(
        rho,
        projector(standard_ket(2, 0)),
        [fourier_ket(2, 0), fourier_ket(2, 1)],
        [1.0, 0.0],
        ProtocolParams(),
    )
    shots = (1_000, 10_000, 100_000)
    estimates = [sample_protocol(setting, ShotPlan(s, seed=42)) for s in shots]
    for errs in ([e.stderr_re for e in estimates], [e.stderr_im for e in estimates]):
        exponent = np.polyfit(np.log(shots), np.log(errs), 1)[0]
        assert exponent == pytest.approx(-0.5, abs=0.1)

    repeat = sample_protocol(setting, ShotPlan(10_000, seed=42))
    assert repeat == estimates[1]
    assert time.monotonic() - start <= 120.0
