import numpy as np
import pytest
from numpy.testing import assert_allclose

from weakmeas.pointer import (
    PointerGrid,
    PointerParams,
    PointerState,
    WrapAroundError,
    boost,
    expect_ann,
    expect_k,
    expect_q,
    gaussian_pointer,
    momentum_density,
    position_density,
    translate,
)

GRID = PointerGrid(512, 16.0)


class TestPointerGrid:
    def test_spacing_and_symmetry(self):
        assert GRID.dq == pytest.approx(2 * 16.0 / 512)
        assert_allclose(GRID.positions[0], -16.0)
        # endpoint convention: last point sits one cell short of +L
        assert_allclose(GRID.positions[-1], 16.0 - GRID.dq)
        assert GRID.positions[256] == 0.0
        assert_allclose(np.diff(GRID.positions), GRID.dq)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            PointerGrid(500, 16.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            PointerGrid(8, 16.0)

    @pytest.mark.parametrize("half_width", [5e-324, 1e308])
    def test_rejects_a_spacing_that_is_not_finite_and_positive(self, half_width):
        # 5e-324 over 16 points used to divide by zero in fftfreq
        with pytest.raises(ValueError, match="grid spacing"):
            PointerGrid(16, half_width)

    def test_hashable(self):
        assert PointerGrid(64, 4.0) == PointerGrid(64, 4.0)
        assert len({PointerGrid(64, 4.0), PointerGrid(64, 4.0)}) == 1


class TestGaussianPointer:
    def test_centered_moments(self):
        phi = gaussian_pointer(GRID, 1.0)
        assert abs(expect_q(phi)) < 1e-12
        assert abs(expect_k(phi)) < 1e-12

    def test_variance(self):
        phi = gaussian_pointer(GRID, 1.0)
        q2 = float(np.sum(GRID.positions**2 * position_density(phi)))
        assert q2 == pytest.approx(1.0, rel=1e-6)

    def test_annihilated_by_ann_operator(self):
        phi = gaussian_pointer(GRID, 1.0)
        assert abs(expect_ann(phi, 1.0)) < 1e-12

    @pytest.mark.parametrize("sigma", [1e-300, 1e-160, 1e155, float("nan")])
    def test_rejects_a_width_whose_square_is_not_a_normal_float(self, sigma):
        # 1e-300 used to give NaN amplitudes with only a RuntimeWarning
        with pytest.raises(ValueError, match="sigma must lie in"):
            gaussian_pointer(PointerGrid(256, 16.0), sigma)

    def test_normalize_rejects_a_norm_that_is_not_finite(self):
        for amps in (np.full(16, np.nan), np.full(16, np.inf)):
            with pytest.raises(ValueError, match="cannot normalize"):
                PointerState.normalize(PointerGrid(16, 1.0), amps)

    def test_grid_too_narrow(self):
        with pytest.raises(ValueError, match="narrow"):
            gaussian_pointer(PointerGrid(64, 4.0), 1.0)


class TestMoments:
    def test_displaced_gaussian(self):
        sigma = 1.0
        amps = np.exp(-((GRID.positions - 0.3) ** 2) / (4 * sigma**2))
        state = PointerState.normalize(GRID, amps)
        assert expect_q(state) == pytest.approx(0.3, abs=1e-8)
        assert expect_ann(state, sigma) == pytest.approx(0.15, abs=1e-8)

    def test_boosted_gaussian(self):
        phi = gaussian_pointer(GRID, 1.0)
        state = PointerState(GRID, phi.amps * np.exp(0.2j * GRID.positions))
        assert expect_k(state) == pytest.approx(0.2, abs=1e-8)
        ann = expect_ann(state, 1.0)
        assert ann.real == pytest.approx(0.0, abs=1e-8)
        assert ann.imag == pytest.approx(0.2, abs=1e-8)

    def test_parseval(self):
        state = translate(gaussian_pointer(GRID, 1.0), 1.1)
        q_norm = float(np.sum(position_density(state)))
        k_norm = float(np.sum(momentum_density(state)))
        assert abs(q_norm - k_norm) < 1e-10
        assert q_norm == pytest.approx(1.0, abs=1e-10)

    def test_grid_refinement_stability(self):
        """Doubling M at fixed L moves the moments by < 1e-9."""
        coarse = translate(gaussian_pointer(GRID, 1.0), 0.7)
        fine_grid = PointerGrid(1024, 16.0)
        fine = translate(gaussian_pointer(fine_grid, 1.0), 0.7)
        assert abs(expect_q(coarse) - expect_q(fine)) < 1e-9
        assert abs(expect_k(coarse) - expect_k(fine)) < 1e-9


class TestTranslateAndBoost:
    def test_translate_shifts_mean_exactly(self):
        phi = gaussian_pointer(GRID, 1.0)
        assert expect_q(translate(phi, 2.5)) == pytest.approx(2.5, abs=1e-10)
        assert expect_q(translate(phi, -0.05)) == pytest.approx(-0.05, abs=1e-10)

    def test_translate_wrap_guard(self):
        with pytest.raises(WrapAroundError):
            translate(gaussian_pointer(GRID, 1.0), 5.0)

    def test_boost_wrap_guard(self):
        limit = np.pi / GRID.dq / 4
        with pytest.raises(WrapAroundError):
            boost(gaussian_pointer(GRID, 1.0), 1.5 * limit)

    def test_boost_shifts_momentum(self):
        assert expect_k(boost(gaussian_pointer(GRID, 1.0), 0.4)) == pytest.approx(
            0.4, abs=1e-10
        )


class TestPointerParams:
    def test_defaults(self):
        p = PointerParams()
        assert p.sigma == 1.0
        assert p.gt == pytest.approx(0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            PointerParams(sigma=0.0)
        with pytest.raises(ValueError):
            PointerParams(g=-1.0, t=1.0)


def test_pointer_state_norm_enforced():
    with pytest.raises(ValueError, match="norm"):
        PointerState(GRID, np.ones(512))
