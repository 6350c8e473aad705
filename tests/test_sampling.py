import numpy as np
import pytest

from weakmeas.hilbert import fourier_basis, projector, random_density, standard_ket
from weakmeas.protocols import ProtocolParams, weak_strong_product
from weakmeas.sampling import (
    SampledEstimate,
    ShotPlan,
    WeakStrongSetting,
    sample_protocol,
)

PI0 = projector(standard_ket(2, 0))
PARAMS = ProtocolParams()


def indicator_setting(seed=2, values=(1.0, 0.0)):
    rho = random_density(2, seed=seed, rank=2)
    return WeakStrongSetting(rho, PI0, fourier_basis(2), list(values), PARAMS)


class TestPlanValidation:
    def test_shot_count(self):
        with pytest.raises(ValueError):
            ShotPlan(shots=0, seed=1)

    def test_split_range(self):
        with pytest.raises(ValueError):
            ShotPlan(shots=10, seed=1, readout_split=-0.1)
        with pytest.raises(ValueError):
            ShotPlan(shots=10, seed=1, readout_split=1.5)

    def test_outcome_values_length(self):
        with pytest.raises(ValueError):
            WeakStrongSetting(random_density(2, seed=1, rank=2), PI0,
                              fourier_basis(2), [1.0], PARAMS)

    @pytest.mark.parametrize(
        "values",
        [
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],  # rows of length 3 for N = 2
            np.zeros((2, 2, 2)),  # 3-D
            [[]],
        ],
    )
    def test_outcome_value_stack_shape(self, values):
        with pytest.raises(ValueError):
            WeakStrongSetting(random_density(2, seed=1, rank=2), PI0,
                              fourier_basis(2), values, PARAMS)

    def test_starved_quadrature_rejected(self):
        with pytest.raises(ValueError, match="zero shots"):
            sample_protocol(indicator_setting(),
                            ShotPlan(shots=10, seed=1, readout_split=0.01))


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        plan = ShotPlan(shots=4000, seed=123)
        setting = indicator_setting()
        assert sample_protocol(setting, plan) == sample_protocol(setting, plan)

    def test_different_seeds_differ(self):
        setting = indicator_setting()
        a = sample_protocol(setting, ShotPlan(shots=4000, seed=1))
        b = sample_protocol(setting, ShotPlan(shots=4000, seed=2))
        assert a.value != b.value


class TestSharedRecord:
    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("split", [0.5, 0.3, 1.0])
    def test_stack_equals_single_rows(self, dim, split):
        rho = random_density(dim, seed=dim, rank=2)
        observable = projector(standard_ket(dim, 1))
        basis = fourier_basis(dim)
        stack = np.vstack([np.eye(dim), np.linspace(-1.0, 2.0, dim)])
        plan = ShotPlan(shots=3000, seed=17, readout_split=split)
        shared = sample_protocol(
            WeakStrongSetting(rho, observable, basis, stack, PARAMS), plan
        )
        assert isinstance(shared, list)
        assert len(shared) == len(stack)
        for row, est in zip(stack, shared):
            single = sample_protocol(
                WeakStrongSetting(rho, observable, basis, list(row), PARAMS), plan
            )
            assert est == single

    def test_single_row_stack_returns_a_list(self):
        setting = indicator_setting()
        plan = ShotPlan(shots=500, seed=4)
        stacked = WeakStrongSetting(setting.system, PI0, setting.basis,
                                    [setting.outcome_values], PARAMS)
        assert sample_protocol(stacked, plan) == [sample_protocol(setting, plan)]


class TestConsistency:
    def test_matches_deterministic_within_error(self):
        setting = indicator_setting()
        est = sample_protocol(setting, ShotPlan(shots=200_000, seed=7))
        target = weak_strong_product(setting.system, PI0, setting.basis,
                                     setting.outcome_values, PARAMS)
        assert abs(est.value.real - target.real) < 4 * est.stderr_re
        assert abs(est.value.imag - target.imag) < 4 * est.stderr_im

    def test_mean_over_seeds_is_unbiased(self):
        setting = indicator_setting()
        target = weak_strong_product(setting.system, PI0, setting.basis,
                                     setting.outcome_values, PARAMS)
        estimates = [
            sample_protocol(setting, ShotPlan(shots=4000, seed=s))
            for s in range(60)
        ]
        mean = np.mean([e.value for e in estimates])
        err_re = np.mean([e.stderr_re for e in estimates]) / np.sqrt(60)
        err_im = np.mean([e.stderr_im for e in estimates]) / np.sqrt(60)
        assert abs(mean.real - target.real) < 3 * err_re
        assert abs(mean.imag - target.imag) < 3 * err_im


class TestErrorScaling:
    def test_stderr_shrinks_as_root_shots(self):
        setting = indicator_setting()
        small = sample_protocol(setting, ShotPlan(shots=1000, seed=11))
        large = sample_protocol(setting, ShotPlan(shots=100_000, seed=11))
        ratio = small.stderr_re / large.stderr_re
        assert 5 < ratio < 20
        ratio_im = small.stderr_im / large.stderr_im
        assert 5 < ratio_im < 20


class TestSplit:
    def test_all_position(self):
        est = sample_protocol(indicator_setting(),
                              ShotPlan(shots=1000, seed=3, readout_split=1.0))
        assert est.shots_position == 1000
        assert est.shots_momentum == 0
        assert est.value.imag == 0.0
        assert est.stderr_im == float("inf")

    def test_all_momentum(self):
        est = sample_protocol(indicator_setting(),
                              ShotPlan(shots=1000, seed=3, readout_split=0.0))
        assert est.shots_position == 0
        assert est.shots_momentum == 1000
        assert est.value.real == 0.0
        assert est.stderr_re == float("inf")

    def test_split_counts(self):
        est = sample_protocol(indicator_setting(),
                              ShotPlan(shots=1000, seed=3, readout_split=0.25))
        assert est.shots_position == 250
        assert est.shots_momentum == 750


def test_estimate_is_plain_record():
    est = sample_protocol(indicator_setting(), ShotPlan(shots=100, seed=5))
    assert isinstance(est, SampledEstimate)
    assert est.shots_position + est.shots_momentum == 100


def test_builds_no_joint_state(monkeypatch):
    """The per-outcome laws come from eigenvalue tables, not a JointState."""
    from weakmeas import evolution

    def refuse(*args, **kwargs):
        raise AssertionError("sample_protocol built a JointState")

    monkeypatch.setattr(evolution.JointState, "__init__", refuse)
    est = sample_protocol(indicator_setting(), ShotPlan(shots=100, seed=5))
    assert est.shots_position + est.shots_momentum == 100
