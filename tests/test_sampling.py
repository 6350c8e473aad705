import math
from dataclasses import asdict

import numpy as np
import pytest

from weakmeas import sampling
from weakmeas.evolution import outcome_pointer_densities
from weakmeas.hilbert import (
    fourier_basis,
    projector,
    random_density,
    standard_basis,
    standard_ket,
)
from weakmeas.protocols import ProtocolParams, weak_strong_product
from weakmeas.sampling import (
    SampledEstimate,
    ShotPlan,
    WeakStrongSetting,
    sample_protocol,
)

PI0 = projector(standard_ket(2, 0))
PARAMS = ProtocolParams()


def per_shot_reference(setting, plan, laws=outcome_pointer_densities):
    """The shot record exactly as the contract states it, one shot at a time.

    Shot i draws its outcome from stream slot 2i and its readout from slot
    2i + 1, reads position when i < round(readout_split * shots), and reads
    0 for an outcome of numerically zero probability.  Returns the
    (value, stderr_re, stderr_im) of each row of outcome values.
    """
    params = setting.params
    (gt,) = params.couplings(1)
    grid = params.grid(1)
    probs, q_masses, k_masses = laws(setting.system, setting.observable, gt, grid,
                                     params.sigma, list(setting.basis))
    q_centres = grid.positions
    k_centres = np.fft.fftshift(grid.wavenumbers)
    q_edges = np.append(q_centres - grid.dq / 2, q_centres[-1] + grid.dq / 2)
    k_edges = np.append(k_centres - grid.dk / 2, k_centres[-1] + grid.dk / 2)

    def inverse_cdf(prob, mass):
        if prob < 1e-14:
            return None
        cdf = np.append(0.0, np.cumsum(mass))
        return cdf / cdf[-1]

    q_cdfs = [inverse_cdf(p, m) for p, m in zip(probs, q_masses)]
    k_cdfs = [inverse_cdf(p, np.fft.fftshift(m)) for p, m in zip(probs, k_masses)]
    outcome_cdf = np.cumsum(probs)
    u = np.random.Generator(np.random.Philox(key=plan.seed)).random(2 * plan.shots)
    n_pos = int(round(plan.readout_split * plan.shots))
    shots = []  # (reads position, outcome, pointer reading), in shot order
    for i in range(plan.shots):
        c = min(int(np.searchsorted(outcome_cdf, u[2 * i], side="right")), len(probs) - 1)
        position = i < n_pos
        if q_cdfs[c] is None:
            reading = 0.0
        elif position:
            reading = float(np.interp(u[2 * i + 1], q_cdfs[c], q_edges))
        else:
            reading = float(np.interp(u[2 * i + 1], k_cdfs[c], k_edges))
        shots.append((position, c, reading))

    def stats(samples):
        if len(samples) == 0:
            return 0.0, math.inf
        if len(samples) == 1:
            return samples[0], math.inf
        samples = np.array(samples)
        return samples.mean(), samples.std(ddof=1) / math.sqrt(samples.size)

    out = []
    for row in np.atleast_2d(setting.outcome_values):
        re, err_re = stats([row[c] * r / gt for pos, c, r in shots if pos])
        im, err_im = stats([2 * params.sigma**2 * row[c] * r / gt
                            for pos, c, r in shots if not pos])
        out.append((complex(re, im), err_re, err_im))
    return out


def assert_matches_reference(setting, plan, laws=outcome_pointer_densities, tol=1e-12):
    estimates = sample_protocol(setting, plan)
    if not isinstance(estimates, list):
        estimates = [estimates]
    reference = per_shot_reference(setting, plan, laws)
    assert len(estimates) == len(reference)
    n_pos = int(round(plan.readout_split * plan.shots))
    for est, (value, err_re, err_im) in zip(estimates, reference):
        assert (est.shots_position, est.shots_momentum) == (n_pos, plan.shots - n_pos)
        assert abs(est.value - value) <= tol
        for got, want in ((est.stderr_re, err_re), (est.stderr_im, err_im)):
            assert got == want if math.isinf(want) else abs(got - want) <= tol
    return estimates


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

    @pytest.mark.parametrize(
        "kwargs, field",
        [({"shots": 0}, "shots"), ({"shots": 2**31}, "shots"),
         ({"readout_split": float("nan")}, "readout_split"),
         ({"shots": 1, "readout_split": 0.5}, "readout_split")],
    )
    def test_errors_name_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            ShotPlan(**{"shots": 10, "seed": 1, **kwargs})


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


class TestPerShotReference:
    """sample_protocol against a shot-by-shot reading of the contract."""

    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("split", [0.0, 0.25, 0.5, 1.0])
    def test_matches_per_shot_reference(self, dim, split):
        rho = random_density(dim, seed=dim + 1, rank=2)
        stack = np.vstack([np.eye(dim), np.linspace(-1.0, 2.0, dim)])
        setting = WeakStrongSetting(rho, projector(standard_ket(dim, dim - 1)),
                                    fourier_basis(dim), stack, PARAMS)
        assert_matches_reference(setting, ShotPlan(shots=1500, seed=dim, readout_split=split))

    def test_single_row_matches_per_shot_reference(self):
        assert_matches_reference(indicator_setting(values=(0.3, -1.2)),
                                 ShotPlan(shots=1000, seed=8, readout_split=0.7))

    def test_one_shot_per_quadrature(self):
        assert_matches_reference(indicator_setting(), ShotPlan(shots=2, seed=5))

    def test_zero_probability_outcome_reads_zero(self):
        """Pure |0>, pi_0 and the standard basis: outcome 1 never occurs, so
        the row that weights it alone reads exactly 0."""
        setting = WeakStrongSetting(standard_ket(2, 0), PI0, standard_basis(2),
                                    [[1.0, 0.0], [0.0, 1.0]], PARAMS)
        (gt,) = PARAMS.couplings(1)
        probs = outcome_pointer_densities(setting.system, PI0, gt, PARAMS.grid(1),
                                          PARAMS.sigma, list(setting.basis))[0]
        assert probs[1] < 1e-14
        _, never = assert_matches_reference(setting, ShotPlan(shots=2000, seed=3))
        assert never.value == 0 and never.stderr_re == 0 and never.stderr_im == 0

    def test_shots_of_a_lawless_outcome_read_zero(self, monkeypatch):
        """Outcome probabilities that sum to 0.9 leave the draws above 0.9 to
        the last outcome (the N - 1 clamp).  With zero probability it has no
        law, and those shots read 0 but still count."""
        def short_laws(*args):
            _, q_mass, k_mass = outcome_pointer_densities(*args)
            return np.array([0.6, 0.3, 0.0]), q_mass, k_mass

        monkeypatch.setattr(sampling, "outcome_pointer_densities", short_laws)
        rho = random_density(3, seed=2, rank=2)
        setting = WeakStrongSetting(rho, projector(standard_ket(3, 1)), fourier_basis(3),
                                    [[1.0, 1.0, 1.0], [0.0, 0.0, 1.0]], PARAMS)
        plan = ShotPlan(shots=2000, seed=6)
        _, lawless = assert_matches_reference(setting, plan, laws=short_laws)
        assert lawless.value == 0 and lawless.stderr_re == 0 and lawless.stderr_im == 0
        u_outcome = np.random.Generator(np.random.Philox(key=6)).random(4000)[0::2]
        assert np.count_nonzero(u_outcome >= 0.9) > 100


class TestPlanRecord:
    def test_drawn_once_and_kept_on_the_plan(self, monkeypatch):
        keys, philox = [], np.random.Philox

        def counting_philox(*args, **kwargs):
            keys.append(kwargs.get("key"))
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        plan = ShotPlan(shots=500, seed=21)
        for seed in (1, 2):
            sample_protocol(indicator_setting(seed=seed), plan)
        assert keys == [21]
        assert plan.record() is plan.record()

    def test_record_is_not_part_of_the_plan_value(self):
        plan, fresh = ShotPlan(shots=300, seed=2), ShotPlan(shots=300, seed=2)
        plan.record()
        assert plan == fresh and hash(plan) == hash(fresh)
        assert asdict(plan) == {"shots": 300, "seed": 2, "readout_split": 0.5}

    def test_record_is_read_only(self):
        for shots in ShotPlan(shots=40, seed=2).record():
            for array in shots:
                assert not array.flags.writeable

    def test_record_sorts_the_draws_of_each_quadrature(self):
        plan = ShotPlan(shots=101, seed=3, readout_split=0.3)
        u = np.random.Generator(np.random.Philox(key=3)).random(202)
        n_pos = 30
        for shots, part in zip(plan.record(), (slice(0, 2 * n_pos), slice(2 * n_pos, None))):
            outcome, readout = u[part][0::2], u[part][1::2]
            np.testing.assert_array_equal(shots.outcome_sorted, np.sort(outcome))
            # each readout draw sits at the rank of its own shot's outcome draw
            readout_of = dict(zip(outcome, readout))
            np.testing.assert_array_equal(
                shots.readout_by_rank, [readout_of[o] for o in shots.outcome_sorted])
            for array in shots:
                assert not array.flags.writeable


def per_shot_sums(plan, outcome_cdf, laws):
    """_outcome_sums of each quadrature, from the plan's stream shot by shot:
    each shot labelled by a clamped search of the outcome CDF, and each
    outcome's readouts read in ascending order."""
    u = np.random.Generator(np.random.Philox(key=plan.seed)).random(2 * plan.shots)
    n_pos = plan.position_shots
    out = []
    for part in (u[:2 * n_pos], u[2 * n_pos:]):
        labels = np.minimum(np.searchsorted(outcome_cdf, part[0::2], side="right"),
                            outcome_cdf.size - 1)
        counts = np.bincount(labels, minlength=outcome_cdf.size)
        means = np.zeros(outcome_cdf.size)
        squares = np.zeros(outcome_cdf.size)
        for c, law in enumerate(laws):
            if law is None or counts[c] == 0:
                continue
            readout = np.interp(np.sort(part[1::2][labels == c]), *law)
            total = readout.sum()
            means[c] = total / counts[c]
            squares[c] = max(readout @ readout - total * means[c], 0.0)
        out.append((counts, means, squares))
    return out


# One shot with readout_split 0.3 leaves a quadrature empty, which ShotPlan refuses.
@pytest.mark.parametrize("shots, split", [
    (shots, split) for shots in (1, 2, 101) for split in (0.0, 0.3, 1.0)
    if (shots, split) != (1, 0.3)])
def test_outcome_sums_equal_a_per_shot_reduction(shots, split):
    """Bit for bit, with an outcome of zero probability (no law, no shots)
    and probabilities that sum to 0.9, so the N - 1 clamp takes the rest."""
    rng = np.random.default_rng(shots)
    probs = np.array([0.35, 0.0, 0.25, 0.3])
    outcome_cdf = np.cumsum(probs)
    edges = np.linspace(-4.0, 4.0, 33)

    def law(mass):
        cdf = np.concatenate(([0.0], np.cumsum(mass)))
        return cdf / cdf[-1], edges

    laws = [None if p == 0 else law(rng.random(32)) for p in probs]
    plan = ShotPlan(shots=shots, seed=shots + 9, readout_split=split)
    for shots_of, (counts, means, squares) in zip(
            plan.record(), per_shot_sums(plan, outcome_cdf, laws)):
        got = sampling._outcome_sums(shots_of, outcome_cdf, laws)
        assert got.counts.tolist() == counts.tolist()
        assert got.means.tobytes() == means.tobytes()
        assert got.squares.tobytes() == squares.tobytes()


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
