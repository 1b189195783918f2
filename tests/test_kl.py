import math
import tracemalloc

import numpy as np
import pytest

from tagstab import (
    GeneratorConfig,
    InsufficientDataError,
    ParameterError,
    TagStream,
    generate_stream,
    kl_divergence,
    kl_random_baseline,
    kl_topk_trajectory,
)


class TestKlDivergence:
    def test_identity_is_exactly_zero(self):
        p = (0.2, 0.3, 0.5)
        assert kl_divergence(p, p) == 0.0

    def test_hand_value(self):
        # 0.5*ln(0.5/0.9) + 0.5*ln(0.5/0.1)
        expected = 0.5 * math.log(5 / 9) + 0.5 * math.log(5)
        assert kl_divergence((0.5, 0.5), (0.9, 0.1)) == pytest.approx(expected, abs=1e-15)
        assert kl_divergence((0.5, 0.5), (0.9, 0.1)) == pytest.approx(0.5108, abs=1e-4)

    def test_zero_p_terms_are_dropped(self):
        assert kl_divergence((0.0, 1.0), (0.5, 0.5)) == pytest.approx(math.log(2))

    def test_support_violation(self):
        with pytest.raises(ParameterError):
            kl_divergence((1.0, 0.0), (0.0, 1.0))

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            kl_divergence((1.0,), (0.5, 0.5))

    def test_not_normalized(self):
        with pytest.raises(ParameterError):
            kl_divergence((0.5, 0.4), (0.5, 0.5))

    def test_negative_entries(self):
        with pytest.raises(ParameterError):
            kl_divergence((1.5, -0.5), (0.5, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries(self, bad):
        # NaN fails every comparison, so it must be rejected on its own.
        with pytest.raises(ParameterError):
            kl_divergence((bad, 1.0), (0.5, 0.5))
        with pytest.raises(ParameterError):
            kl_divergence((0.5, 0.5), (1.0, bad))

    def test_non_negative_on_valid_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            q = rng.random(4) + 0.05
            q /= q.sum()
            p = rng.random(4)
            p /= p.sum()
            assert kl_divergence(tuple(p), tuple(q)) >= -1e-12


class TestKlTopkTrajectory:
    def test_identical_windows_give_zero(self):
        stream = TagStream("r", ["a", "b"] * 10)
        points = kl_topk_trajectory(stream, 2)
        assert all(v == 0.0 for _, v in points)

    def test_frequency_shift_matches_direct_divergence(self):
        # Counts (9, 1) after ten assignments become (10, 10) after twenty,
        # so the compared vectors are exactly (0.5, 0.5) and (0.9, 0.1).
        tags = ["a"] * 9 + ["b"] + ["a"] + ["b"] * 9
        points = kl_topk_trajectory(TagStream("r", tags), 10)
        assert points == ((10, pytest.approx(kl_divergence((0.5, 0.5), (0.9, 0.1)))),)

    def test_positions_are_window_multiples(self):
        stream = TagStream("r", ["a", "b", "c"] * 20)
        points = kl_topk_trajectory(stream, 5)
        assert [n for n, _ in points] == [5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55]

    def test_uniform_stream_trend_is_decreasing(self):
        config = GeneratorConfig(
            model="random_uniform", vocabulary_size=1000, length=1000, seed=7
        )
        points = kl_topk_trajectory(generate_stream(config), 10, 25)
        slope = np.polyfit([n for n, _ in points], [v for _, v in points], 1)[0]
        assert slope < 0

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            kl_topk_trajectory(TagStream("r", ["a"] * 9), 5)

    def test_bad_parameters(self):
        stream = TagStream("r", ["a"] * 10)
        with pytest.raises(ParameterError):
            kl_topk_trajectory(stream, 0)
        with pytest.raises(ParameterError):
            kl_topk_trajectory(stream, 2, top_k=0)


class TestKlRandomBaseline:
    def test_single_trial_equals_trajectory(self):
        config = GeneratorConfig(
            model="random_uniform", vocabulary_size=50, length=200, n_streams=1, seed=5
        )
        direct = kl_topk_trajectory(generate_stream(config, 0), 10, 25)
        baseline = kl_random_baseline(10, 25, 50, 200, trials=1, seed=5)
        assert baseline == direct

    def test_mean_over_trials_matches_generated_streams(self):
        config = GeneratorConfig(
            model="random_uniform", vocabulary_size=40, length=60, n_streams=4, seed=2
        )
        sums = {}
        for index in range(4):
            for n, value in kl_topk_trajectory(generate_stream(config, index), 10, 5):
                sums[n] = sums.get(n, 0.0) + value
        expected = tuple((n, sums[n] / 4) for n in sorted(sums))
        assert kl_random_baseline(10, 5, 40, 60, trials=4, seed=2) == expected

    def test_deterministic(self):
        a = kl_random_baseline(10, 25, 100, 300, trials=5, seed=9)
        b = kl_random_baseline(10, 25, 100, 300, trials=5, seed=9)
        assert a == b

    def test_peak_memory_does_not_grow_with_trials(self):
        peaks = []
        for trials in (2, 12):
            tracemalloc.start()
            try:
                kl_random_baseline(10, 25, 1000, 3000, trials=trials, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Holding every trial stream at once gives about 1.8 times the peak.
        assert peaks[1] < 1.2 * peaks[0]

    def test_short_trial_length_is_parameter_error(self):
        with pytest.raises(ParameterError, match="trial length 19 is shorter"):
            kl_random_baseline(10, 25, 100, 19, trials=2)

    def test_trials_validation(self):
        with pytest.raises(ParameterError):
            kl_random_baseline(10, 25, 100, 300, trials=0)
