import pytest

from tagstab import (
    GeneratorConfig,
    InsufficientDataError,
    ParameterError,
    TagStream,
    classify_stability,
    generate_corpus,
    stability_surface,
    stabilization_fraction,
    window_rbo,
)


def constant_corpus(n=5, length=40):
    return [TagStream(f"r{i}", ["x"] * length) for i in range(n)]


class TestStabilizationFraction:
    def test_constant_streams_pass_low_threshold(self):
        # Single-tag windows give RBO exactly (1 - p) = 0.1.
        assert stabilization_fraction(constant_corpus(), 40, 0.05) == 1.0

    def test_strict_inequality_at_boundary(self):
        assert stabilization_fraction(constant_corpus(), 40, 0.1) == 0.0

    def test_zero_threshold_over_random_corpora(self):
        # Cumulative snapshots always share every earlier tag, so some
        # agreement survives at the deepest occurring depth and RBO > 0.
        for seed in range(5):
            config = GeneratorConfig(
                model="random_uniform", vocabulary_size=3, length=12,
                n_streams=4, seed=seed,
            )
            corpus = generate_corpus(config)
            for t in (4, 8, 12):
                assert stabilization_fraction(corpus, t, 0.0, window=2) == 1.0

    def test_short_streams_are_excluded(self):
        corpus = [
            TagStream("long", ["x"] * 30),
            TagStream("short", ["x"] * 15),
        ]
        assert stabilization_fraction(corpus, 20, 0.05, window=10) == 1.0

    def test_no_eligible_streams(self):
        with pytest.raises(InsufficientDataError):
            stabilization_fraction(constant_corpus(length=30), 40, 0.5)

    def test_checkpoint_validation(self):
        corpus = constant_corpus()
        with pytest.raises(ParameterError):
            stabilization_fraction(corpus, 25, 0.5, window=10)
        with pytest.raises(ParameterError):
            stabilization_fraction(corpus, 10, 0.5, window=10)
        with pytest.raises(ParameterError):
            stabilization_fraction(corpus, 20, 1.5, window=10)


class TestWindowRbo:
    def test_matches_trajectory_semantics(self):
        stream = TagStream("r", ["a", "b", "a", "a"])
        value = window_rbo(stream, 4, window=2)
        assert 0.0 < value <= 1.0

    def test_checkpoint_beyond_stream(self):
        with pytest.raises(ParameterError):
            window_rbo(TagStream("r", ["a"] * 10), 20, window=5)


class TestStabilitySurface:
    def make_corpus(self, seed=0):
        config = GeneratorConfig(
            model="mixture", imitation_rate=0.5, vocabulary_size=50,
            length=60, n_streams=6, seed=seed,
        )
        return generate_corpus(config)

    def test_matches_pointwise_fractions(self):
        corpus = self.make_corpus()
        t_grid, k_grid = (20, 40, 60), (0.0, 0.3, 0.6, 0.9)
        surface = stability_surface(corpus, t_grid, k_grid, window=10)
        for i, t in enumerate(t_grid):
            for j, k in enumerate(k_grid):
                assert surface.values[i][j] == stabilization_fraction(
                    corpus, t, k, window=10
                )

    def test_monotone_non_increasing_in_k(self):
        surface = stability_surface(
            self.make_corpus(3), (20, 40), tuple(k / 10 for k in range(11)), window=10
        )
        for row in surface.values:
            assert all(b <= a for a, b in zip(row, row[1:]))

    def test_values_are_multiples_of_eligible_count(self):
        surface = stability_surface(self.make_corpus(5), (20, 60), (0.2, 0.7), window=10)
        for row, eligible in zip(surface.values, surface.n_eligible):
            for value in row:
                assert value * eligible == pytest.approx(round(value * eligible))

    def test_single_stream_values_are_binary(self):
        stream = TagStream("solo", ["a", "b", "a", "c"] * 10)
        surface = stability_surface([stream], (20, 40), (0.1, 0.5, 0.9), window=10)
        assert all(v in (0.0, 1.0) for row in surface.values for v in row)

    def test_recomputation_is_identical(self):
        corpus = self.make_corpus(7)
        first = stability_surface(corpus, (20, 40), (0.1, 0.4), window=10)
        second = stability_surface(corpus, (20, 40), (0.1, 0.4), window=10)
        assert first == second

    def test_grid_validation(self):
        corpus = self.make_corpus()
        with pytest.raises(ParameterError):
            stability_surface(corpus, (), (0.5,), window=10)
        with pytest.raises(ParameterError):
            stability_surface(corpus, (40, 20), (0.5,), window=10)
        with pytest.raises(ParameterError):
            stability_surface(corpus, (20,), (0.5, 0.5), window=10)

    def test_too_large_t_propagates(self):
        with pytest.raises(InsufficientDataError):
            stability_surface(self.make_corpus(), (20, 100), (0.5,), window=10)


class TestClassifyStability:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.0, "none"), (0.39, "none"), (0.4, "medium"), (0.7, "medium"),
         (0.71, "high"), (1.0, "high")],
    )
    def test_buckets(self, value, expected):
        assert classify_stability(value) == expected

    def test_monotone_in_value(self):
        order = {"none": 0, "medium": 1, "high": 2}
        labels = [order[classify_stability(v / 100)] for v in range(101)]
        assert labels == sorted(labels)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(ParameterError):
            classify_stability(bad)
