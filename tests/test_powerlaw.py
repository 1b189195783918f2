import warnings

import numpy as np
import pytest

from tagstab import (
    EmptyInputError,
    InsufficientDataError,
    ParameterError,
    ccdf,
    compare_distributions,
    fit_power_law,
)
from tagstab.powerlaw import _ks_distance


def draw_discrete_power_law(alpha, xmin, size, rng, cap=1_000_000):
    """Inverse-CDF sampler over the exact discrete distribution
    P(X = x) proportional to x^-alpha for integer x in [xmin, cap]."""
    support = np.arange(xmin, cap + 1, dtype=float)
    pmf = support**-alpha
    pmf /= pmf.sum()
    cdf = np.cumsum(pmf)
    picks = np.searchsorted(cdf, rng.random(size), side="right")
    return support[np.minimum(picks, support.size - 1)].astype(int).tolist()


@pytest.fixture(scope="module")
def oracle_sample():
    return draw_discrete_power_law(2.5, 5, 10_000, np.random.default_rng(0))


@pytest.fixture(scope="module")
def oracle_fit(oracle_sample):
    return fit_power_law(oracle_sample)


class TestFitPowerLaw:
    def test_recovers_generator_parameters(self, oracle_fit):
        assert 2.4 <= oracle_fit.alpha <= 2.6
        assert 3 <= oracle_fit.xmin <= 8
        assert oracle_fit.ks_distance < 0.05
        assert oracle_fit.n_tail >= 2

    def test_no_worse_than_true_cutoff(self, oracle_sample, oracle_fit):
        x = np.sort(np.asarray(oracle_sample, dtype=float))
        tail = x[x >= 5]
        alpha_at_true = 1.0 + tail.size / float(
            np.sum(np.log(tail / (5 - 0.5)))
        )
        assert oracle_fit.ks_distance <= _ks_distance(tail, alpha_at_true, 5.0) + 0.01

    def test_order_invariance(self, oracle_sample):
        shuffled = list(oracle_sample)
        np.random.default_rng(1).shuffle(shuffled)
        assert fit_power_law(shuffled) == fit_power_law(oracle_sample)

    def test_small_tail_candidates_are_skipped(self):
        sample = [1] * 50 + [2]
        fit = fit_power_law(sample)
        assert fit.xmin == 1
        assert fit.n_tail == 51

    def test_degenerate_sample(self):
        with pytest.raises(InsufficientDataError):
            fit_power_law([3] * 10)

    def test_underflowing_tail_is_insufficient_data(self):
        # Adjacent counts give alpha ~ 216, zeta(alpha, 215) underflows to 0
        # and the only candidate's KS distance is 0/0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientDataError):
                fit_power_law([215, 216])

    def test_underflowing_candidate_is_skipped_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_power_law([1, 1, 1, 2, 2, 3, 5, 8, 215, 216])
        assert (fit.xmin, fit.n_tail) == (1.0, 10)
        assert fit.ks_distance == pytest.approx(0.124883, abs=1e-6)

    def test_empty_sample(self):
        with pytest.raises(EmptyInputError):
            fit_power_law([])

    def test_rejects_values_below_one_or_fractional(self):
        with pytest.raises(ParameterError):
            fit_power_law([0, 1, 2])
        with pytest.raises(ParameterError):
            fit_power_law([1.5, 2, 3])


class TestCcdf:
    def test_small_example(self):
        assert ccdf([1, 1, 2]) == ((1.0, 1.0), (2.0, pytest.approx(1 / 3)))

    def test_single_value(self):
        assert ccdf([5]) == ((5.0, 1.0),)

    def test_last_point_is_max_multiplicity(self):
        sample = [1, 2, 2, 7, 7, 7]
        points = ccdf(sample)
        assert points[-1] == (7.0, pytest.approx(3 / 6))

    def test_starts_at_one_and_never_increases(self):
        rng = np.random.default_rng(2)
        sample = rng.integers(1, 40, size=500).tolist()
        points = ccdf(sample)
        assert points[0][1] == 1.0
        probabilities = [p for _, p in points]
        assert all(b < a for a, b in zip(probabilities, probabilities[1:]))

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            ccdf([])


class TestCompareDistributions:
    def test_power_law_data_beats_exponential(self, oracle_sample, oracle_fit):
        comparison = compare_distributions(oracle_sample, oracle_fit)
        assert comparison.exponential.converged
        assert comparison.exponential.ratio > 0
        assert comparison.exponential.p_value < 0.1

    def test_power_law_data_vs_lognormal_is_inconclusive(self, oracle_sample, oracle_fit):
        comparison = compare_distributions(oracle_sample, oracle_fit)
        assert comparison.lognormal.converged
        assert comparison.lognormal.p_value > 0.05

    def test_exponential_data_favors_exponential(self):
        rng = np.random.default_rng(99)
        sample = np.ceil(rng.exponential(scale=2.0, size=10_000)).astype(int).tolist()
        fit = fit_power_law(sample)
        comparison = compare_distributions(sample, fit)
        assert comparison.exponential.ratio < 0

    def test_sample_must_match_fit(self, oracle_sample, oracle_fit):
        with pytest.raises(ParameterError):
            compare_distributions(oracle_sample + [50], oracle_fit)
