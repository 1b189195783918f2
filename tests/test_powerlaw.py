import ast
import math
import warnings
from collections import Counter
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize, special

from tagstab import (
    DataError,
    EmptyInputError,
    GeneratorConfig,
    InsufficientDataError,
    ModelComparison,
    ParameterError,
    PowerLawFit,
    RatioTest,
    ccdf,
    compare_distributions,
    fit_power_law,
    generate_corpus,
    generate_stream,
)
import tagstab.powerlaw
from tagstab.powerlaw import (
    _TABLE_SPAN,
    _ZETA_A,
    MIN_TAIL,
    _bounded_brent,
    _hurwitz_zeta,
    _ks_distance,
    _log_ndtr,
    _nelder_mead,
    _power_logpdf,
    _ratio_test,
    _stretched_exponential_fit,
    _zeta_at,
    _zeta_far,
)


def draw_discrete_power_law(alpha, xmin, size, rng, cap=1_000_000):
    """Inverse-CDF sampler over the exact discrete distribution
    P(X = x) proportional to x^-alpha for integer x in [xmin, cap]."""
    support = np.arange(xmin, cap + 1, dtype=float)
    pmf = support**-alpha
    pmf /= pmf.sum()
    cdf = np.cumsum(pmf)
    picks = np.searchsorted(cdf, rng.random(size), side="right")
    return support[np.minimum(picks, support.size - 1)].astype(int).tolist()


# The numpy oracle: fit_power_law and compare_distributions as they were when
# every sum was one numpy operation over the tail's observations.  The
# library now sums over distinct values and their multiplicities in Python
# floats.  The special functions and the two searches are the library's own
# (looked up at call time, so a test may replace them in both), and the
# oracle differs from the library only in how it sums.


def numpy_sample(sample):
    x = np.asarray(list(sample), dtype=float)
    if x.size == 0:
        raise EmptyInputError("sample is empty")
    if np.any(~np.isfinite(x)) or np.any(x < 1) or np.any(x != np.round(x)):
        raise ParameterError("sample values must be integer counts >= 1")
    return np.sort(x)


def numpy_zeta_far(s, q):
    coefficients = []
    rising = s
    for j, divisor in enumerate(_ZETA_A[:4]):
        coefficients.append(rising / divisor)
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2)
    inverse_square = 1.0 / (q * q)
    series = coefficients[-1]
    for coefficient in reversed(coefficients[:-1]):
        series = coefficient + inverse_square * series
    return q ** -s * (q / (s - 1.0) + 0.5 + series / q)


def numpy_zeta_at(s, keys):
    lo = int(keys[0])
    hi = int(keys.max())
    top = min(hi, lo + _TABLE_SPAN)
    beyond = _hurwitz_zeta(s, top + 1.0)
    terms = np.arange(top, lo - 1, -1, dtype=float) ** -s
    table = (beyond + np.cumsum(terms))[::-1]
    if hi == top:
        return table[keys - lo]
    near = keys <= top
    zeta = np.zeros(keys.size)
    zeta[near] = table[keys[near] - lo]
    if beyond > 0.0:
        zeta[~near] = numpy_zeta_far(s, keys[~near].astype(float))
    return zeta


def numpy_ks_distance(values, counts, alpha):
    at_or_above = np.cumsum(counts[::-1])[::-1]
    at_least = at_or_above / at_or_above[0]
    keys = values.astype(np.intp)
    zeta = numpy_zeta_at(alpha, np.concatenate((keys, keys[:-1] + 1)))
    norm = zeta[0]
    if norm == 0.0:
        return math.nan
    empirical = np.concatenate((at_least, at_least[1:]))
    return float(np.max(np.abs(zeta / norm - empirical)))


def numpy_fit_power_law(sample):
    x = numpy_sample(sample)
    values, first_index, counts = np.unique(x, return_index=True, return_counts=True)
    if values.size < 2:
        raise InsufficientDataError("power-law fit needs at least two distinct values")
    n = x.size
    log_suffix = np.cumsum(np.log(x)[::-1])[::-1]
    best = None
    for j, (value, start) in enumerate(zip(values[:-1], first_index[:-1])):
        n_tail = n - int(start)
        if n_tail < MIN_TAIL:
            continue
        denominator = log_suffix[int(start)] - n_tail * math.log(value - 0.5)
        alpha = 1.0 + n_tail / denominator
        distance = numpy_ks_distance(values[j:], counts[j:], alpha)
        if not math.isfinite(distance):
            continue
        if best is None or distance < best[2]:
            best = (alpha, float(value), distance, n_tail)
    if best is None:
        raise InsufficientDataError("no cutoff keeps two observations with a finite KS distance")
    alpha, xmin, distance, n_tail = best
    return PowerLawFit(alpha=float(alpha), xmin=xmin, ks_distance=distance, n_tail=n_tail)


def numpy_power_logpdf(x, alpha, lower):
    return math.log(alpha - 1.0) - math.log(lower) - alpha * (np.log(x) - math.log(lower))


def numpy_exponential_logpdf(x, lower):
    rate = 1.0 / (float(np.mean(x)) - lower)
    return math.log(rate) - rate * (x - lower)


def numpy_lognormal_fit(x, lower):
    log_x = np.log(x)
    n = x.size
    log_lower = math.log(lower)
    center = float(np.mean(log_x))
    squares = float(np.sum((log_x - center) ** 2))
    constant = float(np.sum(log_x)) + 0.5 * n * math.log(2.0 * math.pi)

    def negative_loglik(mu, log_sigma):
        try:
            sigma = math.exp(log_sigma)
            log_tail = _log_ndtr((mu - log_lower) / sigma)
            value = (
                constant
                + n * (log_sigma + log_tail)
                + (squares + n * (center - mu) ** 2) / (2.0 * sigma * sigma)
            )
        except (OverflowError, ZeroDivisionError):
            return math.inf
        return value if math.isfinite(value) else math.inf

    start = (center, math.log(float(np.std(log_x)) + 1e-3))
    (mu, log_sigma), converged = tagstab.powerlaw._nelder_mead(
        negative_loglik, start, xatol=1e-8, fatol=1e-8, maxiter=5000
    )
    with np.errstate(all="ignore"):
        sigma = math.exp(log_sigma)
        terms = (
            -log_x
            - log_sigma
            - 0.5 * math.log(2.0 * math.pi)
            - 0.5 * ((log_x - mu) / sigma) ** 2
            - _log_ndtr((mu - log_lower) / sigma)
        )
    return terms, converged


def numpy_stretched_exponential_fit(x, lower):
    log_x = np.log(x)
    n = x.size
    log_lower = math.log(lower)
    log_ratio = log_x - log_lower
    total_ratio = float(np.sum(log_ratio))

    def negative_profile(log_shape):
        shape = math.exp(log_shape)
        log_e = math.log(float(np.mean(np.expm1(shape * log_ratio))))
        return n * (log_e - log_shape) - shape * total_ratio

    log_shape, converged = tagstab.powerlaw._bounded_brent(
        negative_profile, -20.0, math.log(500.0 / float(np.max(log_ratio))), xatol=1e-8
    )
    shape = math.exp(log_shape)
    scaled = np.expm1(shape * log_ratio)
    mean_scaled = float(np.mean(scaled))
    terms = (
        log_shape
        - shape * log_lower
        - math.log(mean_scaled)
        + (shape - 1.0) * log_x
        - scaled / mean_scaled
    )
    return terms, converged


def numpy_ratio_test(power_terms, other_terms):
    differences = power_terms - other_terms
    ratio = float(np.sum(differences))
    sigma = float(np.sqrt(np.mean((differences - np.mean(differences)) ** 2)))
    if sigma == 0.0:
        return RatioTest(ratio, 1.0 if ratio == 0.0 else 0.0)
    p_value = math.erfc(abs(ratio) / (math.sqrt(2.0 * differences.size) * sigma))
    return RatioTest(ratio, p_value)


def numpy_compare_distributions(sample, fit):
    x = numpy_sample(sample)
    tail = x[x >= fit.xmin]
    if tail.size != fit.n_tail:
        raise ParameterError("fit does not correspond to the given sample")
    lower = fit.xmin - 0.5
    power_terms = numpy_power_logpdf(tail, fit.alpha, lower)
    exponential = numpy_ratio_test(power_terms, numpy_exponential_logpdf(tail, lower))
    results = []
    for fitter in (numpy_lognormal_fit, numpy_stretched_exponential_fit):
        terms, converged = fitter(tail, lower)
        if converged and bool(np.all(np.isfinite(terms))):
            test = numpy_ratio_test(power_terms, terms)
            results.append(test if test.ratio <= 0.0 else RatioTest(0.0, 1.0))
        else:
            results.append(RatioTest(math.nan, math.nan, converged=False))
    return ModelComparison(exponential, *results)


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
        tail = Counter(x for x in oracle_sample if x >= 5)
        values = sorted(tail)
        n_tail = sum(tail.values())
        alpha_at_true = 1.0 + n_tail / math.fsum(
            tail[v] * math.log(v / (5 - 0.5)) for v in values
        )
        at_or_above = list(accumulate(tail[v] for v in values[::-1]))[::-1]
        assert oracle_fit.ks_distance <= _ks_distance(values, at_or_above, alpha_at_true) + 0.01

    def test_scan_equals_per_tail_reference(self, oracle_sample, oracle_fit):
        # The scan slices one count of the sample's distinct values; each
        # candidate's tail, counted on its own, must give bitwise the same
        # winner.
        candidates = []
        for xmin in sorted(set(oracle_sample))[:-1]:
            tail = Counter(x for x in oracle_sample if x >= xmin)
            values = sorted(tail)
            counts = [tail[v] for v in values]
            n_tail = sum(counts)
            log_sum = list(accumulate(c * math.log(v) for v, c in zip(values[::-1], counts[::-1])))[-1]
            alpha = 1.0 + n_tail / (log_sum - n_tail * math.log(xmin - 0.5))
            at_or_above = list(accumulate(counts[::-1]))[::-1]
            distance = _ks_distance([float(v) for v in values], at_or_above, alpha)
            candidates.append((distance, xmin, n_tail))
        distance, xmin, n_tail = min(candidates)
        assert (oracle_fit.ks_distance, oracle_fit.xmin, oracle_fit.n_tail) == (
            distance, xmin, n_tail
        )

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

    def test_largest_value_is_never_the_cutoff(self):
        # A tail of the repeated maximum alone has KS distance 0 by
        # construction; it must not win over the real tails.
        fit = fit_power_law([1, 1, 1, 2, 2, 3, 5, 9, 9])
        assert fit.xmin < 9
        assert fit.n_tail > 2
        assert fit.ks_distance > 0

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values(self, bad):
        with pytest.raises(ParameterError):
            ccdf([1.5, bad, 2])

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=200))
    def test_matches_counting_each_value(self, sample):
        expected = tuple(
            (float(v), sum(x >= v for x in sample) / len(sample)) for v in sorted(set(sample))
        )
        assert ccdf(sample) == expected

    def test_non_integer_values(self):
        assert ccdf([2.5, 0.5, 2.5, 1.25]) == ((0.5, 1.0), (1.25, 0.75), (2.5, 0.5))

    def test_values_equal_as_floats_are_one_value(self):
        # 2^53 + 1 is a different int from 2^53 but the same float.
        assert ccdf([2**53, 2**53 + 1, 1]) == ((1.0, 1.0), (2.0**53, 2 / 3))


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

    def test_weibull_data_favors_stretched_exponential(self):
        rng = np.random.default_rng(7)
        sample = np.ceil(20 * rng.weibull(0.5, size=4000)).astype(int).tolist()
        comparison = compare_distributions(sample, fit_power_law(sample))
        assert comparison.stretched_exponential.converged
        assert comparison.stretched_exponential.ratio < 0

    def test_lognormal_data_favors_lognormal(self):
        rng = np.random.default_rng(6)
        sample = np.ceil(rng.lognormal(1.5, 0.8, size=4000)).astype(int).tolist()
        comparison = compare_distributions(sample, fit_power_law(sample))
        assert comparison.lognormal.converged
        assert comparison.lognormal.ratio < 0


# Reference fits: full-array Nelder-Mead over both parameters of each
# alternative, as compare_distributions fitted them before it used
# sufficient statistics and the profile likelihood.  special.log_ndtr(-z)
# stands in for scipy.stats.norm.logsf(z), to which it is bitwise equal.


def reference_lognormal_fit(x, lower):
    log_x = np.log(x)

    def logpdf(mu, sigma):
        z = (log_x - mu) / sigma
        log_tail = special.log_ndtr(-(math.log(lower) - mu) / sigma)
        return (
            -log_x - math.log(sigma) - 0.5 * math.log(2.0 * math.pi) - 0.5 * z**2 - log_tail
        )

    def negative_loglik(params):
        mu, log_sigma = params
        try:
            with np.errstate(all="ignore"):
                total = float(np.sum(logpdf(mu, math.exp(log_sigma))))
        except (ValueError, OverflowError):
            return math.inf
        return -total if math.isfinite(total) else math.inf

    start = np.array([float(np.mean(log_x)), math.log(float(np.std(log_x)) + 1e-3)])
    result = optimize.minimize(
        negative_loglik, start, method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-8, "maxiter": 5000},
    )
    mu, log_sigma = result.x
    with np.errstate(all="ignore"):
        return logpdf(mu, math.exp(log_sigma)), bool(result.success)


def reference_stretched_fit(x, lower):
    log_x = np.log(x)

    def logpdf(shape, scale):
        return (
            math.log(shape)
            - math.log(scale)
            + (shape - 1.0) * (log_x - math.log(scale))
            - (x / scale) ** shape
            + (lower / scale) ** shape
        )

    def negative_loglik(params):
        log_shape, log_scale = params
        try:
            with np.errstate(all="ignore"):
                total = float(np.sum(logpdf(math.exp(log_shape), math.exp(log_scale))))
        except (ValueError, OverflowError):
            return math.inf
        return -total if math.isfinite(total) else math.inf

    start = np.array([0.0, math.log(float(np.mean(x)))])
    result = optimize.minimize(
        negative_loglik, start, method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-8, "maxiter": 5000},
    )
    log_shape, log_scale = result.x
    with np.errstate(all="ignore"):
        return logpdf(math.exp(log_shape), math.exp(log_scale)), bool(result.success)


def corpus_counts(**config):
    """Final tag counts of a whole generated corpus."""
    corpus = generate_corpus(GeneratorConfig(**config))
    return sorted(Counter(tag for stream in corpus for tag in stream.tags).values())


def tail_of(sample, fit):
    x = np.sort(np.asarray(sample, dtype=float))
    return x[x >= fit.xmin], fit.xmin - 0.5


def tail_pairs(sample, fit):
    """The tail's distinct log values, their multiplicities and the lower
    end of its support, as compare_distributions takes them apart."""
    tail = Counter(float(x) for x in sample if x >= fit.xmin)
    values = sorted(tail)
    return [math.log(v) for v in values], [tail[v] for v in values], fit.xmin - 0.5


DIFFERENTIAL_SAMPLES = {
    "random_uniform": lambda: corpus_counts(
        model="random_uniform", vocabulary_size=300, length=500, n_streams=6, seed=1
    ),
    "imitation": lambda: corpus_counts(
        model="imitation", vocabulary_size=40, length=7, n_streams=400, seed=2
    ),
    "background": lambda: corpus_counts(
        model="background", vocabulary_size=5000, zipf_exponent=1.0,
        length=3000, n_streams=2, seed=3,
    ),
    "mixture": lambda: corpus_counts(
        model="mixture", imitation_rate=0.7, vocabulary_size=100_000,
        zipf_exponent=1.0, length=3000, n_streams=2, seed=4,
    ),
    "power_law": lambda: draw_discrete_power_law(2.5, 5, 300, np.random.default_rng(104)),
    "lognormal": lambda: np.ceil(
        np.random.default_rng(6).lognormal(1.5, 0.8, size=4000)
    ).astype(int).tolist(),
    "weibull": lambda: np.ceil(
        20 * np.random.default_rng(7).weibull(0.5, size=4000)
    ).astype(int).tolist(),
}


@pytest.fixture(scope="module", params=sorted(DIFFERENTIAL_SAMPLES))
def against_reference(request):
    """(tail size, [(fast test, reference converged, reference test)]) for
    the lognormal and the stretched exponential on one sample."""
    sample = DIFFERENTIAL_SAMPLES[request.param]()
    fit = fit_power_law(sample)
    tail, lower = tail_of(sample, fit)
    power_terms = numpy_power_logpdf(tail, fit.alpha, lower)
    comparison = compare_distributions(sample, fit)
    pairs = []
    for fast, reference in (
        (comparison.lognormal, reference_lognormal_fit),
        (comparison.stretched_exponential, reference_stretched_fit),
    ):
        terms, converged = reference(tail, lower)
        pairs.append((fast, converged, numpy_ratio_test(power_terms, terms)))
    return tail.size, pairs


class TestAgainstReferenceFits:
    def test_converged_matches(self, against_reference):
        _, pairs = against_reference
        for fast, converged, _ in pairs:
            assert fast.converged == converged

    def test_loglikelihood_never_below_reference(self, against_reference):
        # The ratio is the power law's log-likelihood minus the
        # alternative's, so a higher alternative likelihood is a lower ratio.
        n, pairs = against_reference
        for fast, _, reference in pairs:
            assert fast.ratio <= reference.ratio + 1e-9 * n

    def test_interior_optimum_matches(self, against_reference):
        # Where both fits beat the power-law limit, both found the same
        # interior optimum.
        _, pairs = against_reference
        for fast, _, reference in pairs:
            if fast.ratio < 0 and reference.ratio < 0:
                assert fast.ratio == pytest.approx(reference.ratio, rel=1e-4)
                assert fast.p_value == pytest.approx(reference.p_value, rel=1e-4)


def test_alternatives_on_the_power_law_boundary_read_ratio_zero():
    """Stream 13 of a 100 x 3000 mixture corpus (I = 0.7, vocabulary 100k,
    seed 42): the stretched exponential's profile likelihood rises all the
    way to beta -> 0, and the lognormal's along sigma -> infinity, so both
    maxima are the fitted power law itself.  The stretched search ends at
    its lower bound just short of that limit, both reference fits stop
    with a positive ratio, and compare_distributions reports ratio 0,
    p-value 1, converged, for both alternatives."""
    config = GeneratorConfig(
        model="mixture", imitation_rate=0.7, vocabulary_size=100_000,
        zipf_exponent=1.0, length=3000, n_streams=100, seed=42,
    )
    sample = sorted(Counter(generate_stream(config, 13).tags).values())
    fit = fit_power_law(sample)
    comparison = compare_distributions(sample, fit)
    assert comparison.lognormal == RatioTest(0.0, 1.0, converged=True)
    assert comparison.stretched_exponential == RatioTest(0.0, 1.0, converged=True)

    log_x, counts, lower = tail_pairs(sample, fit)
    terms = _stretched_exponential_fit(log_x, counts, lower)
    assert terms is not None
    gap = _ratio_test(_power_logpdf(log_x, fit.alpha, lower), terms, counts).ratio
    assert 0.0 < gap < 1e-6
    tail, lower = tail_of(sample, fit)
    power_terms = numpy_power_logpdf(tail, fit.alpha, lower)
    for reference in (reference_lognormal_fit, reference_stretched_fit):
        terms, converged = reference(tail, lower)
        assert converged and float(np.sum(power_terms - terms)) > 0.0


# The ports of scipy's two searches against scipy.optimize itself: the same
# optimum, bit for bit, and the same success flag.


def bits(*values):
    return [float(v).hex() for v in values]


def scipy_nelder_mead(function, start, xatol, fatol, maxiter):
    # errstate: scipy's stop test computes inf - inf when vertices tie at inf.
    with np.errstate(all="ignore"):
        result = optimize.minimize(
            lambda p: function(float(p[0]), float(p[1])),
            np.array(start, dtype=float),
            method="Nelder-Mead",
            options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter},
        )
    return tuple(result.x), bool(result.success)


def scipy_bounded(function, lower, upper, xatol, maxfun=500):
    with np.errstate(all="ignore"):
        result = optimize.minimize_scalar(
            function, bounds=(lower, upper), method="bounded",
            options={"xatol": xatol, "maxiter": maxfun},
        )
    return result.x, bool(result.success)


def assert_nelder_mead_matches(function, start, xatol=1e-8, fatol=1e-8, maxiter=5000):
    point, success = _nelder_mead(function, start, xatol=xatol, fatol=fatol, maxiter=maxiter)
    expected, expected_success = scipy_nelder_mead(function, start, xatol, fatol, maxiter)
    assert bits(*point) == bits(*expected)
    assert success == expected_success
    return success


def assert_brent_matches(function, lower, upper, xatol=1e-8, maxfun=500):
    x, success = _bounded_brent(function, lower, upper, xatol=xatol, maxfun=maxfun)
    expected, expected_success = scipy_bounded(function, lower, upper, xatol, maxfun)
    assert bits(x) == bits(expected)
    assert success == expected_success
    return x, success


def mixture_stream_samples():
    config = GeneratorConfig(
        model="mixture", imitation_rate=0.7, vocabulary_size=100_000,
        zipf_exponent=1.0, length=3000, n_streams=16, seed=42,
    )
    return [sorted(Counter(generate_stream(config, i).tags).values()) for i in range(16)]


@pytest.fixture(scope="module")
def port_samples():
    samples = [DIFFERENTIAL_SAMPLES[name]() for name in sorted(DIFFERENTIAL_SAMPLES)]
    rng = np.random.default_rng(11)
    samples += [np.ceil(rng.pareto(1.2, 400) + 1).astype(int).tolist() for _ in range(4)]
    samples += [np.ceil(rng.lognormal(1.0, 1.2, 400)).astype(int).tolist() for _ in range(4)]
    return samples + mixture_stream_samples()


class TestPortsAgainstScipy:
    def test_fits_on_sample_tails(self, port_samples, monkeypatch):
        # Every search compare_distributions makes runs through scipy too,
        # on the fit's own objective and arguments.
        calls = Counter()

        def nelder_mead(function, start, **options):
            calls["nelder_mead"] += 1
            assert_nelder_mead_matches(function, start, **options)
            return _nelder_mead(function, start, **options)

        def bounded_brent(function, lower, upper, **options):
            calls["bounded_brent"] += 1
            assert_brent_matches(function, lower, upper, **options)
            return _bounded_brent(function, lower, upper, **options)

        monkeypatch.setattr(tagstab.powerlaw, "_nelder_mead", nelder_mead)
        monkeypatch.setattr(tagstab.powerlaw, "_bounded_brent", bounded_brent)
        for sample in port_samples:
            compare_distributions(sample, fit_power_law(sample))
        assert calls == {"nelder_mead": len(port_samples), "bounded_brent": len(port_samples)}

    @pytest.mark.parametrize("start", [(1.0, 1.0), (0.9, 1.0), (1.0, -1.0)])
    def test_nelder_mead_with_infinite_vertices(self, start):
        # Vertices past 1.02 in either coordinate are infinite: the initial
        # simplex ties at inf and the sort must keep scipy's order.
        def walled(x, y):
            if x > 1.02 or y > 1.02:
                return math.inf
            return (x - 3.0) ** 2 + (y + 1.0) ** 2 + x * y / 10.0

        assert_nelder_mead_matches(walled, start)

    def test_nelder_mead_all_infinite_never_converges(self):
        # Every difference in the stop test is inf - inf = NaN, which fails it.
        assert not assert_nelder_mead_matches(lambda x, y: math.inf, (1.0, 2.0), maxiter=60)

    def test_nelder_mead_nan_vertices(self):
        # NaN on a ring around the minimum: NaN vertices sort last, and the
        # fatol test fails while the worst vertex is NaN, as np.max does.
        def ringed(x, y):
            if abs(x * x + y * y - 1.0) < 0.5:
                return math.nan
            return (x - 0.3) ** 2 + (y + 0.2) ** 2

        assert assert_nelder_mead_matches(ringed, (0.5, 0.5), maxiter=400)

    @pytest.mark.parametrize("start", [(0.0, 2.0), (-1.5, 0.0), (0.0, 0.0)])
    def test_nelder_mead_zero_start_coordinate(self, start):
        assert assert_nelder_mead_matches(
            lambda x, y: (x - 0.7) ** 2 + 3.0 * (y - 0.2) ** 2 + x * y, start
        )

    @pytest.mark.parametrize("maxiter", [1, 2, 20])
    def test_nelder_mead_stops_unconverged_at_maxiter(self, maxiter):
        def rosenbrock(x, y):
            return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2

        assert not assert_nelder_mead_matches(rosenbrock, (-1.2, 1.0), maxiter=maxiter)
        assert assert_nelder_mead_matches(rosenbrock, (-1.2, 1.0))

    def test_brent_parabolic_steps(self):
        x, success = assert_brent_matches(lambda x: (x - 0.3) ** 2 + math.sin(3.0 * x), -2.0, 2.0)
        assert success

    def test_brent_golden_steps(self):
        # A kink defeats the parabola, so most steps are golden sections.
        x, success = assert_brent_matches(lambda x: abs(x - 0.3) + 0.1 * (x > 0.3), -1.0, 4.0)
        assert success and x == pytest.approx(0.3, abs=1e-6)

    @pytest.mark.parametrize("center", [1e-8, 1.0 - 1e-8])
    def test_brent_clamps_near_a_bound(self, center):
        # A parabolic step lands within tol2 of a bound and is clamped to
        # tol1 towards the middle of the interval.
        x, success = assert_brent_matches(lambda x: (x - center) ** 2, 0.0, 1.0)
        assert success and x == pytest.approx(center, abs=1e-7)

    def test_brent_call_limit(self):
        # Near 0 the tolerance is about xatol / 3 = 3e-301, which 500 calls
        # do not reach.
        assert not assert_brent_matches(abs, -1.0, 1.0, xatol=1e-300)[1]
        assert not assert_brent_matches(lambda x: (x - 0.3) ** 2, -2.0, 2.0, maxfun=3)[1]

    @pytest.mark.parametrize("hole", [-1.0, -0.35])
    def test_brent_nan_objective_fails(self, hole):
        # NaN past the hole: at -1 the first call is NaN, at -0.35 the last.
        def holed(x):
            return math.nan if x > hole else (x - 0.7) ** 2

        assert not assert_brent_matches(holed, -2.0, 2.0)[1]


# The special functions against scipy.special, a test-only dependency.  The
# relative bounds were set by measurement: the largest errors seen over a
# few hundred thousand points were 0 (zeta), 1.6e-15 (zeta by the table
# and the series beyond it, above 1e-290), 6.2e-16 (that series alone),
# 6.7e-16 (log Phi below -1), 1.8e-15 (log Phi on (-1, 5]) and 5.7e-14
# (log Phi above 5 and erfc above 8, in erfc's far tail), 4.4e-15 (erfc on
# [0, 8]).  Values below the smallest normal float are compared absolutely.

TINY = np.finfo(float).tiny


def assert_close(got, expected, bound, floor=TINY):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    normal = np.abs(expected) >= floor
    error = np.abs(got[normal] - expected[normal]) / np.abs(expected[normal])
    assert error.max(initial=0.0) <= bound
    assert np.all(np.abs(got[~normal] - expected[~normal]) <= floor)


def near(edge, width, count=201):
    return np.concatenate(
        (np.linspace(edge - width, edge + width, count), [np.nextafter(edge, -np.inf), edge,
                                                          np.nextafter(edge, np.inf)])
    )


class TestSpecialFunctionsAgainstScipy:
    def test_hurwitz_zeta(self):
        rng = np.random.default_rng(0)
        s = np.concatenate(
            (1 + 10.0 ** rng.uniform(-12, 0, 400), rng.uniform(1, 200, 400), [1 + 2**-40, 200.0])
        )
        q = np.floor(10.0 ** rng.uniform(0, 6, s.size))
        q[:3] = [1.0, 9.0, 1e6]
        got = [_hurwitz_zeta(float(a), float(b)) for a, b in zip(s, q)]
        assert_close(got, special.zeta(s, q), 4e-16)

    @pytest.mark.parametrize(
        "s", [1 + 1e-12, 1 + 1e-6, 1.01, 1.5, 2.0, 2.5, 5.0, 30.0, 97.0, 98.0, 200.0]
    )
    def test_zeta_at(self, s):
        # Where zeta(s, k) is near the smallest normal float its terms are
        # subnormal and lose digits, in scipy as here: compared absolutely.
        # Spans past _TABLE_SPAN reach the series beyond the table.
        for lo, hi in [(1, 1), (1, 2000), (9, 11), (1, 2049), (1, 2050), (3, 6000),
                       (995_000, 1_000_000)]:
            keys = np.arange(lo, hi + 1)
            assert_close(_zeta_at(s, keys.tolist()), special.zeta(s, keys.astype(float)), 1e-14,
                         floor=1e-290)

    @pytest.mark.parametrize("s", [1 + 1e-9, 2.2])
    def test_zeta_at_over_a_million_values(self, s):
        keys = np.arange(5, 1_000_001)
        assert_close(_zeta_at(s, keys.tolist()), special.zeta(s, keys.astype(float)), 1e-14)

    def test_zeta_at_sparse_keys(self):
        # A tail's distinct values and their successors, in the scan's order.
        rng = np.random.default_rng(3)
        for s in [1 + 1e-9, 1.3, 2.5, 60.0]:
            values = np.unique(np.floor(10.0 ** rng.uniform(0, 7, 300)).astype(np.intp))
            keys = np.concatenate((values, values[:-1] + 1))
            assert_close(_zeta_at(s, keys.tolist()), special.zeta(s, keys.astype(float)), 1e-14,
                         floor=1e-290)

    def test_zeta_far(self):
        q = np.arange(2049.0, 10.0**7, 997.0)
        for s in [1 + 1e-12, 1.01, 2.0, 4.5, 40.0, 97.0]:
            assert_close([_zeta_far(s, v) for v in q.tolist()], special.zeta(s, q), 2e-15)

    def test_log_ndtr(self):
        rng = np.random.default_rng(1)
        z = np.concatenate(
            (rng.uniform(-1e3, 40, 20_000), rng.uniform(-25, 8, 20_000), near(-1.0, 1e-4),
             near(-20.0, 1e-4), [-1e3, 40.0, 0.0])
        )
        got = np.array([_log_ndtr(float(v)) for v in z])
        expected = special.log_ndtr(z)
        for lo, hi, bound in [(-np.inf, -1.0, 2e-15), (-1.0, 5.0, 5e-15), (5.0, np.inf, 1e-13)]:
            part = (z > lo) & (z <= hi) if lo > -np.inf else z <= hi
            assert_close(got[part], expected[part], bound)

    def test_log_ndtr_at_the_ends(self):
        assert _log_ndtr(-math.inf) == -math.inf
        assert _log_ndtr(math.inf) == 0.0
        assert math.isnan(_log_ndtr(math.nan))

    def test_erfc_over_the_p_value_range(self):
        # p = erfc(|R| / (sqrt(2 n) sigma)) underflows past an argument of 27.
        x = np.random.default_rng(2).uniform(0, 27, 20_000)
        got = np.array([math.erfc(float(v)) for v in x])
        assert_close(got[x <= 8], special.erfc(x[x <= 8]), 1e-14)
        assert_close(got[x > 8], special.erfc(x[x > 8]), 1e-13)


def scipy_ks_distance(values, at_or_above, alpha):
    """The KS distance with scipy's zeta evaluated at every value and gap
    point: the reference for ``_ks_distance``."""
    values, at_or_above = np.asarray(values), np.asarray(at_or_above)
    at_least = at_or_above / at_or_above[0]
    norm = special.zeta(alpha, values[0])
    with np.errstate(invalid="ignore"):
        deviation = np.abs(special.zeta(alpha, values) / norm - at_least)
        gaps = values[1:] > values[:-1] + 1
        if np.any(gaps):
            after = special.zeta(alpha, values[:-1][gaps] + 1) / norm
            deviation = np.concatenate((deviation, np.abs(after - at_least[1:][gaps])))
    return float(np.max(deviation))


def printed(fit):
    return [f"{value:#.6g}" for value in (fit.alpha, fit.xmin, fit.ks_distance)] + [fit.n_tail]


def test_scan_prints_as_with_scipy_zeta(port_samples, oracle_sample, monkeypatch):
    # The last sample's tails spread over millions of integers, far past
    # the zeta table.
    wide = draw_discrete_power_law(1.7, 1, 3000, np.random.default_rng(4))
    samples = port_samples + [oracle_sample, wide]
    fits = [fit_power_law(sample) for sample in samples]
    monkeypatch.setattr(tagstab.powerlaw, "_ks_distance", scipy_ks_distance)
    for sample, fit in zip(samples, fits):
        reference = fit_power_law(sample)
        assert printed(fit) == printed(reference)
        assert fit.ks_distance == pytest.approx(reference.ks_distance, rel=1e-12)


# The library against the numpy oracle.  The two sum in different orders,
# so the last bits of alpha and the KS distances may differ; a cutoff may
# differ only where two candidates tie on the KS distance within that noise.


def assert_matches_numpy_oracle(sample):
    try:
        expected = numpy_fit_power_law(sample)
    except DataError as error:
        with pytest.raises(type(error)):
            fit_power_law(sample)
        return
    fit = fit_power_law(sample)
    if (fit.xmin, fit.n_tail) != (expected.xmin, expected.n_tail):
        assert fit.ks_distance == pytest.approx(expected.ks_distance, rel=1e-12)
        return
    assert fit.alpha == pytest.approx(expected.alpha, rel=1e-12)
    assert fit.ks_distance == pytest.approx(expected.ks_distance, rel=1e-12)
    comparison = compare_distributions(sample, fit)
    reference = numpy_compare_distributions(sample, expected)
    for name in ("exponential", "lognormal", "stretched_exponential"):
        got, want = getattr(comparison, name), getattr(reference, name)
        assert got.converged == want.converged, name
        if want.converged:
            assert got.ratio == pytest.approx(want.ratio, rel=1e-6), name
            assert got.p_value == pytest.approx(want.p_value, rel=1e-6), name


def test_matches_numpy_oracle_on_port_samples(port_samples):
    # port_samples ends with the first 16 streams of the A4 mixture corpus.
    for sample in port_samples:
        assert_matches_numpy_oracle(sample)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.integers(1, 12), st.integers(1, 3000)), min_size=1, max_size=60))
def test_matches_numpy_oracle_on_drawn_samples(sample):
    assert_matches_numpy_oracle(sample)


def test_overflow_makes_the_alternative_not_converged(oracle_sample, oracle_fit, monkeypatch):
    # A lognormal optimum at sigma = e^-700 squares z = (log x - mu) / sigma
    # past the largest float.  numpy made those squares inf; here z * z is
    # inf too, so the fit is rejected as not finite, in both.
    monkeypatch.setattr(
        tagstab.powerlaw, "_nelder_mead",
        lambda function, start, **options: ((start[0], -700.0), True),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comparison = compare_distributions(oracle_sample, oracle_fit)
    assert comparison.lognormal.converged is False
    assert math.isnan(comparison.lognormal.ratio)
    reference = numpy_compare_distributions(oracle_sample, numpy_fit_power_law(oracle_sample))
    assert reference.lognormal.converged is False


@pytest.mark.parametrize("module", ["powerlaw.py", "cli.py", "ingest.py"])
def test_imports_no_numpy(module):
    source = Path(tagstab.powerlaw.__file__).with_name(module).read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = "." * node.level + (node.module or "")
            imported.add(package)
            if not node.module:  # from . import name
                imported.update(package + alias.name for alias in node.names)
    assert not {name for name in imported if name.split(".")[0] == "numpy"}
    if module == "ingest.py":
        # generators imports numpy, and generators imports ingest.
        assert imported.isdisjoint({".generators", "tagstab.generators"})
