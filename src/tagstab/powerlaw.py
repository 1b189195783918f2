"""Heavy-tail analysis of frequency samples.

Fits a power law to the tail of a sample by maximum likelihood, selecting
the tail cutoff that minimizes the Kolmogorov-Smirnov distance, and compares
the fit against exponential, lognormal, and stretched-exponential tails via
normalized log-likelihood ratios.

Counts are discrete, so the scaling exponent uses the standard continuous
approximation with the half-unit shift: alpha = 1 + n / sum(ln(x / (xmin - 0.5))).
The KS distance driving the cutoff scan is taken against the zeta-normalized
discrete power law, which keeps the selected cutoff near the true one on
integer data.  Likelihood ratios are evaluated on the matching continuous
support [xmin - 0.5, infinity), identically for every candidate model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize, special, stats

from .errors import EmptyInputError, InsufficientDataError, ParameterError

ALTERNATIVES = ("exponential", "lognormal", "stretched_exponential")

MIN_TAIL = 2


@dataclass(frozen=True)
class PowerLawFit:
    """Fitted tail: scaling exponent, cutoff, KS distance, tail size."""

    alpha: float
    xmin: float
    ks_distance: float
    n_tail: int

    def __post_init__(self) -> None:
        if not self.alpha > 1.0:
            raise ParameterError(f"alpha must exceed 1, got {self.alpha}")
        if not 0.0 <= self.ks_distance <= 1.0:
            raise ParameterError(
                f"KS distance must lie in [0, 1], got {self.ks_distance}"
            )
        if self.n_tail < MIN_TAIL:
            raise ParameterError(f"tail must hold >= {MIN_TAIL} observations")


@dataclass(frozen=True)
class RatioTest:
    """Log-likelihood ratio against one alternative.

    ``ratio`` is power-law log-likelihood minus the alternative's, so a
    positive value favors the power law.  ``converged`` is False when the
    alternative's optimizer failed; ratio and p_value are then NaN.
    """

    ratio: float
    p_value: float
    converged: bool = True

    def __post_init__(self) -> None:
        if self.converged and not 0.0 <= self.p_value <= 1.0:
            raise ParameterError(f"p-value must lie in [0, 1], got {self.p_value}")


@dataclass(frozen=True)
class ModelComparison:
    exponential: RatioTest
    lognormal: RatioTest
    stretched_exponential: RatioTest


def _as_sample(sample: Sequence[float]) -> np.ndarray:
    x = np.asarray(list(sample), dtype=float)
    if x.size == 0:
        raise EmptyInputError("sample is empty")
    if np.any(~np.isfinite(x)) or np.any(x < 1) or np.any(x != np.round(x)):
        raise ParameterError("sample values must be integer counts >= 1")
    return np.sort(x)


def _ks_distance(tail: np.ndarray, alpha: float, xmin: float) -> float:
    """Max deviation between the tail's empirical distribution and the
    fitted discrete power law P(X >= x) = zeta(alpha, x) / zeta(alpha, xmin).

    The supremum runs over the integer support: besides every distinct
    tail value, the integer just above each gap is checked, where the
    empirical survival function has already stepped down but the model
    has not yet decayed.
    """
    n = tail.size
    values, counts = np.unique(tail, return_counts=True)
    at_least = (n - np.concatenate(([0], np.cumsum(counts)[:-1]))) / n
    norm = special.zeta(alpha, xmin)
    # A steep tail underflows zeta to 0 and makes every ratio 0/0 = NaN; the
    # caller rejects that candidate, so the division stays quiet.
    with np.errstate(invalid="ignore"):
        deviation = np.abs(special.zeta(alpha, values) / norm - at_least)
        gaps = values[1:] > values[:-1] + 1
        if np.any(gaps):
            after = special.zeta(alpha, values[:-1][gaps] + 1) / norm
            deviation = np.concatenate((deviation, np.abs(after - at_least[1:][gaps])))
    return float(np.max(deviation))


def fit_power_law(sample: Sequence[float]) -> PowerLawFit:
    """Fit a power-law tail, scanning every distinct value as a cutoff.

    For each candidate xmin keeping at least two tail observations, the
    exponent is estimated by maximum likelihood and the candidate with the
    smallest KS distance wins; ties go to the smaller xmin (longer tail).
    A candidate whose KS distance is not finite (a tail so steep that the
    zeta normalization underflows) is skipped.
    Deterministic and independent of sample order.
    """
    x = _as_sample(sample)
    values, first_index = np.unique(x, return_index=True)
    if values.size < 2:
        raise InsufficientDataError(
            "power-law fit needs at least two distinct values"
        )
    n = x.size
    log_suffix = np.cumsum(np.log(x)[::-1])[::-1]
    best: tuple[float, float, float, int] | None = None
    for value, start in zip(values, first_index):
        n_tail = n - int(start)
        if n_tail < MIN_TAIL:
            continue
        denominator = log_suffix[int(start)] - n_tail * math.log(value - 0.5)
        alpha = 1.0 + n_tail / denominator
        distance = _ks_distance(x[int(start):], alpha, float(value))
        if not math.isfinite(distance):
            continue
        if best is None or distance < best[2]:
            best = (alpha, float(value), distance, n_tail)
    if best is None:
        raise InsufficientDataError(
            "no cutoff keeps two observations with a finite KS distance"
        )
    alpha, xmin, distance, n_tail = best
    return PowerLawFit(alpha=alpha, xmin=xmin, ks_distance=distance, n_tail=n_tail)


def ccdf(sample: Sequence[float]) -> tuple[tuple[float, float], ...]:
    """Complementary cumulative distribution: (value, P(X >= value)) pairs
    for every distinct value, ascending; the smallest value maps to 1."""
    x = np.asarray(list(sample), dtype=float)
    if x.size == 0:
        raise EmptyInputError("sample is empty")
    values, counts = np.unique(x, return_counts=True)
    at_least = x.size - np.concatenate(([0], np.cumsum(counts)[:-1]))
    return tuple(
        (float(v), float(c) / x.size) for v, c in zip(values, at_least)
    )


def _power_logpdf(x: np.ndarray, alpha: float, lower: float) -> np.ndarray:
    return math.log(alpha - 1.0) - math.log(lower) - alpha * (np.log(x) - math.log(lower))


def _exponential_logpdf(x: np.ndarray, lower: float) -> np.ndarray:
    rate = 1.0 / (float(np.mean(x)) - lower)
    return math.log(rate) - rate * (x - lower)


def _lognormal_fit(x: np.ndarray, lower: float) -> tuple[np.ndarray, bool]:
    log_x = np.log(x)

    def logpdf(mu: float, sigma: float) -> np.ndarray:
        z = (log_x - mu) / sigma
        log_tail = stats.norm.logsf((math.log(lower) - mu) / sigma)
        return (
            -log_x
            - math.log(sigma)
            - 0.5 * math.log(2.0 * math.pi)
            - 0.5 * z**2
            - log_tail
        )

    def negative_loglik(params: np.ndarray) -> float:
        mu, log_sigma = params
        try:
            with np.errstate(all="ignore"):
                values = logpdf(mu, math.exp(log_sigma))
                total = float(np.sum(values))
        except (ValueError, OverflowError):
            return math.inf
        return -total if math.isfinite(total) else math.inf

    start = np.array([float(np.mean(log_x)), math.log(float(np.std(log_x)) + 1e-3)])
    result = optimize.minimize(
        negative_loglik,
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-8, "maxiter": 5000},
    )
    mu, log_sigma = result.x
    with np.errstate(all="ignore"):
        terms = logpdf(mu, math.exp(log_sigma))
    return terms, bool(result.success)


def _stretched_exponential_fit(x: np.ndarray, lower: float) -> tuple[np.ndarray, bool]:
    log_x = np.log(x)

    def logpdf(shape: float, scale: float) -> np.ndarray:
        scaled = (x / scale) ** shape
        anchor = (lower / scale) ** shape
        return (
            math.log(shape)
            - math.log(scale)
            + (shape - 1.0) * (log_x - math.log(scale))
            - scaled
            + anchor
        )

    def negative_loglik(params: np.ndarray) -> float:
        log_shape, log_scale = params
        try:
            with np.errstate(all="ignore"):
                values = logpdf(math.exp(log_shape), math.exp(log_scale))
                total = float(np.sum(values))
        except (ValueError, OverflowError):
            return math.inf
        return -total if math.isfinite(total) else math.inf

    start = np.array([0.0, math.log(float(np.mean(x)))])
    result = optimize.minimize(
        negative_loglik,
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-8, "maxiter": 5000},
    )
    log_shape, log_scale = result.x
    with np.errstate(all="ignore"):
        terms = logpdf(math.exp(log_shape), math.exp(log_scale))
    return terms, bool(result.success)


def _ratio_test(power_terms: np.ndarray, other_terms: np.ndarray) -> RatioTest:
    """Normalized (Vuong-style) log-likelihood ratio test.

    The significance comes from the per-observation ratio variance:
    p = erfc(|R| / (sqrt(2 n) sigma)).
    """
    differences = power_terms - other_terms
    ratio = float(np.sum(differences))
    sigma = float(np.sqrt(np.mean((differences - np.mean(differences)) ** 2)))
    if sigma == 0.0:
        return RatioTest(ratio, 1.0 if ratio == 0.0 else 0.0)
    p_value = float(
        special.erfc(abs(ratio) / (math.sqrt(2.0 * differences.size) * sigma))
    )
    return RatioTest(ratio, p_value)


def compare_distributions(sample: Sequence[float], fit: PowerLawFit) -> ModelComparison:
    """Log-likelihood ratios of the fitted power-law tail against each
    alternative, all fitted by maximum likelihood on the same tail."""
    x = _as_sample(sample)
    tail = x[x >= fit.xmin]
    if tail.size != fit.n_tail:
        raise ParameterError("fit does not correspond to the given sample")
    lower = fit.xmin - 0.5
    power_terms = _power_logpdf(tail, fit.alpha, lower)

    exponential = _ratio_test(power_terms, _exponential_logpdf(tail, lower))

    results = {}
    for name, fitter in (
        ("lognormal", _lognormal_fit),
        ("stretched_exponential", _stretched_exponential_fit),
    ):
        terms, converged = fitter(tail, lower)
        if converged and bool(np.all(np.isfinite(terms))):
            results[name] = _ratio_test(power_terms, terms)
        else:
            results[name] = RatioTest(math.nan, math.nan, converged=False)

    return ModelComparison(
        exponential=exponential,
        lognormal=results["lognormal"],
        stretched_exponential=results["stretched_exponential"],
    )
