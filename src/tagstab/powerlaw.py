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

The alternatives are fitted from sufficient statistics of the tail, so an
optimizer step costs O(1) or one vectorized pass: the truncated lognormal's
likelihood depends on the tail only through n, sum(log x) and the sum of
squares of log x, and the stretched exponential's scale has a closed form for
each shape, which leaves a one-dimensional profile likelihood.

No scipy is imported.  The two searches are ports of scipy 1.17's
Nelder-Mead simplex (``_nelder_mead``) and bounded Brent search
(``_bounded_brent``) onto Python floats: the same steps in the same
floating-point order, so they return the same bits as
``scipy.optimize.minimize(method="Nelder-Mead")`` and
``minimize_scalar(method="bounded")``.  The special functions come from
``math`` or are computed here: the Hurwitz zeta of the KS scan by one
Euler-Maclaurin sum (``_hurwitz_zeta``, as in Cephes ``zeta``) and the
recurrence zeta(s, k) = zeta(s, k + 1) + k^-s below it, over at most 2048
integers above the cutoff, and by the Euler-Maclaurin series alone at tail
values beyond those (``_zeta_at``); log Phi of the lognormal's truncation
from ``math.erfc`` with an asymptotic series in the far lower tail
(``_log_ndtr``); and the p-values from ``math.erfc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


# Cephes zeta: machine epsilon and the Euler-Maclaurin divisors (2k)! / B_2k.
_MACHEP = 1.11022302462515654042e-16
_ZETA_A = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)


def _hurwitz_zeta(s: float, q: float) -> float:
    """Hurwitz zeta(s, q) = sum over k >= 0 of (q + k)^-s, for s > 1 and
    q >= 1.

    A port of Cephes ``zeta``, as scipy 1.17 evaluates it: at least nine
    terms summed directly, then the Euler-Maclaurin remainder with up to
    twelve Bernoulli terms, each step in Cephes' order.  A sum that
    underflows to 0 stays 0, where Cephes divides 0 by 0 and tests NaN.
    """
    total = q ** -s
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -s
        total += b
        if total != 0.0 and abs(b / total) < _MACHEP:
            return total
    w = a
    total += b * w / (s - 1.0)
    total -= 0.5 * b
    a = 1.0
    k = 0.0
    for divisor in _ZETA_A:
        a *= s + k
        b /= w
        t = a * b / divisor
        total = total + t
        if total != 0.0 and abs(t / total) < _MACHEP:
            break
        k += 1.0
        a *= s + k
        b /= w
        k += 1.0
    return total


# Keys further than this above the smallest are not tabulated: summing the
# Euler-Maclaurin series at each of them costs less than the table would.
_TABLE_SPAN = 2048


def _zeta_at(s: float, keys: np.ndarray) -> np.ndarray:
    """zeta(s, k) for an integer array ``keys``, each at least ``keys[0]``
    (and at least 1).

    Keys up to ``keys[0] + _TABLE_SPAN`` come from a table by the recurrence
    zeta(s, k) = zeta(s, k + 1) + k^-s, started from one Euler-Maclaurin sum
    just above the table (``_hurwitz_zeta``).  The terms are summed smallest
    first, and that sum, which dominates as s nears 1, is added last.  Keys
    beyond the table, which only tails spread over thousands of integers
    have, get the Euler-Maclaurin series alone (``_zeta_far``).
    """
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
        # Else every key beyond underflows, as zeta(s, top + 1) bounds them.
        zeta[~near] = _zeta_far(s, keys[~near].astype(float))
    return zeta


def _zeta_far(s: float, q: np.ndarray) -> np.ndarray:
    """zeta(s, q) by the Euler-Maclaurin series with no term summed
    directly:  q^-s (q / (s - 1) + 1/2 + sum over j of
    s (s + 1) ... (s + 2j - 2) q^(1 - 2j) / _ZETA_A[j - 1]).

    For q above 2048 and zeta(s, q) above the smallest float, s is below
    100, so the first Bernoulli term is below 2e-4 of the sum, each next one
    is at least 1e4 times smaller, and the fifth, left out, is below 1e-20.
    """
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


def _ks_distance(values: np.ndarray, counts: np.ndarray, alpha: float) -> float:
    """Max deviation between a tail's empirical distribution and the
    fitted discrete power law P(X >= x) = zeta(alpha, x) / zeta(alpha, xmin).

    ``values`` are the tail's distinct values, ascending, so xmin is the
    first, and ``counts`` their multiplicities.  The supremum runs over the
    integer support: besides every distinct tail value, the integer just
    above each gap is checked, where the empirical survival function has
    already stepped down but the model has not yet decayed.
    """
    at_or_above = np.cumsum(counts[::-1])[::-1]
    at_least = at_or_above / at_or_above[0]
    keys = values.astype(np.intp)
    # The integer just above a value that no gap follows is the next value,
    # already counted, so every value's successor can be checked.
    zeta = _zeta_at(alpha, np.concatenate((keys, keys[:-1] + 1)))
    norm = zeta[0]
    if norm == 0.0:
        # A steep tail underflows zeta to 0, which leaves no finite
        # distance; the caller rejects the candidate.
        return math.nan
    empirical = np.concatenate((at_least, at_least[1:]))
    return float(np.max(np.abs(zeta / norm - empirical)))


def fit_power_law(sample: Sequence[float]) -> PowerLawFit:
    """Fit a power-law tail, scanning every distinct value as a cutoff.

    For each candidate xmin keeping at least two tail observations, the
    exponent is estimated by maximum likelihood and the candidate with the
    smallest KS distance wins; ties go to the smaller xmin (longer tail).
    The largest distinct value is never a candidate: its tail is one
    repeated value, whose KS distance is 0 by construction (the same rule
    as the ``powerlaw`` package of Alstott, Bullmore & Plenz, 2014).  A
    candidate whose KS distance is not finite (a tail so steep that the
    zeta normalization underflows) is skipped.
    Deterministic and independent of sample order.
    """
    x = _as_sample(sample)
    values, first_index, counts = np.unique(x, return_index=True, return_counts=True)
    if values.size < 2:
        raise InsufficientDataError(
            "power-law fit needs at least two distinct values"
        )
    n = x.size
    log_suffix = np.cumsum(np.log(x)[::-1])[::-1]
    best: tuple[float, float, float, int] | None = None
    for j, (value, start) in enumerate(zip(values[:-1], first_index[:-1])):
        n_tail = n - int(start)
        if n_tail < MIN_TAIL:
            continue
        denominator = log_suffix[int(start)] - n_tail * math.log(value - 0.5)
        alpha = 1.0 + n_tail / denominator
        distance = _ks_distance(values[j:], counts[j:], alpha)
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
    for every distinct value, ascending; the smallest value maps to 1.
    Every value must be finite."""
    x = np.asarray(list(sample), dtype=float)
    if x.size == 0:
        raise EmptyInputError("sample is empty")
    if not np.isfinite(x).all():
        raise ParameterError("sample values must be finite")
    values, counts = np.unique(x, return_counts=True)
    at_least = np.cumsum(counts[::-1])[::-1] / x.size
    return tuple(zip(values.tolist(), at_least.tolist()))


def _power_logpdf(x: np.ndarray, alpha: float, lower: float) -> np.ndarray:
    return math.log(alpha - 1.0) - math.log(lower) - alpha * (np.log(x) - math.log(lower))


def _exponential_logpdf(x: np.ndarray, lower: float) -> np.ndarray:
    rate = 1.0 / (float(np.mean(x)) - lower)
    return math.log(rate) - rate * (x - lower)


def _nan_last(vertex: tuple[tuple[float, float], float]) -> tuple[bool, float]:
    # numpy's argsort order: ascending value, NaN after everything else.
    value = vertex[1]
    return value != value, value


def _nelder_mead(
    function, start: tuple[float, float], xatol: float, fatol: float, maxiter: int
) -> tuple[tuple[float, float], bool]:
    """Minimize ``function(x, y)`` by the Nelder-Mead simplex method from
    ``start``; returns the best vertex and whether the tolerances were met
    in fewer than ``maxiter`` iterations.

    A port of scipy 1.17's ``_minimize_neldermead`` in two variables, with
    what ``_lognormal_fit`` uses of it: non-adaptive coefficients, no bounds
    and no limit on calls.  Each step is written in scipy's order and form,
    so the same floats come out.  The initial simplex moves each coordinate
    by 5% (or to 0.00025 from 0).  The vertices are kept in a stable sort by
    value with NaN last, as ``np.argsort`` leaves them.  The stop test holds
    only if every difference is within its tolerance, so a NaN difference
    (inf - inf) fails it, as it fails ``np.max(...) <= tol``.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    points = [tuple(start)]
    for k in range(2):
        y = list(start)
        y[k] = (1 + nonzdelt) * y[k] if y[k] != 0 else zdelt
        points.append(tuple(y))
    sim = sorted(((point, function(*point)) for point in points), key=_nan_last)
    iterations = 1
    while iterations < maxiter:
        (best, f_best), (middle, f_middle), (worst, f_worst) = sim
        if all(
            abs(v - b) <= xatol for point in (middle, worst) for v, b in zip(point, best)
        ) and all(abs(f_best - f) <= fatol for f in (f_middle, f_worst)):
            break
        xbar = [(b + m) / 2 for b, m in zip(best, middle)]
        xr = tuple((1 + rho) * c - rho * w for c, w in zip(xbar, worst))
        fxr = function(*xr)
        doshrink = False
        if fxr < f_best:
            xe = tuple((1 + rho * chi) * c - rho * chi * w for c, w in zip(xbar, worst))
            fxe = function(*xe)
            sim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < f_middle:
            sim[-1] = (xr, fxr)
        elif fxr < f_worst:
            xc = tuple((1 + psi * rho) * c - psi * rho * w for c, w in zip(xbar, worst))
            fxc = function(*xc)
            if fxc <= fxr:
                sim[-1] = (xc, fxc)
            else:
                doshrink = True
        else:
            xcc = tuple((1 - psi) * c + psi * w for c, w in zip(xbar, worst))
            fxcc = function(*xcc)
            if fxcc < f_worst:
                sim[-1] = (xcc, fxcc)
            else:
                doshrink = True
        if doshrink:
            for j in (1, 2):
                point = tuple(b + sigma * (v - b) for v, b in zip(sim[j][0], best))
                sim[j] = (point, function(*point))
        iterations += 1
        sim.sort(key=_nan_last)
    return sim[0][0], iterations < maxiter


def _bounded_brent(
    function, lower: float, upper: float, xatol: float, maxfun: int = 500
) -> tuple[float, bool]:
    """Minimize ``function(x)`` over [lower, upper] by Brent's method of
    golden sections and parabolic steps; returns the best point and whether
    it was found within ``maxfun`` calls with nothing NaN.

    A port of scipy 1.17's ``_minimize_scalar_bounded``, each step in
    scipy's order and form, so the same floats come out.  Where scipy
    writes ``np.sign(d) + (d == 0)``, ``_direction(d)`` gives the same
    value: 1 for d >= 0, -1 below, NaN for NaN.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lower, upper
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = function(xf)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    hit_limit = False
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # Check for a parabolic fit.
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _direction(xm - xf)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        # max() returns NaN for a NaN |rat| as np.maximum does; a NaN tol1
        # means xf is NaN, which makes x NaN either way.
        x = xf + _direction(rat) * max(abs(rat), tol1)
        fu = function(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            hit_limit = True
            break
    nan = math.isnan(xf) or math.isnan(fx) or math.isnan(fu)
    return xf, not (hit_limit or nan)


def _direction(value: float) -> float:
    if value < 0:
        return -1.0
    if value >= 0:
        return 1.0
    return math.nan


_SQRT1_2 = math.sqrt(0.5)


def _log_ndtr(z: float) -> float:
    """log Phi(z), the log of the standard normal distribution function.

    Above z = -1, log1p(-Phi(-z)) keeps the precision that log(Phi(z))
    would lose as Phi(z) nears 1.  From -20 to -1, log(Phi(z)) itself.
    Below -20, where erfc would soon underflow, the asymptotic series
    Phi(z) ~ phi(z) / -z * (1 - 1/z^2 + 3/z^4 - 15/z^6 + ...) of Cephes
    ``ndtr``, summed until a term falls below the precision of its sum.
    """
    if z > -1.0:
        return math.log1p(-0.5 * math.erfc(z * _SQRT1_2))
    if z >= -20.0:
        return math.log(0.5 * math.erfc(-z * _SQRT1_2))
    inverse_square = 1.0 / (z * z)
    term = series = 1.0
    i = 0
    while abs(term) > _MACHEP:
        i += 1
        term *= -(2 * i - 1) * inverse_square
        series += term
    return -0.5 * z * z - math.log(-z) - 0.5 * math.log(2.0 * math.pi) + math.log(series)


def _lognormal_fit(x: np.ndarray, lower: float) -> tuple[np.ndarray, bool]:
    """Lognormal truncated to [lower, infinity), fitted by Nelder-Mead over
    (mu, log sigma).

    The negative log-likelihood depends on the tail only through n,
    S1 = sum(log x) and the centered sum of squares Q of log x:
    S1 + n (log sigma + log(2 pi) / 2 + log Phi((mu - log lower) / sigma))
    + (Q + n (mean(log x) - mu)^2) / (2 sigma^2), so each step costs O(1).
    The per-observation terms are built once, at the optimum.
    """
    log_x = np.log(x)
    n = x.size
    log_lower = math.log(lower)
    center = float(np.mean(log_x))
    squares = float(np.sum((log_x - center) ** 2))
    constant = float(np.sum(log_x)) + 0.5 * n * math.log(2.0 * math.pi)

    def negative_loglik(mu: float, log_sigma: float) -> float:
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
    (mu, log_sigma), converged = _nelder_mead(
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


def _stretched_exponential_fit(x: np.ndarray, lower: float) -> tuple[np.ndarray, bool]:
    """Stretched exponential truncated to [lower, infinity), density
    beta x^(beta-1) / M * exp(-(x^beta - lower^beta) / M) with M = lambda^beta,
    fitted from its profile likelihood.

    For a fixed shape beta the scale has a closed form, M(beta) =
    mean(x^beta) - lower^beta, so the fit is a bounded search over log beta
    alone.  With r = log(x / lower), M(beta) = lower^beta E(beta) where
    E(beta) = mean(expm1(beta r)), which keeps its precision as beta -> 0.
    The search runs over log beta in [-20, log(500 / max r)]: above it
    x^beta would overflow, and the fitted density would be far narrower
    than the tail.
    """
    log_x = np.log(x)
    n = x.size
    log_lower = math.log(lower)
    log_ratio = log_x - log_lower
    total_ratio = float(np.sum(log_ratio))

    def negative_profile(log_shape: float) -> float:
        # Minus the profile log-likelihood up to a constant:
        # n (log E(beta) - log beta) - beta sum(r).
        shape = math.exp(log_shape)
        log_e = math.log(float(np.mean(np.expm1(shape * log_ratio))))
        return n * (log_e - log_shape) - shape * total_ratio

    log_shape, converged = _bounded_brent(
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
    p_value = math.erfc(abs(ratio) / (math.sqrt(2.0 * differences.size) * sigma))
    return RatioTest(ratio, p_value)


def compare_distributions(sample: Sequence[float], fit: PowerLawFit) -> ModelComparison:
    """Log-likelihood ratios of the fitted power-law tail against each
    alternative, all fitted by maximum likelihood on the same tail.

    Boundary rule: the lognormal (sigma -> infinity with mu / sigma^2 fixed)
    and the stretched exponential (beta -> 0) both tend to the fitted power
    law itself, since alpha is the maximum-likelihood exponent on the same
    support.  Their maximized likelihood is therefore never below the power
    law's, and a converged fit whose ratio comes out positive stopped short
    of that limit: its test reads ratio 0 and p-value 1, the two models
    being indistinguishable.
    """
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
            test = _ratio_test(power_terms, terms)
            results[name] = test if test.ratio <= 0.0 else RatioTest(0.0, 1.0)
        else:
            results[name] = RatioTest(math.nan, math.nan, converged=False)

    return ModelComparison(
        exponential=exponential,
        lognormal=results["lognormal"],
        stretched_exponential=results["stretched_exponential"],
    )
