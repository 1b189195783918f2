"""Stream stability measures: rank-biased overlap and windowed KL divergence.

Rank-biased overlap (RBO) scores the agreement of two rankings through the
geometrically weighted overlap of their rank prefixes.  Three variants are
provided:

* ``plain``       -- overlap at depth d divided by d (meaningful for
                     tie-free rankings),
* ``tie_aware``   -- twice the overlap divided by the combined prefix
                     sizes, so tied groups are handled gracefully,
* ``tie_corrected`` -- the tie_aware summand accumulated only over depths
                     at which some rank value actually occurs, which
                     penalizes rankings that consist of large tied groups.

``tie_corrected`` with p = 0.9 is the default throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

from .errors import InsufficientDataError, ParameterError
from .streams import _END, TagStream, _check_window, _checkpoints, _count_column, _rank_column

VARIANTS = ("plain", "tie_aware", "tie_corrected")

DEFAULT_P = 0.9
DEFAULT_WINDOW = 10
DEFAULT_TOP_K = 25


@dataclass(frozen=True)
class RboParams:
    """Persistence parameter p in [0, 1) and the variant to evaluate."""

    p: float = DEFAULT_P
    variant: str = "tie_corrected"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p < 1.0:
            raise ParameterError(f"p must satisfy 0 <= p < 1, got {self.p}")
        if self.variant not in VARIANTS:
            raise ParameterError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )


def _rbo_walk(params: RboParams):
    """Return ``walk(earlier, later, counts, before)``: the truncated RBO of
    two rank columns (``streams._rank_column``); ``counts`` maps each later
    tag to its count and ``before`` some of them to their earlier count (0
    if absent).

    One merge of both columns' depths, ascending: an earlier depth adds its
    holders to the prefix sizes, a later one to the sizes and the overlap,
    which is right for a tag whose count did not move, as counts only grow.
    ``fixes`` moves each tag of ``before`` to where both prefixes hold it.
    The run [d, e] up to the next depth then adds weight(d) * agreement
    (``tie_corrected``), (p^(d-1) - p^e) * agreement (``tie_aware``) or
    overlap * sum_{i=d..e} (1 - p) p^(i-1) / i (``plain``).  The tables of
    p^k and of plain's prefix sums belong to the returned function.
    """
    p = params.p
    q = 1.0 - p
    corrected = params.variant == "tie_corrected"
    plain = params.variant == "plain"
    pw = [1.0]  # pw[k] = p ** k
    # head[n] + tail[n] = sum_{i<=n} (1 - p) p^(i-1) / i, in two floats so
    # that the difference of two entries keeps full precision.
    head, tail = [0.0], [0.0]

    def walk(earlier, later, counts, before) -> float:
        (ranks1, holders1, rank_then), (ranks2, holders2, rank_now) = earlier, later
        fixes: dict[int, int] = {}
        for tag, old in before.items():
            reached = rank_now[counts[tag]]
            fixes[reached] = fixes.get(reached, 0) - 1
            if old:
                joined = rank_then[old]
                if joined < reached:  # max(), without the call
                    joined = reached
                fixes[joined] = fixes.get(joined, 0) + 1
        deepest = max(ranks1[-2], ranks2[-2])
        if plain:
            for d in range(len(head), deepest + 1):
                term = q * p ** (d - 1) / d
                grown = head[-1] + term
                # Knuth's two-sum: the exact rounding error of head[-1] + term.
                back = grown - term
                error = (head[-1] - back) + (term - (grown - back))
                head.append(grown)
                tail.append(tail[-1] + error)
        elif len(pw) <= deepest:
            pw.extend(p**k for k in range(len(pw), deepest + 1))
        i = j = size = overlap = 0
        a, b = ranks1[0], ranks2[0]
        total = 0.0
        while True:
            if a <= b:
                d = a
                if d == _END:
                    return total
                size += holders1[i]
                i += 1
                a = ranks1[i]
            else:
                d = b
            if b == d:
                held = holders2[j]
                size += held
                overlap += held
                j += 1
                b = ranks2[j]
            overlap += fixes.get(d, 0)
            if corrected:
                total += q * pw[d - 1] * (2.0 * overlap / size)
                continue
            stop = a if a < b else b
            if stop == _END:
                stop = d + 1
            if plain:
                run = (head[stop - 1] - head[d - 1]) + (tail[stop - 1] - tail[d - 1])
                total += overlap * run
            else:
                total += (pw[d - 1] - pw[stop - 1]) * (2.0 * overlap / size)

    return walk


def rbo(
    counts1: dict[str, int], counts2: dict[str, int], params: RboParams | None = None
) -> float:
    """Rank-biased overlap of the competition rankings of two tag-count
    mappings (see ``rank``).

    The prefix of a ranking at depth d is the set of tags with rank <= d;
    the sum runs over depths up to the largest rank value in either ranking
    (no extrapolation beyond the observed lists).  Symmetric in its
    arguments.  An empty mapping raises EmptyInputError, a count below 1
    ParameterError.
    """
    if params is None:
        params = RboParams()
    earlier, later = _count_column(counts1), _count_column(counts2)
    before = {tag: counts1.get(tag, 0) for tag in counts2}
    return _rbo_walk(params)(earlier, later, counts2, before)


def _window_rbos(stream: TagStream, window: int, params: RboParams, ts: Sequence[int]):
    """Yield (t, RBO between the rankings at t - window and t) for each t in
    ``ts``, ascending, from one walk of the stream; every t must be a
    multiple of the window, at least twice it and within the stream.

    Each checkpoint that some t needs is ranked once and carried forward
    as the earlier ranking of the next one."""
    wanted = set(ts)
    last = max(wanted)
    walk = _rbo_walk(params)
    now = None
    for t, counts, histogram, before in _checkpoints(stream.tags, window):
        then = now
        if t in wanted or t + window in wanted:
            now = _rank_column(histogram)
        if t in wanted:
            yield t, walk(then, now, counts, before)
        if t == last:
            return


def weight_of_prefix(p: float, depth: int) -> float:
    """Fraction of the total RBO weight carried by ranks 1..depth.

    Computed as 1 - p^(d-1) + d*(1-p)/p * (ln(1/(1-p)) - sum_{i<d} p^i/i).
    With p = 0.9 the first 10 ranks carry about 86% of the weight.
    """
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must satisfy 0 < p < 1, got {p}")
    if depth < 1:
        raise ParameterError(f"depth must be >= 1, got {depth}")
    partial = math.fsum(p**i / i for i in range(1, depth))
    return (
        1.0
        - p ** (depth - 1)
        + ((1.0 - p) / p) * depth * (math.log(1.0 / (1.0 - p)) - partial)
    )


def _check_two_windows(length: int, window: int) -> None:
    if length < 2 * window:
        raise InsufficientDataError(
            f"stream of length {length} is shorter than two windows of {window}"
        )


def rbo_trajectory(
    stream: TagStream, window: int = DEFAULT_WINDOW, params: RboParams | None = None
) -> tuple[tuple[int, float], ...]:
    """RBO between the stream's cumulative rankings ``window`` apart.

    Returns a point (t, rbo) at every t in {2*window, 3*window, ...}
    comparing the ranking after t - window assignments with the ranking
    after t.
    """
    if params is None:
        params = RboParams()
    _check_window(window)
    _check_two_windows(len(stream), window)
    ts = range(2 * window, len(stream) + 1, window)
    return tuple(_window_rbos(stream, window, params, ts))


def kl_divergence(p: Sequence[float], q: Sequence[float]) -> float:
    """Kullback-Leibler divergence sum_i p_i * ln(p_i / q_i).

    Every entry must be finite and non-negative, both vectors must sum to 1
    (within 1e-9) and q must be strictly positive wherever p is; terms with
    p_i = 0 contribute nothing.
    """
    if len(p) != len(q):
        raise ParameterError(
            f"distributions differ in length: {len(p)} vs {len(q)}"
        )
    # Written so that NaN fails too.
    if not all(0 <= x < math.inf for x in (*p, *q)):
        raise ParameterError("probabilities must be finite and non-negative")
    if abs(math.fsum(p) - 1.0) > 1e-9 or abs(math.fsum(q) - 1.0) > 1e-9:
        raise ParameterError("each distribution must sum to 1 within 1e-9")
    return _kl_sum(p, q)


def _kl_sum(p: Sequence[float], q: Sequence[float]) -> float:
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            raise ParameterError("q must be positive wherever p is positive")
        total += pi * math.log(pi / qi)
    return total


def _normalized(counts: Sequence[int]) -> tuple[float, ...]:
    total = sum(counts)
    return tuple(c / total for c in counts)


def _top_counts(histogram: dict[int, int], k: int) -> list[int]:
    """The k largest counts, with multiplicity, in descending order."""
    top: list[int] = []
    left = k
    for count in sorted(histogram, reverse=True):
        holders = histogram[count]
        if holders >= left:
            # Fill only the places left: after t assignments up to t tags
            # may share the count 1.
            top += [count] * left
            return top
        top += [count] * holders
        left -= holders
    return top


def _check_kl_arguments(window: int, top_k: int) -> None:
    _check_window(window)
    if top_k < 1:
        raise ParameterError(f"top_k must be >= 1, got {top_k}")


def _kl_points(
    tags: Sequence[Hashable], window: int, top_k: int
) -> list[tuple[int, float]]:
    """The points of ``kl_topk_trajectory`` for the tag column ``tags``.

    Distinct tags never shrink, so K' is the length of the earlier vector
    of a pair.  Each vector is normalized once: when the later vector is
    no longer than the earlier one, its normalized form is also the next
    pair's Q.  Equal vectors give exactly 0.0, every term being p log 1,
    so their sum is not evaluated.
    """
    points = []
    earlier = q = None
    for t, _, histogram, _ in _checkpoints(tags, window):
        top = _top_counts(histogram, top_k)
        if earlier is not None:
            later = top[: len(earlier)]
            if later == earlier:
                points.append((t - window, 0.0))
            else:
                if q is None:
                    q = _normalized(earlier)
                p = _normalized(later)
                points.append((t - window, _kl_sum(p, q)))
                q = p
            if len(top) != len(earlier):
                q = None
        earlier = top
    return points


def kl_topk_trajectory(
    stream: TagStream, window: int, top_k: int = DEFAULT_TOP_K
) -> tuple[tuple[int, float], ...]:
    """KL divergence between top-ranked frequency vectors ``window`` apart.

    At each N in {window, 2*window, ...} with N + window inside the stream,
    the top K' = min(top_k, distinct tags at N, distinct tags at N + window)
    rank frequencies are normalized and compared positionally: P is the
    later vector, Q the earlier one, and the point emitted is
    (N, kl_divergence(P, Q)).
    """
    _check_kl_arguments(window, top_k)
    _check_two_windows(len(stream), window)
    return tuple(_kl_points(stream.tags, window, top_k))


def kl_random_baseline(
    window: int,
    top_k: int,
    vocabulary_size: int,
    length: int,
    trials: int,
    seed: int = 0,
) -> tuple[tuple[int, float], ...]:
    """Mean KL trajectory of uniformly random streams.

    Averages the KL trajectory of ``trials`` independent streams of
    ``length`` draws from a uniform vocabulary of ``vocabulary_size`` tags.
    KL depends only on counts, so the trials are the integer draws of the
    ``random_uniform`` streams of ``generate_corpus``, counted without
    naming a token; the result equals, bit for bit, the mean of
    ``kl_topk_trajectory`` over those streams.  Deterministic for a fixed
    seed.  A ``length`` below two windows is a ParameterError.
    """
    from .generators import GeneratorConfig, _stream_rng, _uniform_draws

    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    config = GeneratorConfig(
        model="random_uniform",
        length=length,
        n_streams=trials,
        seed=seed,
        vocabulary_size=vocabulary_size,
    )
    # Every trial stream has the given length, so a short one is an
    # argument fault: checked before any stream is drawn.
    _check_kl_arguments(window, top_k)
    if length < 2 * window:
        raise ParameterError(
            f"trial length {length} is shorter than two windows of {window}"
        )
    sums: dict[int, float] = {}
    for index in range(trials):
        trial = _uniform_draws(_stream_rng(seed, index), config)
        for pos, value in _kl_points(trial, window, top_k):
            sums[pos] = sums.get(pos, 0.0) + value
    return tuple((pos, sums[pos] / trials) for pos in sorted(sums))
