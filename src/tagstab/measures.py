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
from .streams import TagStream, _check_window, _checkpoints, _ranks_by_count, rank

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


# _PLAIN_PREFIX[p] = (head, tail): head[n] + tail[n] is the sum over d <= n
# of (1 - p) p^(d-1) / d, carried in two floats so that the difference of two
# entries keeps full precision.  Grown on demand; an entry depends only on
# (p, n), so sharing the tables between calls changes no result.
_PLAIN_PREFIX: dict[float, tuple[list[float], list[float]]] = {}


def _plain_prefix(p: float, depth: int) -> tuple[list[float], list[float]]:
    head, tail = _PLAIN_PREFIX.setdefault(p, ([0.0], [0.0]))
    for d in range(len(head), depth + 1):
        term = (1.0 - p) * p ** (d - 1) / d
        total = head[-1] + term
        # Knuth's two-sum: the exact rounding error of head[-1] + term.
        back = total - term
        error = (head[-1] - back) + (term - (total - back))
        head.append(total)
        tail.append(tail[-1] + error)
    return head, tail


def _bump(events: dict[int, list[int]], depth: int, size: int, overlap: int) -> None:
    event = events.get(depth)
    if event is None:
        events[depth] = [size, overlap]
    else:
        event[0] += size
        event[1] += overlap


def _run_sum(events: dict[int, list[int]], params: RboParams) -> float:
    """Truncated RBO from its step events.

    ``events[d] = [size, overlap]`` says that at depth d the two prefixes
    together grow by ``size`` tags and their intersection by ``overlap``.
    Every rank value of either list is a key, and nothing changes between
    keys, so the sum over depths 1..max rank is taken run by run: the
    run [a, b] adds weight(a) * agreement for ``tie_corrected``,
    (p^(a-1) - p^b) * agreement for ``tie_aware`` and
    overlap * sum_{d=a..b} (1 - p) p^(d-1) / d for ``plain``.
    """
    p = params.p
    depths = sorted(events)
    ends = depths[1:]
    ends.append(depths[-1] + 1)
    size = overlap = 0
    total = 0.0
    if params.variant == "plain":
        head, tail = _plain_prefix(p, depths[-1])
        for a, stop in zip(depths, ends):
            overlap += events[a][1]
            run = (head[stop - 1] - head[a - 1]) + (tail[stop - 1] - tail[a - 1])
            total += overlap * run
    elif params.variant == "tie_aware":
        head = 1.0  # p^0: depth 1 is the first key of every event set
        for a, stop in zip(depths, ends):
            grow, join = events[a]
            size += grow
            overlap += join
            tail = p ** (stop - 1)
            total += (head - tail) * (2.0 * overlap / size)
            head = tail
    else:
        q = 1.0 - p
        for a in depths:
            grow, join = events[a]
            size += grow
            overlap += join
            total += q * p ** (a - 1) * (2.0 * overlap / size)
    return total


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
    events: dict[int, list[int]] = {}
    ranks1 = {}
    for tag, _, r in rank(counts1):
        ranks1[tag] = r
        _bump(events, r, 1, 0)
    for tag, _, r in rank(counts2):
        _bump(events, r, 1, 0)
        r1 = ranks1.get(tag)
        # A shared tag joins the intersection once both lists reach it.
        if r1 is not None:
            _bump(events, max(r, r1), 0, 1)
    return _run_sum(events, params)


def _window_events(then, now, counts: dict[str, int], before: dict[str, int]):
    """Step events of the RBO between the ranking at the previous checkpoint
    and the current one.

    ``then`` and ``now`` are each a checkpoint's ``(histogram, ranks)``;
    ``counts`` and ``before`` are the current state ``_checkpoints`` yields.
    A tag the window did not touch has one count c in both rankings and
    reaches both prefixes at the later ranking's rank of c, which is never
    smaller than the earlier one; so every current tag is first booked that
    way and the touched tags are then corrected one by one.
    """
    (earlier, rank_then), (histogram, rank_now) = then, now
    # Within one ranking every count has its own rank.
    events = {rank_then[count]: [holders, 0] for count, holders in earlier.items()}
    for count, holders in histogram.items():
        _bump(events, rank_now[count], holders, holders)
    for tag, old in before.items():
        reached = rank_now[counts[tag]]
        events[reached][1] -= 1
        if old:
            events[max(reached, rank_then[old])][1] += 1
    return events


def _window_rbos(stream: TagStream, window: int, params: RboParams, ts: Sequence[int]):
    """Yield (t, RBO between the rankings at t - window and t) for each t in
    ``ts``, ascending, from one walk of the stream; every t must be a
    multiple of the window, at least twice it and within the stream.

    Each checkpoint that some t needs is ranked once and carried forward
    as the earlier ranking of the next one."""
    wanted = set(ts)
    last = max(wanted)
    now = None
    for t, counts, histogram, before in _checkpoints(stream.tags, window):
        then = now
        if t in wanted or t + window in wanted:
            now = dict(histogram), _ranks_by_count(histogram)
        if t in wanted:
            yield t, _run_sum(_window_events(then, now, counts, before), params)
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
    partial = sum(p**i / i for i in range(1, depth))
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
