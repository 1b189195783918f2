"""Differential tests of the checkpoint engine against direct references.

The references are the computations the engine replaced: rank every tag at
every checkpoint and sum the RBO densely over every depth with ``np.dot``;
count with ``Counter`` and sort for the KL and proportion trajectories.
The RBO sum is also held bit for bit to the step-events form that the
merge walk of two rank columns replaced.
"""

from collections import Counter

import numpy as np
import pytest

from tagstab import (
    GeneratorConfig,
    RboParams,
    TagStream,
    generate_corpus,
    kl_divergence,
    kl_random_baseline,
    kl_topk_trajectory,
    proportion_trajectory,
    rank,
    rbo,
    rbo_trajectory,
    snapshot,
    stability_surface,
    window_rbo,
)
from tagstab.measures import _kl_points
from tagstab.streams import _checkpoints

VARIANTS = ("plain", "tie_aware", "tie_corrected")
PS = (0.0, 0.5, 0.9)
WINDOW = 5


def prefix_sizes(rank_values, dmax):
    """prefix_sizes[d-1] = number of entries ranked at depth <= d."""
    counts = np.zeros(dmax, dtype=float)
    for r in rank_values:
        counts[r - 1] += 1
    return np.cumsum(counts)


def dense_rbo(counts1, counts2, params):
    """RBO of two count mappings summed depth by depth over 1..max rank."""
    p = params.p
    ranks1 = {e.tag: e.rank for e in rank(counts1)}
    ranks2 = {e.tag: e.rank for e in rank(counts2)}
    dmax = max(*ranks1.values(), *ranks2.values())
    size1 = prefix_sizes(ranks1.values(), dmax)
    size2 = prefix_sizes(ranks2.values(), dmax)
    shared = [max(r, ranks2[t]) for t, r in ranks1.items() if t in ranks2]
    inter = prefix_sizes(shared, dmax)
    depths = np.arange(1, dmax + 1, dtype=float)
    weights = (1.0 - p) * p ** (depths - 1.0)
    if params.variant == "plain":
        agreement = inter / depths
    else:
        agreement = 2.0 * inter / (size1 + size2)
    if params.variant == "tie_corrected":
        occurring = sorted(set(ranks1.values()) | set(ranks2.values()))
        idx = np.asarray(occurring, dtype=int) - 1
        return float(np.dot(weights[idx], agreement[idx]))
    return float(np.dot(weights, agreement))


# The step-events sum that the merge walk replaced, kept as its oracle.
def ranks_by_count(histogram):
    """Competition rank of each count: 1 + the number of tags above it."""
    ranks = {}
    above = 0
    for count in sorted(histogram, reverse=True):
        ranks[count] = above + 1
        above += histogram[count]
    return ranks


def bump(events, depth, size, overlap):
    event = events.get(depth)
    if event is None:
        events[depth] = [size, overlap]
    else:
        event[0] += size
        event[1] += overlap


def plain_prefix(p, depth):
    """head[n] + tail[n] is the sum over d <= n of (1 - p) p^(d-1) / d."""
    head, tail = [0.0], [0.0]
    for d in range(1, depth + 1):
        term = (1.0 - p) * p ** (d - 1) / d
        total = head[-1] + term
        back = total - term
        error = (head[-1] - back) + (term - (total - back))
        head.append(total)
        tail.append(tail[-1] + error)
    return head, tail


def run_sum(events, params):
    """Truncated RBO from its step events: ``events[d] = [size, overlap]``
    says that at depth d the two prefixes together grow by ``size`` tags and
    their intersection by ``overlap``; the sum is taken over the runs
    between consecutive keys."""
    p = params.p
    depths = sorted(events)
    ends = depths[1:]
    ends.append(depths[-1] + 1)
    size = overlap = 0
    total = 0.0
    if params.variant == "plain":
        head, tail = plain_prefix(p, depths[-1])
        for a, stop in zip(depths, ends):
            overlap += events[a][1]
            run = (head[stop - 1] - head[a - 1]) + (tail[stop - 1] - tail[a - 1])
            total += overlap * run
    elif params.variant == "tie_aware":
        head = 1.0
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


def events_rbo(counts1, counts2, params):
    """``rbo`` by step events of both rankings."""
    events = {}
    ranks1 = {}
    for tag, _, r in rank(counts1):
        ranks1[tag] = r
        bump(events, r, 1, 0)
    for tag, _, r in rank(counts2):
        bump(events, r, 1, 0)
        r1 = ranks1.get(tag)
        if r1 is not None:
            bump(events, max(r, r1), 0, 1)
    return run_sum(events, params)


def window_events(then, now, counts, before):
    """Step events between consecutive checkpoints, each a
    ``(histogram, ranks)`` pair: every current tag is booked at its later
    rank and the window's tags are corrected one by one."""
    (earlier, rank_then), (histogram, rank_now) = then, now
    events = {rank_then[count]: [holders, 0] for count, holders in earlier.items()}
    for count, holders in histogram.items():
        bump(events, rank_now[count], holders, holders)
    for tag, old in before.items():
        reached = rank_now[counts[tag]]
        events[reached][1] -= 1
        if old:
            events[max(reached, rank_then[old])][1] += 1
    return events


def events_trajectory(stream, window, params):
    """``rbo_trajectory`` by step events."""
    points = []
    now = None
    for t, counts, histogram, before in _checkpoints(stream.tags, window):
        then, now = now, (dict(histogram), ranks_by_count(histogram))
        if then is not None:
            points.append((t, run_sum(window_events(then, now, counts, before), params)))
    return points


CONFIGS = (
    # Four tags: large tied groups at every checkpoint.
    GeneratorConfig(model="random_uniform", vocabulary_size=4, length=120, n_streams=2, seed=1),
    # Mostly tags seen once: one long tied group at the bottom.
    GeneratorConfig(model="random_uniform", vocabulary_size=300, length=200, n_streams=2, seed=2),
    # Pure imitation repeats its first tag: single-tag streams.
    GeneratorConfig(model="imitation", vocabulary_size=50, length=60, n_streams=2, seed=3),
    GeneratorConfig(model="background", vocabulary_size=500, zipf_exponent=1.0,
                    length=200, n_streams=2, seed=4),
    GeneratorConfig(model="mixture", imitation_rate=0.7, vocabulary_size=1000,
                    zipf_exponent=1.0, length=300, n_streams=2, seed=5),
)


@pytest.fixture(scope="module")
def corpus():
    streams = [s for config in CONFIGS for s in generate_corpus(config)]
    # Two tags tied at every checkpoint.
    streams.append(TagStream("pairs", ["a", "b"] * 30))
    return tuple(streams)


@pytest.fixture(scope="module")
def snapshots(corpus):
    """Per stream, its tag counts at every checkpoint."""
    return [
        {t: snapshot(s, t) for t in range(WINDOW, len(s) + 1, WINDOW)}
        for s in corpus
    ]


def reference_points(snapshots, params):
    """Reference window RBO points, one list per stream."""
    return [
        [
            (t, dense_rbo(counts[t - WINDOW], counts[t], params))
            for t in sorted(counts) if t >= 2 * WINDOW
        ]
        for counts in snapshots
    ]


def assert_same(value, expected):
    assert abs(value - expected) <= 1e-12
    assert f"{value:#.6g}" == f"{expected:#.6g}"


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_rbo_trajectory_matches_dense_reference(corpus, snapshots, variant, p):
    params = RboParams(p, variant)
    for stream, expected in zip(corpus, reference_points(snapshots, params)):
        points = rbo_trajectory(stream, WINDOW, params)
        assert list(points) == events_trajectory(stream, WINDOW, params)
        assert [t for t, _ in points] == [t for t, _ in expected]
        for (_, value), (_, reference) in zip(points, expected):
            assert_same(value, reference)


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_window_rbo_matches_dense_reference(corpus, snapshots, variant, p):
    params = RboParams(p, variant)
    for stream, expected in zip(corpus, reference_points(snapshots, params)):
        for t, reference in (expected[0], expected[len(expected) // 2], expected[-1]):
            assert_same(window_rbo(stream, t, p, WINDOW, variant), reference)


# The largest grid the CLI accepts.
FINE_K_GRID = tuple(i / 10_000 for i in range(10_001))


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_stability_surface_matches_dense_reference(corpus, snapshots, variant, p):
    t_grid = (10, 20, 60, 120, 200, 300)
    per_t = {t: [] for t in t_grid}
    for expected in reference_points(snapshots, RboParams(p, variant)):
        for t, value in expected:
            if t in per_t:
                per_t[t].append(value)
    for k_grid in ((0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9), FINE_K_GRID):
        surface = stability_surface(corpus, t_grid, k_grid, p, WINDOW, variant)
        assert surface.n_eligible == tuple(len(per_t[t]) for t in t_grid)
        assert surface.values == tuple(
            tuple(sum(v > k for v in per_t[t]) / len(per_t[t]) for k in k_grid)
            for t in t_grid
        )


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_rbo_of_unrelated_rankings_matches_dense_reference(variant, p):
    # Rankings that are not prefixes of one stream: tags come and go, and
    # a shared tag may rank higher in either list.
    rng = np.random.default_rng(17)
    params = RboParams(p, variant)
    for _ in range(60):
        size1, size2 = rng.integers(1, 30, size=2)
        tags1 = rng.choice(40, size=size1, replace=False)
        tags2 = rng.choice(40, size=size2, replace=False)
        l1 = {f"t{t}": int(c) for t, c in zip(tags1, rng.integers(1, 6, size1))}
        l2 = {f"t{t}": int(c) for t, c in zip(tags2, rng.integers(1, 6, size2))}
        assert_same(rbo(l1, l2, params), dense_rbo(l1, l2, params))
        assert_same(rbo(l2, l1, params), dense_rbo(l2, l1, params))
        assert rbo(l1, l2, params) == events_rbo(l1, l2, params)



@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_public_rbo_is_the_engines_rbo(corpus, snapshots, variant, p):
    # Both paths sum by the same walk over the same depths, so every value
    # is bit-equal, not only close.
    params = RboParams(p, variant)
    for stream, counts in zip(corpus, snapshots):
        for t, value in rbo_trajectory(stream, WINDOW, params):
            assert rbo(counts[t - WINDOW], counts[t], params) == value


def reference_kl(stream, window, top_k):
    tops = {}
    for t in range(window, len(stream) + 1, window):
        ordered = sorted(Counter(stream.tags[:t]).values(), reverse=True)
        tops[t] = (len(ordered), ordered[:top_k])
    points = []
    for pos in sorted(tops):
        if pos + window not in tops:
            continue
        (d_now, now), (d_later, later) = tops[pos], tops[pos + window]
        k = min(top_k, d_now, d_later)
        points.append((pos, kl_divergence(
            tuple(c / sum(later[:k]) for c in later[:k]),
            tuple(c / sum(now[:k]) for c in now[:k]),
        )))
    return tuple(points)


@pytest.mark.parametrize("top_k", (1, 3, 25))
def test_kl_topk_trajectory_matches_counter_reference(corpus, top_k):
    for stream in corpus:
        assert kl_topk_trajectory(stream, WINDOW, top_k) == reference_kl(stream, WINDOW, top_k)


KL_CASES = (
    # A 100 000-tag vocabulary: nearly every tag is seen once, so long runs
    # of consecutive top-k vectors are equal.
    (GeneratorConfig(model="random_uniform", vocabulary_size=100_000, length=600,
                     n_streams=3, seed=6), 10, 25),
    # Seven tags: K' grows from below k while the tags first appear.
    (GeneratorConfig(model="random_uniform", vocabulary_size=7, length=200,
                     n_streams=3, seed=7), 5, 25),
    (GeneratorConfig(model="random_uniform", vocabulary_size=7, length=200,
                     n_streams=3, seed=7), 1, 3),
    (GeneratorConfig(model="mixture", imitation_rate=0.7, vocabulary_size=1000,
                     zipf_exponent=1.0, length=300, n_streams=2, seed=8), 1, 1),
    # k above the number of distinct tags.
    (GeneratorConfig(model="background", vocabulary_size=20, zipf_exponent=1.0,
                     length=200, n_streams=2, seed=9), 1, 40),
    (GeneratorConfig(model="random_uniform", vocabulary_size=30, length=120,
                     n_streams=2, seed=10), 4, 40),
)


@pytest.mark.parametrize(("config", "window", "top_k"), KL_CASES)
def test_kl_points_match_counter_reference(config, window, top_k):
    for stream in generate_corpus(config):
        expected = reference_kl(stream, window, top_k)
        assert tuple(_kl_points(stream.tags, window, top_k)) == expected
        assert kl_topk_trajectory(stream, window, top_k) == expected


def test_kl_cases_take_every_branch():
    # Equal consecutive vectors, vectors that differ at an unchanged K', and
    # a K' that grows between checkpoints.
    equal = unequal = growing = 0
    for config, window, top_k in KL_CASES:
        for stream in generate_corpus(config):
            tops = [
                sorted(Counter(stream.tags[:t]).values(), reverse=True)[:top_k]
                for t in range(window, len(stream) + 1, window)
            ]
            for earlier, later in zip(tops, tops[1:]):
                equal += later[: len(earlier)] == earlier
                unequal += later[: len(earlier)] != earlier and len(later) == len(earlier)
                growing += len(later) > len(earlier)
    assert min(equal, unequal, growing) > 0


@pytest.mark.parametrize(("vocabulary_size", "length", "window", "top_k", "trials"), [
    (100_000, 400, 10, 25, 3),
    (7, 200, 5, 25, 4),
    (30, 50, 5, 10, 3),
    (50, 60, 1, 40, 2),
    (1, 20, 1, 1, 3),
    (1000, 300, 3, 2, 5),
])
def test_kl_random_baseline_is_the_mean_over_the_corpus(
    vocabulary_size, length, window, top_k, trials
):
    corpus = generate_corpus(GeneratorConfig(
        model="random_uniform", vocabulary_size=vocabulary_size, length=length,
        n_streams=trials, seed=11,
    ))
    trajectories = [reference_kl(stream, window, top_k) for stream in corpus]
    expected = tuple(
        (pos, sum(points[i][1] for points in trajectories) / trials)
        for i, (pos, _) in enumerate(trajectories[0])
    )
    assert kl_random_baseline(window, top_k, vocabulary_size, length, trials, seed=11) == expected


def test_proportion_trajectory_matches_counter_reference(corpus):
    for stream in corpus:
        expected = [
            (t, [(tag, c / t) for tag, c in Counter(stream.tags[:t]).items()])
            for t in range(WINDOW, len(stream) + 1, WINDOW)
        ]
        got = [(t, list(values.items())) for t, values in proportion_trajectory(stream, WINDOW)]
        assert got == expected


def reference_top_proportions(stream, window, top):
    """Proportions of the ``top`` tags by final count, ties in tag order,
    counted over each prefix with ``Counter``."""
    final = Counter(stream.tags)
    reported = sorted(final, key=lambda tag: (-final[tag], tag))[:top]
    points = []
    for t in range(window, len(stream) + 1, window):
        counts = Counter(stream.tags[:t])
        points.append((t, [(tag, counts[tag] / t) for tag in reported]))
    return points


@pytest.mark.parametrize("window", [7, 13])
@pytest.mark.parametrize("top", [1, 3, 10_000])
def test_top_proportion_trajectory_matches_counter_reference(corpus, top, window):
    # "late" leads by its final count but is absent from the early checkpoints.
    late = TagStream("late", ["b", "a"] * 10 + ["z"] * 25)
    for stream in (*corpus, late):
        assert len(stream) % window
        expected = reference_top_proportions(stream, window, top)
        got = [
            (t, list(values.items()))
            for t, values in proportion_trajectory(stream, window, top)
        ]
        assert got == expected
    _, first = proportion_trajectory(late, window, top)[0]
    assert first["z"] == 0.0
    assert len(first) == min(top, 3)
