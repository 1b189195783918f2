"""Differential tests of the checkpoint engine against direct references.

The references are the computations the engine replaced: rank every tag at
every checkpoint and sum the RBO densely over every depth with ``np.dot``;
count with ``Counter`` and sort for the KL and proportion trajectories.
"""

from collections import Counter

import numpy as np
import pytest

from tagstab import (
    FrequencySnapshot,
    GeneratorConfig,
    RboParams,
    TagStream,
    generate_corpus,
    kl_divergence,
    kl_topk_trajectory,
    proportion_trajectory,
    rank,
    rbo,
    rbo_trajectory,
    snapshot,
    stability_surface,
    window_rbo,
)

VARIANTS = ("plain", "tie_aware", "tie_corrected")
PS = (0.0, 0.5, 0.9)
WINDOW = 5


def prefix_sizes(rank_values, dmax):
    """prefix_sizes[d-1] = number of entries ranked at depth <= d."""
    counts = np.zeros(dmax, dtype=float)
    for r in rank_values:
        counts[r - 1] += 1
    return np.cumsum(counts)


def dense_rbo(l1, l2, params):
    """RBO summed depth by depth over 1..max rank."""
    p = params.p
    ranks1 = {e.tag: e.rank for e in l1.entries}
    ranks2 = {e.tag: e.rank for e in l2.entries}
    dmax = max(l1.max_rank, l2.max_rank)
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
def rankings(corpus):
    """Per stream, its ranking at every checkpoint."""
    return [
        {t: rank(snapshot(s, t)) for t in range(WINDOW, len(s) + 1, WINDOW)}
        for s in corpus
    ]


def reference_points(rankings, params):
    """Reference window RBO points, one list per stream."""
    return [
        [
            (t, dense_rbo(ranked[t - WINDOW], ranked[t], params))
            for t in sorted(ranked) if t >= 2 * WINDOW
        ]
        for ranked in rankings
    ]


def assert_same(value, expected):
    assert abs(value - expected) <= 1e-12
    assert f"{value:#.6g}" == f"{expected:#.6g}"


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_rbo_trajectory_matches_dense_reference(corpus, rankings, variant, p):
    params = RboParams(p, variant)
    for stream, expected in zip(corpus, reference_points(rankings, params)):
        points = rbo_trajectory(stream, WINDOW, params).points
        assert [t for t, _ in points] == [t for t, _ in expected]
        for (_, value), (_, reference) in zip(points, expected):
            assert_same(value, reference)


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_window_rbo_matches_dense_reference(corpus, rankings, variant, p):
    params = RboParams(p, variant)
    for stream, expected in zip(corpus, reference_points(rankings, params)):
        for t, reference in (expected[0], expected[len(expected) // 2], expected[-1]):
            assert_same(window_rbo(stream, t, p, WINDOW, variant), reference)


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_stability_surface_matches_dense_reference(corpus, rankings, variant, p):
    t_grid = (10, 20, 60, 120, 200, 300)
    k_grid = (0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9)
    per_t = {t: [] for t in t_grid}
    for expected in reference_points(rankings, RboParams(p, variant)):
        for t, value in expected:
            if t in per_t:
                per_t[t].append(value)
    surface = stability_surface(corpus, t_grid, k_grid, p, WINDOW, variant)
    assert surface.n_eligible == tuple(len(per_t[t]) for t in t_grid)
    assert surface.values == tuple(
        tuple(sum(v > k for v in per_t[t]) / len(per_t[t]) for k in k_grid)
        for t in t_grid
    )


def rank_counts(counts):
    return rank(FrequencySnapshot("r", sum(counts.values()), counts))


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
        l1 = rank_counts({f"t{t}": int(c) for t, c in zip(tags1, rng.integers(1, 6, size1))})
        l2 = rank_counts({f"t{t}": int(c) for t, c in zip(tags2, rng.integers(1, 6, size2))})
        assert_same(rbo(l1, l2, params), dense_rbo(l1, l2, params))
        assert_same(rbo(l2, l1, params), dense_rbo(l2, l1, params))


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


def test_proportion_trajectory_matches_counter_reference(corpus):
    for stream in corpus:
        expected = [
            (t, [(tag, c / t) for tag, c in Counter(stream.tags[:t]).items()])
            for t in range(WINDOW, len(stream) + 1, WINDOW)
        ]
        got = [(t, list(values.items())) for t, values in proportion_trajectory(stream, WINDOW)]
        assert got == expected
