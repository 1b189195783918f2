import random

import pytest
from hypothesis import given, strategies as st

from tagstab import (
    EmptyInputError,
    FrequencySnapshot,
    ParameterError,
    RankedList,
    RankEntry,
    TagStream,
    normalize_tag,
    proportion_trajectory,
    rank,
    snapshot,
)


def stream_of(tags, resource_id="r"):
    return TagStream(resource_id, tags)


class TestTypes:
    def test_normalize_tag(self):
        assert normalize_tag("  Mixed Case\t") == "mixed case"

    def test_constructor_keeps_order_in_a_tuple(self):
        s = stream_of(["b", "a", "b"])
        assert s.tags == ("b", "a", "b")
        assert type(s.tags) is tuple

    def test_snapshot_validates_totals(self):
        with pytest.raises(ParameterError):
            FrequencySnapshot("r", 3, {"a": 1, "b": 1})
        with pytest.raises(ParameterError):
            FrequencySnapshot("r", 1, {"a": 0, "b": 1})

    def test_ranked_list_rejects_broken_competition_ranks(self):
        with pytest.raises(ParameterError):
            RankedList((RankEntry("a", 3, 1), RankEntry("b", 3, 1), RankEntry("c", 2, 2)))
        with pytest.raises(ParameterError):
            RankedList((RankEntry("a", 3, 1), RankEntry("b", 2, 3)))
        with pytest.raises(ParameterError):
            RankedList((RankEntry("a", 3, 1), RankEntry("a", 2, 2)))

    def test_ranked_list_rejects_nan_count(self):
        with pytest.raises(ParameterError, match="counts must be positive"):
            RankedList((RankEntry("a", float("nan"), 1), RankEntry("b", 1, 2)))

    def test_ranked_list_error_names_the_first_wrong_entry(self):
        with pytest.raises(ParameterError, match=r"entry 2 is \('b', 3, 2\).*\('b', 3, 1\)"):
            RankedList((RankEntry("a", 3, 1), RankEntry("b", 3, 2)))


def rule_by_rule_check(entries):
    """``RankedList``'s former rule-by-rule checker, the reference for its
    comparison of the entries with the ranking of their own counts."""
    seen = set()
    for i, entry in enumerate(entries):
        if entry.tag in seen:
            raise ParameterError(f"duplicate tag {entry.tag!r}")
        seen.add(entry.tag)
        if entry.count < 1:
            raise ParameterError("counts must be positive")
        if i == 0:
            if entry.rank != 1:
                raise ParameterError("ranking must start at rank 1")
            continue
        prev = entries[i - 1]
        if entry.rank == prev.rank:
            if entry.count != prev.count:
                raise ParameterError("tied ranks must share one count")
            if entry.tag < prev.tag:
                raise ParameterError("ties must be listed in tag order")
        else:
            if entry.rank != i + 1:
                raise ParameterError(
                    f"rank {entry.rank} at position {i + 1} breaks "
                    "competition ranking"
                )
            if entry.count >= prev.count:
                raise ParameterError(
                    "counts must strictly decrease across rank groups"
                )


def verdict(check, entries):
    try:
        check(entries)
    except ParameterError:
        return False
    return True


def near_valid_entries(rng, change):
    """A valid competition ranking of up to eight tags with counts 1-4, or
    one with a changed rank, a changed count, a swapped pair or a renamed
    tag."""
    counts = {tag: rng.randint(1, 4) for tag in rng.sample("abcdefgh", rng.randint(0, 8))}
    entries = [
        RankEntry(tag, count, 1 + sum(c > count for c in counts.values()))
        for tag, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    if change is None or not entries:
        return entries
    i = rng.randrange(len(entries))
    tag, count, rank_ = entries[i]
    if change == "rank":
        entries[i] = RankEntry(tag, count, rng.randint(0, len(entries) + 1))
    elif change == "count":
        entries[i] = RankEntry(tag, rng.randint(0, 5), rank_)
    elif change == "swap":
        j = rng.randrange(len(entries))
        entries[i], entries[j] = entries[j], entries[i]
    else:
        entries[i] = RankEntry(rng.choice("abcdefghi"), count, rank_)
    return entries


@pytest.mark.parametrize("change", [None, "rank", "count", "swap", "rename"])
def test_ranked_list_accepts_what_the_rule_by_rule_check_accepts(change):
    rng = random.Random(f"ranked-list-{change}")
    verdicts = set()
    for _ in range(4000):
        entries = near_valid_entries(rng, change)
        expected = verdict(rule_by_rule_check, entries)
        assert verdict(RankedList, entries) == expected, entries
        verdicts.add(expected)
    # Every change but none leaves some lists valid and breaks others.
    assert verdicts == ({True} if change is None else {True, False})


class TestSnapshot:
    def test_counts_prefix(self):
        s = stream_of(["a", "b", "a"])
        assert snapshot(s, 3).counts == {"a": 2, "b": 1}
        assert snapshot(s, 3).n == 3

    def test_shorter_prefix(self):
        s = stream_of(["a", "b", "a"])
        assert snapshot(s, 1).counts == {"a": 1}

    def test_out_of_range(self):
        s = stream_of(["a"])
        with pytest.raises(ParameterError):
            snapshot(s, 2)
        with pytest.raises(ParameterError):
            snapshot(s, 0)

    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=30), st.data())
    def test_counts_sum_to_prefix_length(self, tags, data):
        s = stream_of(tags)
        n = data.draw(st.integers(1, len(tags)))
        assert sum(snapshot(s, n).counts.values()) == n


class TestRank:
    def test_competition_ranks(self):
        ranked = rank(FrequencySnapshot("r", 12, {"a": 5, "b": 3, "c": 3, "d": 1}))
        assert [(e.tag, e.rank) for e in ranked.entries] == [
            ("a", 1),
            ("b", 2),
            ("c", 2),
            ("d", 4),
        ]

    def test_all_tied(self):
        ranked = rank(FrequencySnapshot("r", 4, {"a": 1, "b": 1, "c": 1, "d": 1}))
        assert {e.rank for e in ranked.entries} == {1}

    def test_single_entry(self):
        ranked = rank(FrequencySnapshot("r", 7, {"x": 7}))
        assert ranked.entries == (RankEntry("x", 7, 1),)

    def test_empty_snapshot(self):
        with pytest.raises(EmptyInputError):
            rank(FrequencySnapshot("r", 0, {}))

    def test_insertion_order_does_not_matter(self):
        a = rank(FrequencySnapshot("r", 9, {"a": 5, "b": 3, "c": 1}))
        b = rank(FrequencySnapshot("r", 9, {"c": 1, "a": 5, "b": 3}))
        assert a == b

    @given(st.dictionaries(st.sampled_from("abcdefgh"), st.integers(1, 9), min_size=1))
    def test_rank_counts_strictly_greater(self, counts):
        ranked = rank(FrequencySnapshot("r", sum(counts.values()), counts))
        for entry in ranked.entries:
            greater = sum(1 for c in counts.values() if c > entry.count)
            assert entry.rank == 1 + greater


class TestProportions:
    def test_example(self):
        points = proportion_trajectory(stream_of(["a", "a", "b", "a"]), 2)
        assert points == ((2, {"a": 1.0}), (4, {"a": 0.75, "b": 0.25}))

    def test_constant_stream(self):
        points = proportion_trajectory(stream_of(["x"] * 30), 10)
        assert all(p == {"x": 1.0} for _, p in points)

    def test_empty_stream(self):
        with pytest.raises(EmptyInputError):
            proportion_trajectory(TagStream("r", ()), 5)

    def test_bad_window(self):
        with pytest.raises(ParameterError):
            proportion_trajectory(stream_of(["a"]), 0)

    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=40), st.integers(1, 10))
    def test_points_sum_to_one(self, tags, window):
        for _, proportions in proportion_trajectory(stream_of(tags), window):
            assert all(v >= 0 for v in proportions.values())
            assert abs(sum(proportions.values()) - 1.0) <= 1e-12
