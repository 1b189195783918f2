import sys

import pytest
from hypothesis import given, strategies as st

from tagstab import (
    EmptyInputError,
    ParameterError,
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

    def test_normalize_tag_is_idempotent_on_every_code_point(self):
        # Ingest looks a raw field up among the tags it has normalized.
        once = (normalize_tag(chr(cp)) for cp in range(sys.maxunicode + 1))
        assert [tag for tag in once if normalize_tag(tag) != tag] == []

    @given(st.text())
    def test_normalize_tag_is_idempotent(self, text):
        tag = normalize_tag(text)
        assert normalize_tag(tag) == tag

    def test_constructor_keeps_order_in_a_tuple(self):
        s = stream_of(["b", "a", "b"])
        assert s.tags == ("b", "a", "b")
        assert type(s.tags) is tuple

    def test_ranked_list_rejects_nan_count(self):
        for count in (float("nan"), 0):
            with pytest.raises(ParameterError, match=r"count for 'a' must be >= 1"):
                rank({"a": count, "b": 1})


class TestSnapshot:
    def test_counts_prefix(self):
        s = stream_of(["a", "b", "a"])
        assert snapshot(s, 3) == {"a": 2, "b": 1}

    def test_shorter_prefix(self):
        s = stream_of(["a", "b", "a"])
        assert snapshot(s, 1) == {"a": 1}

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
        assert sum(snapshot(s, n).values()) == n


class TestRank:
    def test_competition_ranks(self):
        ranked = rank({"a": 5, "b": 3, "c": 3, "d": 1})
        assert [(e.tag, e.rank) for e in ranked] == [
            ("a", 1),
            ("b", 2),
            ("c", 2),
            ("d", 4),
        ]

    def test_all_tied(self):
        ranked = rank({"a": 1, "b": 1, "c": 1, "d": 1})
        assert {e.rank for e in ranked} == {1}

    def test_single_entry(self):
        assert rank({"x": 7}) == (RankEntry("x", 7, 1),)

    def test_empty_snapshot(self):
        with pytest.raises(EmptyInputError):
            rank({})

    def test_insertion_order_does_not_matter(self):
        a = rank({"a": 5, "b": 3, "c": 1})
        b = rank({"c": 1, "a": 5, "b": 3})
        assert a == b

    @given(st.dictionaries(st.sampled_from("abcdefgh"), st.integers(1, 9), min_size=1))
    def test_rank_counts_strictly_greater(self, counts):
        for entry in rank(counts):
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

    def test_top(self):
        points = proportion_trajectory(stream_of(["a", "b", "b", "c"]), 2, top=2)
        assert points == ((2, {"b": 0.5, "a": 0.5}), (4, {"b": 0.5, "a": 0.25}))

    @pytest.mark.parametrize("top", [0, -1])
    def test_bad_top(self, top):
        with pytest.raises(ParameterError, match="top must be >= 1"):
            proportion_trajectory(stream_of(["a"]), 1, top=top)

    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=40), st.integers(1, 10))
    def test_points_sum_to_one(self, tags, window):
        for _, proportions in proportion_trajectory(stream_of(tags), window):
            assert all(v >= 0 for v in proportions.values())
            assert abs(sum(proportions.values()) - 1.0) <= 1e-12
