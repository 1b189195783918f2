import random
import tracemalloc

import pytest

from tagstab import (
    EmptyInputError,
    InsufficientDataError,
    ParameterError,
    RboParams,
    TagStream,
    rbo,
    rbo_trajectory,
    weight_of_prefix,
)

P = 0.9


# Worked pair (i): tag ranks (a=1, b=2, c=3, d=4) against (a=3, b=2, c=1, d=4).
# Prefix overlaps per depth are 0, 1, 3, 4, so the closed form is
# (1 - p) * (0.5 p + p^2 + p^3) = 0.1989 at p = 0.9, identical for every
# variant because both lists are tie-free.
PAIR1_LEFT = {"a": 4, "b": 3, "c": 2, "d": 1}
PAIR1_RIGHT = {"c": 4, "b": 3, "a": 2, "d": 1}

# Worked pair (ii): a list compared with itself where a, b, c tie at rank 1
# and d sits at rank 4.  Every agreement is 1, so tie_aware sums the weights
# of all four depths while tie_corrected keeps only depths 1 and 4.
PAIR2 = {"a": 5, "b": 5, "c": 5, "d": 1}


class TestRboWorkedExamples:
    @pytest.mark.parametrize("variant", ["plain", "tie_aware", "tie_corrected"])
    def test_tie_free_pair(self, variant):
        expected = (1 - P) * (0.5 * P + P**2 + P**3)
        value = rbo(PAIR1_LEFT, PAIR1_RIGHT, RboParams(P, variant))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.1989, abs=1e-9)

    def test_tied_pair_tie_aware(self):
        value = rbo(PAIR2, PAIR2, RboParams(P, "tie_aware"))
        assert value == pytest.approx((1 - P) * (1 + P + P**2 + P**3), abs=1e-12)
        assert value == pytest.approx(0.3439, abs=1e-9)

    def test_tied_pair_tie_corrected(self):
        value = rbo(PAIR2, PAIR2, RboParams(P, "tie_corrected"))
        assert value == pytest.approx((1 - P) * (1 + P**3), abs=1e-12)
        assert value == pytest.approx(0.1729, abs=1e-9)


class TestRboProperties:
    @pytest.mark.parametrize("variant", ["plain", "tie_aware", "tie_corrected"])
    def test_disjoint_lists(self, variant):
        left = {"a": 2, "b": 1}
        right = {"x": 2, "y": 1}
        assert rbo(left, right, RboParams(P, variant)) == 0.0

    def test_tie_free_self_similarity(self):
        lst = {"a": 4, "b": 3, "c": 2, "d": 1}
        for variant in ("plain", "tie_aware", "tie_corrected"):
            value = rbo(lst, lst, RboParams(P, variant))
            assert value == pytest.approx(1 - P ** len(lst), abs=1e-12)

    def test_symmetry(self):
        left = {"a": 3, "b": 3, "c": 1}
        right = {"b": 5, "c": 2, "d": 2}
        for variant in ("plain", "tie_aware", "tie_corrected"):
            params = RboParams(P, variant)
            assert rbo(left, right, params) == pytest.approx(
                rbo(right, left, params), abs=1e-15
            )

    def test_p_zero_keeps_only_top_rank(self):
        same_top = ({"a": 9, "b": 1}, {"a": 2, "c": 1})
        other_top = ({"a": 9, "b": 1}, {"b": 2, "a": 1})
        assert rbo(*same_top, RboParams(0.0, "plain")) == 1.0
        assert rbo(*other_top, RboParams(0.0, "plain")) == 0.0

    def test_tie_corrected_never_exceeds_tie_aware(self):
        left = {"a": 3, "b": 3, "c": 3, "d": 1}
        right = {"a": 5, "b": 2, "c": 2, "d": 2}
        aware = rbo(left, right, RboParams(P, "tie_aware"))
        corrected = rbo(left, right, RboParams(P, "tie_corrected"))
        assert corrected <= aware + 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyInputError):
            rbo({"a": 1}, {})
        with pytest.raises(EmptyInputError):
            rbo({}, {"a": 1})

    @pytest.mark.parametrize("count", [0, float("nan")])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(ParameterError):
            rbo({"a": 1}, {"a": 2, "b": count})
        with pytest.raises(ParameterError):
            rbo({"a": 2, "b": count}, {"a": 1})

    def test_insertion_order_does_not_matter(self):
        rng = random.Random(11)
        for _ in range(50):
            left = {f"t{i}": rng.randint(1, 4) for i in rng.sample(range(12), rng.randint(1, 12))}
            right = {f"t{i}": rng.randint(1, 4) for i in rng.sample(range(12), rng.randint(1, 12))}
            shuffled = [dict(rng.sample(list(c.items()), len(c))) for c in (left, right)]
            for variant in ("plain", "tie_aware", "tie_corrected"):
                params = RboParams(P, variant)
                assert rbo(*shuffled, params) == rbo(left, right, params)

    def test_bad_p(self):
        with pytest.raises(ParameterError):
            RboParams(1.0)
        with pytest.raises(ParameterError):
            RboParams(-0.1)

    def test_bad_variant(self):
        with pytest.raises(ParameterError):
            RboParams(0.9, "extrapolated")


class TestWeightOfPrefix:
    def test_calibration_points(self):
        assert weight_of_prefix(0.9, 10) == pytest.approx(0.8556, abs=0.005)
        assert 0.85 <= weight_of_prefix(0.98, 50) <= 0.87
        assert weight_of_prefix(0.5, 2) == pytest.approx(0.886, abs=0.005)
        assert weight_of_prefix(0.1, 2) == pytest.approx(0.996, abs=0.001)

    def test_increasing_in_depth_towards_one(self):
        values = [weight_of_prefix(0.9, d) for d in range(1, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-6)

    def test_sum_is_exactly_rounded(self):
        # math.fsum: the built-in sum of the same terms gives
        # 0.9990059022963087 before Python 3.12 and this value from 3.12.
        assert weight_of_prefix(0.999, 5000) == 0.9990059022963664

    def test_domain(self):
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ParameterError):
                weight_of_prefix(bad, 5)
        with pytest.raises(ParameterError):
            weight_of_prefix(0.5, 0)


class TestRboTrajectory:
    def test_constant_stream_closed_form(self):
        stream = TagStream("r", ["x"] * 50)
        trajectory = rbo_trajectory(stream, 10, RboParams(0.9, "tie_corrected"))
        assert [t for t, _ in trajectory] == [20, 30, 40, 50]
        for _, value in trajectory:
            assert value == pytest.approx(1 - 0.9, abs=1e-12)

    def test_two_tag_hand_example(self):
        # Rankings {a} vs {a, b} tied at rank 1: the single occurring depth
        # contributes 2*1/(1+2), so the value is (1 - 0.9) * 2/3.
        stream = TagStream("r", ["a", "b"])
        trajectory = rbo_trajectory(stream, 1)
        assert trajectory[0][0] == 2
        assert trajectory[0][1] == pytest.approx(0.1 * 2 / 3, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            rbo_trajectory(TagStream("r", ["a"] * 19), 10)


def test_no_weight_table_outlives_its_call():
    # 300 tags of count 2 above one of count 1: plain's prefix sums reach
    # depth 301, so a table kept per p would hold about 19 KB.
    counts = {**{f"t{i}": 2 for i in range(300)}, "x": 1}
    tags = [*counts, *list(counts)[:300]]
    stream = TagStream("r", tags)
    window = len(tags) // 2
    rbo(counts, counts, RboParams(0.5, "plain"))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for i in range(200):
            params = RboParams(0.001 + i / 201, "plain")
            rbo(counts, counts, params)
            rbo_trajectory(stream, window, params)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 100_000
