import pytest

from tagstab import (
    EmptyInputError,
    FrequencySnapshot,
    InsufficientDataError,
    ParameterError,
    RankedList,
    RboParams,
    TagStream,
    rank,
    rbo,
    rbo_trajectory,
    weight_of_prefix,
)

P = 0.9
EMPTY = RankedList(())


def ranked(counts):
    return rank(FrequencySnapshot("r", sum(counts.values()), dict(counts)))


# Worked pair (i): tag ranks (a=1, b=2, c=3, d=4) against (a=3, b=2, c=1, d=4).
# Prefix overlaps per depth are 0, 1, 3, 4, so the closed form is
# (1 - p) * (0.5 p + p^2 + p^3) = 0.1989 at p = 0.9, identical for every
# variant because both lists are tie-free.
PAIR1_LEFT = ranked({"a": 4, "b": 3, "c": 2, "d": 1})
PAIR1_RIGHT = ranked({"c": 4, "b": 3, "a": 2, "d": 1})

# Worked pair (ii): a list compared with itself where a, b, c tie at rank 1
# and d sits at rank 4.  Every agreement is 1, so tie_aware sums the weights
# of all four depths while tie_corrected keeps only depths 1 and 4.
PAIR2 = ranked({"a": 5, "b": 5, "c": 5, "d": 1})


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
        left = ranked({"a": 2, "b": 1})
        right = ranked({"x": 2, "y": 1})
        assert rbo(left, right, RboParams(P, variant)) == 0.0

    def test_tie_free_self_similarity(self):
        lst = ranked({"a": 4, "b": 3, "c": 2, "d": 1})
        for variant in ("plain", "tie_aware", "tie_corrected"):
            value = rbo(lst, lst, RboParams(P, variant))
            assert value == pytest.approx(1 - P ** len(lst), abs=1e-12)

    def test_symmetry(self):
        left = ranked({"a": 3, "b": 3, "c": 1})
        right = ranked({"b": 5, "c": 2, "d": 2})
        for variant in ("plain", "tie_aware", "tie_corrected"):
            params = RboParams(P, variant)
            assert rbo(left, right, params) == pytest.approx(
                rbo(right, left, params), abs=1e-15
            )

    def test_p_zero_keeps_only_top_rank(self):
        same_top = (ranked({"a": 9, "b": 1}), ranked({"a": 2, "c": 1}))
        other_top = (ranked({"a": 9, "b": 1}), ranked({"b": 2, "a": 1}))
        assert rbo(*same_top, RboParams(0.0, "plain")) == 1.0
        assert rbo(*other_top, RboParams(0.0, "plain")) == 0.0

    def test_tie_corrected_never_exceeds_tie_aware(self):
        left = ranked({"a": 3, "b": 3, "c": 3, "d": 1})
        right = ranked({"a": 5, "b": 2, "c": 2, "d": 2})
        aware = rbo(left, right, RboParams(P, "tie_aware"))
        corrected = rbo(left, right, RboParams(P, "tie_corrected"))
        assert corrected <= aware + 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyInputError):
            rbo(rank(FrequencySnapshot("r", 1, {"a": 1})), EMPTY)

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
        assert [t for t, _ in trajectory.points] == [20, 30, 40, 50]
        for _, value in trajectory.points:
            assert value == pytest.approx(1 - 0.9, abs=1e-12)

    def test_two_tag_hand_example(self):
        # Rankings {a} vs {a, b} tied at rank 1: the single occurring depth
        # contributes 2*1/(1+2), so the value is (1 - 0.9) * 2/3.
        stream = TagStream("r", ["a", "b"])
        trajectory = rbo_trajectory(stream, 1)
        assert trajectory.points[0][0] == 2
        assert trajectory.points[0][1] == pytest.approx(0.1 * 2 / 3, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            rbo_trajectory(TagStream("r", ["a"] * 19), 10)

    def test_metadata(self):
        stream = TagStream("r9", ["a", "b", "a", "b"])
        trajectory = rbo_trajectory(stream, 2, RboParams(0.5, "tie_aware"))
        assert trajectory.resource_id == "r9"
        assert trajectory.window == 2
        assert trajectory.p == 0.5
        assert trajectory.variant == "tie_aware"
