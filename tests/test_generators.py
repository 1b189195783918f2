import functools
import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from scipy import stats

from tagstab import (
    BackgroundDistribution,
    GeneratorConfig,
    IngestionError,
    ParameterError,
    generate_corpus,
    generate_stream,
    load_background,
    snapshot,
    zipf_background,
)
import tagstab.generators
from tagstab.generators import _mixture_tags, _prepare


class TestZipfBackground:
    def test_two_tokens(self):
        bg = zipf_background(2, 1.0)
        assert bg.probabilities == pytest.approx((2 / 3, 1 / 3))

    def test_single_token(self):
        assert zipf_background(1, 1.0).probabilities == (1.0,)

    def test_top_probability_is_inverse_harmonic(self):
        size = 100_000
        harmonic = math.fsum(1.0 / r for r in range(1, size + 1))
        bg = zipf_background(size, 1.0)
        assert bg.probabilities[0] == pytest.approx(1.0 / harmonic, abs=1e-12)
        assert bg.probabilities[0] == pytest.approx(0.0827, abs=1e-3)

    def test_domain(self):
        with pytest.raises(ParameterError):
            zipf_background(0, 1.0)
        with pytest.raises(ParameterError):
            zipf_background(10, 0.0)
        with pytest.raises(ParameterError, match="zipf exponent"):
            zipf_background(10, math.nan)


class TestLoadBackground:
    def test_proportions(self):
        bg = load_background([("a", 3), ("b", 1)])
        assert bg.support == ("a", "b")
        assert bg.probabilities == (0.75, 0.25)

    def test_single_row(self):
        assert load_background([("a", 1)]).probabilities == (1.0,)

    def test_negative_count_reports_row(self):
        with pytest.raises(IngestionError, match="row 2"):
            load_background([("a", 3), ("b", -2)])

    def test_empty_token_rejected(self):
        with pytest.raises(IngestionError, match="row 1"):
            load_background([("   ", 3)])

    def test_all_zero_rejected(self):
        with pytest.raises(IngestionError):
            load_background([("a", 0), ("b", 0)])

    def test_no_rows_rejected(self):
        with pytest.raises(IngestionError):
            load_background([])

    def test_overflowing_total_is_ingestion_error(self):
        with pytest.raises(IngestionError, match="add up to more than a float holds"):
            load_background([("a", 1e308), ("b", 1e308)])

    def test_overflowing_merged_count_reports_row(self):
        with pytest.raises(IngestionError, match="row 2: the counts of 'a'"):
            load_background([("a", 1e308), ("A", 1e308)])

    def test_case_variants_are_merged(self):
        bg = load_background([("The", 3), ("the", 1), ("cat", 4)])
        assert bg.support == ("the", "cat")
        assert bg.probabilities == (0.5, 0.5)


class TestBackgroundDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            BackgroundDistribution(("a", "b"), (0.7, 0.2))

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            BackgroundDistribution(("a", "b"), (1.2, -0.2))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ParameterError):
            BackgroundDistribution(("a",), (0.5, 0.5))


class TestGeneratorConfig:
    def test_unknown_model(self):
        with pytest.raises(ParameterError):
            GeneratorConfig(model="yule", length=10)

    def test_uniform_needs_vocabulary(self):
        with pytest.raises(ParameterError):
            GeneratorConfig(model="random_uniform", length=10)

    def test_imitation_rate_domain(self):
        with pytest.raises(ParameterError):
            GeneratorConfig(model="mixture", length=10, imitation_rate=1.5)

    @pytest.mark.parametrize("exponent", [0.0, -1.0, math.nan])
    def test_zipf_exponent_domain(self, exponent):
        with pytest.raises(ParameterError, match="zipf exponent"):
            GeneratorConfig(model="mixture", length=10, zipf_exponent=exponent)


class TestGeneration:
    def test_pure_imitation_is_constant(self):
        config = GeneratorConfig(model="imitation", length=200, vocabulary_size=50, seed=3)
        stream = generate_stream(config)
        assert len(set(stream.tags)) == 1
        assert stream.tags[0].startswith("t")

    def test_mixture_zero_equals_background(self):
        background = zipf_background(100, 1.0)
        base = GeneratorConfig(model="background", length=300, seed=8, background=background)
        mixed = GeneratorConfig(
            model="mixture", length=300, seed=8, imitation_rate=0.0, background=background
        )
        assert generate_stream(base).tags == generate_stream(mixed).tags

    def test_mixture_full_imitation_stays_in_urn(self):
        config = GeneratorConfig(
            model="mixture", length=500, seed=2, imitation_rate=1.0, vocabulary_size=1000
        )
        stream = generate_stream(config)
        assert len(set(stream.tags)) == 1

    def test_uniform_proportions(self):
        config = GeneratorConfig(model="random_uniform", vocabulary_size=5, length=2000, seed=42)
        stream = generate_stream(config)
        counts = snapshot(stream, len(stream))
        assert len(counts) == 5
        for count in counts.values():
            assert count / 2000 == pytest.approx(0.2, abs=0.05)

    def test_corpus_is_deterministic(self):
        config = GeneratorConfig(
            model="mixture", length=120, n_streams=4, seed=21,
            imitation_rate=0.6, vocabulary_size=200,
        )
        assert generate_corpus(config) == generate_corpus(config)

    def test_stream_index_matches_corpus(self):
        config = GeneratorConfig(model="random_uniform", vocabulary_size=20, length=50,
                                 n_streams=3, seed=4)
        corpus = generate_corpus(config)
        for index in range(3):
            assert generate_stream(config, index) == corpus[index]

    def test_resource_ids_are_distinct(self):
        config = GeneratorConfig(model="random_uniform", vocabulary_size=5, length=5,
                                 n_streams=4, seed=0)
        ids = [s.resource_id for s in generate_corpus(config)]
        assert len(set(ids)) == 4

    def test_negative_index_rejected(self):
        config = GeneratorConfig(model="random_uniform", vocabulary_size=5, length=5)
        with pytest.raises(ParameterError):
            generate_stream(config, -1)

    def test_background_sampling_matches_distribution(self):
        background = zipf_background(50, 1.0)
        config = GeneratorConfig(model="background", length=100_000, seed=13,
                                 background=background)
        stream = generate_stream(config)
        counts = snapshot(stream, len(stream))
        observed = np.array([counts.get(token, 0) for token in background.support])
        expected = np.array(background.probabilities) * len(stream)
        chi_square = float(((observed - expected) ** 2 / expected).sum())
        assert chi_square < stats.chi2.ppf(0.999, df=len(background.support) - 1)


def stream_rng(seed, index=0):
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def reference_uniform(config, index):
    """random_uniform and imitation drawn straight from the stream's RNG."""
    rng = stream_rng(config.seed, index)
    if config.model == "random_uniform":
        draws = rng.integers(0, config.vocabulary_size, size=config.length)
        return tuple(f"t{j + 1}" for j in draws)
    tags = [f"t{int(rng.integers(0, config.vocabulary_size)) + 1}"]
    for t in range(1, config.length):
        tags.append(tags[int(rng.integers(0, t))])
    return tuple(tags)


def reference_mixture(rng, length, imitation_rate, support, cumulative):
    """background and mixture drawn with one numpy call per draw."""
    tags = []
    for t in range(length):
        if t > 0 and imitation_rate > 0.0 and rng.random() < imitation_rate:
            tags.append(tags[int(rng.integers(0, t))])
        else:
            index = int(cumulative.searchsorted(rng.random(), side="right"))
            tags.append(support[min(index, len(cumulative) - 1)])
    return tags


@functools.cache
def zipf_table(vocabulary_size):
    background = zipf_background(vocabulary_size, 1.0)
    return background.support, np.cumsum(np.asarray(background.probabilities))


class RawDraws:
    """``rng.random()`` and ``rng.integers(0, n)`` by numpy's rules for a
    PCG64-backed Generator, read from a given sequence of raw words.

    A double is the top 53 bits of one word.  A bounded integer is
    Lemire's method on 32-bit draws; a 32-bit draw is the low half of a
    fresh word, and the high half is kept for the next 32-bit draw.
    ``rejections`` counts rejected 32-bit draws; ``crossings`` counts kept
    halves used after a word of a later block of ``block`` words was read.
    """

    def __init__(self, words, block=None):
        self._words = iter(words)
        self._block = block
        self._read = -1  # index of the last word read
        self._half = None  # (kept half, index of its word)
        self.rejections = 0
        self.crossings = 0

    def _word(self):
        self._read += 1
        return next(self._words)

    def random(self):
        return (self._word() >> 11) * 2.0**-53

    def _uint32(self):
        if self._half is not None:
            (half, source), self._half = self._half, None
            if self._block and self._read // self._block > source // self._block:
                self.crossings += 1
            return half
        word = self._word()
        self._half = (word >> 32, self._read)
        return word & 0xFFFFFFFF

    def integers(self, low, high):
        assert low == 0 and 1 <= high <= 2**32
        if high == 1:
            return 0
        product = self._uint32() * high
        threshold = (1 << 32) % high
        while product & 0xFFFFFFFF < threshold:
            self.rejections += 1
            product = self._uint32() * high
        return product >> 32


class ScriptedGenerator:
    """A stand-in for a Generator whose bit generator hands out the given
    words in order, recording the size of every read."""

    def __init__(self, words):
        self.bit_generator = self
        self._words = iter(words)
        self.reads = []

    def random_raw(self, size):
        self.reads.append(size)
        words = list(islice(self._words, size))
        assert len(words) == size, "the script ran out of words"
        return np.array(words, dtype=np.uint64)


def stream_words(seed, count, index=0):
    return np.random.PCG64(np.random.SeedSequence((seed, index))).random_raw(count).tolist()


class TestRawDraws:
    """The test oracle ``RawDraws`` against numpy's own draws, and the
    blocks ``_mixture_tags`` reads raw words in."""

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 7, 40, 2999, 3000, 3 * 2**30, 2**32 - 1, 2**32]
    )
    def test_matches_numpy_calls(self, n):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            draws = RawDraws(np.random.default_rng(seed).bit_generator.random_raw(1000).tolist())
            for step in range(300):
                # Doubles fall between some bounded draws and not others, so
                # a 32-bit draw sometimes takes a kept high half.
                if step % 3 == 0:
                    assert draws.random() == rng.random()
                assert draws.integers(0, n) == int(rng.integers(0, n))
            assert draws.random() == rng.random()

    def test_rejection_branch_runs(self):
        # At n = 3 * 2**30 a quarter of the 32-bit draws are rejected.
        n = 3 * 2**30
        rng = np.random.default_rng(1)
        draws = RawDraws(np.random.default_rng(1).bit_generator.random_raw(1000).tolist())
        for _ in range(400):
            assert draws.integers(0, n) == int(rng.integers(0, n))
        assert draws.rejections > 50

    @pytest.mark.parametrize("needed, block", [(80, 80), (10**9, 4096)])
    def test_reads_one_bounded_block_at_a_time(self, needed, block):
        # A mixture stream of ``needed // 2`` steps reads min(needed,
        # _RAW_BLOCK) words, and reads again only once they run short.
        class Stop(Exception):
            pass

        words = stream_words(0, 2 * block)
        scripted = ScriptedGenerator(words)
        read = scripted.random_raw

        def bounded(size):
            if len(scripted.reads) == 2:
                raise Stop
            return read(size)

        scripted.random_raw = bounded
        support, cumulative = zipf_table(1000)
        try:
            _mixture_tags(scripted, needed // 2, 0.7, support, cumulative)
        except Stop:  # the stream needs more than two blocks
            pass
        assert scripted.reads == ([block] if needed == block else [block, block])


class TestDrawLoop:
    """``_mixture_tags`` against ``reference_mixture`` at the edges that
    bench-length streams do not reach."""

    # Many equally likely tokens, so that a step copying the wrong earlier
    # step almost always shows in the tags.
    SUPPORT = tuple(f"t{i}" for i in range(1, 1001))
    CUMULATIVE = np.cumsum(np.full(1000, 0.001))

    def check(self, words, length, rate, block=None):
        """``_mixture_tags`` on the scripted words equals the reference;
        returns the reference's draws and the scripted reads."""
        draws = RawDraws(words, block)
        expected = reference_mixture(draws, length, rate, self.SUPPORT, self.CUMULATIVE)
        scripted = ScriptedGenerator(words)
        got = _mixture_tags(scripted, length, rate, self.SUPPORT, self.CUMULATIVE)
        assert got == expected
        assert max(scripted.reads) <= tagstab.generators._RAW_BLOCK
        return draws, scripted.reads

    @pytest.mark.parametrize("block", [2, 3, 4096])
    def test_lemire_rejections(self, monkeypatch, block):
        # A 32-bit draw of 0 is rejected at every t that is not a power of
        # two: (0 * t) & 0xFFFFFFFF = 0 < 2**32 % t.  Runs of zero words
        # make rejections follow one another, across kept halves and refills.
        monkeypatch.setattr(tagstab.generators, "_RAW_BLOCK", block)
        rejections = 0
        for seed in range(6):
            words = stream_words(seed, 2000)
            for start in range(5, 2000, 17):
                words[start:start + seed % 3 + 1] = [0] * (seed % 3 + 1)
            draws, _ = self.check(words, 300, (0.5, 0.9)[seed % 2])
            rejections += draws.rejections
        assert rejections > 200

    def test_one_rejection_against_numpy(self):
        # PCG64 steps its state and then outputs it, so a state can be
        # chosen whose next word is 0: at rate 1 and t = 3 the step's 32-bit
        # draw is then 0 and rejected.  numpy itself is the oracle here.
        multiplier = 0x2360ED051FC65DA44385DF649FCCF645
        mask = (1 << 128) - 1
        increment = np.random.PCG64(5).state["state"]["inc"]
        rng = np.random.default_rng(0)
        # Steps 0 and 2 take one word each and step 1 none; the word of
        # step 3's coin comes next and then the zero word.  An output of 0
        # comes from a state whose high and low halves are equal.
        state = 0x1234_5678_9ABC_DEF0_1234_5678_9ABC_DEF0
        for _ in range(4):  # back four steps from the state that outputs 0
            state = (state - increment) * pow(multiplier, -1, 1 << 128) & mask
        rng.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": increment},
            "has_uint32": 0, "uinteger": 0,
        }
        saved = rng.bit_generator.state
        assert rng.bit_generator.random_raw(4).tolist()[3] == 0
        rng.bit_generator.state = saved
        expected = reference_mixture(rng, 6, 1.0, self.SUPPORT, self.CUMULATIVE)
        rng.bit_generator.state = saved
        assert _mixture_tags(rng, 6, 1.0, self.SUPPORT, self.CUMULATIVE) == expected
        rng.bit_generator.state = saved
        words = rng.bit_generator.random_raw(20).tolist()
        draws = RawDraws(words)
        assert reference_mixture(draws, 6, 1.0, self.SUPPORT, self.CUMULATIVE) == expected
        assert draws.rejections == 1

    def test_kept_half_crosses_a_block_boundary(self, monkeypatch):
        monkeypatch.setattr(tagstab.generators, "_RAW_BLOCK", 3)
        crossings = 0
        for seed in range(8):
            for length in (2, 3, 5, 40):
                rate = (0.3, 0.7, 1.0)[seed % 3]
                support, cumulative = zipf_table(1000)
                expected = reference_mixture(stream_rng(seed), length, rate, support, cumulative)
                assert _mixture_tags(stream_rng(seed), length, rate, support, cumulative) == expected
                draws, reads = self.check(stream_words(seed, 200), length, rate, block=3)
                assert set(reads) == {3}
                crossings += draws.crossings
        assert crossings > 10

    @pytest.mark.parametrize("rate", [1e-9, 0.9999])
    def test_extreme_rates(self, rate):
        support, cumulative = zipf_table(1000)
        for seed in range(5):
            for length in (2, 50, 5000):
                expected = reference_mixture(stream_rng(seed), length, rate, support, cumulative)
                assert _mixture_tags(stream_rng(seed), length, rate, support, cumulative) == expected

    @pytest.mark.parametrize("rate", [1e-9, 0.3, 0.7, 0.9999])
    def test_coin_at_its_boundary(self, rate):
        # The largest word whose double is below the rate imitates; the
        # next one up does not.
        bound = math.ceil(rate * 2**53) << 11
        assert ((bound - 1) >> 11) * 2.0**-53 < rate <= (bound >> 11) * 2.0**-53
        words = stream_words(3, 400)
        words[1::3] = [bound - 1 + (i & 1) for i in range(len(words[1::3]))]
        self.check(words, 150, rate)

    @pytest.mark.parametrize("block", [2, 4096])
    def test_refills_of_a_long_stream(self, monkeypatch, block):
        monkeypatch.setattr(tagstab.generators, "_RAW_BLOCK", block)
        _, reads = self.check(stream_words(1, 20_000), 6000, 0.7)
        assert len(reads) > 1 and set(reads) == {block}


class TestMixtureDraws:
    @pytest.mark.parametrize("model", ["background", "mixture"])
    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("vocabulary_size", [1, 7, 1000, 100_000])
    def test_matches_reference(self, model, rate, vocabulary_size):
        support, cumulative = zipf_table(vocabulary_size)
        drawn_rate = rate if model == "mixture" else 0.0
        for seed in (0, 5):
            for length in (1, 2, 3, 40, 3000):
                config = GeneratorConfig(
                    model=model, length=length, n_streams=2, seed=seed,
                    imitation_rate=rate, vocabulary_size=vocabulary_size,
                )
                expected = [
                    tuple(reference_mixture(
                        stream_rng(seed, i), length, drawn_rate, support, cumulative
                    ))
                    for i in range(2)
                ]
                assert [s.tags for s in generate_corpus(config)] == expected

    @pytest.mark.parametrize("rate", [0.0, 0.5, 1.0])
    def test_explicit_background_matches_reference(self, rate):
        background = load_background([("a", 5), ("b", 3), ("c", 1), ("d", 1)])
        cumulative = np.cumsum(np.asarray(background.probabilities))
        config = GeneratorConfig(
            model="mixture", length=500, n_streams=3, seed=2, imitation_rate=rate,
            background=background,
        )
        expected = [
            tuple(reference_mixture(
                stream_rng(2, i), 500, rate, background.support, cumulative
            ))
            for i in range(3)
        ]
        assert [s.tags for s in generate_corpus(config)] == expected

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_draw_past_the_table_takes_the_last_token(self, rate):
        # The table ends at 0.3, so most background draws fall past it.
        support, cumulative = ("a", "b"), np.array([0.1, 0.3])
        expected = reference_mixture(stream_rng(3), 400, rate, support, cumulative)
        assert _mixture_tags(stream_rng(3), 400, rate, support, cumulative) == expected
        assert expected.count("b") > 200


class TestSyntheticVocabulary:
    @pytest.mark.parametrize("seed", [0, 5, 42])
    @pytest.mark.parametrize("rate", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("exponent", [1.0, 1.3])
    def test_matches_explicit_zipf_background(self, seed, rate, exponent):
        for model in ("background", "mixture"):
            synthetic = GeneratorConfig(
                model=model, length=300, n_streams=3, seed=seed, imitation_rate=rate,
                vocabulary_size=5000, zipf_exponent=exponent,
            )
            explicit = GeneratorConfig(
                model=model, length=300, n_streams=3, seed=seed, imitation_rate=rate,
                background=zipf_background(5000, exponent),
            )
            assert generate_corpus(synthetic) == generate_corpus(explicit)

    def test_default_vocabulary_matches_explicit_background(self):
        synthetic = GeneratorConfig(model="mixture", length=500, seed=9, imitation_rate=0.7)
        explicit = GeneratorConfig(
            model="mixture", length=500, seed=9, imitation_rate=0.7,
            background=zipf_background(100_000, 1.0),
        )
        assert generate_stream(synthetic) == generate_stream(explicit)

    @pytest.mark.parametrize("model", ["random_uniform", "imitation"])
    @pytest.mark.parametrize("seed", [0, 17])
    @pytest.mark.parametrize("vocabulary_size", [1, 7, 100_000])
    def test_uniform_models_match_reference(self, model, seed, vocabulary_size):
        config = GeneratorConfig(
            model=model, length=200, n_streams=3, seed=seed, vocabulary_size=vocabulary_size
        )
        corpus = generate_corpus(config)
        assert [s.tags for s in corpus] == [reference_uniform(config, i) for i in range(3)]

    @pytest.mark.parametrize("model", ["random_uniform", "background", "mixture"])
    def test_one_object_per_token(self, model):
        config = GeneratorConfig(
            model=model, length=400, n_streams=5, seed=3, imitation_rate=0.5,
            vocabulary_size=50,
        )
        tags = [tag for stream in generate_corpus(config) for tag in stream.tags]
        assert len({id(tag) for tag in tags}) == len(set(tags))

    @pytest.mark.parametrize("model", ["random_uniform", "mixture"])
    def test_vocabulary_is_not_built(self, model):
        config = GeneratorConfig(
            model=model, length=100, seed=1, imitation_rate=0.7, vocabulary_size=100_000
        )
        tracemalloc.start()
        try:
            generate_corpus(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestSeeding:
    """Stream i of a corpus seeded s draws from
    ``default_rng(SeedSequence((s, i)))``, for seeds and indices beyond 64
    and 32 bits too."""

    @pytest.mark.parametrize("model", ["random_uniform", "imitation", "background", "mixture"])
    @pytest.mark.parametrize("seed, index", [
        (2**64 + 1, 0), (2**70 + 3, 0), (2**70 + 3, 1), (9, 2**32 + 1),
    ])
    def test_large_seeds_and_indices_match_reference(self, model, seed, index):
        config = GeneratorConfig(
            model=model, length=300, seed=seed, imitation_rate=0.7, vocabulary_size=1000,
        )
        if model in ("random_uniform", "imitation"):
            expected = reference_uniform(config, index)
        else:
            rate = 0.7 if model == "mixture" else 0.0
            support, cumulative = zipf_table(1000)
            expected = tuple(
                reference_mixture(stream_rng(seed, index), 300, rate, support, cumulative)
            )
        assert generate_stream(config, index).tags == expected


class TestPrepare:
    def test_zipf_table_is_the_only_vocabulary_sized_array(self):
        # The cumulative table of 100 000 doubles is 781 KB; building it
        # must not hold several such arrays at once.
        config = GeneratorConfig(model="mixture", length=10, vocabulary_size=100_000)
        tracemalloc.start()
        try:
            _, cumulative = _prepare(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cumulative.nbytes == 800_000
        assert peak < 1.5 * cumulative.nbytes
