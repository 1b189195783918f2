"""Synthetic tagging streams: uniform draws, urn imitation, background
knowledge, and the imitation/background mixture.

Every stream is reproducible: stream i of a corpus is generated from an RNG
seeded with (seed, i), so corpora are identical across runs and independent
of generation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np
import numpy.random  # numpy loads it lazily, on the first draw otherwise

from .errors import IngestionError, ParameterError
from .streams import TagStream, normalize_tag

MODELS = ("random_uniform", "imitation", "background", "mixture")

DEFAULT_VOCABULARY_SIZE = 100_000
DEFAULT_ZIPF_EXPONENT = 1.0


@dataclass(frozen=True)
class BackgroundDistribution:
    """A fixed token distribution modelling shared vocabulary knowledge."""

    support: tuple[str, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.support:
            raise ParameterError("background support must be non-empty")
        if len(self.support) != len(self.probabilities):
            raise ParameterError(
                "support and probabilities must have equal length"
            )
        if any(p < 0 or not math.isfinite(p) for p in self.probabilities):
            raise ParameterError("probabilities must be finite and non-negative")
        if abs(math.fsum(self.probabilities) - 1.0) > 1e-9:
            raise ParameterError("probabilities must sum to 1 within 1e-9")

    def __len__(self) -> int:
        return len(self.support)


def _token_name(index: int) -> str:
    """The name of synthetic token ``index``: ranks count from 1."""
    return f"t{index + 1}"


class _TokenNames(dict):
    """Names of synthetic tokens, made on first lookup and then reused, so
    each distinct token is one str object."""

    def __missing__(self, index: int) -> str:
        name = self[index] = _token_name(index)
        return name


def _zipf_probabilities(vocabulary_size: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, vocabulary_size + 1, dtype=float)
    weights = ranks**-exponent
    return weights / weights.sum()


def zipf_background(vocabulary_size: int, exponent: float = 1.0) -> BackgroundDistribution:
    """Zipfian background: token of rank r has probability r^-s / sum_j j^-s."""
    if vocabulary_size < 1:
        raise ParameterError(f"vocabulary size must be >= 1, got {vocabulary_size}")
    if not exponent > 0:
        raise ParameterError(f"zipf exponent must be > 0, got {exponent}")
    return BackgroundDistribution(
        tuple(map(_token_name, range(vocabulary_size))),
        tuple(_zipf_probabilities(vocabulary_size, exponent).tolist()),
    )


def load_background(rows: Iterable[tuple[str, float]]) -> BackgroundDistribution:
    """Background distribution from (token, count) rows.

    Tokens are normalized (stripped, lowercased) and repeated tokens have
    their counts merged; probabilities are counts divided by the total.  A
    merged count or a total that overflows a float is an IngestionError.
    """
    totals: dict[str, float] = {}
    for row_number, (token, count) in enumerate(rows, start=1):
        token = normalize_tag(token)
        if not token:
            raise IngestionError(f"row {row_number}: empty token")
        if not math.isfinite(count) or count < 0:
            raise IngestionError(
                f"row {row_number}: count must be a non-negative number, got {count}"
            )
        merged = totals[token] = totals.get(token, 0.0) + float(count)
        if not math.isfinite(merged):
            raise IngestionError(
                f"row {row_number}: the counts of {token!r} add up to more than a float holds"
            )
    if not totals:
        raise IngestionError("background table has no rows")
    try:
        total = math.fsum(totals.values())
    except OverflowError:
        raise IngestionError(
            "background table counts add up to more than a float holds"
        ) from None
    if total <= 0:
        raise IngestionError("background table counts are all zero")
    return BackgroundDistribution(
        tuple(totals), tuple(c / total for c in totals.values())
    )


@dataclass(frozen=True)
class GeneratorConfig:
    """Configuration for one synthetic corpus.

    ``imitation_rate`` only matters for the mixture model; ``vocabulary_size``
    sizes the uniform vocabulary (and, with ``zipf_exponent``, a synthetic
    Zipf background when no explicit ``background`` is supplied).
    """

    model: str
    length: int
    n_streams: int = 1
    seed: int = 0
    imitation_rate: float = 0.0
    vocabulary_size: int | None = None
    zipf_exponent: float | None = None
    background: BackgroundDistribution | None = None

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ParameterError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.length < 1:
            raise ParameterError(f"length must be >= 1, got {self.length}")
        if self.n_streams < 1:
            raise ParameterError(f"n_streams must be >= 1, got {self.n_streams}")
        if not 0.0 <= self.imitation_rate <= 1.0:
            raise ParameterError(
                f"imitation rate must lie in [0, 1], got {self.imitation_rate}"
            )
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.vocabulary_size is not None and self.vocabulary_size < 1:
            raise ParameterError(
                f"vocabulary size must be >= 1, got {self.vocabulary_size}"
            )
        # Written so that NaN fails too.
        if self.zipf_exponent is not None and not self.zipf_exponent > 0:
            raise ParameterError(
                f"zipf exponent must be > 0, got {self.zipf_exponent}"
            )
        if self.model in ("random_uniform", "imitation") and self.vocabulary_size is None:
            raise ParameterError(f"{self.model} requires a vocabulary size")

    def _zipf_parameters(self) -> tuple[int, float]:
        size = self.vocabulary_size or DEFAULT_VOCABULARY_SIZE
        exponent = (
            self.zipf_exponent if self.zipf_exponent is not None else DEFAULT_ZIPF_EXPONENT
        )
        return size, exponent


def _stream_rng(seed: int, stream_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream_index)))


_DOUBLE_SCALE = 2.0**-53
_UINT32_MASK = 0xFFFFFFFF
_RAW_BLOCK = 4096


class _RawDraws:
    """``rng.random()`` and ``rng.integers(0, n)`` of a fresh PCG64-backed
    Generator, read from its raw words in blocks of at most ``_RAW_BLOCK``.

    A double is the top 53 bits of one word (numpy's ``next_double``).  A
    bounded integer is Lemire's method on 32-bit draws; a 32-bit draw is the
    low half of a fresh word, and the high half is kept for the next 32-bit
    draw (PCG64's ``next_uint32``).  Doubles do not touch that kept half.
    Words are read in blocks of ``min(words_needed, _RAW_BLOCK)``, which
    must be at least 1.  Words read ahead of need are never used, so the
    generator must serve nothing else afterwards.
    """

    def __init__(self, rng: np.random.Generator, words_needed: int) -> None:
        bit_generator = rng.bit_generator
        size = min(words_needed, _RAW_BLOCK)
        blocks = iter(lambda: bit_generator.random_raw(size).tolist(), None)
        self._words = chain.from_iterable(blocks)
        self._half: int | None = None

    def random(self) -> float:
        return (next(self._words) >> 11) * _DOUBLE_SCALE

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = next(self._words)
        self._half = word >> 32
        return word & _UINT32_MASK

    def integers(self, n: int) -> int:
        """``rng.integers(0, n)`` for 1 <= n <= 2**32; n = 1 draws nothing."""
        if n == 1:
            return 0
        product = self._uint32() * n
        if product & _UINT32_MASK < n:
            threshold = (1 << 32) % n
            while product & _UINT32_MASK < threshold:
                product = self._uint32() * n
        return product >> 32


def _mixture_tags(
    rng: np.random.Generator,
    length: int,
    imitation_rate: float,
    support: Sequence[str] | _TokenNames,
    cumulative: np.ndarray,
) -> list[str]:
    """One stream of mixture draws.

    Each step imitates (a uniform pick over past assignments, i.e. an urn
    draw proportional to current counts) with probability ``imitation_rate``
    and otherwise samples the background.  On the first step the urn is
    empty and the draw falls back to the background.  The imitation check
    short-circuits when the rate is 0, so a pure-background configuration
    consumes the identical random sequence.

    The draws are those of ``rng.random()`` and ``rng.integers(0, t)`` made
    step by step; the background tokens are then looked up all at once.
    """
    imitates = imitation_rate > 0.0
    # Barring Lemire rejections, a step takes at most two words: the
    # imitation check's double, then a background double or a word that
    # serves two 32-bit draws.
    draws = _RawDraws(rng, 2 * length if imitates else length)
    random, integers = draws.random, draws.integers
    # sources[t] is the earlier step that step t copies, or -1 for a
    # background draw, whose uniform goes to ``uniforms``.
    sources: list[int] = []
    uniforms: list[float] = []
    for t in range(length):
        if t > 0 and imitates and random() < imitation_rate:
            sources.append(integers(t))
        else:
            sources.append(-1)
            uniforms.append(random())
    # Searching all but the last bound clamps the index to the last token.
    indices = cumulative[:-1].searchsorted(uniforms, side="right")
    names = map(support.__getitem__, indices.tolist())
    tags: list[str] = []
    for source in sources:
        tags.append(next(names) if source < 0 else tags[source])
    return tags


def _prepare(config: GeneratorConfig):
    """The token names of a corpus and, for background draws, the cumulative
    table.  Without an explicit background neither the vocabulary nor the
    distribution is built: a synthetic token is named when first drawn."""
    if config.model == "random_uniform" or config.model == "imitation":
        return _TokenNames(), None
    if config.background is not None:
        background = config.background
        return background.support, np.cumsum(np.asarray(background.probabilities))
    probabilities = _zipf_probabilities(*config._zipf_parameters())
    return _TokenNames(), np.cumsum(probabilities)


def _generate_with(config: GeneratorConfig, stream_index: int, prepared) -> TagStream:
    rng = _stream_rng(config.seed, stream_index)
    resource_id = f"stream-{stream_index:05d}"
    support, cumulative = prepared
    if config.model == "random_uniform":
        draws = rng.integers(0, config.vocabulary_size, size=config.length)
        tags = [support[i] for i in draws.tolist()]
    elif config.model == "imitation":
        # Pure urn dynamics never introduce a token beyond the bootstrap
        # draw, so the stream repeats its first token whatever the urn picks
        # are; they are not drawn.
        tags = [support[int(rng.integers(0, config.vocabulary_size))]] * config.length
    else:
        rate = config.imitation_rate if config.model == "mixture" else 0.0
        tags = _mixture_tags(rng, config.length, rate, support, cumulative)
    return TagStream(resource_id, tags)


def generate_stream(config: GeneratorConfig, stream_index: int = 0) -> TagStream:
    """Generate stream ``stream_index`` of the configured corpus."""
    if stream_index < 0:
        raise ParameterError(f"stream index must be >= 0, got {stream_index}")
    return _generate_with(config, stream_index, _prepare(config))


def _corpus_streams(config: GeneratorConfig) -> Iterator[TagStream]:
    """The streams of the corpus in index order, each made when asked for."""
    prepared = _prepare(config)
    for index in range(config.n_streams):
        yield _generate_with(config, index, prepared)


def generate_corpus(config: GeneratorConfig) -> tuple[TagStream, ...]:
    """All ``n_streams`` streams of the corpus, in index order."""
    return tuple(_corpus_streams(config))
