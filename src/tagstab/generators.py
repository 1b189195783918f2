"""Synthetic tagging streams: uniform draws, urn imitation, background
knowledge, and the imitation/background mixture.

Every stream is reproducible: stream i of a corpus is drawn from numpy's
``default_rng(SeedSequence((seed, i)))``, so corpora are identical across
runs and independent of generation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.random  # numpy loads it lazily, on the first draw otherwise

from .errors import ParameterError
# A background is read with the logs; both names are also exported from here.
from .ingest import BackgroundDistribution, load_background  # noqa: F401
from .streams import TagStream

MODELS = ("random_uniform", "imitation", "background", "mixture")

DEFAULT_VOCABULARY_SIZE = 100_000
DEFAULT_ZIPF_EXPONENT = 1.0


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
    # Built in place: the table is the only V-length array made.
    weights = np.arange(1, vocabulary_size + 1, dtype=float)
    weights **= -exponent
    weights /= weights.sum()
    return weights


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


_UINT32_MASK = 0xFFFFFFFF


def _stream_rng(seed: int, stream_index: int) -> np.random.Generator:
    """The generator of stream ``stream_index`` of a corpus seeded ``seed``."""
    return np.random.default_rng(np.random.SeedSequence((seed, stream_index)))


_DOUBLE_SCALE = 2.0**-53
# Words are read in blocks of at most this many; it must be at least 2,
# the most a step reads barring Lemire rejections.
_RAW_BLOCK = 4096


def _more_words(words: list[int], used: int, raw, block: int) -> list[int]:
    """The unread words of ``words`` followed by a fresh block."""
    return words[used:] + raw(block).tolist()


def _mixture_origins(raw, length: int, imitation_rate: float) -> tuple[list[int], list[float]]:
    """The draws of one mixture stream with ``0 < imitation_rate``, as
    ``rng.random()`` and ``rng.integers(0, t)`` would make them step by
    step, read from the generator's raw words (``raw`` is its
    ``random_raw``).

    Returns, for every step, the index of the background draw whose token
    it carries (its own, or by imitation that of the step it copies), and
    the background uniforms.

    A double is the top 53 bits of a word, so the imitation coin
    ``double < rate`` is ``word < ceil(rate * 2**53) << 11``.  A bounded
    integer is Lemire's method on 32-bit draws: a 32-bit draw is the low
    half of a fresh word, and the high half is kept for the next 32-bit
    draw; doubles do not touch the kept half.  ``integers(0, 1)`` draws
    nothing.  Words are read in blocks of ``min(2 * length, _RAW_BLOCK)``;
    words read ahead of need are never used.
    """
    coin = math.ceil(imitation_rate * 2**53) << 11
    block = min(2 * length, _RAW_BLOCK)
    words = raw(block).tolist()
    uniforms = [(words[0] >> 11) * _DOUBLE_SCALE]
    origins = [0]
    add_uniform, add_origin = uniforms.append, origins.append
    used, last = 1, len(words) - 1
    half = -1  # the kept high half, or -1 when there is none
    for t in range(1, length):
        if used >= last:  # fewer than two words left
            words = _more_words(words, used, raw, block)
            used, last = 0, len(words) - 1
        if words[used] < coin:
            if t == 1:  # integers(0, 1) draws nothing
                used += 1
                add_origin(0)
                continue
            if half < 0:
                word = words[used + 1]
                used += 2
                half = word >> 32
                product = (word & _UINT32_MASK) * t
            else:
                used += 1
                product = half * t
                half = -1
            if product & _UINT32_MASK < t:
                threshold = (1 << 32) % t
                while product & _UINT32_MASK < threshold:
                    if half < 0:
                        if used > last:
                            words = _more_words(words, used, raw, block)
                            used, last = 0, len(words) - 1
                        word = words[used]
                        used += 1
                        half = word >> 32
                        product = (word & _UINT32_MASK) * t
                    else:
                        product = half * t
                        half = -1
            add_origin(origins[product >> 32])
        else:
            add_origin(len(uniforms))
            add_uniform((words[used + 1] >> 11) * _DOUBLE_SCALE)
            used += 2
    return origins, uniforms


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
    is not drawn when the rate is 0, so a pure-background configuration
    consumes the identical random sequence.

    The draws are those of ``rng.random()`` and ``rng.integers(0, t)`` made
    step by step; the background tokens are then looked up all at once.
    """
    if imitation_rate > 0.0:
        origins, uniforms = _mixture_origins(
            rng.bit_generator.random_raw, length, imitation_rate
        )
    else:
        # Every draw is a background double; as an array they take no more
        # room than the stream.
        origins, uniforms = None, rng.random(length)
    # Searching all but the last bound clamps the index to the last token.
    indices = cumulative[:-1].searchsorted(uniforms, side="right")
    names = list(map(support.__getitem__, indices.tolist()))
    return names if origins is None else list(map(names.__getitem__, origins))


def _prepare(config: GeneratorConfig):
    """The token names of a corpus and, for background draws, the cumulative
    table.  Without an explicit background neither the vocabulary nor the
    distribution is built: a synthetic token is named when first drawn."""
    if config.model == "random_uniform" or config.model == "imitation":
        return _TokenNames(), None
    if config.background is not None:
        support = config.background.support
        table = np.array(config.background.probabilities)
    else:
        support, table = _TokenNames(), _zipf_probabilities(*config._zipf_parameters())
    return support, np.cumsum(table, out=table)


def _uniform_draws(rng: np.random.Generator, config: GeneratorConfig) -> list[int]:
    """The token indices of a random_uniform stream drawn with ``rng``; the
    corpus names token i ``_token_name(i)``."""
    return rng.integers(0, config.vocabulary_size, size=config.length).tolist()


def _generate_with(config: GeneratorConfig, stream_index: int, prepared) -> TagStream:
    support, cumulative = prepared
    rng = _stream_rng(config.seed, stream_index)
    if config.model == "random_uniform":
        tags = [support[i] for i in _uniform_draws(rng, config)]
    elif config.model == "imitation":
        # Pure urn dynamics never introduce a token beyond the bootstrap
        # draw, so the stream repeats its first token whatever the urn picks
        # are; they are not drawn.
        tags = [support[int(rng.integers(0, config.vocabulary_size))]] * config.length
    else:
        rate = config.imitation_rate if config.model == "mixture" else 0.0
        tags = _mixture_tags(rng, config.length, rate, support, cumulative)
    return TagStream(f"stream-{stream_index:05d}", tags)


def generate_stream(config: GeneratorConfig, stream_index: int = 0) -> TagStream:
    """Generate stream ``stream_index`` of the configured corpus."""
    if stream_index < 0:
        raise ParameterError(f"stream index must be >= 0, got {stream_index}")
    return _generate_with(config, stream_index, _prepare(config))


def generate_corpus(config: GeneratorConfig) -> tuple[TagStream, ...]:
    """All ``n_streams`` streams of the corpus, in index order."""
    prepared = _prepare(config)
    return tuple(_generate_with(config, index, prepared) for index in range(config.n_streams))
