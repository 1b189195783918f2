"""Domain model for annotation streams: streams, tag counts, rankings."""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Hashable, NamedTuple, Sequence

from .errors import EmptyInputError, ParameterError


def normalize_tag(raw: str) -> str:
    """Canonical tag form: surrounding whitespace stripped, lowercased."""
    return raw.strip().lower()


@dataclass(frozen=True, slots=True)
class TagStream:
    """Temporally ordered tags of one resource, held as a column.

    ``tags[i]`` is the tag of the resource's (i + 1)-th assignment.  Seq
    numbers belong to the log format only: ingest re-indexes rows from 1
    and ``write_tag_log`` numbers them.
    """

    resource_id: str
    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        tags = tuple(self.tags)
        if not all(tags):
            raise ParameterError("tag must be non-empty")
        object.__setattr__(self, "tags", tags)

    def __len__(self) -> int:
        return len(self.tags)


class RankEntry(NamedTuple):
    tag: str
    count: int
    rank: int


def snapshot(stream: TagStream, n: int) -> dict[str, int]:
    """Tag counts of the first ``n`` assignments of ``stream``."""
    if not 1 <= n <= len(stream):
        raise ParameterError(
            f"prefix length {n} out of range for stream of length {len(stream)}"
        )
    return dict(Counter(islice(stream.tags, n)))


def _by_count(counts: dict[str, int]) -> list[str]:
    """Tags by descending count, ties in tag order."""
    # Sorted by tag, then stably by count: no key tuple built per tag.
    return sorted(sorted(counts), key=counts.__getitem__, reverse=True)


_END = sys.maxsize  # past every rank: ends each rank column


def _rank_column(histogram: dict[int, int]):
    """A ranking's counts in descending order, as ``(ranks, holders,
    rank_of)``: the competition ranks (1 + the number of tags with a larger
    count) ascending and then ``_END``, the number of tags at each rank,
    and each count's rank."""
    ranks, holders, rank_of = [], [], {}
    rank = 1
    for count in sorted(histogram, reverse=True):
        held = histogram[count]
        ranks.append(rank)
        holders.append(held)
        rank_of[count] = rank
        rank += held
    ranks.append(_END)
    return ranks, holders, rank_of


def _count_column(counts: dict[str, int]):
    """The rank column of a tag-count mapping, checked as ``rank`` says."""
    if not counts:
        raise EmptyInputError("cannot rank an empty count mapping")
    for tag, count in counts.items():
        if not count >= 1:  # NaN fails too
            raise ParameterError(f"count for {tag!r} must be >= 1, got {count}")
    return _rank_column(Counter(counts.values()))


def rank(counts: dict[str, int]) -> tuple[RankEntry, ...]:
    """Competition-rank the tags of ``counts`` by descending count.

    Tied counts share the minimal rank of their group and the following
    rank skips by the size of the group (1, 2, 2, 4).  Tags with equal
    counts are listed in ascending tag order; rank values alone carry
    meaning.
    """
    _, _, rank_of = _count_column(counts)
    return tuple(
        RankEntry(tag, counts[tag], rank_of[counts[tag]]) for tag in _by_count(counts)
    )


def _check_window(window: int) -> None:
    if window < 1:
        raise ParameterError(f"window must be >= 1, got {window}")


def _checkpoints(tags: Sequence[Hashable], window: int):
    """Walk the tag column ``tags`` once, yielding its count state after
    every ``window`` assignments.  A tag is any hashable: a stream's
    strings or the integer draws of a random stream.

    Each item is ``(t, counts, histogram, before)``: ``counts`` maps every
    tag of the first t assignments to its count, in order of first
    appearance; ``histogram`` maps each count to the number of tags holding
    it; ``before`` maps each tag touched since the previous checkpoint to its
    count there (0 for a tag new in this window).  Under competition ranking
    a tag's rank is 1 + the number of tags with a larger count, so
    ``histogram`` describes the whole ranking.  The dicts are live state:
    read them before asking for the next item and never modify them.
    """
    _check_window(window)
    counts: dict[Hashable, int] = {}
    histogram: dict[int, int] = {}
    before: dict[Hashable, int] = {}
    for t, tag in enumerate(tags, start=1):
        count = counts.get(tag, 0)
        if tag not in before:
            before[tag] = count
        counts[tag] = count + 1
        if t % window == 0:
            # Only the window's tags moved, each from its count before.
            for moved, old in before.items():
                if old:
                    if histogram[old] == 1:
                        del histogram[old]
                    else:
                        histogram[old] -= 1
                new = counts[moved]
                histogram[new] = histogram.get(new, 0) + 1
            yield t, counts, histogram, before
            before = {}


def _proportions(tags: Sequence[Hashable], window: int, top: int | None = None):
    """Yield ``(t, {tag: count / t})`` after every ``window`` assignments
    of the tag column ``tags``.

    With ``top``, the reported tags are the ``top`` first of ``_by_count``
    over the whole column, in that order, and only they are counted; a tag
    not seen yet reads 0.0.  Without, every tag seen so far is reported, in
    order of first appearance.  Each dict is new and the caller's to keep.
    """
    counts = {} if top is None else dict.fromkeys(_by_count(Counter(tags))[:top], 0)
    for t in range(window, len(tags) + 1, window):
        for tag in tags[t - window : t]:
            if tag in counts:
                counts[tag] += 1
            elif top is None:
                counts[tag] = 1
        yield t, {tag: count / t for tag, count in counts.items()}


def proportion_trajectory(
    stream: TagStream, window: int, top: int | None = None
) -> tuple[tuple[int, dict[str, float]], ...]:
    """Relative tag proportions at every ``window`` assignments.

    At each checkpoint t in {window, 2*window, ...} up to the stream length,
    each observed tag maps to count(tag, t) / t; the values at a checkpoint
    sum to 1.  With ``top``, each checkpoint maps only the ``top`` tags of
    highest final count (ties in tag order), in that order, and a tag not
    seen by t maps to 0.0; the values then sum to at most 1.
    """
    _check_window(window)
    if top is not None and top < 1:
        raise ParameterError(f"top must be >= 1, got {top}")
    if len(stream) == 0:
        raise EmptyInputError("cannot compute proportions of an empty stream")
    return tuple(_proportions(stream.tags, window, top))
