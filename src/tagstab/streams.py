"""Domain model for annotation streams: streams, snapshots, rankings."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from .errors import EmptyInputError, ParameterError


def normalize_tag(raw: str) -> str:
    """Canonical tag form: surrounding whitespace stripped, lowercased."""
    return raw.strip().lower()


@dataclass(frozen=True, slots=True)
class TagStream:
    """Temporally ordered tags of one resource, held as columns.

    ``tags[i]`` and ``users[i]`` belong to the resource's (i + 1)-th
    assignment; ``users`` is None when no assignment names a user, so two
    streams with the same content compare equal.  Seq numbers belong to the
    log format only: ingest re-indexes rows from 1 and ``write_tag_log``
    numbers them.
    """

    resource_id: str
    tags: tuple[str, ...]
    users: tuple[str | None, ...] | None = None

    def __post_init__(self) -> None:
        tags = tuple(self.tags)
        if not all(tags):
            raise ParameterError("tag must be non-empty")
        users = self.users
        if users is not None:
            users = tuple(users)
            if len(users) != len(tags):
                raise ParameterError(
                    f"{len(users)} users for {len(tags)} tags; lengths must match"
                )
            if users.count(None) == len(users):
                users = None
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "users", users)

    def __len__(self) -> int:
        return len(self.tags)


@dataclass(frozen=True)
class FrequencySnapshot:
    """Tag counts after the first ``n`` assignments of a stream."""

    resource_id: str
    n: int
    counts: dict[str, int]

    def __post_init__(self) -> None:
        total = 0
        for tag, count in self.counts.items():
            if count < 1:
                raise ParameterError(f"count for {tag!r} must be >= 1")
            total += count
        if total != self.n:
            raise ParameterError(
                f"counts sum to {total}, expected prefix length {self.n}"
            )


class RankEntry(NamedTuple):
    tag: str
    count: int
    rank: int


@dataclass(frozen=True)
class RankedList:
    """Competition-ranked tags: tied counts share the minimal rank and the
    following rank skips by the size of the tie group (1, 2, 2, 4)."""

    entries: tuple[RankEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        seen: set[str] = set()
        for entry in self.entries:
            if entry.tag in seen:
                raise ParameterError(f"duplicate tag {entry.tag!r}")
            seen.add(entry.tag)
            if not entry.count >= 1:  # NaN fails too
                raise ParameterError("counts must be positive")
        expected = _ranked({entry.tag: entry.count for entry in self.entries})
        for position, (entry, want) in enumerate(zip(self.entries, expected), start=1):
            if entry != want:
                raise ParameterError(
                    f"entry {position} is {tuple(entry)}, but competition "
                    f"ranking puts {tuple(want)} there"
                )

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def max_rank(self) -> int:
        return self.entries[-1].rank if self.entries else 0


def snapshot(stream: TagStream, n: int) -> FrequencySnapshot:
    """Aggregate the first ``n`` assignments of ``stream`` into tag counts."""
    if not 1 <= n <= len(stream):
        raise ParameterError(
            f"prefix length {n} out of range for stream of length {len(stream)}"
        )
    counts = Counter(islice(stream.tags, n))
    return FrequencySnapshot(stream.resource_id, n, dict(counts))


def _by_count(counts: dict[str, int]) -> list[str]:
    """Tags by descending count, ties in tag order."""
    return sorted(counts, key=lambda tag: (-counts[tag], tag))


def _ranks_by_count(histogram: dict[int, int]) -> dict[int, int]:
    """Competition rank of each count: 1 + the number of tags above it."""
    ranks = {}
    above = 0
    for count in sorted(histogram, reverse=True):
        ranks[count] = above + 1
        above += histogram[count]
    return ranks


def _ranked(counts: dict[str, int]) -> tuple[RankEntry, ...]:
    """The competition ranking of ``counts``, in ``_by_count`` order."""
    ranks = _ranks_by_count(Counter(counts.values()))
    return tuple(
        RankEntry(tag, counts[tag], ranks[counts[tag]]) for tag in _by_count(counts)
    )


def rank(snap: FrequencySnapshot) -> RankedList:
    """Competition-rank the snapshot's tags by descending count.

    Tags with equal counts share the minimal rank of their group and are
    listed in ascending tag order; rank values alone carry meaning.
    """
    if not snap.counts:
        raise EmptyInputError("cannot rank an empty snapshot")
    return RankedList(_ranked(snap.counts))


def _check_window(window: int) -> None:
    if window < 1:
        raise ParameterError(f"window must be >= 1, got {window}")


def _checkpoints(stream: TagStream, window: int):
    """Walk ``stream`` once, yielding its count state after every ``window``
    assignments.

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
    counts: dict[str, int] = {}
    histogram: dict[int, int] = {}
    before: dict[str, int] = {}
    for t, tag in enumerate(stream.tags, start=1):
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


def proportion_trajectory(
    stream: TagStream, window: int
) -> tuple[tuple[int, dict[str, float]], ...]:
    """Relative tag proportions at every ``window`` assignments.

    At each checkpoint t in {window, 2*window, ...} up to the stream length,
    each observed tag maps to count(tag, t) / t; the values at a checkpoint
    sum to 1.
    """
    _check_window(window)
    if len(stream) == 0:
        raise EmptyInputError("cannot compute proportions of an empty stream")
    return tuple(
        (t, {tag: c / t for tag, c in counts.items()})
        for t, counts, _, _ in _checkpoints(stream, window)
    )
