"""Domain model for annotation streams: assignments, snapshots, rankings."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import EmptyInputError, ParameterError


def normalize_tag(raw: str) -> str:
    """Canonical tag form: surrounding whitespace stripped, lowercased."""
    return raw.strip().lower()


@dataclass(frozen=True)
class TagAssignment:
    """A single tag applied to a resource at ordinal position ``seq``."""

    resource_id: str
    tag: str
    seq: int
    user_id: str | None = None

    def __post_init__(self) -> None:
        if not self.tag:
            raise ParameterError("tag must be non-empty")
        if self.seq < 1:
            raise ParameterError(f"seq must be >= 1, got {self.seq}")


@dataclass(frozen=True)
class TagStream:
    """Temporally ordered tag assignments for one resource.

    Sequence numbers must be contiguous from 1 and every assignment must
    carry the stream's resource id.
    """

    resource_id: str
    assignments: tuple[TagAssignment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", tuple(self.assignments))
        for position, assignment in enumerate(self.assignments, start=1):
            if assignment.resource_id != self.resource_id:
                raise ParameterError(
                    f"assignment for {assignment.resource_id!r} cannot join "
                    f"stream {self.resource_id!r}"
                )
            if assignment.seq != position:
                raise ParameterError(
                    f"seq values must be contiguous from 1; position "
                    f"{position} has seq {assignment.seq}"
                )

    def __len__(self) -> int:
        return len(self.assignments)

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(a.tag for a in self.assignments)

    @classmethod
    def from_tags(cls, resource_id: str, tags: Iterable[str]) -> "TagStream":
        """Build a stream from bare tag tokens, numbering them from 1."""
        assignments = tuple(
            TagAssignment(resource_id, tag, seq)
            for seq, tag in enumerate(tags, start=1)
        )
        return cls(resource_id, assignments)


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
        for i, entry in enumerate(self.entries):
            if entry.tag in seen:
                raise ParameterError(f"duplicate tag {entry.tag!r}")
            seen.add(entry.tag)
            if entry.count < 1:
                raise ParameterError("counts must be positive")
            if i == 0:
                if entry.rank != 1:
                    raise ParameterError("ranking must start at rank 1")
                continue
            prev = self.entries[i - 1]
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
    counts = Counter(a.tag for a in stream.assignments[:n])
    return FrequencySnapshot(stream.resource_id, n, dict(counts))


def rank(snap: FrequencySnapshot) -> RankedList:
    """Competition-rank the snapshot's tags by descending count.

    Tags with equal counts share the minimal rank of their group and are
    listed in ascending tag order; rank values alone carry meaning.
    """
    if not snap.counts:
        raise EmptyInputError("cannot rank an empty snapshot")
    items = sorted(snap.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    entries = []
    current_rank = 0
    prev_count: int | None = None
    for position, (tag, count) in enumerate(items, start=1):
        if count != prev_count:
            current_rank = position
            prev_count = count
        entries.append(RankEntry(tag, count, current_rank))
    return RankedList(tuple(entries))


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
    if window < 1:
        raise ParameterError(f"window must be >= 1, got {window}")
    counts: dict[str, int] = {}
    histogram: dict[int, int] = {}
    before: dict[str, int] = {}
    for t, assignment in enumerate(stream.assignments, start=1):
        tag = assignment.tag
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
    if window < 1:
        raise ParameterError(f"window must be >= 1, got {window}")
    if len(stream) == 0:
        raise EmptyInputError("cannot compute proportions of an empty stream")
    return tuple(
        (t, {tag: c / t for tag, c in counts.items()})
        for t, counts, _, _ in _checkpoints(stream, window)
    )
