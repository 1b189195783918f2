"""File ingestion and serialization: tag logs, raw-text corpora, and
background frequency tables with the distribution they define.

Tag logs are delimited UTF-8 text (tab by default) with a header naming the
columns ``resource_id``, ``tag``, ``seq`` and optionally ``user_id``, which
is accepted and ignored.  Rows are grouped per resource, ordered by their
seq values, and re-indexed contiguously from 1; malformed rows are skipped
and counted rather than aborting the load.
"""

from __future__ import annotations

import gc
import math
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from statistics import mean, median
from typing import Iterable

from .errors import IngestionError, ParameterError
from .streams import TagStream, normalize_tag

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def _report(streams: tuple[TagStream, ...], rejected: Counter[str]) -> dict:
    """What a load accepted and what it threw away, as ``validate`` prints it."""
    lengths = [len(s) for s in streams] or [0]
    return {
        "streams_loaded": len(streams),
        "assignments_loaded": sum(lengths),
        "rows_rejected": sum(rejected.values()),
        "reject_reasons": dict(sorted(rejected.items())),
        "stream_lengths": {
            "min": min(lengths),
            "max": max(lengths),
            "mean": float(mean(lengths)),
            "median": float(median(lengths)),
        },
    }


@contextmanager
def _open_utf8(path: str | Path):
    """Open ``path`` as UTF-8 text, skipping a leading byte-order mark;
    bytes that do not decode raise an IngestionError naming the file.

    The mark is skipped by hand: the ``utf-8-sig`` codec would be imported
    on the first read of every run."""
    try:
        with open(path, encoding="utf-8") as handle:
            if handle.read(1) != "\ufeff":
                handle.seek(0)
            yield handle
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path} is not UTF-8 text: {exc.reason}") from None


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector.  A text corpus builds one token
    list a row, all acyclic, which it would walk again and again, freeing
    none.  A tag log's rows build no container but their seq maps, so its
    load gains nothing from a pause."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _header_columns(line: str, delimiter: str, required: tuple[str, ...]) -> dict[str, int]:
    columns: dict[str, int] = {}
    for i, name in enumerate(line.rstrip("\r\n").split(delimiter)):
        if name in columns:
            raise IngestionError(f"header repeats column {name!r}")
        columns[name] = i
    missing = [name for name in required if name not in columns]
    if missing:
        raise IngestionError(f"header is missing columns: {', '.join(missing)}")
    return columns


def _read_rows(
    path: str | Path,
    delimiter: str,
    required: tuple[str, ...],
    value_column: str,
    parse,
) -> tuple[dict[str, dict[int, object]], Counter[str]]:
    """Read a delimited file with a header into ``{resource_id: {seq: value}}``
    and the count of rejected rows by reason.

    ``parse`` maps a row's ``value_column`` field to the value stored for
    the row, or to None to reject the row as "empty tag".
    Rows are rejected and counted, in this order of precedence, as "blank
    line", "field count mismatch", "empty resource_id", "empty tag",
    "invalid seq" and "duplicate seq"; the first row wins a (resource, seq)
    pair, and only a row accepted so far claims its seq.  A seq is valid if
    it is ASCII digits with a value of at least 1.
    """
    by_resource: dict[str, dict[int, object]] = {}
    rejected: Counter[str] = Counter()
    with _open_utf8(path) as handle:
        header = handle.readline()
        if not header:
            raise IngestionError("file is empty")
        columns = _header_columns(header, delimiter, required)
        width = len(columns)
        resource_column = columns["resource_id"]
        seq_column = columns["seq"]
        value_index = columns[value_column]
        for line in handle:
            line = line.rstrip("\r\n")
            if not line:
                rejected["blank line"] += 1
                continue
            parts = line.split(delimiter)
            if len(parts) != width:
                rejected["field count mismatch"] += 1
                continue
            resource_id = parts[resource_column].strip()
            if not resource_id:
                rejected["empty resource_id"] += 1
                continue
            value = parse(parts[value_index])
            if value is None:
                rejected["empty tag"] += 1
                continue
            raw_seq = parts[seq_column]
            # int() alone would also take signs, spaces, "1_0" and non-ASCII digits.
            if not (raw_seq.isascii() and raw_seq.isdigit()) or (seq := int(raw_seq)) < 1:
                rejected["invalid seq"] += 1
                continue
            seqs = by_resource.get(resource_id)
            if seqs is None:
                by_resource[resource_id] = {seq: value}
            elif seq in seqs:
                rejected["duplicate seq"] += 1
            else:
                seqs[seq] = value
    if not by_resource:
        raise IngestionError(f"no rows accepted from {path}")
    return by_resource, rejected


def _in_seq_order(seqs: dict[int, object]) -> list:
    return [seqs[seq] for seq in sorted(seqs)]


def ingest_tag_log(
    path: str | Path, delimiter: str = "\t"
) -> tuple[tuple[TagStream, ...], dict]:
    """Load a tag log into per-resource streams plus a load report, the
    dict that ``validate`` prints.

    The first matching row wins on duplicate (resource, seq) pairs; rows
    with an empty tag after normalization, a seq that is not a positive
    integer in ASCII digits, or the wrong field count are rejected and
    counted.  A file yielding zero accepted
    rows is an error.  Each distinct tag is one string object.  A
    ``user_id`` column counts toward a row's fields, and its values are
    not read.
    """
    interned: dict[str, str] = {}

    def parse(raw):
        # A normalized tag normalizes to itself, so a raw field that is
        # already a known tag needs no normalizing.
        tag = interned.get(raw)
        if tag is None:
            tag = normalize_tag(raw)
            tag = interned.setdefault(tag, tag) if tag else None
        return tag

    by_resource, rejected = _read_rows(
        path, delimiter, ("resource_id", "tag", "seq"), "tag", parse
    )
    streams = tuple(
        TagStream(resource_id, _in_seq_order(by_resource[resource_id]))
        for resource_id in sorted(by_resource)
    )
    return streams, _report(streams, rejected)


def _tokens(text: str, drop: set[str]) -> list[str]:
    """``tokenize`` with the stopwords already normalized into ``drop``."""
    return [token for token in _TOKEN_RE.findall(text.lower()) if token not in drop]


def tokenize(text: str, stopwords: Iterable[str] | None = None) -> list[str]:
    """Lowercase and split on runs of non-letter/non-digit characters."""
    return _tokens(text, {normalize_tag(w) for w in stopwords or ()})


def ingest_text_corpus(
    path: str | Path,
    stopwords: Iterable[str] | None = None,
    delimiter: str = "\t",
) -> tuple[tuple[TagStream, ...], dict]:
    """Interpret the words of per-resource texts as annotation streams,
    plus a load report.

    Expects columns resource_id, seq, text; each text is tokenized and the
    tokens are appended to the resource's stream in (seq, position-in-text)
    order.  Rows whose text yields no tokens are accepted with no effect;
    resources left without tokens produce no stream.  Malformed rows are
    rejected and counted as in ``ingest_tag_log``, which has the one extra
    reason "empty tag".
    """
    drop = {normalize_tag(w) for w in stopwords or ()}
    interned: dict[str, str] = {}

    def parse(text):
        return [interned.setdefault(token, token) for token in _tokens(text, drop)]

    with _collector_paused():
        by_resource, rejected = _read_rows(
            path, delimiter, ("resource_id", "seq", "text"), "text", parse
        )
    streams = []
    for resource_id in sorted(by_resource):
        tags = [token for tokens in _in_seq_order(by_resource[resource_id]) for token in tokens]
        if tags:
            streams.append(TagStream(resource_id, tags))
    streams = tuple(streams)
    return streams, _report(streams, rejected)


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


def read_background_file(path: str | Path) -> BackgroundDistribution:
    """Parse a headerless ``token<TAB>count`` table into a background
    distribution; empty lines are ignored."""
    pairs: list[tuple[str, float]] = []
    with _open_utf8(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise IngestionError(
                    f"row {line_number}: expected 2 tab-separated fields"
                )
            try:
                count = float(parts[1])
            except ValueError:
                raise IngestionError(
                    f"row {line_number}: count {parts[1]!r} is not a number"
                ) from None
            pairs.append((parts[0], count))
    return load_background(pairs)


def _unwritable(value: str, read, delimiter: str) -> str | None:
    """Why ``value`` would not read back as written by ``read``, or None."""
    if delimiter in value or "\n" in value or "\r" in value:
        return "holds the delimiter or a line break and cannot be written"
    if not value:
        return "is empty"
    if read(value) != value:
        return f"would read back as {read(value)!r}"
    return None


def write_tag_log(
    streams: Iterable[TagStream], path: str | Path, delimiter: str = "\t"
) -> None:
    """Serialize streams in the ingestion format with canonical row order
    (resource_id, then seq), numbering each stream's rows from 1.

    A stream or field that would not read back as written raises
    ParameterError, naming the resource, before the file is opened: a
    resource id that repeats, a stream with no tags, a resource id or tag
    that is empty or holds the delimiter, a newline or a carriage return, a
    resource id with surrounding whitespace, and a tag that differs from
    ``normalize_tag(tag)``.  The error names the first such field in
    resource order, and within a stream its first bad tag.
    """
    streams = sorted(streams, key=lambda s: s.resource_id)
    writable: set[str] = set()  # tags already checked, each checked once
    for i, stream in enumerate(streams):
        resource_id = stream.resource_id
        if i and streams[i - 1].resource_id == resource_id:
            raise ParameterError(f"resource {resource_id!r} repeats")
        if not stream.tags:
            raise ParameterError(f"resource {resource_id!r} has no tags")
        problem = _unwritable(resource_id, str.strip, delimiter)
        if problem is not None:
            raise ParameterError(
                f"resource {resource_id!r}: resource id {resource_id!r} {problem}"
            )
        if writable.issuperset(stream.tags):
            continue
        for tag in stream.tags:
            if tag not in writable:
                problem = _unwritable(tag, normalize_tag, delimiter)
                if problem is not None:
                    raise ParameterError(f"resource {resource_id!r}: tag {tag!r} {problem}")
                writable.add(tag)
    # Row n of every stream ends the same way.
    endings = [f"{delimiter}{seq}\n" for seq in range(1, max(map(len, streams), default=0) + 1)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(delimiter.join(("resource_id", "tag", "seq")) + "\n")
        for stream in streams:
            rows = zip(repeat(stream.resource_id + delimiter), stream.tags, endings)
            handle.write("".join(chain.from_iterable(rows)))
