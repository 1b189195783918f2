"""File ingestion and serialization: tag logs, raw-text corpora, and
background frequency tables.

Tag logs are delimited UTF-8 text (tab by default) with a header naming the
columns ``resource_id``, ``tag``, ``seq`` and optionally ``user_id``.  Rows
are grouped per resource, ordered by their seq values, and re-indexed
contiguously from 1; malformed rows are skipped and counted rather than
aborting the load.
"""

from __future__ import annotations

import gc
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, median
from typing import Iterable

from .errors import IngestionError, ParameterError
from .generators import BackgroundDistribution, load_background
from .streams import TagStream, normalize_tag

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class IngestionReport:
    """What a load accepted and what it threw away."""

    streams_loaded: int
    assignments_loaded: int
    rows_rejected: int
    reject_reasons: dict[str, int] = field(default_factory=dict)
    length_min: int = 0
    length_max: int = 0
    length_mean: float = 0.0
    length_median: float = 0.0

    def to_dict(self) -> dict:
        return {
            "streams_loaded": self.streams_loaded,
            "assignments_loaded": self.assignments_loaded,
            "rows_rejected": self.rows_rejected,
            "reject_reasons": dict(self.reject_reasons),
            "stream_lengths": {
                "min": self.length_min,
                "max": self.length_max,
                "mean": self.length_mean,
                "median": self.length_median,
            },
        }


def _report(streams: tuple[TagStream, ...], rejected: Counter[str]) -> IngestionReport:
    lengths = [len(s) for s in streams]
    return IngestionReport(
        streams_loaded=len(streams),
        assignments_loaded=sum(lengths),
        rows_rejected=sum(rejected.values()),
        reject_reasons=dict(sorted(rejected.items())),
        length_min=min(lengths) if lengths else 0,
        length_max=max(lengths) if lengths else 0,
        length_mean=float(mean(lengths)) if lengths else 0.0,
        length_median=float(median(lengths)) if lengths else 0.0,
    )


@contextmanager
def _open_utf8(path: str | Path):
    """Open ``path`` as UTF-8 text; bytes that do not decode raise an
    IngestionError naming the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path} is not UTF-8 text: {exc.reason}") from None


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector.  The rows of a log build only
    acyclic containers, which it would walk again and again, freeing none;
    with a user column that is one tuple a row."""
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
    make_parse,
    rejected: Counter[str],
) -> tuple[dict[str, int], dict[str, dict[int, object]]]:
    """Read a delimited file with a header into its columns and
    ``{resource_id: {seq: value}}``.

    ``make_parse(columns)`` returns the row parser: it maps a row's fields
    to the value stored for it, or None to reject the row as "empty tag".
    Rows are rejected and counted, in this order of precedence, as "blank
    line", "field count mismatch", "empty resource_id", "empty tag",
    "invalid seq" and "duplicate seq"; the first row wins a (resource, seq)
    pair, and only a row accepted so far claims its seq.  A seq is valid if
    it is ASCII digits with a value of at least 1.
    """
    by_resource: dict[str, dict[int, object]] = {}
    with _open_utf8(path) as handle, _collector_paused():
        header = handle.readline()
        if not header:
            raise IngestionError("file is empty")
        columns = _header_columns(header, delimiter, required)
        width = len(columns)
        resource_column = columns["resource_id"]
        seq_column = columns["seq"]
        parse = make_parse(columns)
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
            value = parse(parts)
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
    return columns, by_resource


def _in_seq_order(seqs: dict[int, object]) -> list:
    return [seqs[seq] for seq in sorted(seqs)]


def ingest_tag_log(
    path: str | Path, delimiter: str = "\t"
) -> tuple[tuple[TagStream, ...], IngestionReport]:
    """Load a tag log into per-resource streams plus a load report.

    The first matching row wins on duplicate (resource, seq) pairs; rows
    with an empty tag after normalization, a seq that is not a positive
    integer in ASCII digits, or the wrong field count are rejected and
    counted.  A file yielding zero accepted
    rows is an error.  Each distinct tag or user id is one string object.
    """
    interned: dict[str, str] = {}

    def make_parse(columns):
        tag_column = columns["tag"]
        user_column = columns.get("user_id")

        def parse(parts):
            tag = normalize_tag(parts[tag_column])
            if not tag:
                return None
            tag = interned.setdefault(tag, tag)
            if user_column is None:
                return tag
            user = parts[user_column].strip()
            return tag, interned.setdefault(user, user) if user else None

        return parse

    rejected: Counter[str] = Counter()
    columns, by_resource = _read_rows(
        path, delimiter, ("resource_id", "tag", "seq"), make_parse, rejected
    )
    streams = []
    for resource_id in sorted(by_resource):
        values = _in_seq_order(by_resource[resource_id])
        if "user_id" in columns:
            tags, users = zip(*values)
            streams.append(TagStream(resource_id, tags, users))
        else:
            streams.append(TagStream(resource_id, values))
    streams = tuple(streams)
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
) -> tuple[tuple[TagStream, ...], IngestionReport]:
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

    def make_parse(columns):
        text_column = columns["text"]

        def parse(parts):
            return [
                interned.setdefault(token, token)
                for token in _tokens(parts[text_column], drop)
            ]

        return parse

    rejected: Counter[str] = Counter()
    _, by_resource = _read_rows(
        path, delimiter, ("resource_id", "seq", "text"), make_parse, rejected
    )
    streams = []
    for resource_id in sorted(by_resource):
        tags = [token for tokens in _in_seq_order(by_resource[resource_id]) for token in tokens]
        if tags:
            streams.append(TagStream(resource_id, tags))
    streams = tuple(streams)
    return streams, _report(streams, rejected)


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


def write_tag_log(
    streams: Iterable[TagStream], path: str | Path, delimiter: str = "\t"
) -> None:
    """Serialize streams in the ingestion format with canonical row order
    (resource_id, then seq), numbering each stream's rows from 1; the
    user_id column appears only if used.

    A resource id, tag or user id holding the delimiter, a newline or a
    carriage return would not read back, so it raises ParameterError
    before the file is opened.
    """
    streams = sorted(streams, key=lambda s: s.resource_id)
    for stream in streams:
        for name, values in (
            ("resource id", (stream.resource_id,)),
            ("tag", dict.fromkeys(stream.tags)),
            ("user id", dict.fromkeys(stream.users or ())),
        ):
            for value in values:  # each distinct string once, first seen first
                if value is not None and (
                    delimiter in value or "\n" in value or "\r" in value
                ):
                    raise ParameterError(
                        f"resource {stream.resource_id!r}: {name} {value!r} holds "
                        f"the delimiter or a line break and cannot be written"
                    )
    with_users = any(s.users is not None and any(s.users) for s in streams)
    columns = ["resource_id", "tag", "seq"] + (["user_id"] if with_users else [])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(delimiter.join(columns) + "\n")
        for stream in streams:
            prefix = stream.resource_id + delimiter
            if with_users:
                users = stream.users or (None,) * len(stream)
                handle.writelines(
                    f"{prefix}{tag}{delimiter}{seq}{delimiter}{user or ''}\n"
                    for seq, (tag, user) in enumerate(zip(stream.tags, users), start=1)
                )
            else:
                handle.writelines(
                    f"{prefix}{tag}{delimiter}{seq}\n"
                    for seq, tag in enumerate(stream.tags, start=1)
                )
