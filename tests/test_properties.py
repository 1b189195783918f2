"""Properties of the contracts later changes must keep, over drawn inputs.

The examples are derandomized and their number fixed, so every run draws
the same inputs.
"""

import contextlib
import io
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tagstab import (
    ParameterError,
    RboParams,
    TagStream,
    ingest_tag_log,
    kl_topk_trajectory,
    rbo,
    rbo_trajectory,
    snapshot,
    stability_surface,
    window_rbo,
    write_tag_log,
)
from tagstab.cli import main
from test_engine import VARIANTS, dense_rbo, events_rbo, events_trajectory, reference_kl

CLEAN_IDS = ("r1", "r2", "R3", "r 4", "ü")
CLEAN_TAGS = ("a", "b", "c d", "ü", "1")
# Fields a log may not hold as written: each delimiter, both line breaks,
# surrounding spaces, upper case and the empty string.
ODD = ("", " ", " x", "x ", "X", "x\ty", "x,y", "x\ny", "x\ry", "x\r\ny")


@st.composite
def stream_sets(draw):
    """Up to four streams over clean fields, with up to two defects: an odd
    resource id, an odd tag, a repeated resource id or a stream without
    tags."""
    ids = draw(st.lists(st.sampled_from(CLEAN_IDS), min_size=1, max_size=4, unique=True))
    columns = [draw(st.lists(st.sampled_from(CLEAN_TAGS), min_size=1, max_size=8)) for _ in ids]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(ids) - 1))
        kind = draw(st.sampled_from(("resource id", "tag", "repeat", "no tags")))
        if kind == "resource id":
            ids[i] = draw(st.sampled_from(ODD))
        elif kind == "repeat":
            ids[i] = draw(st.sampled_from(ids))
        elif kind == "no tags":
            columns[i] = []
        elif columns[i]:
            # A TagStream holds no empty tag, so that odd value is left out.
            columns[i][draw(st.integers(0, len(columns[i]) - 1))] = draw(st.sampled_from(ODD[1:]))
    return [TagStream(resource_id, tags) for resource_id, tags in zip(ids, columns)]


def reads_back(streams, delimiter):
    """Whether every stream and field would read back as written."""
    ids = [s.resource_id for s in streams]
    tags = [tag for s in streams for tag in s.tags]
    return (
        len(set(ids)) == len(ids)
        and all(s.tags for s in streams)
        and all(r and r == r.strip() for r in ids)
        and all(t == t.strip().lower() for t in tags)
        and not any(c in field for field in ids + tags for c in (delimiter, "\n", "\r"))
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(streams=stream_sets(), delimiter=st.sampled_from(("\t", ",")))
def test_written_log_reads_back_or_is_refused_untouched(tmp_path_factory, streams, delimiter):
    root = tmp_path_factory.mktemp("round-trip")
    kept, absent = root / "kept.log", root / "absent.log"
    kept.write_bytes(b"left as it was\n")
    if not reads_back(streams, delimiter):
        for path in (kept, absent):
            with pytest.raises(ParameterError):
                write_tag_log(streams, path, delimiter)
        assert kept.read_bytes() == b"left as it was\n"
        assert not absent.exists()
        return
    write_tag_log(streams, kept, delimiter)
    reread, report = ingest_tag_log(kept, delimiter)
    assert reread == tuple(sorted(streams, key=lambda s: s.resource_id))
    assert report["rows_rejected"] == 0


def naive_tag_log(streams, delimiter):
    """The bytes of a tag log written one formatted row at a time."""
    rows = [delimiter.join(("resource_id", "tag", "seq")) + "\n"]
    for stream in sorted(streams, key=lambda s: s.resource_id):
        for seq, tag in enumerate(stream.tags, start=1):
            rows.append(f"{stream.resource_id}{delimiter}{tag}{delimiter}{seq}\n")
    return "".join(rows).encode("utf-8")


@st.composite
def writable_corpora(draw):
    """Streams of up to 30 clean tags under distinct clean resource ids,
    tags shared across streams."""
    ids = draw(st.lists(st.sampled_from(CLEAN_IDS), min_size=1, max_size=5, unique=True))
    return [
        TagStream(resource_id, draw(st.lists(st.sampled_from(CLEAN_TAGS), min_size=1, max_size=30)))
        for resource_id in ids
    ]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    streams=st.one_of(writable_corpora(), stream_sets()),
    delimiter=st.sampled_from(("\t", ",")),
)
def test_written_log_is_the_naive_writers_bytes(tmp_path_factory, streams, delimiter):
    path = tmp_path_factory.mktemp("naive") / "log"
    if not reads_back(streams, delimiter):
        with pytest.raises(ParameterError):
            write_tag_log(streams, path, delimiter)
        return
    write_tag_log(streams, path, delimiter)
    assert path.read_bytes() == naive_tag_log(streams, delimiter)


# Every command that reads one log, with windows small enough that a
# drawn log can pass as well as fail.
LOG_COMMANDS = (
    ("validate",),
    ("rbo", "--window", "2"),
    ("kl", "--m", "2", "--k", "2"),
    ("proportions", "--window", "2"),
    ("powerlaw", "--per-resource"),
    ("powerlaw", "--pooled"),
    ("ccdf",),
    ("surface", "--window", "2", "--t-grid", "4:8:4", "--k-grid", "0:1:0.5"),
)
HEADERS = (
    b"resource_id\ttag\tseq", b"resource_id\tuser_id\ttag\tseq", b"\xef\xbb\xbfresource_id\ttag\tseq",
    b"seq\ttag\tresource_id", b"resource_id\ttag\ttag", b"resource_id\ttag", b"",
)
FIELDS = (b"r1", b"r2", b"a", b"b", b"", b" ", b"A", b"\xc3\xbc", b"\xff", b"\xef\xbb\xbf", b"0", b"-1",
          b"\xd9\xa3", b"1e3", b"\x00")


@st.composite
def near_logs(draw):
    """A header and rows near the log format: mostly good rows over two
    resources, with odd fields, extra or missing fields and mixed line
    endings among them."""
    lines = [draw(st.one_of(st.just(HEADERS[0]), st.sampled_from(HEADERS)))]
    for _ in range(draw(st.integers(0, 30))):
        row = [draw(st.sampled_from((b"r1", b"r2"))), draw(st.sampled_from((b"a", b"b", b"c"))),
               str(draw(st.integers(1, 40))).encode()]
        for _ in range(draw(st.integers(0, 1))):
            kind = draw(st.sampled_from(("field", "extra", "missing")))
            i = draw(st.integers(0, len(row) - 1))
            if kind == "field":
                row[i] = draw(st.sampled_from(FIELDS))
            elif kind == "extra":
                row.insert(i, draw(st.sampled_from(FIELDS)))
            else:
                del row[i]
        lines.append(b"\t".join(row))
    ending = draw(st.sampled_from((b"\n", b"\r\n", b"\r")))
    return ending.join(lines) + draw(st.sampled_from((ending, b"")))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(log=st.one_of(st.binary(max_size=200), near_logs()))
def test_any_log_exits_zero_or_two_and_two_writes_nothing(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("exit-codes") / "log.tsv"
    path.write_bytes(log)
    for command, *options in LOG_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *options])
        assert code in (0, 2), (command, err.getvalue())
        if code == 2:
            assert out.getvalue() == "", command


# The checkpoint engine against its references, on columns drawn over a
# 7-tag alphabet: small alphabets give the long tied groups that generator
# corpora rarely reach.  Over 500 tags nearly every tag is seen once.
ALPHABET = "abcdefg"
WIDE_ALPHABET = tuple(f"t{i}" for i in range(500))
RBO_PS = (0.0, 0.3, 0.9, 0.999)


@st.composite
def windowed_columns(draw, count=1, alphabet=ALPHABET):
    """A window of 1 to 7 and ``count`` tag columns of at most 60 tags, the
    first at least two windows long."""
    window = draw(st.integers(1, 7))
    first = draw(st.lists(st.sampled_from(alphabet), min_size=2 * window, max_size=60))
    others = [draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=60))
              for _ in range(count - 1)]
    return window, [first, *others]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(drawn=windowed_columns(), variant=st.sampled_from(VARIANTS), p=st.sampled_from(RBO_PS))
def test_rbo_trajectory_is_the_dense_rbo_at_every_checkpoint(drawn, variant, p):
    window, (tags,) = drawn
    stream = TagStream("r", tags)
    params = RboParams(p, variant)
    points = rbo_trajectory(stream, window, params)
    checkpoints = range(2 * window, len(tags) + 1, window)
    assert [t for t, _ in points] == list(checkpoints)
    for t, value in points:
        expected = dense_rbo(snapshot(stream, t - window), snapshot(stream, t), params)
        assert abs(value - expected) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(drawn=windowed_columns(), top_k=st.integers(1, 9))
def test_kl_trajectory_is_the_counter_reference(drawn, top_k):
    window, (tags,) = drawn
    stream = TagStream("r", tags)
    assert kl_topk_trajectory(stream, window, top_k) == reference_kl(stream, window, top_k)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    drawn=windowed_columns(count=3),
    variant=st.sampled_from(VARIANTS),
    p=st.sampled_from(RBO_PS),
    data=st.data(),
)
def test_surface_counts_window_rbo_per_stream(drawn, variant, p, data):
    window, columns = drawn
    streams = [TagStream(f"r{i}", tags) for i, tags in enumerate(columns)]
    checkpoints = range(2 * window, len(columns[0]) + 1, window)
    t_grid = sorted(data.draw(st.sets(st.sampled_from(checkpoints), min_size=1, max_size=4)))
    per_t = {t: [window_rbo(s, t, p, window, variant) for s in streams if len(s) >= t]
             for t in t_grid}
    # Thresholds drawn from the values themselves test the strict comparison.
    # (The plain variant can exceed 1 on tied rankings; k cannot.)
    values = {v for vs in per_t.values() for v in vs if 0.0 <= v <= 1.0}
    thresholds = st.sampled_from(sorted({0.0, 1.0, *values}))
    k_grid = sorted(data.draw(st.sets(st.one_of(thresholds, st.floats(0.0, 1.0)),
                                      min_size=1, max_size=6)))
    surface = stability_surface(streams, t_grid, k_grid, p, window, variant)
    for t, row in zip(t_grid, surface.values):
        values = per_t[t]
        assert row == tuple(sum(v > k for v in values) / len(values) for k in k_grid)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    drawn=st.one_of(windowed_columns(count=3), windowed_columns(count=3, alphabet=WIDE_ALPHABET)),
    variant=st.sampled_from(VARIANTS),
    p=st.sampled_from(RBO_PS),
    data=st.data(),
)
def test_merge_walk_is_the_step_events_sum_bit_for_bit(drawn, variant, p, data):
    window, columns = drawn
    params = RboParams(p, variant)
    streams = [TagStream(f"r{i}", tags) for i, tags in enumerate(columns)]
    expected = {s.resource_id: dict(events_trajectory(s, window, params)) for s in streams}
    points = rbo_trajectory(streams[0], window, params)
    assert points == tuple(expected["r0"].items())
    t, value = data.draw(st.sampled_from(points))
    assert window_rbo(streams[0], t, p, window, variant) == value
    t_grid = sorted(data.draw(st.sets(st.sampled_from(list(expected["r0"])), min_size=1, max_size=4)))
    per_t = {t: [expected[s.resource_id][t] for s in streams if len(s) >= t] for t in t_grid}
    values = sorted({v for vs in per_t.values() for v in vs if 0.0 <= v <= 1.0})
    k_grid = sorted(data.draw(st.sets(st.sampled_from([0.0, *values, 1.0]), min_size=1, max_size=4)))
    surface = stability_surface(streams, t_grid, k_grid, p, window, variant)
    assert surface.values == tuple(
        tuple(sum(v > k for v in per_t[t]) / len(per_t[t]) for k in k_grid) for t in t_grid
    )
    # Rankings that are not one stream's prefixes: tags come and go.
    counts1, counts2 = Counter(columns[1]), Counter(columns[2])
    assert rbo(counts1, counts2, params) == events_rbo(counts1, counts2, params)
    assert rbo(counts2, counts1, params) == events_rbo(counts2, counts1, params)
