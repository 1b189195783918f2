"""Columnar tag streams: ingest against a direct reference parser, the
write/ingest round trip over every generator model, and the memory a
loaded corpus holds.

The reference keeps every accepted row in one flat ``{(resource, seq): tag}``
dict and re-checks each reject rule in order, so it shares no code with
``ingest_tag_log``'s per-resource reader.
"""

import gc
import statistics
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tagstab import (
    GeneratorConfig,
    IngestionError,
    ParameterError,
    TagStream,
    generate_corpus,
    ingest_tag_log,
    write_tag_log,
)

MODELS = ("random_uniform", "imitation", "background", "mixture")


def reference_ingest(path):
    """{resource: [tag, ...] in seq order} and the reject counts."""
    header, *lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    names = header.split("\t")
    rows, rejected = {}, Counter()
    for line in lines:
        fields = dict(zip(names, line.split("\t")))
        resource = fields.get("resource_id", "").strip()
        tag = fields.get("tag", "").strip().lower()
        seq = fields.get("seq", "")
        seq = int(seq) if seq.isdigit() and seq.isascii() and int(seq) >= 1 else None
        if not line:
            rejected["blank line"] += 1
        elif len(line.split("\t")) != len(names):
            rejected["field count mismatch"] += 1
        elif not resource:
            rejected["empty resource_id"] += 1
        elif not tag:
            rejected["empty tag"] += 1
        elif seq is None:
            rejected["invalid seq"] += 1
        elif (resource, seq) in rows:
            rejected["duplicate seq"] += 1
        else:
            rows[resource, seq] = tag
    streams = {}
    for resource, seq in sorted(rows):
        streams.setdefault(resource, []).append(rows[resource, seq])
    return streams, rejected


RESOURCES = ("r1", "r2", " r2 ", "R1", "", "  ")
TAGS = ("a", "B", " b ", "Ça", "x y", "", " ")
SEQS = ("1", "2", "3", " 2", "03", "+3", "-1", "x", "", "1.5")
USERS = ("", "u1", " u2 ", "U1")


@st.composite
def tag_logs(draw):
    columns = ["resource_id", "tag", "seq"] + (["user_id"] if draw(st.booleans()) else [])
    columns = draw(st.permutations(columns))
    pools = {"resource_id": RESOURCES, "tag": TAGS, "seq": SEQS, "user_id": USERS}
    lines = ["\t".join(columns) + "\n"]
    for _ in range(draw(st.integers(0, 40))):
        fields = [draw(st.sampled_from(pools[name])) for name in columns]
        shape = draw(st.sampled_from(("row", "row", "row", "row", "blank", "extra", "short")))
        if shape == "blank":
            fields = []
        elif shape == "extra":
            fields.append("extra")
        elif shape == "short":
            fields.pop()
        lines.append("\t".join(fields) + draw(st.sampled_from(("\n", "\r\n"))))
    return "".join(lines)


class TestIngestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(text=tag_logs())
    def test_streams_and_report_match(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("log") / "log.tsv"
        path.write_bytes(text.encode("utf-8"))
        expected, rejected = reference_ingest(path)
        if not expected:
            with pytest.raises(IngestionError):
                ingest_tag_log(path)
            return
        streams, report = ingest_tag_log(path)
        assert [s.resource_id for s in streams] == sorted(expected)
        for stream in streams:
            assert stream.tags == tuple(expected[stream.resource_id])
        lengths = [len(rows) for rows in expected.values()]
        assert report == {
            "streams_loaded": len(expected),
            "assignments_loaded": sum(lengths),
            "rows_rejected": sum(rejected.values()),
            "reject_reasons": dict(sorted(rejected.items())),
            "stream_lengths": {
                "min": min(lengths),
                "max": max(lengths),
                "mean": statistics.mean(lengths),
                "median": float(statistics.median(lengths)),
            },
        }

    def test_every_reject_kind_is_counted(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text(
            "seq\tresource_id\ttag\n"
            "1\tr1\tkept\r\n"
            "\n"
            "2\tr1\n"
            "3\t  \tno-resource\n"
            "4\tr1\t  \n"
            "x\tr1\tbad-seq\n"
            "1\tr1\tsecond\n",
            encoding="utf-8",
        )
        streams, report = ingest_tag_log(path)
        assert streams[0].tags == ("kept",)
        assert report["reject_reasons"] == {
            "blank line": 1,
            "duplicate seq": 1,
            "empty resource_id": 1,
            "empty tag": 1,
            "field count mismatch": 1,
            "invalid seq": 1,
        }

    def test_empty_tag_row_claims_no_seq(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text(
            "resource_id\ttag\tseq\nr1\t \t1\nr1\tlater\t1\nr1\t \tx\n",
            encoding="utf-8",
        )
        streams, report = ingest_tag_log(path)
        assert streams[0].tags == ("later",)
        assert report["reject_reasons"] == {"empty tag": 2}

    def test_each_distinct_string_is_one_object(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text(
            "resource_id\ttag\tseq\tuser_id\n"
            "r1\tA\t1\tu1\nr2\t a\t1\tu1\nr1\ta \t2\tu1\n",
            encoding="utf-8",
        )
        streams, _ = ingest_tag_log(path)
        tags = [tag for s in streams for tag in s.tags]
        assert len({id(tag) for tag in tags}) == 1


def add_user_column(path):
    """Put a user_id column in front of the tag log at ``path``; every
    third row names no user."""
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(
        "user_id\t" + header
        + "".join(f"{'' if i % 3 == 0 else f'u{i % 4}'}\t{row}" for i, row in enumerate(rows)),
        encoding="utf-8",
    )


@pytest.fixture(scope="module", params=[(m, u) for m in MODELS for u in (False, True)],
                ids=lambda p: f"{p[0]}-{'users' if p[1] else 'no-users'}")
def corpus(request):
    """A generated corpus, and whether its log carries a user_id column."""
    model, users = request.param
    config = GeneratorConfig(
        model=model, length=60, n_streams=4, seed=3, imitation_rate=0.6,
        vocabulary_size=50, zipf_exponent=1.0,
    )
    return generate_corpus(config), users


class TestColumns:
    def test_write_then_ingest_round_trips(self, corpus, tmp_path):
        expected, users = corpus
        first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
        write_tag_log(expected, first)
        written = first.read_bytes()
        if users:
            add_user_column(first)
        streams, report = ingest_tag_log(first)
        assert streams == expected
        assert report["rows_rejected"] == 0
        write_tag_log(streams, second)
        assert second.read_bytes() == written

    def test_constructor_checks(self):
        with pytest.raises(ParameterError):
            TagStream("r", ["x", ""])


def test_loaded_corpus_holds_no_object_per_assignment(tmp_path):
    # 250 mixture streams of 100 with a user column: 25 000 assignments.
    # One object per assignment costs about 200 B each; the tag column
    # costs a pointer per tag plus the distinct tags, and the user ids are
    # neither held nor built on the way.
    config = GeneratorConfig(
        model="mixture", length=100, n_streams=250, seed=5, imitation_rate=0.7,
        vocabulary_size=10_000, zipf_exponent=1.0,
    )
    path = tmp_path / "log.tsv"
    write_tag_log(generate_corpus(config), path)
    add_user_column(path)
    ingest_tag_log(path)  # first-call caches stay out of the measurement
    gc.collect()
    tracemalloc.start()
    try:
        streams, report = ingest_tag_log(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["assignments_loaded"] == 25_000
    assert held / report["assignments_loaded"] <= 24
    assert peak / report["assignments_loaded"] <= 96
