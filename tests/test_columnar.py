"""Columnar tag streams: ingest against a direct reference parser, the
write/ingest round trip over every generator model, and the memory a
loaded corpus holds.

The reference keeps every accepted row in one flat ``{(resource, seq):
(tag, user)}`` dict and re-checks each reject rule in order, so it shares no
code with ``ingest_tag_log``'s per-resource reader.
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
    TagAssignment,
    TagStream,
    generate_corpus,
    ingest_tag_log,
    write_tag_log,
)

MODELS = ("random_uniform", "imitation", "background", "mixture")


def reference_ingest(path):
    """{resource: [(tag, user), ...] in seq order} and the reject counts."""
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
            rows[resource, seq] = (tag, fields.get("user_id", "").strip() or None)
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
            rows = expected[stream.resource_id]
            assert stream.tags == tuple(tag for tag, _ in rows)
            assert (stream.users or (None,) * len(stream)) == tuple(u for _, u in rows)
        lengths = [len(rows) for rows in expected.values()]
        assert report.to_dict() == {
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
        assert report.reject_reasons == {
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
        assert report.reject_reasons == {"empty tag": 2}

    def test_each_distinct_string_is_one_object(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text(
            "resource_id\ttag\tseq\tuser_id\n"
            "r1\tA\t1\tu1\nr2\t a\t1\tu1\nr1\ta \t2\tu1\n",
            encoding="utf-8",
        )
        streams, _ = ingest_tag_log(path)
        tags = [tag for s in streams for tag in s.tags]
        users = [user for s in streams for user in s.users]
        assert len({id(tag) for tag in tags}) == 1
        assert len({id(user) for user in users}) == 1


def with_users(stream):
    users = [None if seq % 3 == 0 else f"u{seq % 4}" for seq in range(1, len(stream) + 1)]
    return TagStream.from_tags(stream.resource_id, stream.tags, users)


@pytest.fixture(scope="module", params=[(m, u) for m in MODELS for u in (False, True)],
                ids=lambda p: f"{p[0]}-{'users' if p[1] else 'no-users'}")
def corpus(request):
    model, users = request.param
    config = GeneratorConfig(
        model=model, length=60, n_streams=4, seed=3, imitation_rate=0.6,
        vocabulary_size=50, zipf_exponent=1.0,
    )
    streams = generate_corpus(config)
    return tuple(with_users(s) for s in streams) if users else streams


class TestColumns:
    def test_write_then_ingest_round_trips(self, corpus, tmp_path):
        first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
        write_tag_log(corpus, first)
        streams, report = ingest_tag_log(first)
        assert streams == corpus
        assert report.rows_rejected == 0
        write_tag_log(streams, second)
        assert first.read_bytes() == second.read_bytes()

    def test_assignments_rebuild_the_stream(self, corpus):
        for stream in corpus:
            assignments = stream.assignments
            assert [a.seq for a in assignments] == list(range(1, len(stream) + 1))
            assert TagStream(stream.resource_id, assignments) == stream

    def test_users_none_when_nobody_is_named(self):
        a = TagStream.from_tags("r", ["x", "y"], [None, None])
        b = TagStream("r", (TagAssignment("r", "x", 1), TagAssignment("r", "y", 2)))
        assert a.users is None
        assert a == b == TagStream.from_tags("r", ["x", "y"])
        assert a != TagStream.from_tags("r", ["x", "y"], [None, "u"])

    def test_from_tags_checks(self):
        with pytest.raises(ParameterError):
            TagStream.from_tags("r", ["x", ""])
        with pytest.raises(ParameterError):
            TagStream.from_tags("r", ["x", "y"], ["u"])


def test_loaded_corpus_holds_no_object_per_assignment(tmp_path):
    # 250 mixture streams of 100 with a user column: 25 000 assignments.
    # One object per assignment costs about 200 B each; the columns cost a
    # pointer per tag and per user plus the distinct strings.
    config = GeneratorConfig(
        model="mixture", length=100, n_streams=250, seed=5, imitation_rate=0.7,
        vocabulary_size=10_000, zipf_exponent=1.0,
    )
    path = tmp_path / "log.tsv"
    write_tag_log([with_users(s) for s in generate_corpus(config)], path)
    ingest_tag_log(path)  # first-call caches stay out of the measurement
    gc.collect()
    tracemalloc.start()
    try:
        streams, report = ingest_tag_log(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.assignments_loaded == 25_000
    assert streams[0].users is not None
    assert held / report.assignments_loaded <= 48
