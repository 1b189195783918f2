import gc
import json

import pytest

from tagstab import (
    GeneratorConfig,
    IngestionError,
    ParameterError,
    TagStream,
    generate_corpus,
    ingest_tag_log,
    ingest_text_corpus,
    read_background_file,
    tokenize,
    write_tag_log,
)
from tagstab.cli import main


# One row of each reject reason a text corpus can have, around a tokenless
# row that claims seq 1 and a kept row.
BAD_TEXT_ROWS = (
    "resource_id\tseq\ttext\r\n"
    "r1\t1\t...\r\n"
    "r1\t1\tshadowed\n"
    "\n"
    "r1\t2\tok\textra\n"
    " \t3\tno resource\n"
    "r1\tx\tbad seq\n"
    "r1\t4\tKept kept\n"
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestTagLog:
    def test_rows_are_sorted_by_seq_and_reindexed(self, tmp_path):
        log = write(
            tmp_path / "log.tsv",
            "resource_id\ttag\tseq\n"
            "r1\tmiddle\t5\n"
            "r1\tfirst\t2\n"
            "r1\tlast\t9\n",
        )
        streams, report = ingest_tag_log(log)
        (stream,) = streams
        assert stream.tags == ("first", "middle", "last")
        assert report["streams_loaded"] == 1
        assert report["assignments_loaded"] == 3

    def test_duplicate_seq_keeps_first(self, tmp_path):
        log = write(
            tmp_path / "log.tsv",
            "resource_id\ttag\tseq\nr1\tkept\t1\nr1\tdropped\t1\n",
        )
        streams, report = ingest_tag_log(log)
        assert streams[0].tags == ("kept",)
        assert report["reject_reasons"] == {"duplicate seq": 1}

    def test_tags_are_normalized(self, tmp_path):
        log = write(tmp_path / "log.tsv", "resource_id\ttag\tseq\nr1\t  MiXeD \t1\n")
        streams, _ = ingest_tag_log(log)
        assert streams[0].tags == ("mixed",)

    def test_bad_rows_are_counted(self, tmp_path):
        log = write(
            tmp_path / "log.tsv",
            "resource_id\ttag\tseq\n"
            "r1\tok\t1\n"
            "r1\t   \t2\n"
            "r1\tbad-seq\tx\n"
            "r1\ttoo\t3\tmany\n"
            "\n",
        )
        streams, report = ingest_tag_log(log)
        assert streams[0].tags == ("ok",)
        assert report["rows_rejected"] == 4
        assert report["reject_reasons"] == {
            "blank line": 1,
            "empty tag": 1,
            "field count mismatch": 1,
            "invalid seq": 1,
        }

    def test_user_column_is_ignored(self, tmp_path):
        # A row's user id, blank or not, neither rejects it nor shows in the
        # streams; the column still counts toward the field count.
        rows = [("r1", "a", "2", "u9"), ("r1", "b", "1", ""), ("r2", "a", "1", " U1 "),
                ("r2", " ", "2", "u9"), ("r2", "c", "1", "u2"), ("", "d", "1", "u9")]
        with_users = write(
            tmp_path / "users.tsv",
            "user_id\tresource_id\ttag\tseq\n"
            + "".join(f"{u}\t{r}\t{t}\t{s}\n" for r, t, s, u in rows)
            + "u9\tr1\tc\t3\textra\n",
        )
        without = write(
            tmp_path / "plain.tsv",
            "resource_id\ttag\tseq\n"
            + "".join(f"{r}\t{t}\t{s}\n" for r, t, s, _ in rows)
            + "r1\tc\t3\textra\n",
        )
        streams, report = ingest_tag_log(with_users)
        assert (streams, report) == ingest_tag_log(without)
        assert [s.tags for s in streams] == [("b", "a"), ("a",)]
        assert report["reject_reasons"] == {
            "duplicate seq": 1, "empty resource_id": 1, "empty tag": 1, "field count mismatch": 1,
        }

    @pytest.mark.parametrize("char", ["\t", "\n", "\r"], ids=["tab", "newline", "return"])
    @pytest.mark.parametrize("field", ["resource id", "tag"])
    def test_unwritable_field_is_refused_before_opening(self, tmp_path, field, char):
        bad = f"x{char}y"
        columns = {"resource id": "r2", "tag": "b"}
        columns[field] = bad
        streams = (
            TagStream("r1", ["a"]),
            TagStream(columns["resource id"], ["c", columns["tag"]]),
        )
        kept = write(tmp_path / "kept.tsv", "left as it was\n")
        absent = tmp_path / "absent.tsv"
        for path in (kept, absent):
            with pytest.raises(ParameterError) as caught:
                write_tag_log(streams, path)
            message = str(caught.value)
            assert message.startswith(f"resource {columns['resource id']!r}: {field} {bad!r}")
        assert kept.read_text(encoding="utf-8") == "left as it was\n"
        assert not absent.exists()

    @pytest.mark.parametrize(("field", "bad", "problem"), [
        ("resource id", "", "is empty"),
        ("resource id", " r2", "would read back as 'r2'"),
        ("resource id", "r2 ", "would read back as 'r2'"),
        ("tag", "B", "would read back as 'b'"),
        ("tag", " b", "would read back as 'b'"),
        ("tag", "  ", "would read back as ''"),
    ])
    def test_field_that_would_read_back_changed_is_refused(self, tmp_path, field, bad, problem):
        columns = {"resource id": "r2", "tag": "b"}
        columns[field] = bad
        streams = (
            TagStream("r1", ["a"]),
            TagStream(columns["resource id"], ["c", columns["tag"]]),
        )
        kept = write(tmp_path / "kept.tsv", "left as it was\n")
        absent = tmp_path / "absent.tsv"
        for path in (kept, absent):
            with pytest.raises(ParameterError) as caught:
                write_tag_log(streams, path)
            assert str(caught.value) == f"resource {columns['resource id']!r}: {field} {bad!r} {problem}"
        assert kept.read_text(encoding="utf-8") == "left as it was\n"
        assert not absent.exists()

    @pytest.mark.parametrize(("streams", "problem"), [
        ((TagStream("r", ["a", "c"]), TagStream("r", ["b"])), "resource 'r' repeats"),
        ((TagStream("a", ["x"]), TagStream("b", [])), "resource 'b' has no tags"),
    ], ids=["repeated resource", "stream without tags"])
    def test_stream_that_would_not_read_back_is_refused(self, tmp_path, streams, problem):
        kept = write(tmp_path / "kept.tsv", "left as it was\n")
        absent = tmp_path / "absent.tsv"
        for path in (kept, absent):
            with pytest.raises(ParameterError) as caught:
                write_tag_log(streams, path)
            assert str(caught.value) == problem
        assert kept.read_text(encoding="utf-8") == "left as it was\n"
        assert not absent.exists()

    def test_first_field_that_would_change_is_named(self, tmp_path):
        # Resource id, then tags; the line-break check keeps its own message
        # when both apply.
        with pytest.raises(ParameterError, match=r"^resource ' R ': resource id ' R ' "):
            write_tag_log((TagStream(" R ", ["A", " b"]),), tmp_path / "log.tsv")
        with pytest.raises(ParameterError, match=r"^resource 'r': tag 'A' "):
            write_tag_log((TagStream("r", ["A", " b"]),), tmp_path / "log.tsv")
        with pytest.raises(ParameterError, match=r"tag 'A\\n' holds the delimiter or a line break"):
            write_tag_log((TagStream("r", ["A\n"]),), tmp_path / "log.tsv")
        assert not (tmp_path / "log.tsv").exists()

    def test_bad_tag_in_several_streams_names_the_first_stream(self, tmp_path):
        # Each tag is checked once a call; the error still names the first
        # stream in resource order and the first bad tag seen in it.
        streams = (
            TagStream("r3", ["Z", "b"]),
            TagStream("r2", ["a", "c", "b", "Q", "B"]),
            TagStream("r1", ["a", "b"]),
            TagStream("r4", ["B"]),
        )
        with pytest.raises(ParameterError) as caught:
            write_tag_log(streams, tmp_path / "log.tsv")
        assert str(caught.value) == "resource 'r2': tag 'Q' would read back as 'q'"
        with pytest.raises(ParameterError) as caught:
            write_tag_log(streams[2:], tmp_path / "log.tsv")
        assert str(caught.value) == "resource 'r4': tag 'B' would read back as 'b'"
        assert not (tmp_path / "log.tsv").exists()

    def test_refused_characters_follow_the_delimiter(self, tmp_path):
        streams = (TagStream("r1", ["a\tb", "c"]),)
        with pytest.raises(ParameterError, match=r"tag 'a,b'"):
            write_tag_log((TagStream("r1", ["a,b"]),), tmp_path / "log.csv", delimiter=",")
        write_tag_log(streams, tmp_path / "log.csv", delimiter=",")
        reread, report = ingest_tag_log(tmp_path / "log.csv", delimiter=",")
        assert reread == streams
        assert report["rows_rejected"] == 0

    def test_streams_sorted_by_resource(self, tmp_path):
        log = write(
            tmp_path / "log.tsv",
            "resource_id\ttag\tseq\nzz\ta\t1\naa\tb\t1\n",
        )
        streams, _ = ingest_tag_log(log)
        assert [s.resource_id for s in streams] == ["aa", "zz"]

    def test_missing_column(self, tmp_path):
        log = write(tmp_path / "log.tsv", "resource_id\ttag\nr1\ta\n")
        with pytest.raises(IngestionError, match="seq"):
            ingest_tag_log(log)

    def test_repeated_header_column(self, tmp_path):
        log = write(tmp_path / "log.tsv", "resource_id\ttag\tseq\ttag\nr1\ta\t1\tb\n")
        with pytest.raises(IngestionError, match="header repeats column 'tag'"):
            ingest_tag_log(log)

    def test_no_accepted_rows(self, tmp_path):
        log = write(tmp_path / "log.tsv", "resource_id\ttag\tseq\nr1\t\t1\n")
        with pytest.raises(IngestionError):
            ingest_tag_log(log)

    def test_empty_file(self, tmp_path):
        log = write(tmp_path / "log.tsv", "")
        with pytest.raises(IngestionError):
            ingest_tag_log(log)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest_tag_log(tmp_path / "absent.tsv")

    def test_raw_forms_of_one_tag(self, tmp_path):
        # A raw field that is already a known tag is looked up, not
        # normalized; the others still are.
        log = write(
            tmp_path / "log.tsv",
            "resource_id\ttag\tseq\n"
            "r1\tTag\t1\nr1\t tag\t2\nr1\ttag\t3\nr1\t \t4\n"
            "r2\ttag\t1\nr2\tTAG \t2\nr2\t\t3\n",
        )
        streams, report = ingest_tag_log(log)
        assert [(s.resource_id, s.tags) for s in streams] == [
            ("r1", ("tag", "tag", "tag")),
            ("r2", ("tag", "tag")),
        ]
        assert len({id(tag) for s in streams for tag in s.tags}) == 1
        assert report["rows_rejected"] == 2
        assert report["reject_reasons"] == {"empty tag": 2}

    def test_invalid_utf8_names_the_file(self, tmp_path):
        log = tmp_path / "bad.tsv"
        log.write_bytes(b"resource_id\ttag\tseq\nr1\t\xff\t1\n")
        with pytest.raises(IngestionError, match=r"bad\.tsv is not UTF-8 text"):
            ingest_tag_log(log)

    def test_report_length_statistics(self, tmp_path):
        log = write(
            tmp_path / "log.tsv",
            "resource_id\ttag\tseq\n"
            "r1\ta\t1\nr1\tb\t2\nr1\tc\t3\nr2\ta\t1\n",
        )
        _, report = ingest_tag_log(log)
        assert report["stream_lengths"] == {"min": 1, "max": 3, "mean": 2.0, "median": 2.0}

    def test_validate_prints_the_report(self, tmp_path, capsys):
        log = write(
            tmp_path / "log.tsv",
            "resource_id\ttag\tseq\n"
            "r1\ta\t1\nr1\tb\t1\nr2\ta\t1\nr2\t\t2\n\n",
        )
        assert main(["validate", str(log)]) == 0
        assert json.loads(capsys.readouterr().out) == ingest_tag_log(log)[1]

    def test_simulated_log_round_trip_is_byte_identical(self, tmp_path):
        config = GeneratorConfig(
            model="random_uniform", vocabulary_size=9, length=25, n_streams=3, seed=6
        )
        first = tmp_path / "first.tsv"
        second = tmp_path / "second.tsv"
        write_tag_log(generate_corpus(config), first)
        streams, _ = ingest_tag_log(first)
        write_tag_log(streams, second)
        assert first.read_bytes() == second.read_bytes()


class TestTextCorpus:
    def test_tokenizer(self):
        assert tokenize("Great GAME, great game!") == ["great", "game", "great", "game"]

    def test_tokenizer_stopwords(self):
        assert tokenize("Great GAME, great game!", {"great"}) == ["game", "game"]

    def test_punctuation_only_text(self):
        assert tokenize("?!... --") == []

    def test_collector_state_is_restored(self, tmp_path):
        # The text reader pauses the cyclic collector; it must leave it as
        # found, also when the read fails.
        corpus = write(tmp_path / "texts.tsv", "resource_id\tseq\ttext\nr1\t1\tsome words\n")
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"resource_id\tseq\ttext\nr1\t1\t\xff\n")
        assert gc.isenabled()
        ingest_text_corpus(corpus)
        assert gc.isenabled()
        with pytest.raises(IngestionError):
            ingest_text_corpus(bad)
        assert gc.isenabled()
        gc.disable()
        try:
            ingest_text_corpus(corpus)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_rows_become_streams(self, tmp_path):
        corpus = write(
            tmp_path / "texts.tsv",
            "resource_id\tseq\ttext\n"
            "r1\t2\tsecond words\n"
            "r1\t1\tFirst!\n",
        )
        streams, _ = ingest_text_corpus(corpus)
        assert streams[0].tags == ("first", "second", "words")

    def test_stopwords_applied(self, tmp_path):
        corpus = write(
            tmp_path / "texts.tsv",
            "resource_id\tseq\ttext\nr1\t1\tthe cat sat\n",
        )
        streams, _ = ingest_text_corpus(corpus, stopwords={"the"})
        assert streams[0].tags == ("cat", "sat")

    def test_tokenless_rows_accepted_without_effect(self, tmp_path):
        corpus = write(
            tmp_path / "texts.tsv",
            "resource_id\tseq\ttext\nr1\t1\t...\nr1\t2\treal words\n",
        )
        streams, _ = ingest_text_corpus(corpus)
        assert streams[0].tags == ("real", "words")

    def test_resource_without_tokens_is_dropped(self, tmp_path):
        corpus = write(
            tmp_path / "texts.tsv",
            "resource_id\tseq\ttext\nr1\t1\t!!\nr2\t1\tword\n",
        )
        streams, _ = ingest_text_corpus(corpus)
        assert [s.resource_id for s in streams] == ["r2"]

    def test_repeated_header_column(self, tmp_path):
        corpus = write(tmp_path / "texts.tsv", "resource_id\tseq\ttext\tseq\nr1\t1\thi\t2\n")
        with pytest.raises(IngestionError, match="header repeats column 'seq'"):
            ingest_text_corpus(corpus)

    def test_no_accepted_rows(self, tmp_path):
        corpus = write(tmp_path / "texts.tsv", "resource_id\tseq\ttext\nr1\tx\thello\n")
        with pytest.raises(IngestionError):
            ingest_text_corpus(corpus)

    def test_invalid_utf8_names_the_file(self, tmp_path):
        corpus = tmp_path / "texts.tsv"
        corpus.write_bytes(b"resource_id\tseq\ttext\nr1\t1\tcaf\xe9\n")
        with pytest.raises(IngestionError, match=r"texts\.tsv is not UTF-8 text"):
            ingest_text_corpus(corpus)

    def test_bad_rows_are_skipped_and_first_seq_wins(self, tmp_path):
        corpus = write(tmp_path / "texts.tsv", BAD_TEXT_ROWS)
        (stream,), _ = ingest_text_corpus(corpus)
        assert stream.tags == ("kept", "kept")
        assert stream.tags[0] is stream.tags[1]

    def test_rejected_rows_are_reported(self, tmp_path):
        corpus = write(tmp_path / "texts.tsv", BAD_TEXT_ROWS)
        _, report = ingest_text_corpus(corpus)
        assert report["rows_rejected"] == 5
        assert report["reject_reasons"] == {
            "blank line": 1,
            "duplicate seq": 1,
            "empty resource_id": 1,
            "field count mismatch": 1,
            "invalid seq": 1,
        }
        assert (report["streams_loaded"], report["assignments_loaded"]) == (1, 2)

    def test_corpus_without_tokens_reports_zero_lengths(self, tmp_path):
        corpus = write(tmp_path / "texts.tsv", "resource_id\tseq\ttext\nr1\t1\t...\n")
        streams, report = ingest_text_corpus(corpus)
        assert streams == ()
        assert report["streams_loaded"] == 0
        # json.dumps pins the types: integer extremes, float mean and median.
        assert json.dumps(report["stream_lengths"]) == (
            '{"min": 0, "max": 0, "mean": 0.0, "median": 0.0}'
        )


# Forms int() takes that are not a seq: an underscore, an Arabic-Indic
# digit, surrounding spaces, a sign, and values below 1.
NOT_A_SEQ = ["1_0", "\u0661", " 7 ", "+2", "0", "-3"]


@pytest.mark.parametrize("seq", NOT_A_SEQ)
def test_tag_log_rejects_seq(tmp_path, seq):
    log = write(tmp_path / "log.tsv", f"resource_id\ttag\tseq\nr1\tkept\t1\nr1\tbad\t{seq}\n")
    (stream,), report = ingest_tag_log(log)
    assert stream.tags == ("kept",)
    assert report["reject_reasons"] == {"invalid seq": 1}


@pytest.mark.parametrize("seq", NOT_A_SEQ)
def test_text_corpus_rejects_seq(tmp_path, seq):
    corpus = write(tmp_path / "texts.tsv", f"resource_id\tseq\ttext\nr1\t1\tkept\nr1\t{seq}\tbad\n")
    (stream,), report = ingest_text_corpus(corpus)
    assert stream.tags == ("kept",)
    assert report["reject_reasons"] == {"invalid seq": 1}


@pytest.mark.parametrize(("read", "text"), [
    (ingest_tag_log, "resource_id\ttag\tseq\nr1\ta\t1\nr1\tb\t2\n"),
    (ingest_text_corpus, BAD_TEXT_ROWS),
    (read_background_file, "cats\t3\ndogs\t1\n"),
], ids=["tag log", "text corpus", "background"])
def test_byte_order_mark_is_skipped(tmp_path, read, text):
    plain = write(tmp_path / "plain.tsv", text)
    marked = tmp_path / "marked.tsv"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read(marked) == read(plain)


def test_only_a_leading_byte_order_mark_is_skipped(tmp_path):
    # As under the utf-8-sig codec: a second mark, or one later in the
    # file, is text.
    log = write(tmp_path / "log.tsv", "\ufeffresource_id\ttag\tseq\n\ufeffr1\ta\t1\n")
    (stream,), _ = ingest_tag_log(log)
    assert stream.resource_id == "\ufeffr1"
    twice = write(tmp_path / "twice.tsv", "\ufeff\ufeffresource_id\ttag\tseq\nr1\ta\t1\n")
    with pytest.raises(IngestionError, match="missing columns: resource_id"):
        ingest_tag_log(twice)


class TestBackgroundFile:
    def test_reads_counts(self, tmp_path):
        table = write(tmp_path / "bg.tsv", "cats\t3\ndogs\t1\n")
        background = read_background_file(table)
        assert background.support == ("cats", "dogs")
        assert background.probabilities == (0.75, 0.25)

    def test_blank_lines_ignored(self, tmp_path):
        table = write(tmp_path / "bg.tsv", "cats\t3\n\ndogs\t1\n")
        assert read_background_file(table).probabilities == (0.75, 0.25)

    def test_non_numeric_count_reports_row(self, tmp_path):
        table = write(tmp_path / "bg.tsv", "cats\t3\ndogs\tmany\n")
        with pytest.raises(IngestionError, match="row 2"):
            read_background_file(table)

    def test_wrong_field_count_reports_row(self, tmp_path):
        table = write(tmp_path / "bg.tsv", "cats 3\n")
        with pytest.raises(IngestionError, match="row 1"):
            read_background_file(table)

    def test_negative_count_rejected(self, tmp_path):
        table = write(tmp_path / "bg.tsv", "cats\t-2\n")
        with pytest.raises(IngestionError):
            read_background_file(table)

    def test_invalid_utf8_names_the_file(self, tmp_path):
        table = tmp_path / "bg.tsv"
        table.write_bytes(b"cats\t3\n\xc3\t1\n")
        with pytest.raises(IngestionError, match=r"bg\.tsv is not UTF-8 text"):
            read_background_file(table)
