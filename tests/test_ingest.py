import gc

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
        assert report.streams_loaded == 1
        assert report.assignments_loaded == 3

    def test_duplicate_seq_keeps_first(self, tmp_path):
        log = write(
            tmp_path / "log.tsv",
            "resource_id\ttag\tseq\nr1\tkept\t1\nr1\tdropped\t1\n",
        )
        streams, report = ingest_tag_log(log)
        assert streams[0].tags == ("kept",)
        assert report.reject_reasons == {"duplicate seq": 1}

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
        assert report.rows_rejected == 4
        assert report.reject_reasons == {
            "blank line": 1,
            "empty tag": 1,
            "field count mismatch": 1,
            "invalid seq": 1,
        }

    def test_user_column_round_trip(self, tmp_path):
        log = write(
            tmp_path / "log.tsv",
            "resource_id\ttag\tseq\tuser_id\nr1\ta\t1\tu9\nr1\tb\t2\t\n",
        )
        streams, _ = ingest_tag_log(log)
        assert streams[0].users == ("u9", None)
        out = tmp_path / "copy.tsv"
        write_tag_log(streams, out)
        reread, _ = ingest_tag_log(out)
        assert reread == streams

    @pytest.mark.parametrize("char", ["\t", "\n", "\r"], ids=["tab", "newline", "return"])
    @pytest.mark.parametrize("field", ["resource id", "tag", "user id"])
    def test_unwritable_field_is_refused_before_opening(self, tmp_path, field, char):
        bad = f"x{char}y"
        columns = {"resource id": "r2", "tag": "b", "user id": "u"}
        columns[field] = bad
        streams = (
            TagStream("r1", ["a"], ["u"]),
            TagStream(columns["resource id"], ["c", columns["tag"]], [None, columns["user id"]]),
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

    def test_refused_characters_follow_the_delimiter(self, tmp_path):
        streams = (TagStream("r1", ["a\tb", "c"]),)
        with pytest.raises(ParameterError, match=r"tag 'a,b'"):
            write_tag_log((TagStream("r1", ["a,b"]),), tmp_path / "log.csv", delimiter=",")
        write_tag_log(streams, tmp_path / "log.csv", delimiter=",")
        reread, report = ingest_tag_log(tmp_path / "log.csv", delimiter=",")
        assert reread == streams
        assert report.rows_rejected == 0

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

    def test_collector_state_is_restored(self, tmp_path):
        # The reader pauses the cyclic collector; it must leave it as found,
        # also when the read fails.
        log = write(tmp_path / "log.tsv", "resource_id\ttag\tseq\tuser_id\nr1\ta\t1\tu\n")
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"resource_id\ttag\tseq\nr1\t\xff\t1\n")
        assert gc.isenabled()
        ingest_tag_log(log)
        assert gc.isenabled()
        with pytest.raises(IngestionError):
            ingest_tag_log(bad)
        assert gc.isenabled()
        gc.disable()
        try:
            ingest_tag_log(log)
            assert not gc.isenabled()
        finally:
            gc.enable()

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
        assert report.length_min == 1
        assert report.length_max == 3
        assert report.length_mean == 2.0
        assert report.length_median == 2.0
        assert report.to_dict()["stream_lengths"]["max"] == 3

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
        assert report.rows_rejected == 5
        assert report.reject_reasons == {
            "blank line": 1,
            "duplicate seq": 1,
            "empty resource_id": 1,
            "field count mismatch": 1,
            "invalid seq": 1,
        }
        assert (report.streams_loaded, report.assignments_loaded) == (1, 2)


# Forms int() takes that are not a seq: an underscore, an Arabic-Indic
# digit, surrounding spaces, a sign, and values below 1.
NOT_A_SEQ = ["1_0", "\u0661", " 7 ", "+2", "0", "-3"]


@pytest.mark.parametrize("seq", NOT_A_SEQ)
def test_tag_log_rejects_seq(tmp_path, seq):
    log = write(tmp_path / "log.tsv", f"resource_id\ttag\tseq\nr1\tkept\t1\nr1\tbad\t{seq}\n")
    (stream,), report = ingest_tag_log(log)
    assert stream.tags == ("kept",)
    assert report.reject_reasons == {"invalid seq": 1}


@pytest.mark.parametrize("seq", NOT_A_SEQ)
def test_text_corpus_rejects_seq(tmp_path, seq):
    corpus = write(tmp_path / "texts.tsv", f"resource_id\tseq\ttext\nr1\t1\tkept\nr1\t{seq}\tbad\n")
    (stream,), report = ingest_text_corpus(corpus)
    assert stream.tags == ("kept",)
    assert report.reject_reasons == {"invalid seq": 1}


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
