"""Properties of the contracts later changes must keep, over drawn inputs.

The examples are derandomized and their number fixed, so every run draws
the same inputs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tagstab import ParameterError, TagStream, ingest_tag_log, write_tag_log

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
    assert report.rows_rejected == 0
