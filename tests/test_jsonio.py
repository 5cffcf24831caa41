import json

import pytest

from catparse.jsonio import (
    Document,
    SchemaError,
    document_from_obj,
    document_to_obj,
    normalize_segment_text,
    parse_tree,
    read_corpus,
    read_streams,
    serialize_tree,
    stream_from_obj,
    write_corpus,
    write_streams,
)
from catparse.jsonio import SegmentStream
from catparse.tree import Segment

from .conftest import walkthrough_tree


def test_round_trip_is_exact():
    tree = walkthrough_tree()
    assert parse_tree(serialize_tree(tree)) == tree


def test_text_node_with_children_round_trips():
    # Unconstrained decoding nests under text nodes; such predictions must
    # read back (gold trees are refused by engine.gold_owners instead).
    obj = serialize_tree(walkthrough_tree())
    # graft a child under the deep text node
    node = obj["children"][0]["children"][0]["children"][0]
    assert node["kind"] == "text"
    node["children"] = [{"kind": "text", "content": "x", "segments": [], "children": []}]
    tree = parse_tree(obj)
    assert tree.root.children[0].children[0].children[0].children[0].content == "x"
    assert serialize_tree(tree) == obj


def test_top_level_must_be_root():
    with pytest.raises(SchemaError) as err:
        parse_tree({"content": "", "segments": [], "children": []})
    assert ".kind" in str(err.value)
    with pytest.raises(SchemaError):
        parse_tree({"kind": "heading", "content": "x", "segments": [], "children": []})


def test_nested_root_rejected():
    obj = {
        "kind": "root",
        "content": "",
        "segments": [],
        "children": [{"kind": "root", "content": "", "segments": [], "children": []}],
    }
    with pytest.raises(SchemaError) as err:
        parse_tree(obj)
    assert "children[0]" in str(err.value)


def test_bad_segment_types():
    obj = {"kind": "root", "content": "", "segments": [], "children": [
        {"kind": "heading", "content": "h", "segments": [0, True], "children": []},
    ]}
    with pytest.raises(SchemaError):
        parse_tree(obj)


def test_corpus_file_round_trip(tmp_path):
    docs = [
        Document(doc_id="a", source="synthetic", tree=walkthrough_tree()),
        Document(doc_id="b", source="synthetic", tree=walkthrough_tree()),
    ]
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, docs)
    assert read_corpus(path) == docs


def test_document_requires_id():
    with pytest.raises(SchemaError):
        document_from_obj({"source": "x", "root": serialize_tree(walkthrough_tree())})


def test_document_obj_shape():
    doc = Document(doc_id="a", source="s", tree=walkthrough_tree())
    obj = document_to_obj(doc)
    assert set(obj) == {"id", "source", "root"}


def test_stream_round_trip(tmp_path):
    stream = SegmentStream(
        doc_id="d", segments=[Segment("alpha", 0), Segment("beta", 1)]
    )
    path = tmp_path / "segs.jsonl"
    write_streams(path, [stream])
    assert read_streams(path) == [stream]


def test_stream_normalizes_linebreaks():
    obj = {"id": "d", "segments": ["one\ntwo", "three"]}
    stream = stream_from_obj(obj, joiner=" ")
    assert stream.segments[0].text == "one two"
    stream = stream_from_obj(obj, joiner="")
    assert stream.segments[0].text == "onetwo"


def test_stream_rejects_empty_segment():
    with pytest.raises(SchemaError):
        stream_from_obj({"id": "d", "segments": ["ok", "  \n "]})


def test_normalize_segment_text():
    assert normalize_segment_text(" a \r\n b ", " ") == "a b"
    assert normalize_segment_text("a\n\nb") == "ab"


def test_invalid_json_line_reports_location(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(document_to_obj(Document("a", "s", walkthrough_tree())))
    path.write_text(good + "\n{oops\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        read_corpus(path)
    assert ":2" in str(err.value)


def test_corpus_bytes_are_stable(tmp_path):
    docs = [Document(doc_id="a", source="s", tree=walkthrough_tree())]
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    write_corpus(p1, docs)
    write_corpus(p2, docs)
    assert p1.read_bytes() == p2.read_bytes()
    line = p1.read_text(encoding="utf-8").splitlines()[0]
    assert json.loads(line)["id"] == "a"
