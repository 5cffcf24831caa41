"""JSON schemas and file formats.

Three line-oriented formats are used throughout:

* corpus files: one document object per line,
  ``{"id": str, "source": str, "root": NODE}`` where
  ``NODE = {"kind": "root"|"heading"|"text", "content": str,
  "segments": [int], "children": [NODE]}``
* segment streams (prediction input): ``{"id": str, "segments": [str]}``
* action dumps (training supervision):
  ``{"doc_id", "step", "s_kind", "s_content", "q_content", "gold_action"}``

All files are UTF-8. Parsing validates the schema and reports the path of
the offending field; strings UTF-8 cannot encode (lone surrogates) are
schema errors.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from .tree import CatalogNode, CatalogTree, NodeKind, Segment


class SchemaError(Exception):
    """An object does not conform to a file schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class Document:
    doc_id: str
    source: str
    tree: CatalogTree


@dataclass
class SegmentStream:
    doc_id: str
    segments: list[Segment] = field(default_factory=list)


def _check_utf8(text: str, path: str) -> None:
    """Reject strings UTF-8 cannot encode: lone surrogates, which a JSON
    ``\\ud800`` escape decodes to."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaError(path, "holds a lone surrogate, which UTF-8 cannot encode") from None


def serialize_tree(tree: CatalogTree) -> dict[str, Any]:
    """Convert a tree to the nested NODE object."""

    def node_obj(node: CatalogNode) -> dict[str, Any]:
        return {
            "kind": node.kind.value,
            "content": node.content,
            "segments": list(node.source_segments),
            "children": [node_obj(child) for child in node.children],
        }

    return node_obj(tree.root)


def parse_tree(obj: Any, path: str = "$") -> CatalogTree:
    """Parse a NODE object into a tree, validating the schema.

    Structural rules are enforced here as well: the top node must be the
    root, roots may not nest, and text nodes may not have children.
    """
    root = _parse_node(obj, path, top=True)
    return CatalogTree(root=root)


def _parse_node(obj: Any, path: str, top: bool) -> CatalogNode:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    if "kind" not in obj:
        raise SchemaError(f"{path}.kind", "missing field")
    kind_name = obj["kind"]
    if not isinstance(kind_name, str):
        raise SchemaError(f"{path}.kind", "must be a string")
    try:
        kind = NodeKind(kind_name)
    except ValueError:
        raise SchemaError(f"{path}.kind", f"unknown kind {kind_name!r}") from None
    if top and kind is not NodeKind.ROOT:
        raise SchemaError(f"{path}.kind", "top-level node must be the root")
    if not top and kind is NodeKind.ROOT:
        raise SchemaError(f"{path}.kind", "root may only appear at the top")

    content = obj.get("content", "")
    if not isinstance(content, str):
        raise SchemaError(f"{path}.content", "must be a string")
    _check_utf8(content, f"{path}.content")
    segments = obj.get("segments", [])
    if not isinstance(segments, list) or any(
        not isinstance(i, int) or isinstance(i, bool) for i in segments
    ):
        raise SchemaError(f"{path}.segments", "must be a list of integers")
    children_obj = obj.get("children", [])
    if not isinstance(children_obj, list):
        raise SchemaError(f"{path}.children", "must be a list")
    if kind is NodeKind.TEXT and children_obj:
        raise SchemaError(f"{path}.children", "text nodes must be leaves")
    if kind is NodeKind.ROOT and content:
        raise SchemaError(f"{path}.content", "root content must be empty")

    children = [
        _parse_node(child, f"{path}.children[{i}]", top=False)
        for i, child in enumerate(children_obj)
    ]
    return CatalogNode(
        kind=kind,
        content=content,
        children=children,
        source_segments=list(segments),
    )


def document_to_obj(doc: Document) -> dict[str, Any]:
    return {
        "id": doc.doc_id,
        "source": doc.source,
        "root": serialize_tree(doc.tree),
    }


def document_from_obj(obj: Any, path: str = "$") -> Document:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    doc_id = obj.get("id")
    if not isinstance(doc_id, str):
        raise SchemaError(f"{path}.id", "missing or not a string")
    _check_utf8(doc_id, f"{path}.id")
    source = obj.get("source", "")
    if not isinstance(source, str):
        raise SchemaError(f"{path}.source", "must be a string")
    _check_utf8(source, f"{path}.source")
    if "root" not in obj:
        raise SchemaError(f"{path}.root", "missing field")
    tree = parse_tree(obj["root"], f"{path}.root")
    return Document(doc_id=doc_id, source=source, tree=tree)


def normalize_segment_text(text: str, joiner: str = "") -> str:
    """Strip line breaks out of raw segment text.

    Breaks become the joiner (nothing by default, one space when joining
    with spaces); surrounding whitespace is trimmed.
    """
    parts = [part.strip() for part in text.replace("\r", "\n").split("\n")]
    return joiner.join(part for part in parts if part).strip()


def stream_to_obj(stream: SegmentStream) -> dict[str, Any]:
    return {"id": stream.doc_id, "segments": [s.text for s in stream.segments]}


def stream_from_obj(obj: Any, path: str = "$", joiner: str = "") -> SegmentStream:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    doc_id = obj.get("id")
    if not isinstance(doc_id, str):
        raise SchemaError(f"{path}.id", "missing or not a string")
    _check_utf8(doc_id, f"{path}.id")
    texts = obj.get("segments")
    if not isinstance(texts, list) or any(not isinstance(t, str) for t in texts):
        raise SchemaError(f"{path}.segments", "must be a list of strings")
    segments = []
    for i, raw in enumerate(texts):
        _check_utf8(raw, f"{path}.segments[{i}]")
        text = normalize_segment_text(raw, joiner)
        if not text:
            raise SchemaError(f"{path}.segments[{i}]", "empty segment text")
        segments.append(Segment(text=text, index=i))
    return SegmentStream(doc_id=doc_id, segments=segments)


def _dump_line(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _read_jsonl(path: str | Path) -> Iterable[tuple[int, Any]]:
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}", f"invalid JSON: {exc}") from None


def read_corpus(path: str | Path) -> list[Document]:
    return [document_from_obj(obj, f"{path}:{n}") for n, obj in _read_jsonl(path)]


def write_corpus(path: str | Path, docs: Iterable[Document]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for doc in docs:
            handle.write(_dump_line(document_to_obj(doc)) + "\n")


def read_streams(path: str | Path, joiner: str = "") -> list[SegmentStream]:
    return [
        stream_from_obj(obj, f"{path}:{n}", joiner) for n, obj in _read_jsonl(path)
    ]


def write_streams(path: str | Path, streams: Iterable[SegmentStream]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for stream in streams:
            handle.write(_dump_line(stream_to_obj(stream)) + "\n")


def write_action_dump(path: str | Path, rows: Iterable[dict[str, Any]]) -> None:
    """Write gold action records, one JSON object per line.

    Rows carry ``doc_id``, ``step``, ``s_kind``, ``s_content``,
    ``q_content`` and ``gold_action``.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(_dump_line(row) + "\n")
