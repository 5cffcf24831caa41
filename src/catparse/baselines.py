"""Two reference formulations of tree recovery, for comparison runs.

Both predict node depth directly instead of structural relations:

* pipeline: a binary head merges adjacent segments into units, then a
  level head classifies each unit into heading-level-1..MaxDepth or text;
* tagging: one head tags every segment with a begin/inside marker plus
  the same level labels, greedy decoding with legality repair.

Level labels are plain ints: ``k >= 1`` is a heading at level k, ``0`` is
text. Both formulations top out at a fixed ``max_depth``, set at training
time and recorded in a head's class count (deeper gold trees cannot be
reproduced), and both rebuild the tree with the same
stack rule: a heading pops everything at its level or deeper, text
attaches to the current top. Both learn from ``engine.gold_owners``,
the table the transition oracle reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import engine
from .scoring import LinearModel, ScoringInput, featurize
from .tree import (
    CatalogNode,
    CatalogTree,
    NodeKind,
    Segment,
    join_content,
)

DEFAULT_MAX_DEPTH = 8

TEXT_LEVEL = 0

CONCAT_HEAD_MAGIC = b"CTXC"
LEVEL_HEAD_MAGIC = b"CTXL"
TAGGER_MAGIC = b"CTXB"

MERGE = 1
NEW_UNIT = 0


def level_label_count(max_depth: int) -> int:
    """Heading levels 1..max_depth plus the text label."""
    return max_depth + 1


def level_to_class(level: int, max_depth: int) -> int:
    """Encode a level label as a class index; deep headings clamp."""
    if level == TEXT_LEVEL:
        return max_depth
    return min(level, max_depth) - 1


def class_to_level(cls: int, max_depth: int) -> int:
    return TEXT_LEVEL if cls == max_depth else cls + 1


def tag_class(level: int, inside: bool, max_depth: int) -> int:
    return 2 * level_to_class(level, max_depth) + (1 if inside else 0)


def tag_count(max_depth: int) -> int:
    return 2 * level_label_count(max_depth)


@dataclass(frozen=True)
class Unit:
    """A merged run of segments with its predicted (or gold) level."""

    level: int
    content: str
    segments: tuple[int, ...] = ()


def _pair_input(previous: Segment, current: Segment) -> ScoringInput:
    return ScoringInput(
        focus_kind=NodeKind.TEXT,
        focus_text=previous.text,
        segment_text=current.text,
    )


def _unit_input(content: str) -> ScoringInput:
    return ScoringInput(focus_kind=NodeKind.ROOT, focus_text="", segment_text=content)


def _tag_input(segments: Sequence[Segment], i: int) -> ScoringInput:
    if i == 0:
        return ScoringInput(
            focus_kind=NodeKind.ROOT, focus_text="", segment_text=segments[0].text
        )
    return _pair_input(segments[i - 1], segments[i])


def _gold_segments(
    gold: CatalogTree, segments: Sequence[Segment]
) -> list[tuple[bool, CatalogNode, int]]:
    """Per segment, from ``engine.gold_owners``: whether its owner also
    owns the segment before (merge, or an inside tag), the owner, and the
    owner's level label."""
    owners = engine.gold_owners(gold)
    if len(owners) != len(segments):
        raise engine.OracleError(
            f"the stream has {len(segments)} segments, its gold tree owns {len(owners)}"
        )
    rows, previous = [], None
    for node, level in owners:
        rows.append((node is previous, node, TEXT_LEVEL if node.kind is NodeKind.TEXT else level))
        previous = node
    return rows


def pipeline_examples(
    gold: CatalogTree, segments: Sequence[Segment], max_depth: int
) -> tuple[list[tuple[ScoringInput, int]], list[tuple[ScoringInput, int]]]:
    """Training pairs for the two pipeline heads (merge, unit level); a
    unit is a run of segments with one gold owner."""
    rows = _gold_segments(gold, segments)
    pair_examples = [
        (_pair_input(segments[i - 1], segments[i]), MERGE if same else NEW_UNIT)
        for i, (same, _, _) in enumerate(rows)
        if i > 0
    ]
    level_examples = [
        (_unit_input(node.content), level_to_class(level, max_depth))
        for same, node, level in rows
        if not same
    ]
    return pair_examples, level_examples


def tagging_examples(
    gold: CatalogTree, segments: Sequence[Segment], max_depth: int
) -> list[tuple[ScoringInput, int]]:
    return [
        (_tag_input(segments, i), tag_class(level, same, max_depth))
        for i, (same, _, level) in enumerate(_gold_segments(gold, segments))
    ]


def rebuild_from_levels(units: Sequence[Unit]) -> CatalogTree:
    """Build a tree from units with a heading stack.

    A heading at level k pops the stack until the top sits above k (the
    root counts as level 0), then attaches and becomes the top; text
    attaches to the current top and never opens a scope. Skipped levels
    are allowed, so H3 may sit directly under H1.
    """
    tree = CatalogTree.empty()
    stack: list[tuple[int, CatalogNode]] = [(0, tree.root)]
    for unit in units:
        if unit.level == TEXT_LEVEL:
            stack[-1][1].children.append(
                CatalogNode(
                    kind=NodeKind.TEXT,
                    content=unit.content,
                    source_segments=list(unit.segments),
                )
            )
            continue
        while stack[-1][0] >= unit.level:
            stack.pop()
        node = CatalogNode(
            kind=NodeKind.HEADING,
            content=unit.content,
            source_segments=list(unit.segments),
        )
        stack[-1][1].children.append(node)
        stack.append((unit.level, node))
    return tree


def _predict_class(model: LinearModel, inp: ScoringInput) -> int:
    indices, values = featurize(inp, model.hash_seed, model.dim)
    return int(model.logits_for(indices, values).argmax())


def _merge_segments(
    segments: Sequence[Segment],
    merge_after: Sequence[bool],
    joiner: str,
) -> list[tuple[str, tuple[int, ...]]]:
    """Fold segments into units; merge_after[i] merges segment i into the
    unit carrying segment i-1."""
    units: list[tuple[str, tuple[int, ...]]] = []
    for i, segment in enumerate(segments):
        if i > 0 and merge_after[i]:
            content, indices = units[-1]
            units[-1] = (
                join_content(content, segment.text, joiner),
                indices + (segment.index,),
            )
        else:
            units.append((segment.text, (segment.index,)))
    return units


def pipeline_predict(
    segments: Sequence[Segment],
    concat_model: LinearModel,
    level_model: LinearModel,
    joiner: str = "",
) -> CatalogTree:
    """Merge-then-classify prediction; the level head's class count fixes
    the label budget."""
    if not segments:
        return CatalogTree.empty()
    max_depth = level_model.classes - 1
    merge_after = [False] * len(segments)
    for i in range(1, len(segments)):
        pair = _pair_input(segments[i - 1], segments[i])
        merge_after[i] = _predict_class(concat_model, pair) == MERGE
    units = []
    for content, seg_indices in _merge_segments(segments, merge_after, joiner):
        cls = _predict_class(level_model, _unit_input(content))
        units.append(
            Unit(
                level=class_to_level(cls, max_depth),
                content=content,
                segments=seg_indices,
            )
        )
    return rebuild_from_levels(units)


def tagging_predict(
    segments: Sequence[Segment],
    tag_model: LinearModel,
    joiner: str = "",
) -> CatalogTree:
    """Greedy begin/inside tagging with legality repair.

    An inside tag whose level disagrees with the open span (or that
    opens the document) is coerced to a begin tag of its own level. The
    head's class count fixes the label budget.
    """
    if not segments:
        return CatalogTree.empty()
    max_depth = tag_model.classes // 2 - 1
    levels: list[int] = []
    merge_after: list[bool] = []
    for i in range(len(segments)):
        cls = _predict_class(tag_model, _tag_input(segments, i))
        level = class_to_level(cls // 2, max_depth)
        # every segment of a span carries the span's level
        merge_after.append(cls % 2 == 1 and i > 0 and levels[-1] == level)
        levels.append(level)
    units, start = [], 0
    for content, seg_indices in _merge_segments(segments, merge_after, joiner):
        units.append(Unit(level=levels[start], content=content, segments=seg_indices))
        start += len(seg_indices)
    return rebuild_from_levels(units)
