"""Two reference formulations of tree recovery, for comparison runs.

Both predict node depth directly instead of structural relations:

* pipeline: a binary head merges adjacent segments into units, then a
  level head classifies each unit into heading-level-1..MaxDepth or text;
* tagging: one head tags every segment with a begin/inside marker plus
  the same level labels, greedy decoding with legality repair.

Level labels are plain ints: ``k >= 1`` is a heading at level k, ``0`` is
text. Both formulations top out at a fixed ``max_depth``, set at training
time and recorded in a head's class count (deeper gold trees cannot be
reproduced), and both build the tree with the same stack rule, applied
as constrained transitions through ``tree.apply_action``: a heading pops
everything at its level or deeper, text attaches to the current top.
Both learn from ``engine.gold_owners``, the table the transition oracle
reads.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from . import engine
# ``featurize`` is not called here. The benchmark's tracer wraps it at
# every name a caller may look it up by, ``baselines.featurize`` among
# them (perfbench/workload.py), so the name stays bound.
from .scoring import LinearModel, ScoringInput, featurize, featurize_many  # noqa: F401
from .tree import (
    MAX_DEPTH,
    Action,
    CatalogNode,
    CatalogTree,
    NodeKind,
    Segment,
    TransitionState,
    apply_action,
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


def _predict_classes(model: LinearModel, inputs: Sequence[ScoringInput]) -> list[int]:
    """The argmax class of each input, featurized in one batch."""
    feats = featurize_many(inputs, model.hash_seed, model.dim)
    return [int(model.logits_for(indices, values).argmax()) for indices, values in feats]


def _build_tree(
    segments: Sequence[Segment],
    merge_after: Sequence[bool],
    unit_levels: Iterable[int],
    joiner: str,
) -> CatalogTree:
    """Build the tree of a segment stream folded into units.

    ``merge_after[i]`` appends segment i to the unit of segment i-1 (a
    CONCAT); every other segment opens the next unit, whose level comes
    from ``unit_levels``. Opening a unit first reduces out of an open
    text node, then, for a heading at level k, out of every open heading
    at level k or deeper, so text never opens a scope. Skipped levels
    are allowed: H3 may sit directly under H1.
    """
    state = TransitionState.initial(joiner)
    # The rank of each node on the stack: a unit reduces out of every node
    # ranked at or above its own. A heading ranks at its level, the root at
    # 0, and text at MAX_DEPTH, above every level a label budget allows.
    ranks = [0]
    levels = iter(unit_levels)
    for segment, merged in zip(segments, merge_after):
        if merged:
            apply_action(state, Action.CONCAT, segment)
            continue
        level = next(levels)
        rank, action = (
            (MAX_DEPTH, Action.SUB_TEXT) if level == TEXT_LEVEL else (level, Action.SUB_HEADING)
        )
        while ranks[-1] >= rank:
            apply_action(state, Action.REDUCE)
            ranks.pop()
        apply_action(state, action, segment)
        ranks.append(rank)
    return state.tree


def pipeline_predict(
    segments: Sequence[Segment],
    concat_model: LinearModel,
    level_model: LinearModel,
    joiner: str = "",
) -> CatalogTree:
    """Merge-then-classify prediction; the level head's class count fixes
    the label budget."""
    max_depth = level_model.classes - 1
    pairs = [_pair_input(segments[i - 1], segments[i]) for i in range(1, len(segments))]
    merge_after = [False] + [cls == MERGE for cls in _predict_classes(concat_model, pairs)]
    contents: list[str] = []
    for segment, merged in zip(segments, merge_after):
        if merged:
            contents[-1] = join_content(contents[-1], segment.text, joiner)
        else:
            contents.append(segment.text)
    classes = _predict_classes(level_model, [_unit_input(content) for content in contents])
    levels = [class_to_level(cls, max_depth) for cls in classes]
    return _build_tree(segments, merge_after, levels, joiner)


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
    max_depth = tag_model.classes // 2 - 1
    levels: list[int] = []
    merge_after: list[bool] = []
    inputs = [_tag_input(segments, i) for i in range(len(segments))]
    for i, cls in enumerate(_predict_classes(tag_model, inputs)):
        level = class_to_level(cls // 2, max_depth)
        # every segment of a span carries the span's level
        merge_after.append(cls % 2 == 1 and i > 0 and levels[-1] == level)
        levels.append(level)
    unit_levels = (level for level, merged in zip(levels, merge_after) if not merged)
    return _build_tree(segments, merge_after, unit_levels, joiner)
