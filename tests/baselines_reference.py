"""Reference baselines: the per-input ``pipeline_predict`` and
``tagging_predict`` that ``baselines`` replaced with one ``featurize_many``
batch per head and document, and the unit-stack rebuild that
``baselines`` replaced with transitions applied through
``tree.apply_action``.

Kept as the definitions the package must reproduce exactly (the same
trees); ``test_baselines`` compares the two.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from catparse.baselines import (
    MERGE,
    TEXT_LEVEL,
    _pair_input,
    _tag_input,
    _unit_input,
    class_to_level,
)
from catparse.scoring import LinearModel, ScoringInput, featurize
from catparse.tree import CatalogNode, CatalogTree, NodeKind, Segment, join_content


@dataclass(frozen=True)
class Unit:
    """A merged run of segments with its predicted (or gold) level."""

    level: int
    content: str
    segments: tuple[int, ...] = ()


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


def _predict_class(model: LinearModel, inp: ScoringInput) -> int:
    indices, values = featurize(inp, model.hash_seed, model.dim)
    return int(model.logits_for(indices, values).argmax())


def reference_pipeline_predict(
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


def reference_tagging_predict(
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
