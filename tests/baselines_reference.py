"""Reference baselines: the per-input ``pipeline_predict`` and
``tagging_predict`` that ``baselines`` replaced with one ``featurize_many``
batch per head and document.

Kept as the definition the batched versions must reproduce exactly (the
same trees); ``test_baselines`` compares the two.
"""
from __future__ import annotations

from typing import Sequence

from catparse.baselines import (
    MERGE,
    Unit,
    _merge_segments,
    _pair_input,
    _tag_input,
    _unit_input,
    class_to_level,
    rebuild_from_levels,
)
from catparse.scoring import LinearModel, ScoringInput, featurize
from catparse.tree import CatalogTree, Segment


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
