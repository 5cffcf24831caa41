"""The three parsing methods behind one interface, and dev-epoch selection.

``parser_for`` turns a method name and its heads in memory into a
``parse(segments) -> CatalogTree`` callable; prediction and per-epoch dev
scoring both go through it. ``train_with_dev_selection`` trains one head
and keeps the epoch whose parser scores the highest dev F1.
"""
from __future__ import annotations

import logging
from typing import Callable, Sequence

from . import baselines, engine, metrics, scoring
from .tree import CatalogTree, Segment

log = logging.getLogger("catparse")

METHODS = ("transition", "pipeline", "tagging")

# The model file of each method: one container per head, in this order.
HEAD_MAGICS = {
    "transition": (scoring.MODEL_MAGIC,),
    "pipeline": (baselines.CONCAT_HEAD_MAGIC, baselines.LEVEL_HEAD_MAGIC),
    "tagging": (baselines.TAGGER_MAGIC,),
}

Parser = Callable[[Sequence[Segment]], CatalogTree]


def parser_for(
    method: str,
    heads: tuple,
    constrained: bool,
    joiner: str,
    max_depth: int,
) -> Parser:
    """Parse with ``heads``: ``(scorer,)`` for transition, ``(concat_model,
    level_model)`` for pipeline, ``(tag_model,)`` for tagging."""
    if method == "transition":
        (scorer,) = heads
        return lambda segments: engine.decode(
            segments, scorer, constrained=constrained, joiner=joiner
        )[0]
    if method == "pipeline":
        concat_model, level_model = heads
        return lambda segments: baselines.pipeline_predict(
            segments, concat_model, level_model, max_depth, joiner
        )
    if method == "tagging":
        (tag_model,) = heads
        return lambda segments: baselines.tagging_predict(
            segments, tag_model, max_depth, joiner
        )
    raise ValueError(f"unknown method {method!r}")


def train_with_dev_selection(
    examples: Sequence[tuple[scoring.ScoringInput, int]],
    config: scoring.TrainConfig,
    classes: int,
    dev: Sequence[tuple[CatalogTree, Sequence[Segment]]],
    parser_for_model: Callable[[scoring.LinearModel], Parser],
) -> tuple[scoring.LinearModel, list[float]]:
    """Train, score every epoch's model on the dev (gold tree, segments)
    pairs, and return the first model with the highest dev F1 together
    with the per-epoch dev F1 history."""
    history: list[float] = []
    best = None

    def on_epoch(epoch: int, model: scoring.LinearModel) -> None:
        nonlocal best
        parse = parser_for_model(model)
        reports = [metrics.evaluate(gold, parse(segments)) for gold, segments in dev]
        f1 = metrics.aggregate(reports).overall.f1
        log.info("epoch %d: dev F1 %.4f", epoch + 1, f1)
        if not history or f1 > max(history):
            best = model.copy()
        history.append(f1)

    scoring.train(examples, config, classes=classes, epoch_callback=on_epoch)
    return best, history
