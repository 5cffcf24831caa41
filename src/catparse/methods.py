"""The three parsing methods behind one interface, and everything that
differs between them.

A method's heads are ``LinearModel``s, stored in ``HEAD_MAGICS`` order.
``train_heads`` builds a method's examples and trains its heads, keeping
the epoch whose parser scores the highest dev F1; ``save_heads`` and
``load_heads`` write and read its model file; ``parser_for`` turns heads
into a ``parse(segments) -> CatalogTree`` callable.
"""
from __future__ import annotations

import logging
from pathlib import Path
from typing import Callable, Sequence

from . import baselines, engine, metrics, scoring
from .tree import MAX_DEPTH, CatalogTree, Segment

log = logging.getLogger("catparse")

METHODS = ("transition", "pipeline", "tagging")

# The model file of each method: one container per head, in this order.
HEAD_MAGICS = {
    "transition": (scoring.MODEL_MAGIC,),
    "pipeline": (baselines.CONCAT_HEAD_MAGIC, baselines.LEVEL_HEAD_MAGIC),
    "tagging": (baselines.TAGGER_MAGIC,),
}

Parser = Callable[[Sequence[Segment]], CatalogTree]
GoldPairs = Sequence[tuple[CatalogTree, Sequence[Segment]]]


def parser_for(method: str, heads: tuple, constrained: bool, joiner: str) -> Parser:
    """Parse with ``heads``; a transition head may be any ``ActionScorer``
    (a bridge, for instance), the baseline heads are ``LinearModel``s.
    ``constrained`` affects only the transition method."""
    if method == "transition":
        (scorer,) = heads
        return lambda segments: engine.decode(segments, scorer, constrained, joiner)[0]
    if method == "pipeline":
        merge, level = heads
        return lambda segments: baselines.pipeline_predict(segments, merge, level, joiner)
    if method == "tagging":
        (tags,) = heads
        return lambda segments: baselines.tagging_predict(segments, tags, joiner)
    raise ValueError(f"unknown method {method!r}")


def train_with_dev_selection(
    examples: Sequence[tuple[scoring.ScoringInput, int]],
    config: scoring.TrainConfig,
    classes: int,
    dev: GoldPairs,
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
            best = model
        history.append(f1)

    scoring.train(examples, config, classes=classes, epoch_callback=on_epoch)
    return best, history


def train_heads(
    method: str,
    train: GoldPairs,
    dev: GoldPairs,
    config: scoring.TrainConfig,
    joiner: str,
    max_depth: int,
) -> tuple[tuple[scoring.LinearModel, ...], list[float]]:
    """Train the heads of ``method`` on (gold tree, segments) pairs.

    The last head is dev-selected; the pipeline's merge head is trained
    for all epochs and kept as it ends. Returns the heads in
    ``HEAD_MAGICS`` order and the per-epoch dev F1 history.
    """
    fixed: tuple = ()
    if method == "transition":
        examples = [ex for t, s in train for ex in engine.oracle_examples(t, s, joiner)]
        classes = 4
    elif method == "pipeline":
        pairs, examples = [], []
        for tree, segments in train:
            doc_pairs, doc_levels = baselines.pipeline_examples(tree, segments, max_depth)
            pairs.extend(doc_pairs)
            examples.extend(doc_levels)
        if not examples:
            raise scoring.EmptyTrainingSet("no unit examples in the training corpus")
        # Documents of a single segment have no adjacent pairs. Without
        # any, the merge head is a zero head over the indicator block:
        # all-zero logits argmax to NEW_UNIT, so it never merges.
        if pairs:
            fixed = (scoring.train(pairs, config, classes=2),)
        else:
            fixed = (scoring.LinearModel.create(classes=2, hash_seed=config.seed),)
        log.info("pipeline: merge head trained on %d pairs", len(pairs))
        classes = baselines.level_label_count(max_depth)
    elif method == "tagging":
        examples = [ex for t, s in train for ex in baselines.tagging_examples(t, s, max_depth)]
        classes = baselines.tag_count(max_depth)
    else:
        raise ValueError(f"unknown method {method!r}")
    log.info("%s: training on %d examples from %d documents", method, len(examples), len(train))
    model, history = train_with_dev_selection(
        examples, config, classes, dev,
        lambda m: parser_for(method, fixed + (m,), True, joiner),
    )
    return fixed + (model,), history


def save_heads(path: str | Path, method: str, heads: Sequence[scoring.LinearModel]) -> None:
    with open(path, "wb") as handle:
        for model, magic in zip(heads, HEAD_MAGICS[method]):
            scoring.write_container(handle, model, magic)


def load_heads(path: str | Path, method: str) -> tuple[scoring.LinearModel, ...]:
    """Read the heads of ``method`` from a model file.

    A transition head must have one class per action, a merge head two.
    The class counts of the level and tagging heads record the label
    budget they were trained with, ``max_depth`` in 1..MAX_DEPTH-1.
    """
    with open(path, "rb") as handle:
        heads = tuple(
            scoring.read_container(handle, magic, str(path)) for magic in HEAD_MAGICS[method]
        )
    k = [head.classes for head in heads]
    if method == "transition" and k != [4]:
        raise ValueError(f"{path}: action scoring needs a 4-class model, got {k[0]}")
    if method == "pipeline" and (k[0] != 2 or not 2 <= k[1] <= MAX_DEPTH):
        raise ValueError(f"{path}: pipeline heads need 2 and 2..{MAX_DEPTH} classes, got {k}")
    if method == "tagging" and (k[0] % 2 or not 4 <= k[0] <= 2 * MAX_DEPTH):
        raise ValueError(
            f"{path}: a tagging head needs an even class count in 4..{2 * MAX_DEPTH}, got {k[0]}"
        )
    return heads
