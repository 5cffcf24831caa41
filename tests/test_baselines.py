import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catparse.baselines import (
    DEFAULT_MAX_DEPTH,
    MERGE,
    NEW_UNIT,
    TEXT_LEVEL,
    _build_tree,
    class_to_level,
    level_label_count,
    level_to_class,
    pipeline_examples,
    pipeline_predict,
    tag_class,
    tag_count,
    tagging_examples,
    tagging_predict,
)
from catparse.corpus import ChunkConfig, GenConfig, chunk_document, generate_synthetic
from catparse.engine import oracle_actions, replay_actions
from catparse import scoring
from catparse.scoring import LinearModel
from catparse.tree import MAX_DEPTH, NodeKind, Segment, flatten, iter_nodes, validate_tree

from .baselines_reference import (
    Unit,
    _merge_segments,
    rebuild_from_levels,
    reference_pipeline_predict,
    reference_tagging_predict,
)
from .conftest import WALKTHROUGH_SEGMENTS, heading, text, tree_of, walkthrough_tree
from .dense_heads import full_head


class ScriptedHead:
    """Stand-in for a trained head: emits a fixed class per call."""

    hash_seed = 0
    dim = 1 << 10

    def __init__(self, script: list[int], classes: int):
        self.script = list(script)
        self.classes = classes
        self.calls = 0

    def logits_for(self, indices, values):
        logits = np.zeros(self.classes)
        logits[self.script[self.calls]] = 5.0
        self.calls += 1
        return logits


class ConstantHead:
    hash_seed = 0
    dim = 1 << 10

    def __init__(self, cls: int, classes: int):
        self.cls = cls
        self.classes = classes

    def logits_for(self, indices, values):
        logits = np.zeros(self.classes)
        logits[self.cls] = 5.0
        return logits


def test_label_encoding_round_trips():
    for depth in (1, 4, 8):
        for level in range(0, depth + 1):
            cls = level_to_class(level, depth)
            assert 0 <= cls < level_label_count(depth)
            assert class_to_level(cls, depth) == level
    assert level_to_class(9, 8) == level_to_class(8, 8)  # clamp


def build(units, joiner=""):
    """``_build_tree`` of ``(level, piece count)`` units, one segment per
    piece, each piece's text naming its segment."""
    segments, merge_after = [], []
    for _, pieces in units:
        for piece in range(pieces):
            segments.append(Segment(f"s{len(segments)}", len(segments)))
            merge_after.append(piece > 0)
    levels = [level for level, _ in units]
    return _build_tree(segments, merge_after, levels, joiner), segments, merge_after, levels


class TestRebuild:
    def test_heading_pops_to_shallower(self):
        tree = build([(1, 1), (2, 1), (TEXT_LEVEL, 1), (1, 1)])[0]
        assert flatten(tree) == [
            (1, NodeKind.HEADING, "s0"),
            (2, NodeKind.HEADING, "s1"),
            (3, NodeKind.TEXT, "s2"),
            (1, NodeKind.HEADING, "s3"),
        ]

    def test_empty_units(self):
        assert flatten(build([])[0]) == []

    def test_single_text(self):
        assert flatten(build([(TEXT_LEVEL, 1)])[0]) == [(1, NodeKind.TEXT, "s0")]

    def test_skipped_levels_allowed(self):
        tree = build([(1, 1), (3, 1), (TEXT_LEVEL, 1)])[0]
        assert flatten(tree) == [
            (1, NodeKind.HEADING, "s0"),
            (2, NodeKind.HEADING, "s1"),
            (3, NodeKind.TEXT, "s2"),
        ]

    def test_unit_objects_with_segments(self):
        tree, segments, _, _ = build([(1, 1), (TEXT_LEVEL, 2)], " ")
        assert [node.source_segments for node, _ in iter_nodes(tree)] == [[0], [1, 2]]
        assert flatten(tree)[-1] == (2, NodeKind.TEXT, "s1 s2")
        validate_tree(tree, segments, " ")

    @given(
        st.lists(st.tuples(st.integers(0, MAX_DEPTH - 1), st.integers(1, 3)), max_size=40),
        st.sampled_from(["", " "]),
    )
    @example([(TEXT_LEVEL, 2), (2, 1), (TEXT_LEVEL, 1), (1, 1)], " ")
    @example([(1, 1), (4, 2), (9, 1), (3, 1), (TEXT_LEVEL, 1), (2, 1)], "")
    @example([(level, 1) for level in range(1, MAX_DEPTH)] + [(TEXT_LEVEL, 2)], " ")
    @settings(max_examples=150, deadline=None)
    def test_equals_the_unit_stack_reference(self, units, joiner):
        tree, segments, merge_after, levels = build(units, joiner)
        reference = rebuild_from_levels(
            [
                Unit(level, content, indices)
                for level, (content, indices) in zip(
                    levels, _merge_segments(segments, merge_after, joiner)
                )
            ]
        )
        assert tree == reference
        validate_tree(tree, segments, joiner)
        assert replay_actions(oracle_actions(tree), segments, joiner) == tree


class TestTagging:
    def test_hand_tagged_sequence(self):
        """B-H1, B-H2, B-Text, I-Text, B-H2 merges the text pieces."""
        depth = DEFAULT_MAX_DEPTH
        tags = [
            tag_class(1, False, depth),
            tag_class(2, False, depth),
            tag_class(TEXT_LEVEL, False, depth),
            tag_class(TEXT_LEVEL, True, depth),
            tag_class(2, False, depth),
        ]
        segments = [Segment(t, i) for i, t in enumerate(["h1", "h2", "ta", "tb", "h2b"])]
        tree = tagging_predict(segments, ScriptedHead(tags, tag_count(depth)))
        assert flatten(tree) == [
            (1, NodeKind.HEADING, "h1"),
            (2, NodeKind.HEADING, "h2"),
            (3, NodeKind.TEXT, "tatb"),
            (2, NodeKind.HEADING, "h2b"),
        ]
        validate_tree(tree, segments)

    def test_single_b_text(self):
        head = ScriptedHead([tag_class(TEXT_LEVEL, False, 8)], tag_count(8))
        tree = tagging_predict([Segment("x", 0)], head)
        assert flatten(tree) == [(1, NodeKind.TEXT, "x")]

    def test_leading_inside_tag_coerced_to_begin(self):
        head = ScriptedHead([tag_class(TEXT_LEVEL, True, 8)], tag_count(8))
        tree = tagging_predict([Segment("x", 0)], head)
        assert flatten(tree) == [(1, NodeKind.TEXT, "x")]

    def test_mismatched_inside_tag_opens_new_span(self):
        depth = 8
        tags = [
            tag_class(1, False, depth),
            tag_class(2, True, depth),  # I-H2 after B-H1: becomes B-H2
        ]
        tree = tagging_predict(
            [Segment("a", 0), Segment("b", 1)], ScriptedHead(tags, tag_count(depth))
        )
        assert flatten(tree) == [
            (1, NodeKind.HEADING, "a"),
            (2, NodeKind.HEADING, "b"),
        ]


class TestPipeline:
    def test_perfect_heads_rebuild_walkthrough(self):
        gold = walkthrough_tree()
        merges = [MERGE if m else NEW_UNIT for m in [False, False, True, False, False]]
        levels = [
            level_to_class(1, 8),
            level_to_class(2, 8),
            level_to_class(TEXT_LEVEL, 8),
            level_to_class(2, 8),
            level_to_class(TEXT_LEVEL, 8),
        ]
        tree = pipeline_predict(
            WALKTHROUGH_SEGMENTS,
            ScriptedHead(merges, 2),
            ScriptedHead(levels, level_label_count(8)),
            joiner=" ",
        )
        assert tree == gold

    def test_all_merge_yields_single_node(self):
        segments = [Segment(t, i) for i, t in enumerate(["a", "b", "c"])]
        tree = pipeline_predict(
            segments,
            ConstantHead(MERGE, 2),
            ConstantHead(level_to_class(1, 8), level_label_count(8)),
        )
        assert len(tree.root.children) == 1
        assert tree.root.children[0].content == "abc"

    def test_all_text_level_flattens_under_root(self):
        segments = [Segment(t, i) for i, t in enumerate(["a", "b"])]
        tree = pipeline_predict(
            segments,
            ConstantHead(NEW_UNIT, 2),
            ConstantHead(level_to_class(TEXT_LEVEL, 8), level_label_count(8)),
        )
        assert flatten(tree) == [
            (1, NodeKind.TEXT, "a"),
            (1, NodeKind.TEXT, "b"),
        ]

    def test_empty_segments(self):
        tree = pipeline_predict([], ConstantHead(0, 2), ConstantHead(0, 9))
        assert flatten(tree) == []


def test_example_builders_align_with_gold():
    gold = walkthrough_tree()
    pairs, levels = pipeline_examples(gold, WALKTHROUGH_SEGMENTS, 8)
    assert [label for _, label in pairs] == [NEW_UNIT, NEW_UNIT, MERGE, NEW_UNIT, NEW_UNIT]
    assert [label for _, label in levels] == [
        level_to_class(1, 8),
        level_to_class(2, 8),
        level_to_class(TEXT_LEVEL, 8),
        level_to_class(2, 8),
        level_to_class(TEXT_LEVEL, 8),
    ]
    tags = tagging_examples(gold, WALKTHROUGH_SEGMENTS, 8)
    assert [label for _, label in tags] == [
        tag_class(1, False, 8),
        tag_class(2, False, 8),
        tag_class(TEXT_LEVEL, False, 8),
        tag_class(TEXT_LEVEL, True, 8),
        tag_class(2, False, 8),
        tag_class(TEXT_LEVEL, False, 8),
    ]


def oracle_units(gold, max_depth: int) -> list[Unit]:
    """The units a perfect level classifier would produce for a gold tree;
    heading levels deeper than ``max_depth`` clamp."""
    return [
        Unit(
            level=TEXT_LEVEL if node.kind is NodeKind.TEXT else min(level, max_depth),
            content=node.content,
            segments=tuple(node.source_segments),
        )
        for node, level in iter_nodes(gold)
    ]


class TestOracleReproduction:
    def test_both_baselines_reproduce_generated_trees(self):
        trees = generate_synthetic(GenConfig(doc_count=15, depth_range=(2, 5), seed=31))
        for i, tree in enumerate(trees):
            segments, gold = chunk_document(tree, ChunkConfig(chunk_probability=0.5, seed=i))
            units = oracle_units(gold, DEFAULT_MAX_DEPTH)

            owners = {}
            for ordinal, unit in enumerate(units):
                for seg in unit.segments:
                    owners[seg] = ordinal
            merges = [
                MERGE if owners[i] == owners[i - 1] else NEW_UNIT
                for i in range(1, len(segments))
            ]
            levels = [level_to_class(u.level, DEFAULT_MAX_DEPTH) for u in units]
            rebuilt = pipeline_predict(
                segments,
                ScriptedHead(merges, 2),
                ScriptedHead(levels, level_label_count(DEFAULT_MAX_DEPTH)),
            )
            assert rebuilt == gold

            tags = [label for _, label in tagging_examples(gold, segments, DEFAULT_MAX_DEPTH)]
            rebuilt = tagging_predict(
                segments, ScriptedHead(tags, tag_count(DEFAULT_MAX_DEPTH))
            )
            assert rebuilt == gold

    def test_deep_trees_defeat_level_labels_but_not_transitions(self):
        # ten nested headings: deeper than the label set can express
        node = heading("h10", [9])
        for i in range(8, -1, -1):
            node = heading(f"h{i + 1}", [i], node)
        gold = tree_of(node)
        segments = [Segment(f"h{i + 1}", i) for i in range(10)]

        units = oracle_units(gold, DEFAULT_MAX_DEPTH)
        levels = [level_to_class(u.level, DEFAULT_MAX_DEPTH) for u in units]
        merges = [NEW_UNIT] * (len(segments) - 1)
        rebuilt = pipeline_predict(
            segments,
            ScriptedHead(merges, 2),
            ScriptedHead(levels, level_label_count(DEFAULT_MAX_DEPTH)),
        )
        assert rebuilt != gold  # levels 9 and 10 clamp to 8

        replayed = replay_actions(oracle_actions(gold), segments)
        assert replayed == gold


def test_arbitrary_models_emit_valid_trees():
    rng = np.random.default_rng(3)
    dim = 1 << 14
    segments, gold = chunk_document(
        generate_synthetic(GenConfig(doc_count=1, seed=8))[0],
        ChunkConfig(chunk_probability=0.5, seed=8),
    )
    for trial in range(5):
        concat = full_head(dim=dim, classes=2)
        level = full_head(dim=dim, classes=9)
        tags = full_head(dim=dim, classes=18)
        for model in (concat, level, tags):
            model.weights[:] = rng.normal(size=model.weights.shape)
        tree = pipeline_predict(segments, concat, level)
        validate_tree(tree, segments)
        tree = tagging_predict(segments, tags)
        validate_tree(tree, segments)


def random_head(rng, classes: int, dim: int, hash_seed: int) -> LinearModel:
    head = full_head(dim=dim, classes=classes, hash_seed=hash_seed)
    head.weights[:] = rng.normal(size=head.weights.shape)
    head.bias[:] = rng.normal(size=classes)
    return head


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("level_classes,tag_classes", [(2, 4), (9, 18)])
@pytest.mark.parametrize("chunk_chars", [50, scoring.HASH_CHUNK_CHARS])
def test_batched_baselines_match_per_input_reference(
    monkeypatch, seed, level_classes, tag_classes, chunk_chars
):
    """Both baselines featurize a document's inputs in batches; the trees
    must be those of featurizing one input at a time."""
    monkeypatch.setattr(scoring, "HASH_CHUNK_CHARS", chunk_chars)
    rng = np.random.default_rng(seed)
    trees = generate_synthetic(GenConfig(doc_count=5, seed=seed))
    streams = [
        chunk_document(tree, ChunkConfig(chunk_probability=0.5, seed=seed + i))[0]
        for i, tree in enumerate(trees)
    ]
    streams += [[Segment("1. Scope", 0)], [Segment("正文。", 0)], []]
    # the two pipeline heads differ in width and hash seed
    merge = random_head(rng, 2, 1 << 12, seed)
    level = random_head(rng, level_classes, 1 << 10, seed + 1)
    tags = random_head(rng, tag_classes, 1 << 12, seed + 2)
    for joiner in ("", " "):
        for segments in streams:
            assert pipeline_predict(segments, merge, level, joiner) == reference_pipeline_predict(
                segments, merge, level, joiner
            )
            assert tagging_predict(segments, tags, joiner) == reference_tagging_predict(
                segments, tags, joiner
            )
