import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catparse import jsonio
from catparse.baselines import DEFAULT_MAX_DEPTH, pipeline_examples, tagging_examples
from catparse.corpus import ChunkConfig, GenConfig, chunk_document, generate_synthetic
from catparse.engine import (
    OracleError,
    decode,
    gold_owners,
    oracle_actions,
    oracle_examples,
    replay_actions,
)
from catparse.scoring import ActionScores, softmax
from catparse.tree import (
    MAX_DEPTH,
    Action,
    NodeKind,
    Segment,
    flatten,
    tree_depth,
    validate_tree,
)

from .conftest import (
    WALKTHROUGH_ACTIONS,
    WALKTHROUGH_SEGMENTS,
    WALKTHROUGH_TUPLES,
    ConstantScorer,
    RandomScorer,
    ScriptedScorer,
    heading,
    one_hot_logits,
    text,
    tree_of,
    walkthrough_tree,
)


class TestDecode:
    def test_walkthrough_replay(self, walkthrough):
        segments, actions, gold = walkthrough
        scorer = ScriptedScorer([a for a, _ in actions])
        tree, trace = decode(segments, scorer, joiner=" ")
        assert tree == gold
        assert flatten(tree) == WALKTHROUGH_TUPLES
        assert [s.action for s in trace.steps] == [a for a, _ in actions]
        assert not any(s.forced for s in trace.steps)

    def test_empty_input_yields_bare_root(self):
        tree, trace = decode([], ConstantScorer(Action.REDUCE))
        assert flatten(tree) == []
        assert trace.steps == []

    def test_single_segment_first_action_forced(self):
        # a scorer that insists on REDUCE still must attach the segment
        tree, trace = decode([Segment("only", 0)], ConstantScorer(Action.REDUCE))
        assert len(tree.root.children) == 1
        assert trace.steps[0].forced
        assert trace.steps[0].action in (Action.SUB_HEADING, Action.SUB_TEXT)

    def test_constant_reduce_scorer_terminates_and_consumes_all(self):
        segments = [Segment(f"seg {i}", i) for i in range(10)]
        tree, trace = decode(segments, ConstantScorer(Action.REDUCE))
        validate_tree(tree, segments)
        consuming = [s for s in trace.steps if s.segment_index is not None]
        assert len(consuming) == len(segments)

    def test_deterministic_trace(self):
        segments = [Segment(f"seg {i}", i) for i in range(8)]
        scorer = RandomScorer(seed=5)
        first = decode(segments, RandomScorer(seed=5))
        second = decode(segments, RandomScorer(seed=5))
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_tie_breaks_by_declaration_order(self):
        class Flat(ConstantScorer):
            def score_input(self, inp):
                return ActionScores.from_logits([0.0, 0.0, 0.0, 0.0])

        tree, trace = decode([Segment("a", 0), Segment("b", 1)], Flat(Action.REDUCE))
        # all scores equal: first legal in declaration order wins
        assert trace.steps[0].action is Action.SUB_HEADING
        assert trace.steps[1].action is Action.SUB_HEADING

    def test_unconstrained_can_break_text_leaf_rule(self):
        scorer = ScriptedScorer(
            [Action.SUB_TEXT, Action.SUB_TEXT, Action.SUB_TEXT]
        )
        segments = [Segment("a", 0), Segment("b", 1), Segment("c", 2)]
        tree, trace = decode(segments, scorer, constrained=False)
        # text nodes nested under text nodes: a valid tree, but no gold tree
        assert flatten(tree) == [
            (1, NodeKind.TEXT, "a"), (2, NodeKind.TEXT, "b"), (3, NodeKind.TEXT, "c")
        ]
        validate_tree(tree, segments)
        with pytest.raises(OracleError, match="has children"):
            gold_owners(tree)
        assert not any(s.forced for s in trace.steps)

    def test_unconstrained_still_repairs_impossible_actions(self):
        tree, trace = decode(
            [Segment("a", 0)], ConstantScorer(Action.REDUCE), constrained=False
        )
        assert trace.steps[0].forced
        assert len(tree.root.children) == 1

    def test_focus_is_named_by_the_segment_that_opened_it(self, walkthrough):
        segments, actions, _ = walkthrough
        _, trace = decode(segments, ScriptedScorer([a for a, _ in actions]), joiner=" ")
        assert [s.focus_segment for s in trace.steps] == [None, 0, 1, 2, 2, 1, 0, 4]
        assert [s.segment_index for s in trace.steps] == [i for _, i in actions]

    @pytest.mark.parametrize("constrained", [True, False])
    def test_depth_bound_holds_in_both_modes(self, constrained):
        segments = [Segment(f"s{i}", i) for i in range(3 * MAX_DEPTH)]
        tree, trace = decode(segments, ConstantScorer(Action.SUB_HEADING), constrained)
        assert tree_depth(tree) == MAX_DEPTH + 1
        validate_tree(tree, segments)
        # past the bound, ties between CONCAT and REDUCE go to CONCAT
        forced = [s for s in trace.steps if s.forced]
        assert len(forced) == len(segments) - MAX_DEPTH
        assert {(s.focus_segment, s.action) for s in forced} == {(MAX_DEPTH - 1, Action.CONCAT)}
        obj = jsonio.serialize_tree(tree)
        assert jsonio.parse_tree(obj) == tree
        assert replay_actions(oracle_actions(tree), segments) == tree

    def test_trace_scores_are_probabilities(self):
        tree, trace = decode([Segment("a", 0)], ConstantScorer(Action.SUB_TEXT))
        assert trace.steps[0].logits == tuple(one_hot_logits(Action.SUB_TEXT))
        assert abs(sum(softmax(np.array(trace.steps[0].logits))) - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "logits, expected, forced",
        [
            # At the root only SUB_HEADING and SUB_TEXT are legal. Not
            # forced: the first highest logit.
            ([0.0, 3.0, 3.0, 1.0], Action.SUB_TEXT, False),
            ([3.0, 0.0, 3.0, 3.0], Action.SUB_HEADING, False),
            # forced: the legal actions rank by probability
            ([1.0, 2.0, 9.0, 0.0], Action.SUB_TEXT, True),
            # equal probabilities go to the first in declaration order
            ([1.0, 1.0, 9.0, 0.0], Action.SUB_HEADING, True),
            # the legal logits differ, but both probabilities underflow to 0.0
            ([-5.0, -2.0, 1000.0, 0.0], Action.SUB_HEADING, True),
        ],
    )
    def test_forced_steps_pick_by_probability(self, logits, expected, forced):
        class Fixed(ConstantScorer):
            def score_input(self, inp):
                return ActionScores.from_logits(logits)

        tree, trace = decode([Segment("a", 0)], Fixed(Action.REDUCE))
        (step,) = trace.steps
        assert (step.action, step.forced, step.logits) == (expected, forced, tuple(logits))

    @pytest.mark.parametrize("indices", [[0, 0], [1, 2], [1, 0]])
    def test_indices_must_be_stream_positions(self, indices):
        segments = [Segment(f"s{i}", i) for i in indices]
        with pytest.raises(ValueError, match="segment indices"):
            decode(segments, ConstantScorer(Action.SUB_TEXT))


class TestOracle:
    def test_walkthrough_actions(self, walkthrough):
        _, actions, gold = walkthrough
        assert oracle_actions(gold) == actions

    def test_gold_owners_of_walkthrough(self, walkthrough):
        segments, _, gold = walkthrough
        owners = gold_owners(gold)
        assert len(owners) == len(segments)
        assert [(node.content, level) for node, level in owners] == [
            ("Credit Rating Report", 1),
            ("Debt Situation", 2),
            ("The balance was 474 billion yuan.", 3),
            ("The balance was 474 billion yuan.", 3),
            ("Security Analysis", 2),
            ("Texts", 3),
        ]
        # both pieces of the split text belong to the one node
        assert owners[2][0] is owners[3][0]
        for (node, _), segment in zip(owners, segments):
            assert segment.index in node.source_segments

    def test_single_heading(self):
        gold = tree_of(heading("H1", [0]))
        assert oracle_actions(gold) == [(Action.SUB_HEADING, 0)]

    def test_replay_reproduces_walkthrough(self, walkthrough):
        segments, _, gold = walkthrough
        assert replay_actions(oracle_actions(gold), segments, joiner=" ") == gold

    def test_concat_on_heading_focus(self):
        gold = tree_of(heading("long title", [0, 1], text("body", [2])))
        segments = [Segment("long ti", 0), Segment("tle", 1), Segment("body", 2)]
        actions = oracle_actions(gold)
        assert actions == [
            (Action.SUB_HEADING, 0),
            (Action.CONCAT, 1),
            (Action.SUB_TEXT, 2),
        ]
        rebuilt = replay_actions(actions, segments, joiner="")
        assert rebuilt.root.children[0].content == "long title"

    def test_non_linearizable_tree(self):
        bad = tree_of(heading("a", [1]), heading("b", [0]))
        with pytest.raises(OracleError):
            oracle_actions(bad)

    def test_interleaved_segments_rejected(self):
        bad = tree_of(heading("xy", [0, 2], text("z", [1])))
        with pytest.raises(OracleError):
            oracle_actions(bad)

    def test_round_trip_on_generated_corpus(self):
        trees = generate_synthetic(GenConfig(doc_count=40, depth_range=(2, 6), seed=11))
        checked = 0
        for i, tree in enumerate(trees):
            for p in (0.0, 0.5, 1.0):
                cfg = ChunkConfig(chunk_probability=p, seed=100 + i)
                segments, gold = chunk_document(tree, cfg)
                rebuilt = replay_actions(oracle_actions(gold), segments)
                assert rebuilt == gold
                checked += 1
        assert checked == 120

    def test_p_zero_has_no_concat(self):
        trees = generate_synthetic(GenConfig(doc_count=5, seed=3))
        for tree in trees:
            segments, gold = chunk_document(tree, ChunkConfig(chunk_probability=0.0, seed=1))
            actions = oracle_actions(gold)
            assert all(a is not Action.CONCAT for a, _ in actions)
            consuming = [a for a, _ in actions if a is not Action.REDUCE]
            assert len(consuming) == len(segments)


class TestLengthMismatch:
    """Actions and the stream they replay must end together."""

    def test_replay_with_a_shorter_stream(self, walkthrough):
        segments, actions, _ = walkthrough
        with pytest.raises(OracleError, match="actions remain"):
            replay_actions(actions, segments[:-1], joiner=" ")

    def test_replay_with_a_longer_stream(self, walkthrough):
        segments, actions, _ = walkthrough
        extra = segments + [Segment("one more", len(segments))]
        with pytest.raises(OracleError, match="actions end"):
            replay_actions(actions, extra, joiner=" ")

    def test_oracle_examples_with_either_mismatch(self, walkthrough):
        segments, _, gold = walkthrough
        builders = (
            lambda stream: oracle_examples(gold, stream, joiner=" "),
            lambda stream: pipeline_examples(gold, stream, DEFAULT_MAX_DEPTH),
            lambda stream: tagging_examples(gold, stream, DEFAULT_MAX_DEPTH),
        )
        for stream in (segments[:-2], segments + [Segment("x", 6)]):
            for build in builders:
                with pytest.raises(OracleError):
                    build(stream)

    def test_recorded_index_must_match_the_stream(self, walkthrough):
        segments, actions, _ = walkthrough
        shifted = [(a, None if i is None else i + 1) for a, i in actions]
        with pytest.raises(OracleError, match="names segment 1"):
            replay_actions(shifted, segments, joiner=" ")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_random_scorer_streams(length, seed):
    segments = [Segment(f"s{i}", i) for i in range(length)]
    tree, _ = decode(segments, RandomScorer(seed))
    validate_tree(tree, segments)
    assert replay_actions(oracle_actions(tree), segments) == tree
    _, trace = decode(segments, RandomScorer(seed), constrained=False)
    assert all(s.focus_segment is None for s in trace.steps if s.forced)
    assert len([s for s in trace.steps if s.segment_index is not None]) == length


def test_oracle_examples_see_partial_content(walkthrough):
    segments, _, gold = walkthrough
    examples = oracle_examples(gold, segments, joiner=" ")
    assert len(examples) == len(WALKTHROUGH_ACTIONS)
    concat_step = examples[3]
    assert concat_step[1] is Action.CONCAT
    # at concat time the focus holds only the first piece
    assert concat_step[0].focus_text == "The balance"
    assert concat_step[0].segment_text == "was 474 billion yuan."
    reduce_step = examples[4]
    assert reduce_step[0].focus_kind is NodeKind.TEXT
    assert reduce_step[0].segment_text == "Security Analysis"
