import pytest

from catparse.corpus import ChunkConfig, GenConfig, chunk_document, generate_synthetic
from catparse.engine import (
    OracleError,
    decode,
    oracle_actions,
    oracle_examples,
    replay_actions,
)
from catparse.tree import (
    Action,
    NodeKind,
    Segment,
    flatten,
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
                from catparse.scoring import ActionScores

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
        # text nodes nested under text nodes: invalid on purpose
        with pytest.raises(Exception):
            validate_tree(tree)
        assert not any(s.forced for s in trace.steps)

    def test_unconstrained_still_repairs_impossible_actions(self):
        tree, trace = decode(
            [Segment("a", 0)], ConstantScorer(Action.REDUCE), constrained=False
        )
        assert trace.steps[0].forced
        assert len(tree.root.children) == 1

    def test_trace_scores_are_probabilities(self):
        tree, trace = decode([Segment("a", 0)], ConstantScorer(Action.SUB_TEXT))
        assert abs(sum(trace.steps[0].scores) - 1.0) < 1e-9


class TestOracle:
    def test_walkthrough_actions(self, walkthrough):
        _, actions, gold = walkthrough
        assert oracle_actions(gold) == actions

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
