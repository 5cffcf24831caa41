import pytest

from catparse.tree import (
    Action,
    CatalogTree,
    IllegalAction,
    MissingInput,
    NodeKind,
    Segment,
    TransitionState,
    TreeInvariantError,
    apply_action,
    flatten,
    join_content,
    legal_actions,
    tree_depth,
    validate_tree,
)

from .conftest import WALKTHROUGH_TUPLES, heading, node_count, text, tree_of, walkthrough_tree


def test_segment_rejects_empty_and_linebreaks():
    with pytest.raises(ValueError):
        Segment("   ", 0)
    with pytest.raises(ValueError):
        Segment("a\nb", 0)
    with pytest.raises(ValueError):
        Segment("ok", -1)


def test_action_wire_names_round_trip():
    for action in Action:
        assert Action[action.wire_name.upper()] is action
    assert [a.wire_name for a in Action] == ["sub_heading", "sub_text", "concat", "reduce"]


class TestApplyAction:
    def test_sub_heading_descends(self):
        state = TransitionState.initial()
        apply_action(state, Action.SUB_HEADING, Segment("Credit Rating Report", 0))
        assert state.focus.kind is NodeKind.HEADING
        assert state.focus.content == "Credit Rating Report"
        assert state.focus.source_segments == [0]
        assert state.tree.root.children == [state.focus]
        assert state.consumed == 1

    def test_sub_text_creates_leaf(self):
        state = TransitionState.initial()
        apply_action(state, Action.SUB_HEADING, Segment("h", 0))
        apply_action(state, Action.SUB_TEXT, Segment("body", 1))
        assert state.focus.kind is NodeKind.TEXT
        assert state.depth == 2

    def test_concat_appends_with_joiner(self):
        state = TransitionState.initial(joiner=" ")
        apply_action(state, Action.SUB_HEADING, Segment("h", 0))
        apply_action(state, Action.SUB_TEXT, Segment("The balance", 1))
        apply_action(state, Action.CONCAT, Segment("was 474 billion yuan.", 2))
        assert state.focus.content == "The balance was 474 billion yuan."
        assert state.focus.source_segments == [1, 2]
        assert state.consumed == 3

    def test_reduce_moves_to_parent_without_consuming(self):
        state = TransitionState.initial()
        apply_action(state, Action.SUB_HEADING, Segment("h", 0))
        apply_action(state, Action.SUB_TEXT, Segment("t", 1))
        consumed = state.consumed
        apply_action(state, Action.REDUCE)
        assert state.focus.kind is NodeKind.HEADING
        assert state.consumed == consumed

    def test_missing_segment(self):
        state = TransitionState.initial()
        with pytest.raises(MissingInput):
            apply_action(state, Action.SUB_HEADING)

    def test_reduce_at_root_is_always_illegal(self):
        state = TransitionState.initial()
        with pytest.raises(IllegalAction):
            apply_action(state, Action.REDUCE, enforce_constraints=False)

    def test_concat_at_root_is_always_illegal(self):
        state = TransitionState.initial()
        with pytest.raises(IllegalAction):
            apply_action(state, Action.CONCAT, Segment("x", 0), enforce_constraints=False)

    def test_text_focus_rejects_children_when_enforcing(self):
        state = TransitionState.initial()
        apply_action(state, Action.SUB_HEADING, Segment("h", 0))
        apply_action(state, Action.SUB_TEXT, Segment("t", 1))
        with pytest.raises(IllegalAction):
            apply_action(state, Action.SUB_TEXT, Segment("u", 2))
        # the ablation may attach it anyway
        apply_action(state, Action.SUB_TEXT, Segment("u", 2), enforce_constraints=False)
        assert state.focus.content == "u"


class TestLegalActions:
    def test_fresh_state(self):
        state = TransitionState.initial()
        assert legal_actions(state, queue_empty=False) == {
            Action.SUB_HEADING,
            Action.SUB_TEXT,
        }

    def test_root_with_empty_queue_terminates(self):
        state = TransitionState.initial()
        assert legal_actions(state, queue_empty=True) == frozenset()

    def test_text_focus(self):
        state = TransitionState.initial()
        apply_action(state, Action.SUB_TEXT, Segment("t", 0))
        assert legal_actions(state, queue_empty=False) == {Action.CONCAT, Action.REDUCE}
        assert legal_actions(state, queue_empty=True) == {Action.REDUCE}

    def test_heading_focus(self):
        state = TransitionState.initial()
        apply_action(state, Action.SUB_HEADING, Segment("h", 0))
        assert legal_actions(state, queue_empty=False) == set(Action)
        assert legal_actions(state, queue_empty=True) == {Action.REDUCE}

    def test_heading_with_children_cannot_concat(self):
        # appending a piece after a subtree would scramble document order
        state = TransitionState.initial()
        apply_action(state, Action.SUB_HEADING, Segment("h", 0))
        apply_action(state, Action.SUB_TEXT, Segment("t", 1))
        apply_action(state, Action.REDUCE)
        assert legal_actions(state, queue_empty=False) == {
            Action.SUB_HEADING,
            Action.SUB_TEXT,
            Action.REDUCE,
        }
        with pytest.raises(IllegalAction):
            apply_action(state, Action.CONCAT, Segment("x", 2))

    def test_never_empty_unless_finished(self):
        state = TransitionState.initial()
        apply_action(state, Action.SUB_HEADING, Segment("h", 0))
        apply_action(state, Action.SUB_TEXT, Segment("t", 1))
        for queue_empty in (False, True):
            assert legal_actions(state, queue_empty)


class TestFlatten:
    def test_two_node_tree(self):
        t = tree_of(heading("H1", [0], text("T1", [1])))
        assert flatten(t) == [
            (1, NodeKind.HEADING, "H1"),
            (2, NodeKind.TEXT, "T1"),
        ]

    def test_walkthrough_tree(self):
        assert flatten(walkthrough_tree()) == WALKTHROUGH_TUPLES

    def test_bare_root(self):
        assert flatten(CatalogTree.empty()) == []

    def test_length_is_node_count_minus_one(self):
        t = walkthrough_tree()
        assert len(flatten(t)) == node_count(t) - 1


def test_tree_depth_counts_root():
    assert tree_depth(CatalogTree.empty()) == 1
    assert tree_depth(tree_of(heading("h", [0], text("t", [1])))) == 3


def test_join_content():
    assert join_content("", "x") == "x"
    assert join_content("a", "b") == "ab"
    assert join_content("a", "b", " ") == "a b"


class TestValidate:
    def test_walkthrough_is_valid(self):
        segments = [
            Segment(s, i)
            for i, s in enumerate(
                [
                    "Credit Rating Report",
                    "Debt Situation",
                    "The balance",
                    "was 474 billion yuan.",
                    "Security Analysis",
                    "Texts",
                ]
            )
        ]
        validate_tree(walkthrough_tree(), segments, joiner=" ")

    def test_text_with_children(self):
        bad = tree_of(text("t", [0]))
        bad.root.children[0].children.append(text("u", [1]))
        with pytest.raises(TreeInvariantError):
            validate_tree(bad)

    def test_root_content_must_be_empty(self):
        bad = CatalogTree.empty()
        bad.root.content = "oops"
        with pytest.raises(TreeInvariantError):
            validate_tree(bad)

    def test_segment_order(self):
        bad = tree_of(heading("a", [1]), heading("b", [0]))
        with pytest.raises(TreeInvariantError):
            validate_tree(bad)

    def test_content_join_mismatch(self):
        t = tree_of(heading("ab", [0, 1]))
        validate_tree(t, [Segment("a", 0), Segment("b", 1)])
        with pytest.raises(TreeInvariantError):
            validate_tree(t, [Segment("a", 0), Segment("c", 1)])

    def test_segmentless_trees_accepted(self):
        t = tree_of(heading("h", [], text("t", [])))
        validate_tree(t)
