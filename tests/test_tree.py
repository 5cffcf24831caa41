import pytest

from catparse.engine import OracleError, gold_owners
from catparse.tree import (
    MAX_DEPTH,
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
        assert state.depth == 1

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
        assert state.depth == 2

    def test_reduce_moves_to_parent_without_consuming(self):
        state = TransitionState.initial()
        apply_action(state, Action.SUB_HEADING, Segment("h", 0))
        apply_action(state, Action.SUB_TEXT, Segment("t", 1))
        apply_action(state, Action.REDUCE, Segment("ignored", 2))
        assert state.focus.kind is NodeKind.HEADING
        assert [n.source_segments for n in state.focus.children] == [[1]]

    def test_missing_segment(self):
        state = TransitionState.initial()
        with pytest.raises(MissingInput):
            apply_action(state, Action.SUB_HEADING)

    def test_reduce_at_root_is_always_illegal(self):
        state = TransitionState.initial()
        with pytest.raises(IllegalAction):
            apply_action(state, Action.REDUCE, constrained=False)

    def test_concat_at_root_is_always_illegal(self):
        state = TransitionState.initial()
        with pytest.raises(IllegalAction):
            apply_action(state, Action.CONCAT, Segment("x", 0), constrained=False)

    def test_text_focus_rejects_children_when_enforcing(self):
        state = TransitionState.initial()
        apply_action(state, Action.SUB_HEADING, Segment("h", 0))
        apply_action(state, Action.SUB_TEXT, Segment("t", 1))
        with pytest.raises(IllegalAction):
            apply_action(state, Action.SUB_TEXT, Segment("u", 2))
        # the ablation may attach it anyway
        apply_action(state, Action.SUB_TEXT, Segment("u", 2), constrained=False)
        assert state.focus.content == "u"


def chain(depth: int, last: Action = Action.SUB_HEADING) -> TransitionState:
    """A state whose focus sits at ``depth``: headings down, then ``last``."""
    state = TransitionState.initial()
    for i in range(depth - 1):
        apply_action(state, Action.SUB_HEADING, Segment(f"h{i}", i))
    if depth:
        apply_action(state, last, Segment("leaf", depth - 1))
    return state


def all_focus_kinds() -> list[TransitionState]:
    """Root; heading, heading with children and text at depth 1; heading
    and text at MAX_DEPTH, where no node can have children."""
    parent = chain(1)
    apply_action(parent, Action.SUB_TEXT, Segment("t", 1))
    apply_action(parent, Action.REDUCE)
    return [
        chain(0), chain(1), parent, chain(1, Action.SUB_TEXT),
        chain(MAX_DEPTH), chain(MAX_DEPTH, Action.SUB_TEXT),
    ]


class TestLegalActions:
    def test_fresh_state(self):
        for constrained in (True, False):
            assert legal_actions(chain(0), constrained) == {
                Action.SUB_HEADING,
                Action.SUB_TEXT,
            }

    def test_text_focus(self):
        state = chain(1, Action.SUB_TEXT)
        assert legal_actions(state, True) == {Action.CONCAT, Action.REDUCE}
        assert legal_actions(state, False) == set(Action)

    def test_heading_focus(self):
        for constrained in (True, False):
            assert legal_actions(chain(1), constrained) == set(Action)

    def test_heading_with_children_cannot_concat(self):
        # appending a piece after a subtree would scramble document order
        state = TransitionState.initial()
        apply_action(state, Action.SUB_HEADING, Segment("h", 0))
        apply_action(state, Action.SUB_TEXT, Segment("t", 1))
        apply_action(state, Action.REDUCE)
        assert legal_actions(state, True) == {
            Action.SUB_HEADING,
            Action.SUB_TEXT,
            Action.REDUCE,
        }
        with pytest.raises(IllegalAction):
            apply_action(state, Action.CONCAT, Segment("x", 2))
        # the ablation may still extend it
        assert legal_actions(state, False) == set(Action)

    def test_no_child_attaches_at_max_depth(self):
        heading, leaf = all_focus_kinds()[4:]
        assert heading.depth == leaf.depth == MAX_DEPTH
        for constrained in (True, False):
            assert legal_actions(heading, constrained) == {Action.CONCAT, Action.REDUCE}
            assert legal_actions(leaf, constrained) == {Action.CONCAT, Action.REDUCE}
            with pytest.raises(IllegalAction):
                apply_action(heading, Action.SUB_TEXT, Segment("x", 0), constrained=constrained)

    def test_never_empty(self):
        for state in all_focus_kinds():
            for constrained in (True, False):
                assert legal_actions(state, constrained)


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
        # the unconstrained ablation writes such trees; only gold trees
        # are held to the leaf rule
        nested = tree_of(text("t", [0]))
        nested.root.children[0].children.append(text("u", [1]))
        validate_tree(nested, [Segment("t", 0), Segment("u", 1)])
        with pytest.raises(OracleError, match="has children"):
            gold_owners(nested)

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
