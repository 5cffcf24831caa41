"""Shared fixtures: a hand-built walkthrough document and scorer doubles."""
from __future__ import annotations

import numpy as np
import pytest

from catparse.scoring import ActionScorer, ActionScores, ScoringInput
from catparse.tree import Action, CatalogNode, CatalogTree, NodeKind, Segment


def heading(content: str, segs: list[int], *children: CatalogNode) -> CatalogNode:
    return CatalogNode(
        kind=NodeKind.HEADING,
        content=content,
        children=list(children),
        source_segments=segs,
    )


def text(content: str, segs: list[int]) -> CatalogNode:
    return CatalogNode(kind=NodeKind.TEXT, content=content, source_segments=segs)


def tree_of(*children: CatalogNode) -> CatalogTree:
    tree = CatalogTree.empty()
    tree.root.children = list(children)
    return tree


def node_count(tree: CatalogTree) -> int:
    """Number of nodes including the root."""
    count = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


# A six-segment report fragment whose parse walks through every action:
# two nested headings, a text split across two segments, two reduces back
# up, then a sibling section.
WALKTHROUGH_SEGMENTS = [
    Segment("Credit Rating Report", 0),
    Segment("Debt Situation", 1),
    Segment("The balance", 2),
    Segment("was 474 billion yuan.", 3),
    Segment("Security Analysis", 4),
    Segment("Texts", 5),
]

WALKTHROUGH_ACTIONS = [
    (Action.SUB_HEADING, 0),
    (Action.SUB_HEADING, 1),
    (Action.SUB_TEXT, 2),
    (Action.CONCAT, 3),
    (Action.REDUCE, None),
    (Action.REDUCE, None),
    (Action.SUB_HEADING, 4),
    (Action.SUB_TEXT, 5),
]

WALKTHROUGH_TUPLES = [
    (1, NodeKind.HEADING, "Credit Rating Report"),
    (2, NodeKind.HEADING, "Debt Situation"),
    (3, NodeKind.TEXT, "The balance was 474 billion yuan."),
    (2, NodeKind.HEADING, "Security Analysis"),
    (3, NodeKind.TEXT, "Texts"),
]


def walkthrough_tree() -> CatalogTree:
    return tree_of(
        heading(
            "Credit Rating Report",
            [0],
            heading(
                "Debt Situation",
                [1],
                text("The balance was 474 billion yuan.", [2, 3]),
            ),
            heading("Security Analysis", [4], text("Texts", [5])),
        )
    )


@pytest.fixture
def walkthrough():
    return WALKTHROUGH_SEGMENTS, WALKTHROUGH_ACTIONS, walkthrough_tree()


def one_hot_logits(action: Action) -> list[float]:
    logits = [0.0, 0.0, 0.0, 0.0]
    logits[action] = 8.0
    return logits


class ScriptedScorer(ActionScorer):
    """Returns a fixed sequence of preferred actions, one per call."""

    def __init__(self, actions: list[Action]):
        self.actions = list(actions)
        self.calls = 0

    def score_input(self, inp: ScoringInput) -> ActionScores:
        action = self.actions[self.calls]
        self.calls += 1
        return ActionScores.from_logits(one_hot_logits(action))


class ConstantScorer(ActionScorer):
    def __init__(self, action: Action):
        self.action = action

    def score_input(self, inp: ScoringInput) -> ActionScores:
        return ActionScores.from_logits(one_hot_logits(self.action))


class RandomScorer(ActionScorer):
    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def score_input(self, inp: ScoringInput) -> ActionScores:
        return ActionScores.from_logits(self.rng.normal(size=4))


class NegatedScorer(ActionScorer):
    """Prefers whatever the wrapped scorer likes least."""

    def __init__(self, inner: ActionScorer):
        self.inner = inner

    def score_input(self, inp: ScoringInput) -> ActionScores:
        inner = self.inner.score_input(inp)
        return ActionScores.from_logits([-x for x in inner.logits])
