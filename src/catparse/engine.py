"""Decoding and the gold-action oracle.

``decode`` runs a scorer over the input queue, forcing predictions into
the legal action set (which the ablation loosens). ``gold_owners``, the
table of which gold node owns each segment, is what all three methods
train from; ``oracle_actions`` reads it as the action sequence that
rebuilds the tree. Decoding, replay and the training examples all step
through ``_run``, the one transition loop, each with its own way of
choosing the next action.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .scoring import ActionScorer, ScoringInput, step_input
from .tree import (
    Action,
    CatalogNode,
    CatalogTree,
    NodeKind,
    Segment,
    TransitionState,
    apply_action,
    iter_nodes,
    legal_actions,
)


class OracleError(Exception):
    """The gold tree cannot be linearized back into its segment stream."""


class DecodeStep(NamedTuple):
    """A step's focus and segment (None for a REDUCE), the action taken,
    the scorer's four logits, and whether its argmax was illegal."""

    # Index of the segment that opened the focus node; None at the root.
    focus_segment: int | None
    segment_index: int | None
    action: Action
    logits: tuple[float, float, float, float]
    forced: bool


@dataclass
class DecodeTrace:
    steps: list[DecodeStep]


def _run(
    segments: Sequence[Segment],
    choose: Callable[[TransitionState, Segment, frozenset[Action]], Action],
    joiner: str,
    constrained: bool,
) -> CatalogTree:
    """The transition loop that decoding, replay and the oracle share.

    At every step ``choose(state, incoming segment, legal actions)``
    names the action to apply, until the queue empties: REDUCE consumes
    nothing, every other action consumes the incoming segment. Trailing
    reduces would not change the tree, so none are taken.
    """
    state = TransitionState.initial(joiner=joiner)
    position = 0
    while position < len(segments):
        segment = segments[position]
        action = choose(state, segment, legal_actions(state, constrained))
        apply_action(state, action, segment, constrained=constrained)
        if action is not Action.REDUCE:
            position += 1
    return state.tree


def _best_of(probabilities: Sequence[float], candidates: frozenset[Action]) -> Action:
    """The most probable candidate; exact ties break by declaration order."""
    return max((a for a in Action if a in candidates), key=lambda a: probabilities[a])


def decode(
    segments: Sequence[Segment],
    scorer: ActionScorer,
    constrained: bool = True,
    joiner: str = "",
) -> tuple[CatalogTree, DecodeTrace]:
    """Parse a segment stream into a catalog tree.

    Each step scores the (focus, next segment) pair through the
    scorer's session for this document and applies the scorer's argmax
    when it is legal, else the most probable legal action (a forced
    step, the only kind that computes the softmax).
    Unconstrained decoding (the ablation) drops the text-leaf and
    concat-after-children rules from the legal set, so it may attach
    children to a text node. Every step consumes a segment or
    strictly shrinks the focus depth, so decoding always terminates.
    Segment indices must be stream positions, as in a tree.
    """
    if any(segment.index != position for position, segment in enumerate(segments)):
        raise ValueError("segment indices must run 0, 1, ..., n-1 in stream order")
    steps: list[DecodeStep] = []
    session = scorer.session(segments, joiner)

    def choose(state: TransitionState, segment: Segment, legal: frozenset[Action]) -> Action:
        focus = state.focus
        result = session.score(focus, segment)
        best = result.best
        forced = best not in legal
        chosen = _best_of(result.probabilities, legal) if forced else Action(best)
        opener = focus.source_segments[0] if focus.source_segments else None
        index = None if chosen is Action.REDUCE else segment.index
        steps.append(DecodeStep(opener, index, chosen, result.logits, forced))
        return chosen

    return _run(segments, choose, joiner, constrained), DecodeTrace(steps=steps)


def gold_owners(gold: CatalogTree) -> list[tuple[CatalogNode, int]]:
    """The node that owns each segment, with its level, in stream order.

    Raises ``OracleError`` unless the root owns no segment, no text node
    has children, and a pre-order walk meets every other node with at
    least one segment, the indices running exactly 0, 1, ..., n-1: the
    trees a constrained transition sequence rebuilds.
    """
    if gold.root.source_segments:
        raise OracleError("the root must not own segments")
    owners: list[tuple[CatalogNode, int]] = []
    for node, level in iter_nodes(gold):
        if not node.source_segments:
            raise OracleError(f"a {node.kind.value} node at level {level} owns no segment")
        if node.kind is NodeKind.TEXT and node.children:
            raise OracleError(f"a text node at level {level} has children")
        for index in node.source_segments:
            if index != len(owners):
                raise OracleError(
                    f"pre-order meets segment {index} where segment {len(owners)} is due"
                )
            owners.append((node, level))
    return owners


def oracle_actions(gold: CatalogTree) -> list[tuple[Action, int | None]]:
    """Derive the gold action sequence that rebuilds ``gold`` exactly.

    One pass over ``gold_owners``: a segment with the same owner as the
    segment before extends it (CONCAT); any other opens its owner
    (SUB_HEADING or SUB_TEXT) after ``depth - level + 1`` REDUCEs, which
    climb from the focus to the owner's parent. REDUCE steps carry no
    segment index. Trailing reduces after the last segment are omitted.
    """
    actions: list[tuple[Action, int | None]] = []
    previous, depth = None, 0
    for position, (node, level) in enumerate(gold_owners(gold)):
        if node is previous:
            actions.append((Action.CONCAT, position))
            continue
        actions.extend([(Action.REDUCE, None)] * (depth - level + 1))
        attach = Action.SUB_HEADING if node.kind is NodeKind.HEADING else Action.SUB_TEXT
        actions.append((attach, position))
        previous, depth = node, level
    return actions


def _replay(
    actions: Iterable[tuple[Action, int | None]], segments: Sequence[Segment], joiner: str
) -> tuple[CatalogTree, list[tuple[ScoringInput, Action]]]:
    """Apply recorded actions to the stream, which must end with them.

    Returns the tree and each step's scoring input with its action.
    """
    pending = iter(actions)
    examples: list[tuple[ScoringInput, Action]] = []

    def choose(state: TransitionState, segment: Segment, legal: frozenset[Action]) -> Action:
        action, index = next(pending, (None, None))
        if action is None:
            raise OracleError(f"the actions end before segment {segment.index}")
        if action is not Action.REDUCE and index != segment.index:
            raise OracleError(f"{action.name} names segment {index} at segment {segment.index}")
        examples.append((step_input(state.focus, segment), action))
        return action

    tree = _run(segments, choose, joiner, constrained=True)
    if next(pending, None) is not None:
        raise OracleError(f"actions remain after the last of {len(segments)} segments")
    return tree, examples


def replay_actions(
    actions: Sequence[tuple[Action, int | None]],
    segments: Sequence[Segment],
    joiner: str = "",
) -> CatalogTree:
    """Rebuild a tree by applying a recorded action sequence."""
    return _replay(actions, segments, joiner)[0]


def oracle_examples(
    gold: CatalogTree,
    segments: Sequence[Segment],
    joiner: str = "",
) -> list[tuple[ScoringInput, Action]]:
    """Scoring inputs with gold labels, as seen by an incremental parser.

    The focus content in each input is the partially built content at
    that step, not the finished node, so training matches what decoding
    will actually observe.
    """
    return _replay(oracle_actions(gold), segments, joiner)[1]
