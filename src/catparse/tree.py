"""Catalog trees, input segments, and the transition actions that build them.

A catalog tree mirrors a document's table of contents plus its body text:
a pseudo Root at the top, Heading nodes for section titles, and Text nodes
for body paragraphs. Text nodes are always leaves; headings may be leaves
too (a section with no children).

Trees are built incrementally from a queue of text segments by four
actions applied at a moving focus node (the top of the implicit stack,
which is always the root-to-focus ancestor path):

* SUB_HEADING  attach the incoming segment as a new child heading, descend
* SUB_TEXT     attach it as a new child text leaf, descend
* CONCAT       append the segment to the focus node's content (repairs
               over-segmented input, e.g. OCR line breaks)
* REDUCE       move the focus to its parent; consumes no segment
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

TERMINAL_PUNCTUATION = "。！？.!?;；"


class CatalogError(Exception):
    """Base class for catalog tree errors."""


class IllegalAction(CatalogError):
    """An action was applied in a state where it is not allowed."""


class MissingInput(CatalogError):
    """A segment-consuming action was applied without a segment."""


class TreeInvariantError(CatalogError):
    """A catalog tree violates a structural invariant."""


class NodeKind(enum.Enum):
    ROOT = "root"
    HEADING = "heading"
    TEXT = "text"


class Action(enum.IntEnum):
    """Transition actions. Declaration order is the score tie-break order."""

    SUB_HEADING = 0
    SUB_TEXT = 1
    CONCAT = 2
    REDUCE = 3

    @property
    def wire_name(self) -> str:
        return self.name.lower()


CONSUMING_ACTIONS = (Action.SUB_HEADING, Action.SUB_TEXT, Action.CONCAT)


@dataclass(frozen=True)
class Segment:
    """One input text piece in document order.

    Text must be non-empty after trimming and free of line breaks
    (ingestion normalizes those away). Indices within a document are
    0-based, strictly increasing and contiguous.
    """

    text: str
    index: int

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError(f"segment {self.index}: empty text")
        if "\n" in self.text or "\r" in self.text:
            raise ValueError(f"segment {self.index}: text contains a line break")
        if self.index < 0:
            raise ValueError(f"segment index must be >= 0, got {self.index}")


@dataclass(eq=True)
class CatalogNode:
    kind: NodeKind
    content: str = ""
    children: list["CatalogNode"] = field(default_factory=list)
    source_segments: list[int] = field(default_factory=list)


@dataclass(eq=True)
class CatalogTree:
    root: CatalogNode

    @classmethod
    def empty(cls) -> "CatalogTree":
        return cls(root=CatalogNode(kind=NodeKind.ROOT))


class EvalTuple(NamedTuple):
    """The (level, type, content) triple trees are compared by."""

    level: int
    kind: NodeKind
    content: str


def join_content(left: str, right: str, joiner: str = "") -> str:
    """Concatenate two content pieces under the configured joiner.

    The default empty joiner suits scripts without word spacing, where
    over-segmentation cuts mid-word; a single-space joiner suits
    whitespace-delimited languages.
    """
    if not left:
        return right
    return left + joiner + right


@dataclass
class TransitionState:
    """A catalog tree under construction.

    ``stack`` is the root-to-focus ancestor path; the focus node is its
    last element. ``apply_action`` mutates the state in place and returns
    it.
    """

    tree: CatalogTree
    stack: list[CatalogNode]
    consumed: int = 0
    joiner: str = ""
    _node_ids: dict[int, int] = field(default_factory=dict)
    _next_id: int = 1

    @classmethod
    def initial(cls, joiner: str = "") -> "TransitionState":
        tree = CatalogTree.empty()
        state = cls(tree=tree, stack=[tree.root], joiner=joiner)
        state._node_ids[id(tree.root)] = 0
        return state

    @property
    def focus(self) -> CatalogNode:
        return self.stack[-1]

    @property
    def depth(self) -> int:
        """Depth of the focus node; the root sits at depth 0."""
        return len(self.stack) - 1

    def node_id(self, node: CatalogNode) -> int:
        """Creation ordinal of a node in this state (root is 0)."""
        return self._node_ids[id(node)]

    def _register(self, node: CatalogNode) -> None:
        self._node_ids[id(node)] = self._next_id
        self._next_id += 1


def legal_actions(state: TransitionState, queue_empty: bool) -> frozenset[Action]:
    """The set of actions allowed at the current focus.

    Three constraints shape the set: only child-attaching actions are
    possible at the root (it has no parent and carries no content); text
    nodes stay leaves, so only CONCAT and REDUCE apply there; and CONCAT
    only extends a node that has no children yet, since a node's pieces
    are contiguous in the document and appending after a subtree would
    break the mapping back to document order. An empty set (root focus,
    empty queue) means decoding is finished.
    """
    focus = state.focus
    if focus.kind is NodeKind.ROOT:
        if queue_empty:
            return frozenset()
        return frozenset((Action.SUB_HEADING, Action.SUB_TEXT))
    if focus.kind is NodeKind.TEXT:
        if queue_empty:
            return frozenset((Action.REDUCE,))
        return frozenset((Action.CONCAT, Action.REDUCE))
    if queue_empty:
        return frozenset((Action.REDUCE,))
    if focus.children:
        return frozenset((Action.SUB_HEADING, Action.SUB_TEXT, Action.REDUCE))
    return frozenset(Action)


def apply_action(
    state: TransitionState,
    action: Action,
    segment: Segment | None = None,
    *,
    enforce_constraints: bool = True,
) -> TransitionState:
    """Apply one action, mutating and returning the state.

    With ``enforce_constraints=False`` the text-leaf rule is not checked,
    which lets an ablation build trees where text nodes have children.
    Structural impossibilities (REDUCE or CONCAT at the root) always
    raise.
    """
    if action in CONSUMING_ACTIONS and segment is None:
        raise MissingInput(f"{action.name} requires an input segment")

    focus = state.focus
    if action is Action.REDUCE:
        if focus.kind is NodeKind.ROOT:
            raise IllegalAction("REDUCE at the root: no parent to move to")
        state.stack.pop()
        return state

    if focus.kind is NodeKind.ROOT and action is Action.CONCAT:
        raise IllegalAction("CONCAT at the root: the root carries no content")
    if enforce_constraints and action not in legal_actions(state, queue_empty=False):
        raise IllegalAction(f"{action.name} not allowed at a {focus.kind.value} focus")

    assert segment is not None
    if action is Action.CONCAT:
        focus.content = join_content(focus.content, segment.text, state.joiner)
        focus.source_segments.append(segment.index)
    else:
        kind = NodeKind.HEADING if action is Action.SUB_HEADING else NodeKind.TEXT
        child = CatalogNode(
            kind=kind, content=segment.text, source_segments=[segment.index]
        )
        focus.children.append(child)
        state.stack.append(child)
        state._register(child)
    state.consumed += 1
    return state


def iter_nodes(tree: CatalogTree, include_root: bool = False):
    """Yield (node, level) in pre-order; the root's children are level 1."""
    stack = [(tree.root, 0)]
    while stack:
        node, level = stack.pop()
        if include_root or node.kind is not NodeKind.ROOT:
            yield node, level
        for child in reversed(node.children):
            stack.append((child, level + 1))


def flatten(tree: CatalogTree) -> list[EvalTuple]:
    """Pre-order (level, type, content) tuples, excluding the root."""
    return [
        EvalTuple(level, node.kind, node.content)
        for node, level in iter_nodes(tree)
    ]


def tree_depth(tree: CatalogTree) -> int:
    """Tree depth counting the pseudo root as a level.

    A bare root has depth 1; Root[Heading[Text]] has depth 3.
    """
    deepest = 0
    for _, level in iter_nodes(tree):
        deepest = max(deepest, level)
    return deepest + 1


def validate_tree(
    tree: CatalogTree,
    segments: list[Segment] | None = None,
    joiner: str = "",
) -> None:
    """Check every structural invariant, raising TreeInvariantError.

    When ``segments`` is provided, node contents are additionally checked
    against the joined texts of their source segments. Trees whose nodes
    carry no source segments at all (built from bare label sequences) are
    accepted; only the segment-related checks are skipped for them.
    """
    root = tree.root
    if root.kind is not NodeKind.ROOT:
        raise TreeInvariantError("tree root must have kind root")
    if root.content:
        raise TreeInvariantError("root content must be empty")
    if root.source_segments:
        raise TreeInvariantError("root must not own source segments")

    seen: set[int] = set()
    ordered_segments: list[int] = []

    def visit(node: CatalogNode, path: str) -> None:
        if id(node) in seen:
            raise TreeInvariantError(f"{path}: node reachable twice (not a tree)")
        seen.add(id(node))
        if node is not root:
            if node.kind is NodeKind.ROOT:
                raise TreeInvariantError(f"{path}: only one root allowed")
            if not node.content:
                raise TreeInvariantError(f"{path}: non-root node with empty content")
            if node.kind is NodeKind.TEXT and node.children:
                raise TreeInvariantError(f"{path}: text node with children")
            ordered_segments.extend(node.source_segments)
            if segments is not None and node.source_segments:
                joined = ""
                for index in node.source_segments:
                    if index < 0 or index >= len(segments):
                        raise TreeInvariantError(
                            f"{path}: segment index {index} out of range"
                        )
                    joined = join_content(joined, segments[index].text, joiner)
                if joined != node.content:
                    raise TreeInvariantError(
                        f"{path}: content does not equal joined source segments"
                    )
        for i, child in enumerate(node.children):
            visit(child, f"{path}.children[{i}]")

    visit(root, "root")

    for prev, cur in zip(ordered_segments, ordered_segments[1:]):
        if cur <= prev:
            raise TreeInvariantError(
                f"segment indices not strictly increasing in document order "
                f"({prev} then {cur})"
            )
