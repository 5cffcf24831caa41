"""Catalog trees, input segments, and the transition actions that build them.

A catalog tree mirrors a document's table of contents plus its body text:
a pseudo Root at the top, Heading nodes for section titles, and Text nodes
for body paragraphs. Text nodes are leaves in gold trees and in every
tree built under ``legal_actions``'s constrained rules; the unconstrained
ablation may nest under them. Headings may be leaves too (a section with
no children).

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

# The deepest level a node may sit at; the root's children are level 1.
# Decoding attaches no child at this depth, ``jsonio`` rejects deeper
# trees at read, and the corpus generator and the baselines' label budget
# stay within it, so the recursive tree walkers never go deeper.
MAX_DEPTH = 100


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
    joiner: str = ""

    @classmethod
    def initial(cls, joiner: str = "") -> "TransitionState":
        tree = CatalogTree.empty()
        return cls(tree=tree, stack=[tree.root], joiner=joiner)

    @property
    def focus(self) -> CatalogNode:
        return self.stack[-1]

    @property
    def depth(self) -> int:
        """Depth of the focus node; the root sits at depth 0."""
        return len(self.stack) - 1


_ATTACH = frozenset((Action.SUB_HEADING, Action.SUB_TEXT))
_LEAF = frozenset((Action.CONCAT, Action.REDUCE))
_PARENT = frozenset((Action.SUB_HEADING, Action.SUB_TEXT, Action.REDUCE))
_ANY = frozenset(Action)


def legal_actions(state: TransitionState, constrained: bool) -> frozenset[Action]:
    """The actions that may apply at the current focus while segments remain.

    In both modes the root admits only child attachments (it has no
    parent and carries no content), and no child attaches at depth
    ``MAX_DEPTH``. Constrained decoding adds two rules: text nodes stay
    leaves, so only CONCAT and REDUCE apply there; and CONCAT only
    extends a node that has no children yet, since a node's pieces are
    contiguous in the document and appending after a subtree would break
    the mapping back to document order. REDUCE is legal at every other
    focus, so the set is never empty.
    """
    focus = state.focus
    if focus.kind is NodeKind.ROOT:
        return _ATTACH
    if constrained and focus.kind is NodeKind.TEXT:
        legal = _LEAF
    elif constrained and focus.children:
        legal = _PARENT
    else:
        legal = _ANY
    if state.depth >= MAX_DEPTH:
        return legal - _ATTACH
    return legal


def apply_action(
    state: TransitionState,
    action: Action,
    segment: Segment | None = None,
    *,
    constrained: bool = True,
) -> TransitionState:
    """Apply one action, mutating and returning the state.

    Raises ``IllegalAction`` exactly when ``action`` is not in
    ``legal_actions(state, constrained)``. REDUCE ignores ``segment``;
    every other action consumes it.
    """
    if action is not Action.REDUCE and segment is None:
        raise MissingInput(f"{action.name} requires an input segment")
    focus = state.focus
    if action not in legal_actions(state, constrained):
        raise IllegalAction(
            f"{action.name} not allowed at a {focus.kind.value} focus at depth {state.depth}"
        )

    if action is Action.REDUCE:
        state.stack.pop()
    elif action is Action.CONCAT:
        focus.content = join_content(focus.content, segment.text, state.joiner)
        focus.source_segments.append(segment.index)
    else:
        kind = NodeKind.HEADING if action is Action.SUB_HEADING else NodeKind.TEXT
        child = CatalogNode(
            kind=kind, content=segment.text, source_segments=[segment.index]
        )
        focus.children.append(child)
        state.stack.append(child)
    return state


def iter_nodes(tree: CatalogTree):
    """Yield (node, level) in pre-order, root excluded; its children are level 1."""
    stack = [(tree.root, 0)]
    while stack:
        node, level = stack.pop()
        if node.kind is not NodeKind.ROOT:
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

    The invariants are those of every tree decoding writes, the
    unconstrained ablation's included, so text nodes may have children;
    ``engine.gold_owners`` holds gold trees to the leaf rule. When
    ``segments`` is provided, node contents are additionally checked
    against the joined texts of their source segments; a node that
    carries no source segments skips that check.
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
            ordered_segments.extend(node.source_segments)
            if segments is not None and node.source_segments:
                for index in node.source_segments:
                    if index < 0 or index >= len(segments):
                        raise TreeInvariantError(
                            f"{path}: segment index {index} out of range"
                        )
                # Segment texts are non-empty, so this is join_content's
                # result, built in one pass.
                joined = joiner.join(segments[i].text for i in node.source_segments)
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
