"""Action scoring: feature extraction, a trainable linear model, and the
scorer interface the decoder consumes.

The built-in backend hashes character n-grams of the focus node's content
and the incoming segment into a fixed-dimension vector, adds a small block
of dense indicator features, and scores actions with a linear layer
followed by a softmax. Each 1-, 2- or 3-gram ``g`` of ``^focus$``
(namespace ``ns = b"s:"``) and of ``^segment$`` (``ns = b"q:"``) counts
once in feature
``INDICATOR_SLOTS + zlib.crc32(g_utf8, zlib.crc32(ns, seed & 0xFFFFFFFF)) % (dim - INDICATOR_SLOTS)``,
and the n-gram counts are L2-normalized; external scorers can rebuild
the features from this formula. A ``LinearModel`` is itself an
``ActionScorer``. It hashes into ``dim`` features but holds weights only
for the sorted ``columns`` it was trained on, the indicator block among
them; every other feature weighs 0. Training minimizes mean
cross-entropy with adaptive moment estimation and decoupled weight
decay. The model it trains holds the indicator block plus the n-gram
columns the training examples touch, and both moments are as wide as
that footprint, not ``dim``. Each batch updates only its own columns,
catching up lazily on the steps they skipped. A model file stores the
columns and their weights, so it too is as large as the footprint.

``decode`` scores each step through the scorer's session for the
document. A scorer that scores each step's input on its own, such as the
bridge, is its own session. A ``LinearModel``'s session hashes each text
once per document: every segment's ``^text$`` under both namespaces as
the decode reaches it, one kernel call per ``DECODE_CHUNK_CHARS``
characters, letting go of what no later step reads. The same pass takes
each text's partial logits, its counts times their weight columns
summed, and its integer sum of squared counts. Each node keeps those of
its content with its ``s:`` counts; a ``concat`` of piece B onto
content A adds B's, retracts the three grams that hold A's closing
``$`` and the three that hold B's opening ``^``, and adds the few grams
that cross the joiner. Counts add, so a step's squared norm is the
integer ``featurize`` takes the root of, and its logits are the
focus's and the segment's partials over that norm plus the indicators
and the bias, in work that does not grow with the focus. They are
``logits_for`` of ``featurize``'s features summed in another order, so
they may differ from those in the last bits. A step's ``ActionScores``
carry only its four logits, as Python floats; the softmax is computed
when read, which ``decode`` does only on a forced step.
"""
from __future__ import annotations

import math
import os
import re
import struct
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, chain
from operator import add
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .tree import TERMINAL_PUNCTUATION, CatalogNode, NodeKind, Segment

DEFAULT_DIM = 1 << 18
# A model file may not claim more features: each head holds a lookup
# over all of them.
MAX_DIM = 1 << 22
INDICATOR_SLOTS = 64

# Indicator slot layout (the n-gram block starts at INDICATOR_SLOTS):
#   0..2   focus kind one-hot (root, heading, text)
#   3      focus content ends with terminal punctuation
#   4..7   focus length bucket
#   8..11  segment length bucket
#   12     segment length <= 20
#   13     segment matches no numbering pattern
#   14     focus matches no numbering pattern (empty focus fires nothing)
#   16..   segment numbering-pattern hits (one slot per pattern)
#   32..   focus numbering-pattern hits
#   48..51 segment numbering depth bucket (1, 2, 3, >=4)
#   52..55 focus numbering depth bucket
#   56..58 both numbered: segment exactly one deeper / at or above / two+ deeper
#   59..61 numbering combination: only focus / only segment / neither
# A step fires at most one of 56..61, and it is the highest slot it fires.
_KIND_SLOT = {NodeKind.ROOT: 0, NodeKind.HEADING: 1, NodeKind.TEXT: 2}
_SENTENCE_END_SLOT = 3
_FOCUS_LEN_BASE = 4
_SEGMENT_LEN_BASE = 8
_SHORT_SEGMENT_SLOT = 12
_SEGMENT_UNNUMBERED_SLOT = 13
_FOCUS_UNNUMBERED_SLOT = 14
_SEGMENT_PATTERN_BASE = 16
_FOCUS_PATTERN_BASE = 32
_SEGMENT_DEPTH_BASE = 48
_FOCUS_DEPTH_BASE = 52
_CHILD_DEPTH_SLOT = 56
_SIBLING_OR_SHALLOWER_SLOT = 57
_SKIPPED_DEPTH_SLOT = 58
_ONLY_FOCUS_NUMBERED_SLOT = 59
_ONLY_SEGMENT_NUMBERED_SLOT = 60
_NEITHER_NUMBERED_SLOT = 61


class EmptyTrainingSet(Exception):
    """Training was requested with no examples."""


@dataclass(frozen=True)
class ScoringInput:
    """One (focus node, incoming segment) pair presented to a scorer."""

    focus_kind: NodeKind
    focus_text: str
    segment_text: str

    def __post_init__(self) -> None:
        if not self.segment_text:
            raise ValueError("segment text must be non-empty")


@dataclass(frozen=True)
class ActionScores:
    """The four action logits of a step, as Python floats."""

    logits: tuple[float, float, float, float]

    @classmethod
    def from_logits(cls, logits: Sequence[float]) -> "ActionScores":
        values = np.asarray(logits, dtype=np.float64)
        if values.shape != (4,):
            raise ValueError(f"expected 4 logits, got shape {values.shape}")
        return cls(tuple(values.tolist()))

    @property
    def probabilities(self) -> tuple[float, float, float, float]:
        """The softmax of the logits, computed on each read."""
        return tuple(softmax(np.array(self.logits)).tolist())

    @property
    def best(self) -> int:
        """Index of the highest-scoring action; ties go to the lowest index."""
        return self.logits.index(max(self.logits))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    exp = np.exp(shifted)
    return exp / exp.sum()


def step_input(focus: CatalogNode, segment: Segment) -> ScoringInput:
    """What a scorer sees at a step, in decoding and in training alike."""
    return ScoringInput(focus.kind, focus.content, segment.text)


class ActionScorer(ABC):
    """Anything that can score the four actions for a (focus, segment) pair."""

    @abstractmethod
    def score_input(self, inp: ScoringInput) -> ActionScores:
        ...

    def session(self, segments: Sequence[Segment], joiner: str):
        """What ``decode`` scores the steps of ``segments`` with, whose
        ``concat`` steps join pieces with ``joiner``: anything with
        ``score(focus, segment)``. A scorer that scores each step's input
        alone is its own session."""
        return self

    def score(self, focus: CatalogNode, segment: Segment) -> ActionScores:
        """Score the four actions for the focus node and the incoming segment."""
        return self.score_input(step_input(focus, segment))


@dataclass(frozen=True)
class NumberingPattern:
    """A leading numbering shape, with the nesting depth it suggests."""

    name: str
    regex: re.Pattern
    depth: Callable[[re.Match], int]


def _dotted_components(match: re.Match) -> int:
    return len([p for p in re.split(r"[.、]", match.group(1)) if p])


_CJK_UNIT_DEPTH = {"章": 1, "篇": 1, "节": 2, "条": 3, "款": 4}


# Leading numbering shapes; pattern i fires segment slot 16 + i and focus
# slot 32 + i.
NUMBERING_PATTERNS = (
    NumberingPattern(
        "arabic_dotted",
        re.compile(r"^(\d+(?:[.、]\d+)*)[.、]?\s*"),
        _dotted_components,
    ),
    NumberingPattern(
        "cjk_ordinal",
        re.compile(
            r"^第[零一二三四五六七八"
            r"九十百千\d]+"
            r"([章篇节条款])"
        ),
        lambda m: _CJK_UNIT_DEPTH.get(m.group(1), 2),
    ),
    NumberingPattern(
        "parenthesized",
        re.compile(
            r"^[(（][\d一二三四五六七八"
            r"九十]+[)）]"
        ),
        lambda m: 4,
    ),
    NumberingPattern(
        "roman",
        re.compile(r"^[IVXLCDM]+[.、)]\s*"),
        lambda m: 1,
    ),
)


def _length_bucket(n: int) -> int:
    if n <= 10:
        return 0
    if n <= 30:
        return 1
    if n <= 80:
        return 2
    return 3


def _numbering_hits(text: str) -> tuple[list[int], int]:
    """Indices of matching patterns plus the depth suggested by the first hit."""
    hits = []
    depth = 0
    for i, pattern in enumerate(NUMBERING_PATTERNS):
        match = pattern.regex.match(text)
        if match:
            hits.append(i)
            if depth == 0:
                depth = max(1, pattern.depth(match))
    return hits, depth


def _crc32_table() -> np.ndarray:
    """The 256-entry table of the reflected CRC-32 polynomial ``zlib`` uses."""
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    return table


_CRC32_TABLE = _crc32_table()


# About this many characters go through one kernel call; a bigger chunk
# holds more per-character arrays at once and runs no faster.
HASH_CHUNK_CHARS = 50_000
# Decode hashes a document's texts as it reaches them, in chunks whose
# per-character arrays take no more than featurize's did for one long
# focus; each call costs about 0.2 ms more than its characters.
DECODE_CHUNK_CHARS = 2_000
# The hash namespaces of the focus text and of the segment text.
_FOCUS_NS = b"s:"
_SEGMENT_NS = b"q:"


def _hash_ngrams(
    rows: Sequence[Sequence[tuple[bytes, str]]], seed: int, buckets: int
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Sorted n-gram features of each row's texts with their counts, for
    many rows at once. A row is a sequence of (namespace, text) pairs;
    every gram of each padded ``^text$`` counts once in the column the
    module docstring's formula gives under that namespace (``buckets =
    dim - INDICATOR_SLOTS``).

    Returns the columns and counts of all rows back to back, row by row,
    and the offset where each row's run ends. All padded texts are joined
    and hashed in one pass (``_gram_crcs``). One ``np.unique`` keyed by
    ``row * buckets + column`` then counts each row's columns apart from
    its neighbours'.
    """
    texts = [pair for row in rows for pair in row]
    lengths = [len(piece) + 2 for _, piece in texts]
    ends = list(accumulate(lengths))
    # A CRC-32 register holds the complement of the running value; each
    # text's registers start from its namespace.
    namespaces = {ns for ns, _ in texts}
    start_of = {ns: zlib.crc32(ns, seed & 0xFFFFFFFF) ^ 0xFFFFFFFF for ns in namespaces}
    buckets_of = _gram_crcs(
        "".join(["^" + piece + "$" for _, piece in texts]),
        np.repeat(np.array([start_of[ns] for ns, _ in texts], np.uint32), lengths),
        list(zip([0] + ends, ends)),
    )
    buckets_of %= buckets
    # A padded text of L characters has L - n grams of n + 1 characters.
    per_text = [length - n for n in range(3) for length in lengths]
    text_row = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    keys = np.repeat(np.tile(text_row, 3), per_text)
    keys *= buckets
    keys += buckets_of
    keys, counts = np.unique(keys, return_counts=True)
    row_ends = np.searchsorted(keys, np.arange(1, len(rows) + 1) * buckets).tolist()
    return INDICATOR_SLOTS + keys % buckets, counts, row_ends


def _gram_crcs(text: str, register: np.ndarray, spans: list[tuple[int, int]]) -> np.ndarray:
    """The ``zlib.crc32`` of every 1-, 2- and 3-gram of ``text`` that lies
    inside one of ``spans``: all 1-grams span by span, then the 2-grams,
    then the 3-grams. ``register[i]`` holds the complemented running value
    the grams starting at character i start from.

    A table-driven CRC-32 pass, equal to ``zlib.crc32`` bit for bit: one
    register per starting character absorbs the bytes of that character,
    then of the next two, and is read out after each, which gives all
    three gram lengths at once. Each span's grams are taken as a slice, so
    grams that run from one span into the next are dropped.
    """
    # Four NUL bytes after the text: the first marks the end of the last
    # character, all four keep byte reads of a 4-byte character in range.
    data = np.frombuffer((text + "\0\0\0\0").encode("utf-8"), np.uint8)
    bounds = np.flatnonzero((data[:-3] & 0xC0) != 0x80)
    starts, widths = bounds[:-1], bounds[1:] - bounds[:-1]
    width = int(widths.max())
    data = data.astype(np.uint32)
    # columns[k][c]: byte k of character c (a later character's byte, or
    # NUL, where c is shorter; masked out below).
    columns = [data[starts + k] for k in range(width)]
    # wider[k][c]: character c has a byte k (every character has byte 0).
    wider = [None] + [widths > k for k in range(1, width)]
    grams = []
    for n in range(3):
        # The register of the gram starting at character i absorbs character i+n.
        register = register[: len(text) - n]
        for k in range(width):
            update = _CRC32_TABLE[(register ^ columns[k][n:]) & 0xFF] ^ (register >> 8)
            register = update if k == 0 else np.where(wider[k][n:], update, register)
        # Grams starting in a span's last n characters run into the next.
        for start, end in spans:
            grams.append(register[start : end - n])
    return ~np.concatenate(grams)


def _hash_chunks(
    rows: Iterable[Sequence[tuple[bytes, str]]], seed: int, buckets: int, chunk_chars: int
):
    """``_hash_ngrams`` over ``rows``, one kernel call per ``chunk_chars``
    characters: yields the number of rows in each chunk with the kernel's
    output for them. Only one chunk's rows are held at a time."""
    chunk: list[Sequence[tuple[bytes, str]]] = []
    chars = 0
    for row in rows:
        chunk.append(row)
        chars += sum(len(text) for _, text in row)
        if chars >= chunk_chars:
            yield len(chunk), *_hash_ngrams(chunk, seed, buckets)
            chunk, chars = [], 0
    if chunk:
        yield len(chunk), *_hash_ngrams(chunk, seed, buckets)


def _focus_slots(kind: NodeKind, focus: str) -> tuple[list[int], int | None]:
    """The indicator slots (layout at the top) a focus fires whatever the
    segment, with its numbering depth: None for an empty focus, which
    fires no slot of 56..61."""
    slots = [_KIND_SLOT[kind], _FOCUS_LEN_BASE + _length_bucket(len(focus))]
    if not focus:
        return slots, None
    if focus[-1] in TERMINAL_PUNCTUATION:
        slots.append(_SENTENCE_END_SLOT)
    hits, depth = _numbering_hits(focus)
    slots += [_FOCUS_PATTERN_BASE + i for i in hits]
    slots.append(_FOCUS_DEPTH_BASE + min(depth, 4) - 1 if depth else _FOCUS_UNNUMBERED_SLOT)
    return slots, depth


def _segment_slots(segment: str) -> tuple[list[int], int]:
    """The indicator slots a segment fires whatever the focus, with its
    numbering depth."""
    slots = [_SEGMENT_LEN_BASE + _length_bucket(len(segment))]
    if len(segment) <= 20:
        slots.append(_SHORT_SEGMENT_SLOT)
    hits, depth = _numbering_hits(segment)
    slots += [_SEGMENT_PATTERN_BASE + i for i in hits]
    slots.append(_SEGMENT_DEPTH_BASE + min(depth, 4) - 1 if depth else _SEGMENT_UNNUMBERED_SLOT)
    return slots, depth


def _step_slots(focus: tuple, segment: tuple) -> list[int]:
    """Every indicator slot a step fires, sorted: its ``_focus_slots`` and
    ``_segment_slots``, then the one that compares their numbering depths."""
    (focus_slots, focus_depth), (segment_slots, seg_depth) = focus, segment
    slots = sorted(focus_slots + segment_slots)
    if focus_depth is None:
        return slots
    # How the two numbering depths relate decides most attachments,
    # so spell the comparison out instead of leaving it additive.
    if focus_depth and seg_depth:
        if seg_depth == focus_depth + 1:
            slots.append(_CHILD_DEPTH_SLOT)
        elif seg_depth <= focus_depth:
            slots.append(_SIBLING_OR_SHALLOWER_SLOT)
        else:
            slots.append(_SKIPPED_DEPTH_SLOT)
    elif focus_depth:
        slots.append(_ONLY_FOCUS_NUMBERED_SLOT)
    elif seg_depth:
        slots.append(_ONLY_SEGMENT_NUMBERED_SLOT)
    else:
        slots.append(_NEITHER_NUMBERED_SLOT)
    return slots


def _with_indicators(
    inp: ScoringInput, grams: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``inp``'s normalized n-gram features with the indicator slots it
    fires in front, each with value 1."""
    focus = _focus_slots(inp.focus_kind, inp.focus_text)
    slots = _step_slots(focus, _segment_slots(inp.segment_text))
    indicators = np.array(slots, dtype=np.int64)
    return np.concatenate([indicators, grams]), np.concatenate([np.ones(len(slots)), values])


def featurize(
    inp: ScoringInput, hash_seed: int = 0, dim: int = DEFAULT_DIM
) -> tuple[np.ndarray, np.ndarray]:
    """Hash one scoring input into a sparse (indices, values) pair of
    feature dimension ``dim``.

    Character 1- to 3-grams of the focus and segment texts live in
    disjoint hash namespaces inside the n-gram block (formula in the
    module docstring); the dense indicator block occupies its own reserved
    index range, so the two can never collide. The n-gram block is
    L2-normalized so the indicators keep a stable share of the margin.
    Deterministic for a fixed hash seed.
    """
    return featurize_many([inp], hash_seed, dim)[0]


def featurize_many(
    inputs: Sequence[ScoringInput], hash_seed: int = 0, dim: int = DEFAULT_DIM
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``featurize`` of each input, from one kernel call per
    ``HASH_CHUNK_CHARS`` characters."""
    out: list[tuple[np.ndarray, np.ndarray]] = []
    rows = (((_FOCUS_NS, x.focus_text), (_SEGMENT_NS, x.segment_text)) for x in inputs)
    buckets = dim - INDICATOR_SLOTS
    for count, grams, counts, ends in _hash_chunks(rows, hash_seed, buckets, HASH_CHUNK_CHARS):
        values = counts.astype(np.float64)
        row_of = np.repeat(np.arange(count), np.diff(ends, prepend=0))
        # Every row has grams, and integer sums of squares are exact.
        values /= np.sqrt(np.bincount(row_of, weights=values**2))[row_of]
        out += [
            _with_indicators(x, grams[begin:end], values[begin:end])
            for x, begin, end in zip(inputs[len(out) : len(out) + count], [0] + ends, ends)
        ]
    return out


@dataclass
class LinearModel(ActionScorer):
    """A multiclass linear scorer over hashed features.

    The action scorer uses four classes; the baseline heads reuse the
    same container with their own class counts. Inputs are hashed into
    ``dim`` features. The head holds weights only for its sorted
    ``columns``, which include the indicator block; every other feature
    weighs 0.
    """

    columns: np.ndarray  # (U,) sorted, unique, below dim
    weights: np.ndarray  # (classes, U) float64
    bias: np.ndarray  # (classes,) float64
    hash_seed: int
    dim: int = DEFAULT_DIM

    def __post_init__(self) -> None:
        cols = self.columns
        if self.dim <= INDICATOR_SLOTS:
            raise ValueError(
                f"feature dimension {self.dim} must exceed the"
                f" {INDICATOR_SLOTS}-slot indicator block"
            )
        if self.dim > MAX_DIM:
            raise ValueError(f"feature dimension {self.dim} exceeds the bound {MAX_DIM}")
        if np.any(cols[1:] < cols[:-1]):
            raise ValueError("columns are not sorted")
        if np.any(cols[1:] == cols[:-1]):
            raise ValueError("columns hold a duplicate")
        if len(cols) and cols[-1] >= self.dim:
            raise ValueError(f"column {cols[-1]} is outside feature dimension {self.dim}")
        # Sorted and unique, they hold the block if they run 0 .. 63.
        last = INDICATOR_SLOTS - 1
        if len(cols) <= last or cols[0] != 0 or cols[last] != last:
            raise ValueError("columns miss part of the indicator block")
        # logits_for gathers a feature outside the columns from one extra
        # all-zero column, so the gathered matrix is value for value the
        # dense model's.
        self.columns = cols.astype(np.int64)
        self._table = np.zeros((len(self.bias), len(cols) + 1))
        self._table[:, :-1] = self.weights
        self.weights = self._table[:, :-1]
        self.bias = np.array(self.bias, dtype=np.float64)
        self._lookup = np.full(self.dim, len(cols), dtype=np.int32)
        self._lookup[self.columns] = np.arange(len(cols))

    @classmethod
    def create(cls, dim: int = DEFAULT_DIM, classes: int = 4, hash_seed: int = 0) -> "LinearModel":
        """A zero head holding only the indicator block."""
        zeros = np.zeros((classes, INDICATOR_SLOTS))
        return cls(np.arange(INDICATOR_SLOTS), zeros, np.zeros(classes), hash_seed, dim)

    @property
    def classes(self) -> int:
        return self.weights.shape[0]

    def copy(self) -> "LinearModel":
        return LinearModel(self.columns, self.weights, self.bias, self.hash_seed, self.dim)

    def __reduce__(self):
        # Pickled as its fields; the lookup and the padded table are rebuilt.
        return LinearModel, (self.columns, self.weights, self.bias, self.hash_seed, self.dim)

    def logits_for(self, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
        return self._table[:, self._lookup[indices]] @ values + self.bias

    def score_input(self, inp: ScoringInput) -> ActionScores:
        """Score the four actions for one input with a 4-class model."""
        # ``featurize`` is looked up in this module at each call, where
        # the benchmark's tracer wraps it.
        indices, values = featurize(inp, self.hash_seed, self.dim)
        return ActionScores.from_logits(self.logits_for(indices, values))

    def session(self, segments: Sequence[Segment], joiner: str) -> "_FeatureSession":
        return _FeatureSession(self, segments, joiner)


@dataclass
class _NodeGrams:
    """What a step needs of a node's content: the partial logits and the
    sum of squared counts of its ``s:`` grams, and the counts themselves.

    A frozen node holds its counts as sorted ``columns`` with their
    ``counts``. While it grows its counts live in its session's count
    array instead, ``columns`` and ``counts`` are None and ``touched``
    holds every column that has left 0 since it thawed.
    """

    partials: np.ndarray  # (classes,) the counts times their weight columns, summed
    square: int  # the sum of squared counts, exact
    columns: np.ndarray | None
    counts: np.ndarray | None
    pieces: int  # how many of the node's segments the counts cover
    tail: str  # the last two characters of ``^content``
    touched: list[np.ndarray] = field(default_factory=list)
    slots: tuple[list[int], int | None] | None = None  # the content's _focus_slots


class _FeatureSession:
    """``LinearModel``'s session: each text of the document is hashed once,
    and a step costs what its segment costs, however long its focus.

    The kernel hashes the texts in stream order, one chunk of
    ``DECODE_CHUNK_CHARS`` characters at a time as the decode reaches
    them: the root's content ``^$`` under ``s:``, then each segment's
    ``^text$`` under ``s:`` and under ``q:``. The same pass takes each
    row's partial logits and its sum of squared counts. A node keeps
    those of its content, with its ``s:`` counts, keyed by the index of
    the segment that opened it. A ``concat`` adds the piece's partials
    and the weight columns of the grams it adds at the joint, takes away
    those of the grams it retracts, and updates the sum of squares from
    the columns it changes.

    A step's squared norm is the node's sum of squares plus the
    segment's ``q:`` one plus twice the products of their counts in the
    columns both hold: the integer ``featurize`` takes the root of. Its
    logits are the summed partials over the norm, plus the weights of
    the indicator slots it fires, plus the bias, in plain floats
    (``_step_logits``). They are ``logits_for`` of ``featurize``'s
    features summed in another order, so they may differ from those in
    the last bits.

    A node starts frozen, its counts as sorted columns. A ``concat`` onto
    it thaws them into one ``dim``-long count array, freezing the node
    held there, so a ``concat`` onto the node that grows costs what its
    piece does. The indicator slots a node's content fires on its own
    are kept until its next ``concat``, a segment's while it is scored,
    so a step only compares their numbering depths.

    Segment indices are stream positions (``decode`` checks). Nothing is
    held past its last use: a segment's ``s:`` counts go once a node
    takes them, its ``q:`` counts once the next segment comes in, and a
    node's counts once the focus climbs above it.
    """

    def __init__(self, model: LinearModel, segments: Sequence[Segment], joiner: str):
        self.model = model
        self._segments = segments
        self._joiner = joiner
        # Row 0 is the root's content; rows 2i + 1 and 2i + 2 are segment
        # i's text under s: and under q:.
        rows = chain(
            [((_FOCUS_NS, ""),)],
            (((ns, segment.text),) for segment in segments for ns in (_FOCUS_NS, _SEGMENT_NS)),
        )
        buckets = model.dim - INDICATOR_SLOTS
        self._chunks = _hash_chunks(rows, model.hash_seed, buckets, DECODE_CHUNK_CHARS)
        self._hashed: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, int]] = {}
        self._rows = 0
        # The nodes from the root to the focus, the root under None.
        self._path: dict[int | None, _NodeGrams] = {}
        # The counts of the one node that grows, by column.
        self._counts = np.zeros(model.dim, dtype=np.int32)
        self._thawed: _NodeGrams | None = None
        self._incoming: tuple | None = None
        # The indicator block's weights, one row of floats per slot, and the bias.
        self._block = tuple(map(tuple, model._table[:, :INDICATOR_SLOTS].T.tolist()))
        self._bias = tuple(model.bias.tolist())

    def _take(self, row: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The columns, counts, partial logits and sum of squared counts of
        one row, hashing on to it if need be; the session does not keep them."""
        while row >= self._rows:
            _, columns, counts, ends = next(self._chunks)
            partials, squares = _partials(self.model, columns, counts, ends)
            # int32 holds every column below MAX_DIM and every count, in
            # half the memory of the kernel's int64.
            columns, counts = columns.astype(np.int32), counts.astype(np.int32)
            for begin, end, partial, square in zip([0] + ends, ends, partials, squares.tolist()):
                self._hashed[self._rows] = columns[begin:end], counts[begin:end], partial, square
                self._rows += 1
        return self._hashed.pop(row)

    def _node(self, focus: CatalogNode) -> _NodeGrams:
        """The focus's grams, brought up to its current content."""
        pieces = focus.source_segments
        key = pieces[0] if pieces else None
        if key in self._path:
            # The nodes above the focus were reduced; no step returns to them.
            while next(reversed(self._path)) != key:
                if self._path.popitem()[1] is self._thawed:
                    self._counts[np.concatenate(self._thawed.touched)] = 0
                    self._thawed = None
            node = self._path[key]
        else:
            # The root at the first step, or the node the previous step opened.
            opened = 0 if key is None else 1
            content = self._segments[key].text if opened else ""
            columns, counts, partials, square = self._take(2 * key + 1 if opened else 0)
            # Copies, so a node holds no view of a whole chunk's arrays.
            node = _NodeGrams(
                partials.copy(), square, columns.copy(), counts.copy(), opened,
                ("^" + content)[-2:],
            )
            self._path[key] = node
        for index in pieces[node.pieces :]:
            self._concat(node, index)
        return node

    def _thaw(self, node: _NodeGrams) -> None:
        """Move ``node``'s counts into the count array, freezing the node
        that held it."""
        held = self._thawed
        if held is not None:
            columns = np.unique(np.concatenate(held.touched))
            counts = self._counts[columns]
            self._counts[columns] = 0
            kept = counts != 0
            held.columns, held.counts, held.touched = columns[kept], counts[kept], []
        self._counts[node.columns] = node.counts
        node.touched = [node.columns]
        node.columns = node.counts = None
        self._thawed = node

    def _concat(self, node: _NodeGrams, index: int) -> None:
        """Join segment ``index`` onto ``node``'s content."""
        if node is not self._thawed:
            self._thaw(node)
        piece = self._segments[index].text
        change = _boundary_grams(
            node.tail, self._joiner, (piece + "$")[:2], self.model.hash_seed, self.model.dim
        )
        edge = np.fromiter(change, np.int64, len(change))
        deltas = np.fromiter(change.values(), np.int64, len(change))
        columns, counts, partials, _ = self._take(2 * index + 1)
        node.partials = node.partials + partials + _gather(self.model, edge) @ deltas
        node.square += _merge(self._counts, columns, counts, node.touched)
        node.square += _merge(self._counts, edge, deltas, node.touched)
        node.tail = (node.tail + self._joiner + piece)[-2:]
        node.pieces += 1
        node.slots = None

    def score(self, focus: CatalogNode, segment: Segment) -> ActionScores:
        node = self._node(focus)
        if self._incoming is None or self._incoming[0] != segment.index:
            # Steps score one incoming segment until an action consumes it.
            columns, counts, partials, square = self._take(2 * segment.index + 2)
            # int64 counts, so the cross term below cannot overflow.
            counts = counts.astype(np.int64)
            slots = _segment_slots(segment.text)
            self._incoming = (segment.index, columns, counts, partials.tolist(), square, slots)
        _, columns, counts, partials, square, slots = self._incoming
        # The node's counts in the segment's columns: s: and q: grams
        # share a column only where their hashes collide.
        if node.columns is None:
            held = self._counts[columns]
        else:
            at = np.minimum(np.searchsorted(node.columns, columns), len(node.columns) - 1)
            held = np.where(node.columns[at] == columns, node.counts[at], 0)
        cross = int(held @ counts)
        if node.slots is None:
            node.slots = _focus_slots(focus.kind, focus.content)
        rows = [self._block[slot] for slot in _step_slots(node.slots, slots)]
        partials = list(map(add, node.partials.tolist(), partials))
        square = node.square + square + 2 * cross
        return ActionScores(_step_logits(partials, square, rows, self._bias))


def _partials(
    model: LinearModel, columns: np.ndarray, counts: np.ndarray, ends: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's partial logits, its counts times their weight columns
    summed, with shape (rows, classes), and each row's sum of squared
    counts, for rows of ``columns`` and ``counts`` that end at ``ends``
    (none empty)."""
    starts = [0] + ends[:-1]
    weighted = _gather(model, columns)
    weighted *= counts
    squares = np.add.reduceat(counts * counts, starts)
    return np.add.reduceat(weighted, starts, axis=1).T, squares


def _gather(model: LinearModel, columns: np.ndarray) -> np.ndarray:
    """The weight columns of features ``columns``, shape (classes, len(columns))."""
    # np.take gathers several times faster than fancy indexing does.
    return np.take(model._table, np.take(model._lookup, columns), axis=1)


def _merge(
    counts: np.ndarray, columns: np.ndarray, deltas: np.ndarray, touched: list[np.ndarray]
) -> int:
    """Add ``deltas`` to ``counts`` at ``columns``, which are distinct;
    lists in ``touched`` the columns that were 0 and returns how much the
    sum of squared counts changed, Σ(2·old·d + d²)."""
    old = counts[columns]
    touched.append(columns[old == 0])
    old = old.astype(np.int64)
    counts[columns] = old + deltas
    return int(((2 * old + deltas) * deltas).sum())


def _step_logits(partials: list[float], square: int, rows: list[tuple], bias: tuple) -> tuple:
    """A step's logits from its summed partials, the integer square of
    its norm, the weights of the indicator slots it fires (one row per
    slot, in slot order) and the bias, in plain floats. Class by class
    it is ``partials / math.sqrt(square) + rows.sum(axis=0) + bias`` in
    numpy, bit for bit: the rows are summed one after another from the
    first."""
    root = math.sqrt(square)
    return tuple(
        p / root + reduce(add, column) + b for p, column, b in zip(partials, zip(*rows), bias)
    )


def _boundary_grams(tail: str, joiner: str, head: str, seed: int, dim: int) -> dict[int, int]:
    """How joining content A and piece B changes the ``s:`` counts, by column.

    ``tail`` holds the last two characters of ``^A`` and ``head`` the
    first two of ``B$``. The grams of ``^A + joiner + B$`` are those of
    ``^A$`` and of ``^B$`` less the three that hold A's closing ``$`` and
    the three that hold B's opening ``^``, plus those that lie in neither
    ``^A`` nor ``B$``, which all lie in ``tail + joiner + head``. Each is
    hashed with ``zlib.crc32`` as the module docstring says.
    """
    base = zlib.crc32(_FOCUS_NS, seed & 0xFFFFFFFF)
    buckets = dim - INDICATOR_SLOTS
    change: dict[int, int] = {}
    # The grams of each text that start before ``hi`` and end after
    # ``lo``: those that overlap text[lo:hi], or span position lo if that
    # is empty.
    for text, lo, hi, sign in (
        (tail + joiner + head, len(tail), len(tail) + len(joiner), 1),
        (tail + "$", len(tail), len(tail) + 1, -1),
        ("^" + head, 0, 1, -1),
    ):
        for n in (1, 2, 3):
            for i in range(max(0, lo - n + 1), min(hi, len(text) - n + 1)):
                gram = text[i : i + n].encode("utf-8")
                column = INDICATOR_SLOTS + zlib.crc32(gram, base) % buckets
                change[column] = change.get(column, 0) + sign
    return change


@dataclass
class TrainConfig:
    learning_rate: float = 2e-3
    epochs: int = 10
    batch_size: int = 20
    weight_decay: float = 0.01
    seed: int = 0
    class_weighting: bool = False

    def __post_init__(self) -> None:
        # NaN fails every comparison, so it fails these range tests too
        if not 0 < self.learning_rate < math.inf or self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("learning rate (finite), epochs and batch size must be positive")
        if not 0 < self.weight_decay < math.inf:
            raise ValueError("weight decay must be finite and positive")


_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


def inverse_frequency_weights(labels: np.ndarray, classes: int) -> np.ndarray:
    """Per-class loss weights that give every present class the same total."""
    weights = np.ones(classes, dtype=np.float64)
    counts = np.bincount(labels, minlength=classes).astype(np.float64)
    present = counts > 0
    weights[present] = len(labels) / (present.sum() * counts[present])
    return weights


def loss_and_grad(
    model: LinearModel,
    feats: Sequence[tuple[np.ndarray, np.ndarray]],
    labels: Sequence[int],
    class_weights: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Mean class-weighted cross-entropy of a batch, with its gradient.

    ``feats`` holds one ``featurize`` (indices, values) pair per example.
    Returns (loss, the sorted touched columns, the weight gradient over
    those columns with shape (classes, len(columns)), the bias gradient).
    """
    errors = np.empty((len(feats), model.classes), dtype=np.float64)
    loss = 0.0
    for row, ((indices, values), label) in enumerate(zip(feats, labels)):
        logits = model.logits_for(indices, values)
        shifted = logits - np.max(logits)
        probs = np.exp(shifted)
        total = probs.sum()
        probs /= total
        loss += class_weights[label] * (np.log(total) - shifted[label])
        probs[label] -= 1.0
        errors[row] = probs * class_weights[label]
    all_cols = np.concatenate([indices for indices, _ in feats])
    all_vals = np.concatenate([values for _, values in feats])
    rows = np.repeat(np.arange(len(feats)), [len(indices) for indices, _ in feats])
    cols, inverse = np.unique(all_cols, return_inverse=True)
    contrib = errors[rows] * all_vals[:, None]
    # bincount adds each column's contributions in input order, starting
    # from 0, so its sums equal a sequential scatter-add bit for bit
    grad_t = np.stack(
        [np.bincount(inverse, weights=w, minlength=len(cols)) for w in contrib.T], axis=1
    )
    scale = 1.0 / len(feats)
    return float(loss * scale), cols, grad_t.T * scale, errors.sum(axis=0) * scale


@np.errstate(over="raise", invalid="raise")
def train(
    examples: Sequence[tuple[ScoringInput, int]],
    config: TrainConfig,
    classes: int = 4,
    dim: int = DEFAULT_DIM,
    epoch_callback: Callable[[int, LinearModel], None] | None = None,
) -> LinearModel:
    """Fit a linear model by mini-batch cross-entropy descent.

    The model holds the indicator block and every column the examples
    touch. Deterministic for a fixed config seed: the same data and seed
    yield a bit-identical model. ``epoch_callback`` runs after every
    epoch with the live model (copy it to keep a snapshot). An overflow or
    a NaN raises ``FloatingPointError``: training that diverges stops.
    """
    if not examples:
        raise EmptyTrainingSet("cannot train on an empty example list")
    feats = featurize_many([inp for inp, _ in examples], config.seed, dim)
    labels = np.array([int(label) for _, label in examples], dtype=np.int64)
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError("label out of range for the class count")
    class_weights = np.ones(classes, dtype=np.float64)
    if config.class_weighting:
        class_weights = inverse_frequency_weights(labels, classes)

    used = np.union1d(np.arange(INDICATOR_SLOTS), np.concatenate([i for i, _ in feats]))
    model = LinearModel(used, np.zeros((classes, len(used))), np.zeros(classes), config.seed, dim)
    # The moments are column-major: one row per column, gathered at once.
    moment1 = np.zeros((len(used), classes), dtype=np.float64)
    moment2 = np.zeros_like(moment1)
    bias_m1 = np.zeros_like(model.bias)
    bias_m2 = np.zeros_like(model.bias)
    last_step = np.zeros(len(used), dtype=np.int64)
    step = 0
    lr, decay = config.learning_rate, config.weight_decay
    # Catch-up factors for every lag there can be; a lookup is the power bit for bit.
    lags = np.arange(config.epochs * -(-len(examples) // config.batch_size) + 1)
    beta1_to, beta2_to, decay_to = _BETA1**lags, _BETA2**lags, (1.0 - lr * decay) ** lags

    rng = np.random.default_rng(config.seed)
    n = len(examples)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            step += 1
            _, cols, grad, bias_grad = loss_and_grad(
                model, [feats[j] for j in batch], labels[batch], class_weights
            )
            # The columns' positions in the model; the map is monotone, so
            # every sorted column order stays the same.
            cols = model._lookup[cols]
            grad = grad.T
            m1, m2, weights = moment1[cols], moment2[cols], model.weights[:, cols]

            # Catch up lazily skipped steps: decay moments and apply the
            # decoupled weight decay those columns would have received.
            lag = (step - 1) - last_step[cols]
            m1 *= beta1_to[lag][:, None]
            m2 *= beta2_to[lag][:, None]
            weights *= decay_to[lag]
            last_step[cols] = step

            m1 = _BETA1 * m1 + (1 - _BETA1) * grad
            m2 = _BETA2 * m2 + (1 - _BETA2) * grad**2
            moment1[cols], moment2[cols] = m1, m2
            m_hat = m1 / (1 - _BETA1**step)
            v_hat = m2 / (1 - _BETA2**step)
            model.weights[:, cols] = weights * (1.0 - lr * decay) - (
                lr * m_hat / (np.sqrt(v_hat) + _EPS)
            ).T

            bias_m1 = _BETA1 * bias_m1 + (1 - _BETA1) * bias_grad
            bias_m2 = _BETA2 * bias_m2 + (1 - _BETA2) * bias_grad**2
            b_hat1 = bias_m1 / (1 - _BETA1**step)
            b_hat2 = bias_m2 / (1 - _BETA2**step)
            model.bias -= lr * b_hat1 / (np.sqrt(b_hat2) + _EPS)

        if epoch_callback is not None:
            _settle_decay(model, last_step, step, lr, decay)
            epoch_callback(epoch, model)

    _settle_decay(model, last_step, step, lr, decay)
    return model


def _settle_decay(
    model: LinearModel, last_step: np.ndarray, step: int, lr: float, decay: float
) -> None:
    """Apply the weight decay owed to columns not touched since their last update."""
    lag = step - last_step
    pending = lag > 0
    if np.any(pending):
        model.weights[:, pending] *= (1.0 - lr * decay) ** lag[pending]
        last_step[pending] = step


# Model file container, version 2. All integers little-endian. Layout:
#   magic    4 bytes  (b"CTXM" action scorer; baseline heads use their own)
#   version  uint32
#   dim      uint64
#   seed     int64
#   classes  uint32
#   count    uint64
#   columns  count uint64, the model's sorted columns
#   weights  classes*count float64, row-major
#   bias     classes float64
# A file may hold several containers back to back (the two pipeline
# heads share one file).
MODEL_MAGIC = b"CTXM"
MODEL_VERSION = 2
_HEADER = struct.Struct("<4sIQqIQ")


def write_container(handle, model: LinearModel, magic: bytes = MODEL_MAGIC) -> None:
    if len(magic) != 4:
        raise ValueError("model magic must be exactly 4 bytes")
    header = (magic, MODEL_VERSION, model.dim, model.hash_seed, model.classes, len(model.columns))
    handle.write(_HEADER.pack(*header))
    handle.write(model.columns.astype("<u8").tobytes())
    handle.write(np.ascontiguousarray(model.weights, dtype="<f8").tobytes())
    handle.write(np.ascontiguousarray(model.bias, dtype="<f8").tobytes())


def read_container(handle, magic: bytes = MODEL_MAGIC, name: str = "model") -> LinearModel:
    header = handle.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise ValueError(f"{name}: truncated model header")
    found, version, dim, seed, classes, count = _HEADER.unpack(header)
    if found != magic:
        raise ValueError(f"{name}: expected magic {magic!r}, found {found!r}")
    if version != MODEL_VERSION:
        raise ValueError(
            f"{name}: model file version {version} is not readable, only"
            f" version {MODEL_VERSION}; retrain the model"
        )
    sizes = [count, classes * count, classes]
    left = os.fstat(handle.fileno()).st_size - handle.tell()
    expected = sum(sizes) * 8
    if expected > left:
        raise ValueError(f"{name}: header claims a {expected}-byte payload, {left} bytes left")
    columns, weights, bias = (
        np.frombuffer(handle.read(size * 8), dtype=dtype)
        for size, dtype in zip(sizes, ("<u8", "<f8", "<f8"))
    )
    # A decode session adds and takes away weight columns, which an
    # infinite weight would turn into NaN.
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise ValueError(f"{name}: the weights or the bias are not all finite")
    try:
        return LinearModel(
            columns, weights.reshape(classes, count), bias, hash_seed=int(seed), dim=int(dim)
        )
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def save_model(model: LinearModel, path: str | Path, magic: bytes = MODEL_MAGIC) -> None:
    with open(path, "wb") as handle:
        write_container(handle, model, magic)


def load_model(path: str | Path, magic: bytes = MODEL_MAGIC) -> LinearModel:
    with open(path, "rb") as handle:
        return read_container(handle, magic, name=str(path))
