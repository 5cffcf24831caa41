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
``ActionScorer``, and ``dim`` is the width of its weights. Training
minimizes mean cross-entropy with adaptive moment estimation and
decoupled weight decay. It runs in a compact column space: the indicator
block plus the n-gram columns the training examples touch, renumbered in
order, so the weights and both moments are as wide as that footprint,
not ``dim``. Each batch updates only its own columns, catching up lazily
on the steps they skipped. The dense model gets the compact weights at
every epoch's end; a column no example touches stays exactly 0, so the
model bytes are those of training over all ``dim`` columns.
"""
from __future__ import annotations

import math
import os
import re
import struct
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .tree import TERMINAL_PUNCTUATION, NodeKind

DEFAULT_DIM = 1 << 18
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
    logits: tuple[float, float, float, float]
    probabilities: tuple[float, float, float, float]

    @classmethod
    def from_logits(cls, logits: Sequence[float]) -> "ActionScores":
        values = np.asarray(logits, dtype=np.float64)
        if values.shape != (4,):
            raise ValueError(f"expected 4 logits, got shape {values.shape}")
        return cls(logits=tuple(values.tolist()), probabilities=tuple(softmax(values).tolist()))

    @property
    def best(self) -> int:
        """Index of the highest-scoring action; ties go to the lowest index."""
        return int(np.argmax(self.logits))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    exp = np.exp(shifted)
    return exp / exp.sum()


class ActionScorer(ABC):
    """Anything that can score the four actions for a (focus, segment) pair."""

    @abstractmethod
    def score_input(self, inp: ScoringInput) -> ActionScores:
        ...


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


def _hash_ngrams(
    rows: Sequence[tuple[str, str]], seed: int, buckets: int
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Sorted n-gram features of each row's ``^focus$`` and ``^segment$``
    (formula in the module docstring, ``buckets = dim - INDICATOR_SLOTS``)
    with their counts, for many (focus, segment) rows at once.

    Returns the columns and counts of all rows back to back, row by row,
    and the offset where each row's run ends. All padded texts go through
    one table-driven CRC-32 pass, equal to ``zlib.crc32`` bit for bit: one
    register per starting character absorbs the bytes of that character,
    then of the next two, and is read out after each, which gives all
    three gram lengths at once. Each text's grams are taken as a slice, so
    grams that run from one text into the next are dropped. One
    ``np.unique`` keyed by ``row * buckets + column`` then counts each
    row's columns apart from its neighbours' (one row is keyed by its
    column alone).
    """
    text = "".join(["^" + focus + "$^" + segment + "$" for focus, segment in rows])
    lengths: list[int] = []
    for focus, segment in rows:
        lengths += (len(focus) + 2, len(segment) + 2)
    ends = list(accumulate(lengths))
    spans = list(zip([0] + ends, ends))
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
    # A CRC-32 register holds the complement of the running value. Each
    # row's focus text starts from the focus namespace, its segment text
    # from the segment namespace.
    register = np.full(len(text), zlib.crc32(b"q:", seed & 0xFFFFFFFF) ^ 0xFFFFFFFF, np.uint32)
    focus_start = zlib.crc32(b"s:", seed & 0xFFFFFFFF) ^ 0xFFFFFFFF
    for start, end in spans[::2]:
        register[start:end] = focus_start
    grams = []
    for n in range(3):
        # The register of the gram starting at character i absorbs character i+n.
        register = register[: len(text) - n]
        for k in range(width):
            update = _CRC32_TABLE[(register ^ columns[k][n:]) & 0xFF] ^ (register >> 8)
            register = update if k == 0 else np.where(wider[k][n:], update, register)
        # Grams starting in a text's last n characters run into the next.
        for start, end in spans:
            grams.append(register[start : end - n])
    buckets_of = (~np.concatenate(grams)).astype(np.int64) % buckets
    if len(rows) == 1:
        found, counts = np.unique(buckets_of, return_counts=True)
        return INDICATOR_SLOTS + found, counts, [len(found)]
    # A padded text of L characters has L - n grams of n + 1 characters.
    per_text = [length - n for n in range(3) for length in lengths]
    row_of = np.repeat(np.tile(np.arange(len(rows)).repeat(2), 3), per_text)
    keys, counts = np.unique(row_of * buckets + buckets_of, return_counts=True)
    row_ends = np.searchsorted(keys, np.arange(1, len(rows) + 1) * buckets).tolist()
    return INDICATOR_SLOTS + keys % buckets, counts, row_ends


def _with_indicators(
    inp: ScoringInput, grams: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``inp``'s normalized n-gram features with the indicator slots it
    fires (layout at the top) in front, each with value 1."""
    counts: dict[int, float] = {}
    counts[_KIND_SLOT[inp.focus_kind]] = 1.0
    focus, segment = inp.focus_text, inp.segment_text
    if focus and focus[-1] in TERMINAL_PUNCTUATION:
        counts[_SENTENCE_END_SLOT] = 1.0
    counts[_FOCUS_LEN_BASE + _length_bucket(len(focus))] = 1.0
    counts[_SEGMENT_LEN_BASE + _length_bucket(len(segment))] = 1.0
    if len(segment) <= 20:
        counts[_SHORT_SEGMENT_SLOT] = 1.0

    seg_hits, seg_depth = _numbering_hits(segment)
    for i in seg_hits:
        counts[_SEGMENT_PATTERN_BASE + i] = 1.0
    if seg_depth:
        counts[_SEGMENT_DEPTH_BASE + min(seg_depth, 4) - 1] = 1.0
    else:
        counts[_SEGMENT_UNNUMBERED_SLOT] = 1.0
    if focus:
        focus_hits, focus_depth = _numbering_hits(focus)
        for i in focus_hits:
            counts[_FOCUS_PATTERN_BASE + i] = 1.0
        if focus_depth:
            counts[_FOCUS_DEPTH_BASE + min(focus_depth, 4) - 1] = 1.0
        else:
            counts[_FOCUS_UNNUMBERED_SLOT] = 1.0
        # How the two numbering depths relate decides most attachments,
        # so spell the comparison out instead of leaving it additive.
        if focus_depth and seg_depth:
            if seg_depth == focus_depth + 1:
                counts[_CHILD_DEPTH_SLOT] = 1.0
            elif seg_depth <= focus_depth:
                counts[_SIBLING_OR_SHALLOWER_SLOT] = 1.0
            else:
                counts[_SKIPPED_DEPTH_SLOT] = 1.0
        elif focus_depth:
            counts[_ONLY_FOCUS_NUMBERED_SLOT] = 1.0
        elif seg_depth:
            counts[_ONLY_SEGMENT_NUMBERED_SLOT] = 1.0
        else:
            counts[_NEITHER_NUMBERED_SLOT] = 1.0
    indicators = np.fromiter(sorted(counts), dtype=np.int64, count=len(counts))
    return np.concatenate([indicators, grams]), np.concatenate([np.ones(len(counts)), values])


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
    grams, counts, _ = _hash_ngrams(
        [(inp.focus_text, inp.segment_text)], hash_seed, dim - INDICATOR_SLOTS
    )
    values = counts.astype(np.float64)
    # The counts are integers, so their sum of squares is exact in any order.
    values /= np.sqrt(np.sum(values**2))
    return _with_indicators(inp, grams, values)


def featurize_many(
    inputs: Sequence[ScoringInput], hash_seed: int = 0, dim: int = DEFAULT_DIM
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``[featurize(inp, hash_seed, dim) for inp in inputs]``, array for
    array, from one kernel call per ``HASH_CHUNK_CHARS`` characters."""
    out: list[tuple[np.ndarray, np.ndarray]] = []
    start = chars = 0
    for stop, inp in enumerate(inputs, 1):
        chars += len(inp.focus_text) + len(inp.segment_text)
        if chars < HASH_CHUNK_CHARS and stop < len(inputs):
            continue
        chunk, start, chars = inputs[start:stop], stop, 0
        grams, counts, ends = _hash_ngrams(
            [(x.focus_text, x.segment_text) for x in chunk], hash_seed, dim - INDICATOR_SLOTS
        )
        values = counts.astype(np.float64)
        row_of = np.repeat(np.arange(len(chunk)), np.diff(ends, prepend=0))
        # Every row has grams, and integer sums of squares are exact.
        values /= np.sqrt(np.bincount(row_of, weights=values**2))[row_of]
        out += [
            _with_indicators(x, grams[begin:end], values[begin:end])
            for x, begin, end in zip(chunk, [0] + ends, ends)
        ]
    return out


@dataclass
class LinearModel(ActionScorer):
    """A multiclass linear scorer over hashed features.

    The action scorer uses four classes; the baseline heads reuse the
    same container with their own class counts. Inputs are hashed into
    as many features as the weights have columns.
    """

    weights: np.ndarray  # (classes, dim) float64
    bias: np.ndarray  # (classes,) float64
    hash_seed: int
    version: int = 1

    def __post_init__(self) -> None:
        if self.dim <= INDICATOR_SLOTS:
            raise ValueError(
                f"feature dimension {self.dim} must exceed the"
                f" {INDICATOR_SLOTS}-slot indicator block"
            )

    @classmethod
    def create(cls, dim: int = DEFAULT_DIM, classes: int = 4, hash_seed: int = 0) -> "LinearModel":
        return cls(
            weights=np.zeros((classes, dim), dtype=np.float64),
            bias=np.zeros(classes, dtype=np.float64),
            hash_seed=hash_seed,
        )

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    @property
    def classes(self) -> int:
        return self.weights.shape[0]

    def copy(self) -> "LinearModel":
        return LinearModel(
            weights=self.weights.copy(),
            bias=self.bias.copy(),
            hash_seed=self.hash_seed,
            version=self.version,
        )

    def logits_for(self, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
        return self.weights[:, indices] @ values + self.bias

    def score_input(self, inp: ScoringInput) -> ActionScores:
        return score(inp, self)


def score(inp: ScoringInput, model: LinearModel) -> ActionScores:
    """Score the four actions for one input with a 4-class model."""
    indices, values = featurize(inp, model.hash_seed, model.dim)
    return ActionScores.from_logits(model.logits_for(indices, values))


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


def train(
    examples: Sequence[tuple[ScoringInput, int]],
    config: TrainConfig,
    classes: int = 4,
    dim: int = DEFAULT_DIM,
    epoch_callback: Callable[[int, LinearModel], None] | None = None,
) -> LinearModel:
    """Fit a linear model by mini-batch cross-entropy descent.

    Deterministic for a fixed config seed: the same data and seed yield a
    bit-identical model. ``epoch_callback`` runs after every epoch with
    the live model (copy it to keep a snapshot).
    """
    if not examples:
        raise EmptyTrainingSet("cannot train on an empty example list")
    model = LinearModel.create(dim=dim, classes=classes, hash_seed=config.seed)
    feats = featurize_many([inp for inp, _ in examples], model.hash_seed, dim)
    labels = np.array([int(label) for _, label in examples], dtype=np.int64)
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError("label out of range for the class count")
    class_weights = np.ones(classes, dtype=np.float64)
    if config.class_weighting:
        class_weights = inverse_frequency_weights(labels, classes)

    # The compact head's column u is the model's column used[u]. The map
    # is monotone, so every sorted column order stays the same. With the
    # indicator block and at least one gram per example, the head is wider
    # than the indicator block, as LinearModel requires.
    all_indices = np.concatenate([indices for indices, _ in feats])
    used = np.union1d(np.arange(INDICATOR_SLOTS), all_indices)
    ends = np.cumsum([len(indices) for indices, _ in feats])[:-1]
    compact = np.split(np.searchsorted(used, all_indices), ends)
    feats = [(indices, values) for indices, (_, values) in zip(compact, feats)]
    head = LinearModel.create(dim=len(used), classes=classes, hash_seed=config.seed)

    # The moments are column-major: one row per column, gathered at once.
    moment1 = np.zeros((len(used), classes), dtype=np.float64)
    moment2 = np.zeros_like(moment1)
    bias_m1 = np.zeros_like(head.bias)
    bias_m2 = np.zeros_like(head.bias)
    last_step = np.zeros(len(used), dtype=np.int64)
    step = 0
    lr, decay = config.learning_rate, config.weight_decay

    def publish() -> None:
        _settle_decay(head, last_step, step, lr, decay)
        model.weights[:, used] = head.weights
        model.bias[:] = head.bias

    rng = np.random.default_rng(config.seed)
    n = len(examples)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            step += 1
            _, cols, grad, bias_grad = loss_and_grad(
                head, [feats[j] for j in batch], labels[batch], class_weights
            )
            grad = grad.T
            m1, m2, weights = moment1[cols], moment2[cols], head.weights[:, cols]

            # Catch up lazily skipped steps: decay moments and apply the
            # decoupled weight decay those columns would have received.
            lag = (step - 1) - last_step[cols]
            m1 *= (_BETA1 ** lag)[:, None]
            m2 *= (_BETA2 ** lag)[:, None]
            weights *= (1.0 - lr * decay) ** lag
            last_step[cols] = step

            m1 = _BETA1 * m1 + (1 - _BETA1) * grad
            m2 = _BETA2 * m2 + (1 - _BETA2) * grad**2
            moment1[cols], moment2[cols] = m1, m2
            m_hat = m1 / (1 - _BETA1**step)
            v_hat = m2 / (1 - _BETA2**step)
            head.weights[:, cols] = weights * (1.0 - lr * decay) - (
                lr * m_hat / (np.sqrt(v_hat) + _EPS)
            ).T

            bias_m1 = _BETA1 * bias_m1 + (1 - _BETA1) * bias_grad
            bias_m2 = _BETA2 * bias_m2 + (1 - _BETA2) * bias_grad**2
            b_hat1 = bias_m1 / (1 - _BETA1**step)
            b_hat2 = bias_m2 / (1 - _BETA2**step)
            head.bias -= lr * b_hat1 / (np.sqrt(b_hat2) + _EPS)

        if epoch_callback is not None:
            publish()
            epoch_callback(epoch, model)

    publish()
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


# Model file container. All integers little-endian. Layout:
#   magic    4 bytes  (b"CTXM" action scorer; baseline heads use their own)
#   version  uint32
#   dim      uint64
#   seed     int64
#   classes  uint32
#   weights  classes*dim float64, row-major
#   bias     classes float64
# A file may hold several containers back to back (the two pipeline
# heads share one file).
MODEL_MAGIC = b"CTXM"
_HEADER = struct.Struct("<4sIQqI")


def write_container(handle, model: LinearModel, magic: bytes = MODEL_MAGIC) -> None:
    if len(magic) != 4:
        raise ValueError("model magic must be exactly 4 bytes")
    handle.write(
        _HEADER.pack(magic, model.version, model.dim, model.hash_seed, model.classes)
    )
    handle.write(np.ascontiguousarray(model.weights, dtype="<f8").tobytes())
    handle.write(np.ascontiguousarray(model.bias, dtype="<f8").tobytes())


def read_container(handle, magic: bytes = MODEL_MAGIC, name: str = "model") -> LinearModel:
    header = handle.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise ValueError(f"{name}: truncated model header")
    found, version, dim, seed, classes = _HEADER.unpack(header)
    if found != magic:
        raise ValueError(f"{name}: expected magic {magic!r}, found {found!r}")
    expected = (classes * dim + classes) * 8
    left = os.fstat(handle.fileno()).st_size - handle.tell()
    if expected > left:
        raise ValueError(f"{name}: header claims a {expected}-byte payload, {left} bytes left")
    payload = handle.read(expected)
    weights = np.frombuffer(payload[: classes * dim * 8], dtype="<f8").reshape(classes, dim)
    bias = np.frombuffer(payload[classes * dim * 8 :], dtype="<f8")
    try:
        return LinearModel(
            weights=weights.astype(np.float64),
            bias=bias.astype(np.float64),
            hash_seed=int(seed),
            version=int(version),
        )
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def save_model(model: LinearModel, path: str | Path, magic: bytes = MODEL_MAGIC) -> None:
    with open(path, "wb") as handle:
        write_container(handle, model, magic)


def load_model(path: str | Path, magic: bytes = MODEL_MAGIC) -> LinearModel:
    with open(path, "rb") as handle:
        return read_container(handle, magic, name=str(path))
