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
decoupled weight decay; moment updates are applied lazily per touched
feature column, so cost scales with the sparse footprint of each batch
rather than the full dimension.
"""
from __future__ import annotations

import re
import struct
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
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


def _hash_ngrams(
    focus: str, segment: str, seed: int, buckets: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted n-gram features of ``^focus$`` and ``^segment$`` (formula in
    the module docstring, ``buckets = dim - INDICATOR_SLOTS``) with their
    counts.

    Both padded texts go through one table-driven CRC-32 pass, equal to
    ``zlib.crc32`` bit for bit: one register per starting character
    absorbs the bytes of that character, then of the next two, and is read
    out after each, which gives all three gram lengths at once; grams that
    run from one text into the other are dropped.
    """
    text = "^" + focus + "$^" + segment + "$"
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
    # A CRC-32 register holds the complement of the running value.
    split = len(focus) + 2
    register = np.full(len(text), zlib.crc32(b"q:", seed & 0xFFFFFFFF) ^ 0xFFFFFFFF, np.uint32)
    register[:split] = zlib.crc32(b"s:", seed & 0xFFFFFFFF) ^ 0xFFFFFFFF
    grams = []
    for n in range(3):
        # The register of the gram starting at character i absorbs character i+n.
        register = register[: len(text) - n]
        for k in range(width):
            update = _CRC32_TABLE[(register ^ columns[k][n:]) & 0xFF] ^ (register >> 8)
            register = update if k == 0 else np.where(widths[n:] > k, update, register)
        # Grams starting in the focus's last n characters run into the segment.
        grams += [register[: split - n], register[split:]]
    crc = ~np.concatenate(grams)
    return np.unique(INDICATOR_SLOTS + crc.astype(np.int64) % buckets, return_counts=True)


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

    grams, gram_counts = _hash_ngrams(focus, segment, hash_seed, dim - INDICATOR_SLOTS)
    values = gram_counts.astype(np.float64)
    # The counts are integers, so their sum of squares is exact in any order.
    values /= np.sqrt(np.sum(values**2))
    indicators = np.fromiter(sorted(counts), dtype=np.int64, count=len(counts))
    return np.concatenate([indicators, grams]), np.concatenate([np.ones(len(counts)), values])


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
        if self.learning_rate <= 0 or self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("learning rate, epochs and batch size must be positive")
        if self.weight_decay <= 0:
            raise ValueError("weight decay must be positive")


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
    grad_t = np.zeros((len(cols), model.classes), dtype=np.float64)
    np.add.at(grad_t, inverse, contrib)
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
    feats = [featurize(inp, model.hash_seed, dim) for inp, _ in examples]
    labels = np.array([int(label) for _, label in examples], dtype=np.int64)
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError("label out of range for the class count")
    class_weights = np.ones(classes, dtype=np.float64)
    if config.class_weighting:
        class_weights = inverse_frequency_weights(labels, classes)

    moment1 = np.zeros_like(model.weights)
    moment2 = np.zeros_like(model.weights)
    bias_m1 = np.zeros_like(model.bias)
    bias_m2 = np.zeros_like(model.bias)
    last_step = np.zeros(dim, dtype=np.int64)
    step = 0
    lr, decay = config.learning_rate, config.weight_decay

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

            # Catch up lazily skipped steps: decay moments and apply the
            # decoupled weight decay those columns would have received.
            lag = (step - 1) - last_step[cols]
            moment1[:, cols] *= _BETA1 ** lag
            moment2[:, cols] *= _BETA2 ** lag
            model.weights[:, cols] *= (1.0 - lr * decay) ** lag
            last_step[cols] = step

            moment1[:, cols] = _BETA1 * moment1[:, cols] + (1 - _BETA1) * grad
            moment2[:, cols] = _BETA2 * moment2[:, cols] + (1 - _BETA2) * grad**2
            m_hat = moment1[:, cols] / (1 - _BETA1**step)
            v_hat = moment2[:, cols] / (1 - _BETA2**step)
            model.weights[:, cols] = model.weights[:, cols] * (1.0 - lr * decay) - (
                lr * m_hat / (np.sqrt(v_hat) + _EPS)
            )

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
    payload = handle.read((classes * dim + classes) * 8)
    expected = (classes * dim + classes) * 8
    if len(payload) != expected:
        raise ValueError(f"{name}: payload is {len(payload)} bytes, expected {expected}")
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
