"""Reference featurizer: the per-gram loop, in Python integers, that
``scoring.featurize`` replaced with a vectorized kernel.

Kept as the definition the kernel must reproduce exactly (indices,
values and dtypes); ``test_scoring`` compares the two.
"""
from __future__ import annotations

import numpy as np

from catparse.scoring import (
    _CHILD_DEPTH_SLOT,
    _FOCUS_DEPTH_BASE,
    _FOCUS_LEN_BASE,
    _FOCUS_PATTERN_BASE,
    _FOCUS_UNNUMBERED_SLOT,
    _KIND_SLOT,
    _NEITHER_NUMBERED_SLOT,
    _ONLY_FOCUS_NUMBERED_SLOT,
    _ONLY_SEGMENT_NUMBERED_SLOT,
    _SEGMENT_DEPTH_BASE,
    _SEGMENT_LEN_BASE,
    _SEGMENT_PATTERN_BASE,
    _SEGMENT_UNNUMBERED_SLOT,
    _SENTENCE_END_SLOT,
    _SHORT_SEGMENT_SLOT,
    _SIBLING_OR_SHALLOWER_SLOT,
    _SKIPPED_DEPTH_SLOT,
    DEFAULT_DIM,
    INDICATOR_SLOTS,
    ScoringInput,
    _length_bucket,
    _numbering_hits,
)
from catparse.tree import TERMINAL_PUNCTUATION


def _hash_ngrams(
    text: str, seed: int, half: int, offset: int, counts: dict[int, float]
) -> None:
    padded = "^" + text + "$"
    for n in (1, 2, 3):
        for start in range(len(padded) - n + 1):
            key = sum((ord(c) + 1) << 21 * i for i, c in enumerate(padded[start : start + n]))
            mixed = ((key ^ (seed & 0xFFFFFFFF)) * 0x9E3779B97F4A7C15) % 2**64 >> 32
            bucket = INDICATOR_SLOTS + offset + mixed % half
            counts[bucket] = counts.get(bucket, 0.0) + 1.0


def reference_counts(
    inp: ScoringInput,
    hash_seed: int = 0,
    dim: int = DEFAULT_DIM,
) -> dict[int, float]:
    """The indicator slots ``inp`` fires, each 1, and its n-gram counts
    before normalization, by feature index."""
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

    # Focus grams hash into the lower half of the n-gram block, segment
    # grams into the upper half.
    half = (dim - INDICATOR_SLOTS) // 2
    _hash_ngrams(focus, hash_seed, half, 0, counts)
    _hash_ngrams(segment, hash_seed, half, half, counts)
    return counts


def reference_featurize(
    inp: ScoringInput,
    hash_seed: int = 0,
    dim: int = DEFAULT_DIM,
) -> tuple[np.ndarray, np.ndarray]:
    counts = reference_counts(inp, hash_seed, dim)
    indices = np.fromiter(sorted(counts), dtype=np.int64, count=len(counts))
    values = np.array([counts[i] for i in indices], dtype=np.float64)
    grams = indices >= INDICATOR_SLOTS
    norm = float(np.sqrt(np.sum(values[grams] ** 2)))
    if norm > 0:
        values[grams] /= norm
    return indices, values
