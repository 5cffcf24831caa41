"""Reference featurizer: the per-gram ``zlib.crc32`` loop that
``scoring.featurize`` replaced with a vectorized kernel.

Kept as the definition the kernel must reproduce exactly (indices,
values and dtypes); ``test_scoring`` compares the two.
"""
from __future__ import annotations

import zlib

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
    text: str, namespace: bytes, seed: int, buckets: int, counts: dict[int, float]
) -> None:
    padded = "^" + text + "$"
    data = padded.encode("utf-8")
    # Precompute byte offsets per character so slicing stays cheap for
    # multi-byte scripts.
    offsets = [0]
    for ch in padded:
        offsets.append(offsets[-1] + len(ch.encode("utf-8")))
    base = zlib.crc32(namespace, seed & 0xFFFFFFFF)
    n_chars = len(padded)
    for n in (1, 2, 3):
        for start in range(n_chars - n + 1):
            gram = data[offsets[start]:offsets[start + n]]
            bucket = INDICATOR_SLOTS + zlib.crc32(gram, base) % buckets
            counts[bucket] = counts.get(bucket, 0.0) + 1.0


def reference_featurize(
    inp: ScoringInput,
    hash_seed: int = 0,
    dim: int = DEFAULT_DIM,
) -> tuple[np.ndarray, np.ndarray]:
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

    buckets = dim - INDICATOR_SLOTS
    _hash_ngrams(focus, b"s:", hash_seed, buckets, counts)
    _hash_ngrams(segment, b"q:", hash_seed, buckets, counts)

    indices = np.fromiter(sorted(counts), dtype=np.int64, count=len(counts))
    values = np.array([counts[i] for i in indices], dtype=np.float64)
    grams = indices >= INDICATOR_SLOTS
    norm = float(np.sqrt(np.sum(values[grams] ** 2)))
    if norm > 0:
        values[grams] /= norm
    return indices, values
