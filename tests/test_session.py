"""Decode scores a ``LinearModel`` through a per-document session that
hashes each text once and keeps per-node gram counts. Its features must
be ``featurize``'s at every step, its work must not grow with the length
of a ``concat`` chain, and its memory must not grow with the document."""
from __future__ import annotations

import itertools
import tracemalloc
from datetime import timedelta
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catparse import scoring
from catparse.engine import decode
from catparse.scoring import (
    INDICATOR_SLOTS,
    ActionScorer,
    ActionScores,
    LinearModel,
    ScoringInput,
)
from catparse.tree import Action, NodeKind, Segment

from .featurize_reference import reference_featurize

# Pieces mix one- to four-byte characters, a combining mark, the padding
# characters ^ and $, numbering shapes and sentence ends.
PIECE_CHARS = st.sampled_from(
    list("ab ^$.。1第章(") + ["\u00e9", "\u0301", "\u4e2d", "\U0001F600", "\U00020000"]
)
PIECES = st.text(PIECE_CHARS, min_size=1, max_size=6).filter(str.strip)
SEEDS = st.one_of(
    st.integers(-(2**63), -1), st.integers(0, 2**32 - 1), st.integers(2**32, 2**63 - 1)
)
# Preferred actions, cycled through; None scores with the head's own logits.
SCRIPTS = st.one_of(st.none(), st.lists(st.sampled_from(list(Action)), min_size=1, max_size=30))


class Stateless(ActionScorer):
    """Scores each step's input afresh through ``score_input``, recording it."""

    def __init__(self, model: LinearModel):
        self.model = model
        self.inputs: list[ScoringInput] = []

    def score_input(self, inp: ScoringInput) -> ActionScores:
        self.inputs.append(inp)
        return self.model.score_input(inp)


def random_head(dim: int, hash_seed: int, rng: np.random.Generator, concat_bias: float):
    """A head holding the indicator block and a random subset of the other columns."""
    held = rng.choice(dim - INDICATOR_SLOTS, size=min(dim - INDICATOR_SLOTS, 400), replace=False)
    columns = np.union1d(np.arange(INDICATOR_SLOTS), INDICATOR_SLOTS + held)
    bias = rng.normal(size=4)
    bias[Action.CONCAT] += concat_bias
    return LinearModel(columns, rng.normal(size=(4, len(columns))), bias, hash_seed, dim)


def traced_decode(segments, scorer, constrained, joiner, script):
    """Decode, recording the (indices, values) of every ``logits_for`` call.

    With a script, the logits prefer its actions in turn, so any legal
    action sequence can be driven; otherwise they are the head's own.
    """
    features = []
    preferred = itertools.cycle(script) if script else None
    logits_for = LinearModel.logits_for

    def spy(model, indices, values):
        features.append((indices, values))
        if preferred is None:
            return logits_for(model, indices, values)
        logits = np.zeros(4)
        logits[next(preferred)] = 1.0
        return logits

    with mock.patch.object(LinearModel, "logits_for", spy):
        tree, trace = decode(segments, scorer, constrained, joiner)
    return tree, trace, features


@given(
    st.lists(PIECES, min_size=1, max_size=12),
    st.sampled_from(["", " ", "\n"]),
    st.booleans(),
    SEEDS,
    st.sampled_from([65, 66, 1000, 1 << 18]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 3.0, 8.0]),
    SCRIPTS,
)
# concat after children: a heading takes a child, the focus climbs back
# and the heading takes one more piece (unconstrained only)
@example(
    ["1 ab", "中", "$", "^"], "", False, 0, 1000, 0, 0.0,
    [Action.SUB_HEADING, Action.SUB_TEXT, Action.REDUCE, Action.CONCAT, Action.CONCAT],
)
@example(["a", "^", "$", "b"], " ", True, -1, 65, 1, 8.0, [Action.SUB_TEXT, Action.CONCAT])
@example(["\U0001F600", "\u0301", "\u00e9\u4e2d"], "\n", True, 2**32, 1 << 18, 2, 8.0, None)
@settings(max_examples=150, deadline=timedelta(seconds=5))
def test_session_features_equal_featurize_at_every_step(
    texts, joiner, constrained, seed, dim, head_seed, concat_bias, script
):
    segments = [Segment(text, i) for i, text in enumerate(texts)]
    model = random_head(dim, seed, np.random.default_rng(head_seed), concat_bias)
    tree, trace, features = traced_decode(segments, model, constrained, joiner, script)
    stateless = Stateless(model)
    tree_ref, trace_ref, features_ref = traced_decode(
        segments, stateless, constrained, joiner, script
    )
    assert tree == tree_ref and trace == trace_ref
    assert len(features) == len(features_ref) == len(stateless.inputs) == len(trace.steps)
    for (indices, values), (ref_indices, ref_values), inp in zip(
        features, features_ref, stateless.inputs
    ):
        loop_indices, loop_values = reference_featurize(inp, seed, dim)
        for got, want in ((indices, ref_indices), (values, ref_values)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(indices, loop_indices) and np.array_equal(values, loop_values)


def hashed_characters(segments: list[Segment], joiner: str) -> int:
    """Characters the kernel and the boundary-gram hashing take while
    decoding ``segments`` into one text node with a head that favours
    ``concat``."""
    model = LinearModel.create(dim=1 << 12)
    model.bias[:] = [0.0, 1.0, 5.0, 0.0]
    with mock.patch.object(scoring, "_hash_ngrams", wraps=scoring._hash_ngrams) as kernel, \
            mock.patch.object(scoring, "_boundary_grams", wraps=scoring._boundary_grams) as edge:
        tree, _ = decode(segments, model, True, joiner)
    (node,) = tree.root.children
    assert node.kind is NodeKind.TEXT and len(node.source_segments) == len(segments)
    kernel_chars = sum(
        len(text) for call in kernel.call_args_list for row in call.args[0] for _, text in row
    )
    edge_chars = sum(len("".join(call.args[:3])) for call in edge.call_args_list)
    return kernel_chars + edge_chars


def test_hashed_characters_per_segment_do_not_grow_with_the_chain():
    # Rehashing the focus at every step would take about N/2 pieces per segment.
    rng = np.random.default_rng(0)
    letters = np.array(list("abcdefghij klmnopqrstuvwxyz"))
    for n in (250, 1000):
        segments = [
            Segment("".join(rng.choice(letters, size=78)).join("xy"), i) for i in range(n)
        ]
        mean_piece = sum(len(s.text) for s in segments) / n
        assert hashed_characters(segments, " ") / n < 3 * mean_piece


def decode_working_memory(n: int) -> int:
    """Bytes decode holds at its peak beyond what it returns, for a flat
    document of ``n`` short text nodes."""
    rng = np.random.default_rng(1)
    letters = np.array(list("abcdefghij klmnopqrstuvwxyz"))
    segments = [Segment("".join(rng.choice(letters, size=40)).join("xy"), i) for i in range(n)]
    model = LinearModel.create(dim=1 << 12)
    # sub_text, then a forced reduce back to the root, for every segment
    model.bias[:] = [0.0, 5.0, 0.0, 1.0]
    tracemalloc.start()
    try:
        tree, _ = decode(segments, model, True, " ")
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tree.root.children) == n
    return peak - current


def test_session_memory_does_not_grow_with_the_document():
    # Holding every segment's grams would take about 2 KB more per segment.
    assert decode_working_memory(2000) < 2 * decode_working_memory(500)
