"""Decode scores a ``LinearModel`` through a per-document session that
hashes each text once and keeps per-node partial logits and gram counts.
Its squared norms must be ``featurize``'s integers and its scores
``featurize``'s to rounding at every step, its work must not grow with
the length of a ``concat`` chain, and its memory must not grow with the
document."""
from __future__ import annotations

import itertools
import math
import struct
import tracemalloc
from collections import Counter
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catparse import scoring
from catparse.corpus import ChunkConfig, GenConfig, chunk_corpus, generate_corpus
from catparse.engine import decode
from catparse.scoring import (
    INDICATOR_SLOTS,
    ActionScorer,
    ActionScores,
    LinearModel,
    ScoringInput,
    step_input,
)
from catparse.tree import Action, NodeKind, Segment

from .dense_heads import full_head
from .featurize_reference import reference_counts

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
    """Decode through ``scorer``'s session, recording the scores of every step.

    With a script, the decode is handed logits that prefer its actions in
    turn, so any legal action sequence can be driven; otherwise the
    session's own scores decide.
    """
    scores = []
    preferred = itertools.cycle(script) if script else None
    session = scorer.session(segments, joiner)

    class Driven:
        def session(self, segments, joiner):
            return self

        def score(self, focus, segment):
            result = session.score(focus, segment)
            scores.append(result)
            if preferred is None:
                return result
            logits = np.zeros(4)
            logits[next(preferred)] = 1.0
            return ActionScores.from_logits(logits)

    tree, trace = decode(segments, Driven(), constrained, joiner)
    return tree, trace, scores


@given(
    st.lists(PIECES, min_size=1, max_size=12),
    st.sampled_from(["", " ", "\n"]),
    st.booleans(),
    SEEDS,
    st.sampled_from([66, 67, 1000, 1 << 18]),
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
# a heading grows, then its child does (the heading's counts are frozen),
# the focus climbs back and the heading grows again; its first concat
# makes its content a numbering that its first piece was not
@example(
    ["第1", "章", "a", "b", "1"], "", False, 0, 66, 0, 0.0,
    [Action.SUB_HEADING, Action.CONCAT, Action.SUB_TEXT, Action.CONCAT, Action.REDUCE,
     Action.CONCAT],
)
# one column per namespace: every gram collides with every other of its
# namespace, and none with the other's
@example(["a", "^", "$", "b"], " ", True, -1, 66, 1, 8.0, [Action.SUB_TEXT, Action.CONCAT])
@example(["\U0001F600", "\u0301", "\u00e9\u4e2d"], "\n", True, 2**32, 1 << 18, 2, 8.0, None)
@settings(max_examples=150, deadline=timedelta(seconds=5))
def test_session_scores_match_featurize_at_every_step(
    texts, joiner, constrained, seed, dim, head_seed, concat_bias, script
):
    segments = [Segment(text, i) for i, text in enumerate(texts)]
    model = random_head(dim, seed, np.random.default_rng(head_seed), concat_bias)
    with mock.patch.object(scoring, "_step_logits", wraps=scoring._step_logits) as step:
        tree, trace, scores = traced_decode(segments, model, constrained, joiner, script)
    stateless = Stateless(model)
    tree_ref, trace_ref, scores_ref = traced_decode(
        segments, stateless, constrained, joiner, script
    )
    assert tree == tree_ref
    assert [(s.focus_segment, s.segment_index, s.action, s.forced) for s in trace.steps] == [
        (s.focus_segment, s.segment_index, s.action, s.forced) for s in trace_ref.steps
    ]
    assert len(scores) == len(scores_ref) == len(stateless.inputs) == step.call_count
    for got, want, inp, call in zip(scores, scores_ref, stateless.inputs, step.call_args_list):
        # The squared norm is exact: an integer, the featurize one.
        grams = [c for i, c in reference_counts(inp, seed, dim).items() if i >= INDICATOR_SLOTS]
        square = call.args[1]
        assert type(square) is int and square == sum(int(c) ** 2 for c in grams)
        # The logits are summed in another order, so only to rounding.
        for values, ref in ((got.logits, want.logits), (got.probabilities, want.probabilities)):
            np.testing.assert_allclose(values, ref, rtol=1e-12, atol=1e-12)


def reference_step_logits(partials, square, rows, bias) -> np.ndarray:
    """A step's logits as numpy sums them: the definition the session's
    plain-float ``_step_logits`` must reproduce bit for bit."""
    return np.asarray(partials) / math.sqrt(square) + np.asarray(rows).sum(axis=0) + bias


def packed(logits) -> bytes:
    return struct.pack("<4d", *logits)


def assert_steps_match_the_reference(segments, model, joiner, check_slots=True):
    """Decode ``segments`` with ``model`` and check every step's logits,
    in the trace and in the scores, against ``reference_step_logits`` bit
    for bit, and the indicator rows it summed against those of the slots
    ``reference_counts`` fires."""
    inputs = []

    class Recorded:
        def session(self, segments, joiner):
            inner = model.session(segments, joiner)

            class Session:
                def score(self, focus, segment):
                    inputs.append(step_input(focus, segment))
                    return inner.score(focus, segment)

            return Session()

    with mock.patch.object(scoring, "_step_logits", wraps=scoring._step_logits) as step:
        _, trace = decode(segments, Recorded(), True, joiner)
    assert len(trace.steps) == step.call_count == len(inputs)
    block = model._table[:, :INDICATOR_SLOTS].T
    for taken, call, inp in zip(trace.steps, step.call_args_list, inputs):
        partials, square, rows, bias = call.args
        want = reference_step_logits(partials, square, rows, model.bias)
        assert packed(taken.logits) == packed(want)
        assert packed(bias) == packed(model.bias)
        if check_slots:
            slots = sorted(i for i in reference_counts(inp, model.hash_seed, model.dim)
                           if i < INDICATOR_SLOTS)
            assert np.asarray(rows).tobytes() == block[slots].tobytes()
    return trace


def dense_random_head(dim: int, hash_seed: int, seed: int, concat_bias: float) -> LinearModel:
    rng = np.random.default_rng(seed)
    model = full_head(dim, hash_seed=hash_seed)
    model.weights[:] = rng.normal(size=model.weights.shape)
    model.bias[:] = rng.normal(size=4)
    model.bias[Action.CONCAT] += concat_bias
    return model


@pytest.mark.parametrize("joiner", ["", " "])
def test_step_logits_equal_the_numpy_reference_on_generated_documents(joiner):
    docs = generate_corpus(GenConfig(doc_count=6, seed=4))
    streams, _ = chunk_corpus(docs, ChunkConfig(seed=4), joiner)
    for k, stream in enumerate(streams):
        model = dense_random_head(1 << 12, k, k, 1.5)
        trace = assert_steps_match_the_reference(stream.segments, model, joiner)
        assert any(step.action is Action.CONCAT for step in trace.steps)


def test_step_logits_equal_the_numpy_reference_on_a_long_chain():
    rng = np.random.default_rng(2)
    pieces = rng.choice(CJK[:300], size=(300, 30))
    segments = [Segment("".join(piece), i) for i, piece in enumerate(pieces)]
    model = dense_random_head(1 << 12, 7, 3, 0.0)
    model.bias[:] = [0.0, 1.0, 40.0, 0.0]
    trace = assert_steps_match_the_reference(segments, model, " ", check_slots=False)
    assert [step.action for step in trace.steps[1:]] == [Action.CONCAT] * 299


@given(st.integers(1, 20), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_plain_float_step_logits_equal_numpy_bit_for_bit(count, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-8, 9, size=(count, 4))
    rows = rng.normal(size=(count, 4)) * scale
    partials, bias = rng.normal(size=4) * 1e3, rng.normal(size=4)
    square = int(rng.integers(1, 10**6))
    got = scoring._step_logits(partials.tolist(), square, rows.tolist(), bias.tolist())
    assert all(type(x) is float for x in got)
    assert packed(got) == packed(reference_step_logits(partials, square, rows, bias))


LETTERS = np.array(list("abcdefghij klmnopqrstuvwxyz"))
# Enough characters that the distinct grams of a chain keep growing with it.
CJK = np.array([chr(0x4E00 + k) for k in range(3000)])


def chain_work(segments: list[Segment], joiner: str) -> Counter:
    """The work of decoding ``segments`` into one text node with a head
    that favours ``concat``: ``chars``, the characters the kernel and the
    boundary-gram hashing take, and ``entries``, the weight columns
    gathered plus the count entries merged."""
    model = LinearModel.create(dim=1 << 18)
    model.bias[:] = [0.0, 1.0, 5.0, 0.0]
    work: Counter = Counter()
    sizes = {
        "_hash_ngrams": ("chars", lambda rows, *_: sum(len(t) for row in rows for _, t in row)),
        "_boundary_grams": ("chars", lambda tail, joiner, head, *_: len(tail + joiner + head)),
        "_gather": ("entries", lambda model, columns: len(columns)),
        "_merge": ("entries", lambda counts, columns, *_: len(columns)),
    }

    def counted(name):
        real = getattr(scoring, name)
        kind, size = sizes[name]

        def wrapper(*args):
            work[kind] += size(*args)
            return real(*args)

        return mock.patch.object(scoring, name, wrapper)

    with counted("_hash_ngrams"), counted("_boundary_grams"), counted("_gather"), \
            counted("_merge"):
        tree, _ = decode(segments, model, True, joiner)
    (node,) = tree.root.children
    assert node.kind is NodeKind.TEXT and len(node.source_segments) == len(segments)
    return work


def test_hashed_characters_per_segment_do_not_grow_with_the_chain():
    # Rehashing the focus at every step would take about N/2 pieces per
    # segment, and gathering or merging the focus's counts would take
    # about as many entries as the focus has distinct grams.
    rng = np.random.default_rng(0)
    for alphabet in (LETTERS, CJK):
        entries = []
        for n in (250, 1000, 4000):
            pieces = rng.choice(alphabet, size=(n, 78))
            segments = [Segment("".join(piece).join("xy"), i) for i, piece in enumerate(pieces)]
            mean_piece = sum(len(s.text) for s in segments) / n
            work = chain_work(segments, " ")
            assert work["chars"] / n < 3 * mean_piece
            # A piece of L characters has 3L + 3 grams, gathered under two
            # namespaces and merged once, and the joint adds a few more.
            assert work["entries"] / n < 9 * mean_piece + 40
            entries.append(work["entries"] / n)
        assert max(entries) < 1.1 * min(entries), entries


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
