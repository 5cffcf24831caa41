import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catparse import scoring
from catparse.corpus import ChunkConfig, GenConfig, chunk_corpus, generate_corpus
from catparse.engine import oracle_examples
from catparse.scoring import (
    DEFAULT_DIM,
    INDICATOR_SLOTS,
    MODEL_MAGIC,
    ActionScores,
    EmptyTrainingSet,
    LinearModel,
    ScoringInput,
    TrainConfig,
    featurize,
    featurize_many,
    inverse_frequency_weights,
    load_model,
    loss_and_grad,
    save_model,
    score,
    softmax,
    train,
)
from catparse.tree import Action, NodeKind

from .featurize_reference import reference_featurize
from .train_reference import reference_loss_and_grad, reference_train

SMALL_DIM = 1 << 14


def inp(kind=NodeKind.ROOT, focus="", segment="1. Introduction"):
    return ScoringInput(focus_kind=kind, focus_text=focus, segment_text=segment)


class TestFeaturize:
    def test_deterministic(self):
        a = featurize(inp(NodeKind.HEADING, "第一章 总则", "正文内容。"))
        b = featurize(inp(NodeKind.HEADING, "第一章 总则", "正文内容。"))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_numbering_pattern_fires(self):
        indices, _ = featurize(inp(segment="第一章 总则"))
        # slot 16 + 1 is the CJK ordinal pattern in the default list
        assert 17 in indices

    def test_arabic_pattern_and_depth(self):
        indices, _ = featurize(inp(segment="1.2 市场"))
        assert 16 in indices  # arabic pattern hit
        assert 49 in indices  # depth bucket 2

    def test_sentence_end_indicator(self):
        indices, _ = featurize(inp(NodeKind.TEXT, "前文内容。", "后续"))
        assert 3 in indices
        indices, _ = featurize(inp(NodeKind.TEXT, "前文内容", "后续"))
        assert 3 not in indices

    def test_indicator_block_disjoint_from_ngrams(self):
        indices, _ = featurize(inp(NodeKind.HEADING, "第一章 总则", "正文。"))
        indicators = indices[indices < INDICATOR_SLOTS]
        grams = indices[indices >= INDICATOR_SLOTS]
        assert len(indicators) > 0 and len(grams) > 0
        assert indicators.max() < INDICATOR_SLOTS <= grams.min()

    def test_dimension_respected(self):
        indices, _ = featurize(inp(), dim=SMALL_DIM)
        assert indices.max() < SMALL_DIM

    def test_seed_changes_gram_buckets_not_indicators(self):
        a_idx, _ = featurize(inp(), hash_seed=1)
        b_idx, _ = featurize(inp(), hash_seed=2)
        assert set(a_idx[a_idx < INDICATOR_SLOTS]) == set(b_idx[b_idx < INDICATOR_SLOTS])
        assert set(a_idx[a_idx >= INDICATOR_SLOTS]) != set(b_idx[b_idx >= INDICATOR_SLOTS])

    def test_relative_depth_slots(self):
        indices, _ = featurize(inp(NodeKind.HEADING, "2.1 概述", "2.1.1 细节"))
        assert 56 in indices  # one deeper
        indices, _ = featurize(inp(NodeKind.HEADING, "2.1 概述", "2.2 其他"))
        assert 57 in indices  # sibling depth


# Characters of every UTF-8 length, combining marks and the padding marks.
CHARS = st.one_of(
    st.sampled_from("^$ .1第章。\u0301\u0300"),
    st.characters(max_codepoint=0x7F),
    st.characters(min_codepoint=0x80, max_codepoint=0x7FF),
    st.characters(min_codepoint=0x800, max_codepoint=0xFFFF, exclude_categories=("Cs",)),
    st.characters(min_codepoint=0x10000),
)
SEEDS = st.one_of(
    st.integers(-(2**63), -1), st.integers(0, 2**32 - 1), st.integers(2**32, 2**63 - 1)
)

# featurize over these inputs hashed to this digest before the n-gram
# loop was vectorized; a change that moves the kernel and the reference
# together shows here.
PINNED_INPUTS = [
    (NodeKind.ROOT, "", "1. Introduction", 0, 1 << 18),
    (NodeKind.HEADING, "第一章 总则", "第一节 目的", 7, 1 << 18),
    (NodeKind.TEXT, "The balance", "was 474 billion yuan.", -3, 65),
    (NodeKind.TEXT, "e\u0301e\u0301 \U0001F600x", "\U00020000。", 2**32 + 5, 1000),
    (NodeKind.HEADING, "2.1 概述" * 40, "2.1.1 细节", 123456789, 1 << 20),
    (NodeKind.TEXT, "", "a", 1, 66),
]
PINNED_SHA256 = "3e5d8d1d6f2cb47b4a7c19e4e9dd821eaa1db8c37e19829bd60f1b5ac8f02a26"


class TestHashKernel:
    @given(
        st.sampled_from(list(NodeKind)),
        st.text(CHARS, max_size=40),
        st.text(CHARS, min_size=1, max_size=40),
        SEEDS,
        st.sampled_from([65, 1000, 1 << 18, 1 << 20]),
    )
    @example(NodeKind.ROOT, "", "x", 0, 65)
    @example(NodeKind.TEXT, "\U0001F600e\u0301", "\U00020000", -1, 1 << 20)
    @example(NodeKind.HEADING, "第一章", "。", 2**32, 1000)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_loop(self, kind, focus, segment, seed, dim):
        example = ScoringInput(focus_kind=kind, focus_text=focus, segment_text=segment)
        indices, values = featurize(example, seed, dim)
        ref_indices, ref_values = reference_featurize(example, seed, dim)
        assert indices.dtype == ref_indices.dtype and values.dtype == ref_values.dtype
        assert np.array_equal(indices, ref_indices)
        assert np.array_equal(values, ref_values)

    def test_pinned_digest(self):
        digest = hashlib.sha256()
        for kind, focus, segment, seed, dim in PINNED_INPUTS:
            indices, values = featurize(ScoringInput(kind, focus, segment), seed, dim)
            digest.update(indices.astype("<i8").tobytes())
            digest.update(values.astype("<f8").tobytes())
        assert digest.hexdigest() == PINNED_SHA256


INPUTS = st.builds(
    ScoringInput,
    st.sampled_from(list(NodeKind)),
    st.text(CHARS, max_size=40),
    st.text(CHARS, min_size=1, max_size=40),
)


def rows(*texts: tuple[str, str]) -> list[ScoringInput]:
    return [ScoringInput(NodeKind.TEXT, focus, segment) for focus, segment in texts]


class TestHashManyRows:
    """``featurize_many`` hashes many rows in one kernel call per chunk;
    each row must come out as the per-gram reference loop makes it."""

    @given(
        st.lists(INPUTS, max_size=12),
        SEEDS,
        st.sampled_from([65, 1000, 1 << 18, 1 << 20]),
        st.sampled_from([1, 7, 60, scoring.HASH_CHUNK_CHARS]),
    )
    @example(rows(("", "x")), 0, 65, 1)
    # rows that share every gram: a key that let one row's columns run into
    # the next row's range would merge their counts
    @example(rows(("ab", "ab"), ("ab", "ab"), ("", "ab")), 3, 65, scoring.HASH_CHUNK_CHARS)
    @example(rows(("", "a"), ("b", "c"), ("", "d")), 1, 66, scoring.HASH_CHUNK_CHARS)
    @example(rows(("$^", "^$"), ("a$", "^b"), ("$", "$^$")), 7, 1000, 7)
    @example(rows(("\U0001F600", "\U00020000x"), ("e\u0301", "\U0001F600")), -1, 1 << 20, 3)
    @example([ScoringInput(kind, "1.", "2.1 x") for kind in NodeKind], 2**32, 1 << 18, 5)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_per_input(self, inputs, seed, dim, chunk_chars):
        with mock.patch.object(scoring, "HASH_CHUNK_CHARS", chunk_chars):
            got = featurize_many(inputs, seed, dim)
        assert len(got) == len(inputs)
        for (indices, values), example in zip(got, inputs):
            ref_indices, ref_values = reference_featurize(example, seed, dim)
            assert indices.dtype == ref_indices.dtype and values.dtype == ref_values.dtype
            assert np.array_equal(indices, ref_indices)
            assert np.array_equal(values, ref_values)

    def test_chunks_split_long_lists(self):
        inputs = rows(*[(f"focus {i}", f"segment {i}") for i in range(40)])
        with mock.patch.object(scoring, "_hash_ngrams", wraps=scoring._hash_ngrams) as kernel:
            with mock.patch.object(scoring, "HASH_CHUNK_CHARS", 100):
                featurize_many(inputs)
        assert kernel.call_count > 1
        assert sum(len(call.args[0]) for call in kernel.call_args_list) == len(inputs)


class TestScore:
    def test_features_have_the_model_dimension(self):
        rng = np.random.default_rng(5)
        model = LinearModel.create(dim=SMALL_DIM, hash_seed=3)
        model.weights[:] = rng.normal(size=model.weights.shape)
        example = inp(NodeKind.HEADING, "2.1 概述", "2.1.1 细节")
        expected = model.logits_for(*featurize(example, 3, SMALL_DIM))
        assert score(example, model).logits == tuple(expected)
        assert model.score_input(example) == score(example, model)

    def test_dimension_must_exceed_indicator_block(self):
        with pytest.raises(ValueError, match="indicator block"):
            LinearModel.create(dim=INDICATOR_SLOTS)
        assert LinearModel.create(dim=INDICATOR_SLOTS + 1).dim == INDICATOR_SLOTS + 1

    def test_zero_model_is_uniform(self):
        model = LinearModel.create(dim=SMALL_DIM)
        result = score(inp(), model)
        assert result.probabilities == pytest.approx((0.25, 0.25, 0.25, 0.25))

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        model = LinearModel.create(dim=SMALL_DIM)
        model.weights[:] = rng.normal(size=model.weights.shape) * 0.1
        result = score(inp(), model)
        assert abs(sum(result.probabilities) - 1.0) < 1e-9

    @given(st.lists(st.floats(-30, 30), min_size=4, max_size=4), st.floats(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_softmax_shift_invariance(self, logits, shift):
        base = ActionScores.from_logits(logits)
        shifted = ActionScores.from_logits([x + shift for x in logits])
        assert np.allclose(base.probabilities, shifted.probabilities, atol=1e-9)
        # the chosen action is argmax over the logits, and its probability
        # is maximal (logit gaps below float epsilon cannot survive exp)
        assert base.best == int(np.argmax(logits))
        assert base.probabilities[base.best] >= max(base.probabilities) - 1e-12


def separable_examples():
    return [
        (inp(NodeKind.ROOT, "", "1. 标题"), Action.SUB_HEADING),
        (inp(NodeKind.HEADING, "1. 标题", "正文内容很长。"), Action.SUB_TEXT),
        (inp(NodeKind.TEXT, "未完内容", "后半句。"), Action.CONCAT),
        (inp(NodeKind.TEXT, "完整内容。", "2. 新节"), Action.REDUCE),
    ]


@pytest.fixture(scope="module")
def oracle_inputs():
    """Oracle examples of six generated documents: 393 inputs, whose
    texts share many n-gram columns."""
    docs = generate_corpus(GenConfig(doc_count=6, seed=23))
    streams, gold_docs = chunk_corpus(docs, ChunkConfig(seed=23))
    return [
        ex for stream, gdoc in zip(streams, gold_docs)
        for ex in oracle_examples(gdoc.tree, stream.segments)
    ]


def relabelled(examples, classes, seed=0):
    labels = np.random.default_rng(seed).integers(classes, size=len(examples))
    return [(example, int(label)) for (example, _), label in zip(examples, labels)]


def test_trained_model_opens_numbered_heading_at_root():
    """After training on generator output, a fresh numbered title at the
    root should come out as a child heading, held-out or not."""
    docs = generate_corpus(GenConfig(doc_count=16, seed=19))
    streams, gold_docs = chunk_corpus(docs, ChunkConfig(seed=19))
    examples = []
    for stream, gdoc in zip(streams, gold_docs):
        examples.extend(oracle_examples(gdoc.tree, stream.segments))
    model = train(examples, TrainConfig(epochs=3, seed=19))
    result = score(inp(NodeKind.ROOT, "", "1. Introduction"), model)
    assert Action(result.best) is Action.SUB_HEADING


class TestTrain:
    def test_separable_examples_fit(self):
        examples = separable_examples()
        model = train(examples, TrainConfig(epochs=10, seed=0), dim=SMALL_DIM)
        for example, label in examples:
            assert score(example, model).best == int(label)

    def test_loss_decreases(self):
        examples = separable_examples() * 4
        labels = [int(label) for _, label in examples]

        def mean_loss(model):
            feats = [featurize(example, model.hash_seed, SMALL_DIM) for example, _ in examples]
            return loss_and_grad(model, feats, labels, np.ones(4))[0]

        before = mean_loss(LinearModel.create(dim=SMALL_DIM))
        model = train(examples, TrainConfig(epochs=5, seed=0), dim=SMALL_DIM)
        assert mean_loss(model) < before

    def test_bit_identical_reruns(self):
        examples = separable_examples() * 5
        cfg = TrainConfig(epochs=3, seed=42)
        one = train(examples, cfg, dim=SMALL_DIM)
        two = train(examples, cfg, dim=SMALL_DIM)
        assert one.weights.tobytes() == two.weights.tobytes()
        assert one.bias.tobytes() == two.bias.tobytes()

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            train([], TrainConfig())

    def test_epoch_callback_runs_every_epoch(self):
        seen = []
        train(
            separable_examples(),
            TrainConfig(epochs=4, seed=0),
            dim=SMALL_DIM,
            epoch_callback=lambda epoch, model: seen.append(epoch),
        )
        assert seen == [0, 1, 2, 3]

    def test_class_weighting_runs(self):
        examples = separable_examples() + [separable_examples()[2]] * 10
        model = train(
            examples,
            TrainConfig(epochs=3, seed=0, class_weighting=True),
            dim=SMALL_DIM,
        )
        assert model.classes == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=0.0)


# train over oracle_inputs (class weighting, batch 7, 3 epochs, seed 11,
# dim 2**14) gave these weight and bias bytes before training moved to
# the compact column space.
PINNED_TRAIN_SHA256 = "3f28acd3bff959f78fd1675827247c45556dc44dcbdf805e1cd6923a615f6962"


def snapshot(model):
    return model.weights.tobytes() + model.bias.tobytes()


def assert_trains_like_reference(examples, config, classes, dim):
    seen, expected = [], []
    model = train(examples, config, classes, dim, lambda e, m: seen.append(snapshot(m)))
    ref = reference_train(examples, config, classes, dim, lambda e, m: expected.append(snapshot(m)))
    assert snapshot(model) == snapshot(ref)
    assert seen == expected and len(seen) == config.epochs


class TestTrainMatchesDenseReference:
    @pytest.mark.parametrize("dim", [SMALL_DIM, DEFAULT_DIM], ids=["small", "default"])
    @pytest.mark.parametrize("batch_size", [1, 20, 1000])
    @pytest.mark.parametrize("weighting", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("classes", [2, 4, 9, 18])
    def test_bytes_and_epoch_snapshots(self, oracle_inputs, classes, weighting, batch_size, dim):
        config = TrainConfig(epochs=2, batch_size=batch_size, seed=3, class_weighting=weighting)
        assert_trains_like_reference(relabelled(oracle_inputs[:60], classes), config, classes, dim)

    @pytest.mark.parametrize("dim", [INDICATOR_SLOTS + 1, SMALL_DIM, DEFAULT_DIM])
    def test_one_example(self, oracle_inputs, dim):
        config = TrainConfig(epochs=3, seed=1, class_weighting=True)
        assert_trains_like_reference(relabelled(oracle_inputs[:1], 9), config, 9, dim)

    def test_pinned_digest(self, oracle_inputs):
        config = TrainConfig(epochs=3, batch_size=7, seed=11, class_weighting=True)
        model = train(oracle_inputs, config, dim=SMALL_DIM)
        digest = hashlib.sha256(model.weights.astype("<f8").tobytes())
        digest.update(model.bias.astype("<f8").tobytes())
        assert digest.hexdigest() == PINNED_TRAIN_SHA256

    @pytest.mark.parametrize("classes", [4, 18])
    def test_gradient_bytes_on_shared_columns(self, oracle_inputs, classes):
        rng = np.random.default_rng(classes)
        model = LinearModel.create(dim=SMALL_DIM, classes=classes)
        model.weights[:] = rng.normal(size=model.weights.shape)
        model.bias[:] = rng.normal(size=classes)
        examples = relabelled(oracle_inputs[:120], classes)
        feats = [featurize(example, 0, SMALL_DIM) for example, _ in examples]
        labels = np.array([label for _, label in examples])
        weights = inverse_frequency_weights(labels, classes)
        for start in range(0, len(feats), 30):
            batch = feats[start : start + 30]
            got = loss_and_grad(model, batch, labels[start : start + 30], weights)
            want = reference_loss_and_grad(model, batch, labels[start : start + 30], weights)
            # the batch's examples share most of their columns
            assert 2 * len(got[1]) < sum(len(indices) for indices, _ in batch)
            assert got[0] == want[0]
            for mine, theirs in zip(got[1:], want[1:]):
                assert mine.shape == theirs.shape and mine.dtype == theirs.dtype
                assert mine.tobytes() == theirs.tobytes()


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1234)
        kinds = list(NodeKind)
        texts = ["1.2 概述", "正文内容较长一些。", "短语", "第三章 分析", ""]
        checked = 0
        for case in range(20):
            model = LinearModel.create(dim=SMALL_DIM)
            model.weights[:] = rng.normal(size=model.weights.shape) * 0.5
            model.bias[:] = rng.normal(size=4) * 0.5
            example = ScoringInput(
                focus_kind=kinds[case % 3],
                focus_text=texts[case % len(texts)],
                segment_text=texts[(case + 1) % (len(texts) - 1)],
            )
            label = case % 4
            indices, values = featurize(example, model.hash_seed, SMALL_DIM)
            _, cols, grad_w, _ = loss_and_grad(model, [(indices, values)], [label], np.ones(4))
            assert np.array_equal(cols, indices)

            def loss_at(m):
                logits = m.logits_for(indices, values)
                shifted = logits - np.max(logits)
                return float(np.log(np.exp(shifted).sum()) - shifted[label])

            step = 1e-6
            for k in range(0, len(indices), max(1, len(indices) // 7)):
                col = indices[k]
                for cls in range(4):
                    model.weights[cls, col] += step
                    up = loss_at(model)
                    model.weights[cls, col] -= 2 * step
                    down = loss_at(model)
                    model.weights[cls, col] += step
                    numeric = (up - down) / (2 * step)
                    analytic = grad_w[cls, k]
                    denom = max(1e-8, abs(numeric) + abs(analytic))
                    assert abs(numeric - analytic) / denom < 1e-4
                    checked += 1
        assert checked >= 20

    def test_batch_matches_finite_differences(self):
        """Class-weighted examples that share feature columns: covers the
        scatter-add, the per-class weights and the 1/len(batch) scale."""
        rng = np.random.default_rng(99)
        model = LinearModel.create(dim=SMALL_DIM)
        model.weights[:] = rng.normal(size=model.weights.shape) * 0.5
        model.bias[:] = rng.normal(size=4) * 0.5
        batch = [
            (inp(NodeKind.ROOT, "", "1. 概述"), 0),
            (inp(NodeKind.HEADING, "1. 概述", "正文内容。"), 1),
            (inp(NodeKind.TEXT, "正文内容", "内容。"), 2),
            (inp(NodeKind.TEXT, "正文内容。", "2. 概述"), 3),
            (inp(NodeKind.HEADING, "2. 概述", "正文内容。"), 1),
        ]
        feats = [featurize(example, model.hash_seed, SMALL_DIM) for example, _ in batch]
        labels = np.array([label for _, label in batch])
        weights = inverse_frequency_weights(labels, 4)
        assert weights[1] != weights[0]
        loss, cols, grad_w, grad_b = loss_and_grad(model, feats, labels, weights)
        assert len(cols) < sum(len(indices) for indices, _ in feats)

        expected = np.mean([
            weights[label] * -np.log(softmax(model.logits_for(*f))[label])
            for f, label in zip(feats, labels)
        ])
        assert loss == pytest.approx(expected, rel=1e-12)

        def check(param, index, analytic):
            step = 1e-6
            param[index] += step
            up = loss_and_grad(model, feats, labels, weights)[0]
            param[index] -= 2 * step
            down = loss_and_grad(model, feats, labels, weights)[0]
            param[index] += step
            numeric = (up - down) / (2 * step)
            denom = max(1e-8, abs(numeric) + abs(analytic))
            assert abs(numeric - analytic) / denom < 1e-4

        for k, col in enumerate(cols):
            for cls in range(4):
                check(model.weights, (cls, col), grad_w[cls, k])
        for cls in range(4):
            check(model.bias, cls, grad_b[cls])


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        model = LinearModel.create(dim=SMALL_DIM, classes=4, hash_seed=7)
        model.weights[:] = rng.normal(size=model.weights.shape)
        model.bias[:] = rng.normal(size=4)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.hash_seed == 7
        assert loaded.version == model.version
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert loaded.bias.tobytes() == model.bias.tobytes()

    def test_wrong_magic_rejected(self, tmp_path):
        model = LinearModel.create(dim=SMALL_DIM)
        path = tmp_path / "model.bin"
        save_model(model, path, magic=b"CTXB")
        with pytest.raises(ValueError):
            load_model(path, MODEL_MAGIC)

    def test_truncated_file_rejected(self, tmp_path):
        model = LinearModel.create(dim=SMALL_DIM)
        path = tmp_path / "model.bin"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError):
            load_model(path)


def test_softmax_is_stable_for_large_logits():
    probs = softmax(np.array([1000.0, 0.0, 0.0, 0.0]))
    assert probs[0] == pytest.approx(1.0)
    assert np.isfinite(probs).all()
