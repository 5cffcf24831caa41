"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers.

Thresholds for the end-to-end learning criterion were pinned from the
pilot run recorded in tests/pilot_snapshot.json.
"""
import json
import time
from pathlib import Path

import numpy as np

from catparse import corpus, engine, methods, metrics, scoring
from catparse.cli import main
from catparse.scoring import LinearModel, ScoringInput, featurize, loss_and_grad
from catparse.tree import Action, NodeKind, Segment, flatten, iter_nodes, validate_tree

from .conftest import (
    WALKTHROUGH_ACTIONS,
    WALKTHROUGH_SEGMENTS,
    WALKTHROUGH_TUPLES,
    ConstantScorer,
    NegatedScorer,
    RandomScorer,
    ScriptedScorer,
    heading,
    node_count,
    text,
    tree_of,
)


def test_criterion_1_walkthrough_replay_exact():
    started = time.perf_counter()
    scorer = ScriptedScorer([a for a, _ in WALKTHROUGH_ACTIONS])
    tree, _ = engine.decode(WALKTHROUGH_SEGMENTS, scorer, joiner=" ")
    assert flatten(tree) == WALKTHROUGH_TUPLES
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1 PASS: walkthrough replay exact ({elapsed:.3f}s)")


def test_criterion_2_oracle_round_trip_property():
    started = time.perf_counter()
    trees = corpus.generate_synthetic(
        corpus.GenConfig(doc_count=200, depth_range=(2, 6), seed=2024)
    )
    assert len(trees) == 200
    checks = 0
    for i, tree in enumerate(trees):
        assert node_count(tree) <= 500
        for p in (0.0, 0.5, 1.0):
            cfg = corpus.ChunkConfig(chunk_probability=p, seed=i)
            segments, gold = corpus.chunk_document(tree, cfg)
            rebuilt = engine.replay_actions(engine.oracle_actions(gold), segments)
            assert rebuilt == gold
            checks += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 2 PASS: {checks} oracle round-trips exact ({elapsed:.1f}s)")


def test_criterion_3_constraint_soundness_under_adversaries():
    docs = corpus.generate_corpus(corpus.GenConfig(doc_count=100, seed=99))
    streams, gold_docs = corpus.chunk_corpus(
        docs, corpus.ChunkConfig(chunk_probability=0.5, seed=99)
    )

    # a weak model trained on a handful of documents, then inverted
    sample = []
    for stream, gdoc in list(zip(streams, gold_docs))[:8]:
        sample.extend(engine.oracle_examples(gdoc.tree, stream.segments))
    weak = scoring.train(sample, scoring.TrainConfig(epochs=2, seed=1))
    adversaries = [
        ConstantScorer(Action.REDUCE),
        ConstantScorer(Action.CONCAT),
        RandomScorer(seed=13),
        NegatedScorer(weak),
    ]
    decoded = 0
    for scorer in adversaries:
        for stream in streams:
            tree, trace = engine.decode(stream.segments, scorer, constrained=True)
            validate_tree(tree, stream.segments)
            assert trace.steps[0].action in (Action.SUB_HEADING, Action.SUB_TEXT)
            consuming = sum(1 for s in trace.steps if s.segment_index is not None)
            assert consuming == len(stream.segments)
            for node, _ in iter_nodes(tree):
                if node.kind is NodeKind.TEXT:
                    assert not node.children
            decoded += 1
    print(f"criterion 3 PASS: {decoded} adversarial decodes all sound")


def test_criterion_4_metric_identities():
    for i, tree in enumerate(
        corpus.generate_synthetic(corpus.GenConfig(doc_count=100, seed=44))
    ):
        assert metrics.evaluate(tree, tree).overall.f1 == 1.0

    gold = tree_of(
        heading("a", [0]),
        heading("b", [1], text("c", [2]), text("d", [3])),
        heading("e", [4]),
    )
    pred = tree_of(
        heading("a", [0]),
        heading("b", [1], text("c", [2]), text("x", [3])),
        heading("e", [4]),
    )
    report = metrics.evaluate(gold, pred)
    assert abs(report.overall.precision - 0.8) < 1e-9
    assert abs(report.overall.recall - 0.8) < 1e-9
    assert abs(report.overall.f1 - 0.8) < 1e-9

    total = metrics.aggregate(
        [
            metrics.EvalReport(overall=metrics.PRF(matched=4, gold_count=5, pred_count=5)),
            metrics.EvalReport(overall=metrics.PRF(matched=0, gold_count=5, pred_count=0)),
        ]
    )
    assert abs(total.overall.precision - 0.8) < 1e-9
    assert abs(total.overall.recall - 0.4) < 1e-9
    assert abs(total.overall.f1 - 2 * 0.8 * 0.4 / 1.2) < 1e-9
    print("criterion 4 PASS: identity on 100 trees; hand-counted cases match to 1e-9")


def test_criterion_5_gradient_check():
    started = time.perf_counter()
    dim = 1 << 14
    rng = np.random.default_rng(321)
    kinds = list(NodeKind)
    texts = ["1.2 概述", "正文内容比较长的一句。", "短语", "第三章 分析", "2.1.3 小节", ""]
    cases = 0
    for case in range(20):
        model = LinearModel.create(dim=dim)
        model.weights[:] = rng.normal(size=model.weights.shape) * 0.6
        model.bias[:] = rng.normal(size=4) * 0.3
        example = ScoringInput(
            focus_kind=kinds[case % 3],
            focus_text=texts[case % len(texts)],
            segment_text=texts[(case + 2) % (len(texts) - 1)],
        )
        label = case % 4
        indices, values = featurize(example, model.hash_seed, dim)
        _, cols, grad_w, grad_b = loss_and_grad(model, [(indices, values)], [label], np.ones(4))
        assert np.array_equal(cols, indices)

        def loss_at():
            logits = model.logits_for(indices, values)
            shifted = logits - np.max(logits)
            return float(np.log(np.exp(shifted).sum()) - shifted[label])

        step = 1e-6
        stride = max(1, len(indices) // 5)
        for k in range(0, len(indices), stride):
            col = indices[k]
            for cls in range(4):
                model.weights[cls, col] += step
                up = loss_at()
                model.weights[cls, col] -= 2 * step
                down = loss_at()
                model.weights[cls, col] += step
                numeric = (up - down) / (2 * step)
                analytic = grad_w[cls, k]
                denom = max(1e-8, abs(numeric) + abs(analytic))
                assert abs(numeric - analytic) / denom < 1e-4
        for cls in range(4):
            model.bias[cls] += step
            up = loss_at()
            model.bias[cls] -= 2 * step
            down = loss_at()
            model.bias[cls] += step
            numeric = (up - down) / (2 * step)
            denom = max(1e-8, abs(numeric) + abs(grad_b[cls]))
            assert abs(numeric - grad_b[cls]) / denom < 1e-4
        cases += 1
    elapsed = time.perf_counter() - started
    assert cases == 20
    assert elapsed < 10.0
    print(f"criterion 5 PASS: gradients match finite differences on {cases} cases ({elapsed:.1f}s)")


def test_criterion_6_end_to_end_learning():
    started = time.perf_counter()
    docs = corpus.generate_corpus(corpus.GenConfig(doc_count=200, seed=7))
    streams, gold_docs = corpus.chunk_corpus(
        docs, corpus.ChunkConfig(chunk_probability=0.5, seed=7)
    )
    pairs = list(zip(gold_docs, streams))
    train_p, dev_p, test_p = corpus.split_corpus(pairs, seed=7)
    assert (len(train_p), len(dev_p), len(test_p)) == (160, 20, 20)

    train = [(g.tree, s.segments) for g, s in train_p]
    dev = [(g.tree, s.segments) for g, s in dev_p]
    config = scoring.TrainConfig(epochs=10, seed=7)
    # every method's heads, the last one dev-selected
    heads = {
        method: methods.train_heads(method, train, dev, config, "", 8)[0]
        for method in methods.METHODS
    }

    def test_f1(method, constrained=True) -> float:
        parse = methods.parser_for(method, heads[method], constrained, "", 8)
        reports = [metrics.evaluate(g.tree, parse(s.segments)) for g, s in test_p]
        return metrics.aggregate(reports).overall.f1

    # held-out action accuracy of the selected transition model
    (model,) = heads["transition"]
    correct = total = 0
    for g, s in dev_p:
        for inp, action in engine.oracle_examples(g.tree, s.segments):
            correct += scoring.score(inp, model).best == int(action)
            total += 1
    accuracy = correct / total
    assert accuracy >= 0.95

    f1_constrained = test_f1("transition")
    f1_unconstrained = test_f1("transition", constrained=False)
    f1_pipeline = test_f1("pipeline")
    f1_tagging = test_f1("tagging")

    elapsed = time.perf_counter() - started
    assert f1_constrained >= 0.90
    assert f1_constrained > f1_pipeline
    assert f1_constrained > f1_tagging
    assert f1_constrained >= f1_unconstrained
    assert elapsed < 300.0
    print(
        "criterion 6 PASS: "
        f"action accuracy {accuracy:.4f}; "
        f"F1 transition {f1_constrained:.4f} "
        f"(unconstrained {f1_unconstrained:.4f}) > "
        f"pipeline {f1_pipeline:.4f}, tagging {f1_tagging:.4f} ({elapsed:.0f}s)"
    )

    snapshot = json.loads(
        (Path(__file__).parent / "pilot_snapshot.json").read_text()
    )
    # the enforced thresholds must match the committed pilot
    assert snapshot["thresholds"]["min_overall_f1"] == 0.90
    assert snapshot["thresholds"]["min_action_accuracy"] == 0.95


def test_criterion_7_chunker_statistics():
    paragraph = "字" * 160
    long_heading = "招标公告文件编制说明与要求补充材料细则"  # 19 chars, doubled below
    tree = tree_of(heading("目录", []))
    container = tree.root.children[0]
    container.children = [text(paragraph, []) for _ in range(1000)]
    tree.root.children.append(heading(long_heading * 2, []))

    cfg = corpus.ChunkConfig(chunk_probability=0.5, seed=123)
    segments, gold = corpus.chunk_document(tree, cfg)

    # sampled fraction: long paragraphs split exactly when drawn
    text_nodes = [
        node
        for node, _ in iter_nodes(gold)
        if node.kind is NodeKind.TEXT
    ]
    assert len(text_nodes) == 1000
    chunked = sum(1 for node in text_nodes if len(node.source_segments) > 1)
    assert 450 <= chunked <= 550

    # piece lengths per kind: only nodes the sampler actually cut are
    # constrained, and their final remainders may run short
    for node, _ in iter_nodes(gold):
        pieces = [segments[i].text for i in node.source_segments]
        if len(pieces) < 2:
            continue
        lo, hi = (
            cfg.heading_piece_range
            if node.kind is NodeKind.HEADING
            else cfg.text_piece_range
        )
        for piece in pieces[:-1]:
            assert lo <= len(piece) <= hi
        assert len(pieces[-1]) <= hi

    # exact content preservation
    joined = "".join(s.text for s in segments)
    original = "".join(t.content for t in flatten(tree))
    assert joined == original
    print(
        f"criterion 7 PASS: chunked fraction {chunked / 1000:.3f}; "
        "piece ranges and content preservation hold"
    )


def test_criterion_8_cli_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        base = tmp_path / name
        base.mkdir()
        docs, segs, gold = base / "docs.jsonl", base / "segs.jsonl", base / "gold.jsonl"
        model, pred, report = base / "model.bin", base / "pred.jsonl", base / "report.json"
        assert main(["generate", "--out", str(docs), "--count", "10", "--seed", "21"]) == 0
        assert main([
            "chunk", "--corpus", str(docs), "--segments-out", str(segs),
            "--gold-out", str(gold), "--seed", "21",
        ]) == 0
        assert main([
            "train", "--train", str(gold), "--train-segments", str(segs),
            "--dev", str(gold), "--dev-segments", str(segs),
            "--model-out", str(model), "--epochs", "2", "--seed", "21",
        ]) == 0
        assert main([
            "predict", "--segments", str(segs), "--scorer", f"linear:{model}",
            "--out", str(pred),
        ]) == 0
        assert main([
            "evaluate", "--gold", str(gold), "--pred", str(pred), "--out", str(report),
        ]) == 0
        outputs.append([p.read_bytes() for p in (docs, segs, gold, model, pred, report)])
    assert outputs[0] == outputs[1]
    print("criterion 8 PASS: seeded CLI runs byte-identical across generate/chunk/train/predict/evaluate")
