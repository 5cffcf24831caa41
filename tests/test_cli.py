import json
import os
import struct
import sys

import numpy as np
import pytest

from catparse.baselines import pipeline_predict
from catparse.cli import main
from catparse.jsonio import read_corpus, read_streams
from catparse.scoring import LinearModel, save_model, write_container
from catparse.tree import validate_tree

TINY = ["--count", "12", "--depth", "2", "4", "--seed", "5"]
FAST_TRAIN = ["--epochs", "2", "--batch-size", "20", "--seed", "5"]


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def workspace(tmp_path):
    docs = tmp_path / "docs.jsonl"
    segs = tmp_path / "segs.jsonl"
    gold = tmp_path / "gold.jsonl"
    assert run("generate", "--out", docs, *TINY) == 0
    assert (
        run(
            "chunk", "--corpus", docs, "--segments-out", segs, "--gold-out", gold,
            "--seed", "5",
        )
        == 0
    )
    return tmp_path


def test_generate_writes_corpus_and_manifest(tmp_path):
    out = tmp_path / "docs.jsonl"
    assert run("generate", "--out", out, *TINY) == 0
    assert len(read_corpus(out)) == 12
    manifest = json.loads((tmp_path / "docs.jsonl.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["config"]["seed"] == 5
    assert str(out) in manifest["outputs"]


def test_chunk_outputs_align(workspace):
    streams = read_streams(workspace / "segs.jsonl")
    gold = read_corpus(workspace / "gold.jsonl")
    assert [s.doc_id for s in streams] == [d.doc_id for d in gold]
    assert (workspace / "segs.jsonl.manifest.json").exists()


def test_train_predict_evaluate_cycle(workspace):
    model = workspace / "model.bin"
    code = run(
        "train",
        "--train", workspace / "gold.jsonl",
        "--train-segments", workspace / "segs.jsonl",
        "--dev", workspace / "gold.jsonl",
        "--dev-segments", workspace / "segs.jsonl",
        "--model-out", model,
        "--dump-actions", workspace / "actions.jsonl",
        *FAST_TRAIN,
    )
    assert code == 0
    assert model.exists()
    manifest = json.loads((workspace / "model.bin.manifest.json").read_text())
    assert len(manifest["extra"]["dev_f1_per_epoch"]) == 2

    rows = [
        json.loads(line)
        for line in (workspace / "actions.jsonl").read_text().splitlines()
    ]
    assert {"doc_id", "step", "s_kind", "s_content", "q_content", "gold_action"} == set(rows[0])
    assert rows[0]["gold_action"] == "sub_heading"

    pred = workspace / "pred.jsonl"
    assert run(
        "predict",
        "--segments", workspace / "segs.jsonl",
        "--scorer", f"linear:{model}",
        "--out", pred,
    ) == 0
    assert len(read_corpus(pred)) == 12

    report = workspace / "report.json"
    assert run(
        "evaluate",
        "--gold", workspace / "gold.jsonl",
        "--pred", pred,
        "--out", report,
    ) == 0
    data = json.loads(report.read_text())
    assert set(data) == {"overall", "heading", "text", "by_level"}
    assert 0.0 <= data["overall"]["f1"] <= 1.0


def test_unconstrained_flag_and_jobs(workspace):
    model = workspace / "model.bin"
    assert run(
        "train",
        "--train", workspace / "gold.jsonl",
        "--train-segments", workspace / "segs.jsonl",
        "--dev", workspace / "gold.jsonl",
        "--dev-segments", workspace / "segs.jsonl",
        "--model-out", model,
        *FAST_TRAIN,
    ) == 0
    single = workspace / "single.jsonl"
    parallel = workspace / "parallel.jsonl"
    assert run(
        "predict", "--segments", workspace / "segs.jsonl",
        "--scorer", f"linear:{model}", "--out", single, "--unconstrained",
    ) == 0
    assert run(
        "predict", "--segments", workspace / "segs.jsonl",
        "--scorer", f"linear:{model}", "--out", parallel, "--unconstrained",
        "--jobs", "2",
    ) == 0
    assert single.read_bytes() == parallel.read_bytes()


def test_baseline_methods_train_and_predict(workspace):
    for method in ("pipeline", "tagging"):
        model = workspace / f"{method}.bin"
        assert run(
            "train", "--method", method,
            "--train", workspace / "gold.jsonl",
            "--train-segments", workspace / "segs.jsonl",
            "--dev", workspace / "gold.jsonl",
            "--dev-segments", workspace / "segs.jsonl",
            "--model-out", model,
            *FAST_TRAIN,
        ) == 0
        pred = workspace / f"{method}-pred.jsonl"
        assert run(
            "predict", "--method", method,
            "--segments", workspace / "segs.jsonl",
            "--scorer", f"linear:{model}", "--out", pred,
        ) == 0
        assert len(read_corpus(pred)) == 12


def test_subsample_flag(workspace):
    model = workspace / "sub.bin"
    assert run(
        "train",
        "--train", workspace / "gold.jsonl",
        "--train-segments", workspace / "segs.jsonl",
        "--dev", workspace / "gold.jsonl",
        "--dev-segments", workspace / "segs.jsonl",
        "--model-out", model,
        "--subsample", "4",
        *FAST_TRAIN,
    ) == 0
    assert model.exists()


def test_bridge_scorer_predict(workspace):
    program = (
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    print(json.dumps({'id': req['id'], 'logits': [0.0, 1.0, 0.0, 0.0]}), flush=True)\n"
    )
    pred = workspace / "bridge-pred.jsonl"
    scorer_py = workspace / "scorer.py"
    scorer_py.write_text(program)
    assert run(
        "predict",
        "--segments", workspace / "segs.jsonl",
        "--scorer", f"bridge:{sys.executable} -u {scorer_py}",
        "--out", pred,
    ) == 0
    docs = read_corpus(pred)
    # constant sub-text preference: every document is a flat list of texts
    for doc in docs:
        for child in doc.tree.root.children:
            assert child.kind.value == "text"


def test_bridge_child_is_closed_after_predict(workspace):
    pid_file = workspace / "child.pid"
    scorer_py = workspace / "pid_scorer.py"
    scorer_py.write_text(
        "import json, os, sys\n"
        f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    print(json.dumps({'id': req['id'], 'logits': [0.0, 1.0, 0.0, 0.0]}), flush=True)\n"
    )
    assert run(
        "predict",
        "--segments", workspace / "segs.jsonl",
        "--scorer", f"bridge:{sys.executable} -u {scorer_py}",
        "--out", workspace / "bridge-pred.jsonl",
    ) == 0
    # the child was waited for, so it is no longer ours to reap
    with pytest.raises(ChildProcessError):
        os.waitpid(int(pid_file.read_text()), os.WNOHANG)


@pytest.mark.parametrize(
    "program",
    [None, "import sys\nfor line in sys.stdin:\n    print('not json', flush=True)\n"],
    ids=["unlaunchable", "not-json"],
)
def test_bridge_failure_exits_1(workspace, capsys, program):
    command = "/nonexistent/scorer"
    if program is not None:
        scorer_py = workspace / "bad_scorer.py"
        scorer_py.write_text(program)
        command = f"{sys.executable} -u {scorer_py}"
    assert run(
        "predict",
        "--segments", workspace / "segs.jsonl",
        "--scorer", f"bridge:{command}",
        "--out", workspace / "bridge-pred.jsonl",
    ) == 1
    err = capsys.readouterr().err
    assert "scorer bridge failed" in err
    assert "Traceback" not in err


def test_oracle_check_passes_and_fails(workspace, tmp_path, capsys):
    assert run(
        "oracle-check",
        "--corpus", workspace / "gold.jsonl",
        "--segments", workspace / "segs.jsonl",
    ) == 0
    # a document whose pre-order segment indices go backward
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        json.dumps(
            {
                "id": "broken",
                "source": "x",
                "root": {
                    "kind": "root", "content": "", "segments": [],
                    "children": [
                        {"kind": "heading", "content": "b", "segments": [1], "children": []},
                        {"kind": "heading", "content": "a", "segments": [0], "children": []},
                    ],
                },
            }
        )
        + "\n"
    )
    assert run("oracle-check", "--corpus", bad) == 1
    # train needs the oracle for the transition method and for the dump
    capsys.readouterr()
    dump = ["--dump-actions", tmp_path / "a.jsonl"]
    for extra in (["--method", "transition"], ["--method", "tagging", *dump]):
        assert run(
            "train", "--train", bad, "--dev", bad, "--model-out", tmp_path / "m.bin",
            "--epochs", "1", *extra,
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "no transition sequence" in err[0]


def test_oracle_check_without_streams_uses_trivial_segments(workspace):
    assert run("oracle-check", "--corpus", workspace / "docs.jsonl") == 0


def test_stats_command(workspace, capsys):
    out = workspace / "stats.json"
    assert run("stats", "--corpus", workspace / "docs.jsonl", "--out", out) == 0
    rows = json.loads(out.read_text())
    assert rows[-1]["source"] == "total"
    assert rows[-1]["docs"] == 12
    printed = capsys.readouterr().out
    assert "avg.depth" in printed


def test_exit_codes(tmp_path):
    assert run("generate", "--out", tmp_path / "x" / "nope" / "docs.jsonl") == 1
    assert run("stats", "--corpus", tmp_path / "missing.jsonl") == 1
    assert run(
        "train",
        "--train", tmp_path / "missing.jsonl",
        "--dev", tmp_path / "missing.jsonl",
        "--model-out", tmp_path / "m.bin",
    ) == 1

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a"}\n')
    assert run("stats", "--corpus", bad) == 2

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run(
        "train",
        "--train", empty, "--dev", empty,
        "--model-out", tmp_path / "m.bin",
    ) == 3


def test_mismatched_stream_ids_is_schema_error(workspace, tmp_path):
    stray = tmp_path / "stray.jsonl"
    stray.write_text(json.dumps({"id": "nobody", "segments": ["x"]}) + "\n")
    code = run(
        "train",
        "--train", workspace / "gold.jsonl",
        "--train-segments", stray,
        "--dev", workspace / "gold.jsonl",
        "--model-out", tmp_path / "m.bin",
    )
    assert code == 2


def test_seeded_runs_are_byte_identical(tmp_path):
    outputs = []
    for name in ("one", "two"):
        base = tmp_path / name
        base.mkdir()
        docs, segs, gold = base / "docs.jsonl", base / "segs.jsonl", base / "gold.jsonl"
        model, pred = base / "model.bin", base / "pred.jsonl"
        assert run("generate", "--out", docs, "--count", "10", "--seed", "3") == 0
        assert run(
            "chunk", "--corpus", docs, "--segments-out", segs, "--gold-out", gold,
            "--seed", "3",
        ) == 0
        assert run(
            "train", "--train", gold, "--train-segments", segs,
            "--dev", gold, "--dev-segments", segs,
            "--model-out", model, "--epochs", "2", "--seed", "3",
        ) == 0
        assert run(
            "predict", "--segments", segs, "--scorer", f"linear:{model}",
            "--out", pred,
        ) == 0
        outputs.append([p.read_bytes() for p in (docs, segs, gold, model, pred)])
    assert outputs[0] == outputs[1]


def test_empty_dev_corpus_exits_2_before_training(workspace, capsys, caplog):
    empty = workspace / "empty.jsonl"
    empty.write_text("")
    assert run(
        "train",
        "--train", workspace / "gold.jsonl",
        "--train-segments", workspace / "segs.jsonl",
        "--dev", empty,
        "--model-out", workspace / "m.bin",
        *FAST_TRAIN,
    ) == 2
    assert not any("epoch" in record.getMessage() for record in caplog.records)
    assert not (workspace / "m.bin").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "empty" in err[0]


def test_empty_gold_file_exits_2(workspace, capsys):
    empty = workspace / "empty.jsonl"
    empty.write_text("")
    assert run("evaluate", "--gold", empty, "--pred", workspace / "gold.jsonl") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "nothing to evaluate" in err[0]


def test_one_segment_documents_train_and_predict_every_method(tmp_path):
    """A one-heading corpus gives the pipeline's merge head no adjacent
    pairs; it is kept untrained, so it never merges."""
    corpus = tmp_path / "one.jsonl"
    corpus.write_text(
        json.dumps(
            {
                "id": "one", "source": "x",
                "root": {
                    "kind": "root", "content": "", "segments": [],
                    "children": [
                        {"kind": "heading", "content": "1. Overview", "segments": [0],
                         "children": []},
                    ],
                },
            }
        )
        + "\n"
    )
    segs = tmp_path / "segs.jsonl"
    segs.write_text(json.dumps({"id": "one", "segments": ["1. Overview"]}) + "\n")
    for method in ("transition", "pipeline", "tagging"):
        model = tmp_path / f"{method}.bin"
        assert run(
            "train", "--method", method, "--train", corpus, "--dev", corpus,
            "--model-out", model, "--epochs", "1",
        ) == 0
        pred = tmp_path / f"{method}-pred.jsonl"
        assert run(
            "predict", "--method", method, "--segments", segs,
            "--scorer", f"linear:{model}", "--out", pred,
        ) == 0
        (doc,) = read_corpus(pred)
        assert [node.content for node in doc.tree.root.children] == ["1. Overview"]


def test_dump_actions_is_written_for_every_method(workspace):
    dumps = {}
    for method in ("transition", "pipeline", "tagging"):
        model = workspace / f"{method}.bin"
        dump = workspace / f"{method}-actions.jsonl"
        assert run(
            "train", "--method", method,
            "--train", workspace / "gold.jsonl",
            "--train-segments", workspace / "segs.jsonl",
            "--dev", workspace / "gold.jsonl",
            "--dev-segments", workspace / "segs.jsonl",
            "--model-out", model, "--dump-actions", dump,
            "--epochs", "1", "--seed", "5",
        ) == 0
        manifest = json.loads((workspace / f"{method}.bin.manifest.json").read_text())
        assert str(dump) in manifest["outputs"]
        assert all(os.path.exists(path) for path in manifest["outputs"])
        dumps[method] = dump.read_bytes()
    assert dumps["transition"]
    assert dumps["tagging"] == dumps["transition"] == dumps["pipeline"]


def test_lone_surrogate_is_schema_error(tmp_path, capsys):
    """A JSON ``\\ud800`` escape decodes to a string UTF-8 cannot encode."""
    model = tmp_path / "m.bin"
    save_model(LinearModel.create(dim=128), model)
    segs = tmp_path / "segs.jsonl"
    for line, field in [
        ('{"id": "s", "segments": ["a\\ud800b", "1. x"]}', ".segments[0]"),
        ('{"id": "s\\udfff", "segments": ["1. x"]}', ".id"),
    ]:
        segs.write_text(line + "\n")
        assert run(
            "predict", "--segments", segs, "--scorer", f"linear:{model}",
            "--out", tmp_path / "pred.jsonl",
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "schema error" in err[0] and field in err[0]

    gold = tmp_path / "gold.jsonl"
    for content, source, field in [
        ("a\ud800b", "x", ".children[0].content"),
        ("a", "x\udbff", ".source"),
    ]:
        node = {"kind": "heading", "content": content, "segments": [0], "children": []}
        root = {"kind": "root", "content": "", "segments": [], "children": [node]}
        gold.write_text(json.dumps({"id": "g", "source": source, "root": root}) + "\n")
        assert run(
            "train", "--train", gold, "--dev", gold, "--model-out", tmp_path / "t.bin",
            "--epochs", "1",
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "schema error" in err[0] and field in err[0]


def small_container(magic: bytes, dim: int, classes: int) -> bytes:
    """A model container of zero weights, written field by field so that
    any dimension can be stored."""
    header = struct.pack("<4sIQqI", magic, 1, dim, 0, classes)
    return header + bytes(8 * (classes * dim + classes))


@pytest.mark.parametrize(
    "method,content,message",
    [
        ("transition", small_container(b"CTXM", 128, 3), "4-class"),
        ("transition", small_container(b"CTXM", 64, 4), "indicator block"),
        (
            "pipeline",
            small_container(b"CTXC", 128, 2) + small_container(b"CTXL", 64, 9),
            "indicator block",
        ),
    ],
    ids=["three-classes", "dim-64", "pipeline-dim-64"],
)
def test_invalid_model_file_exits_1(workspace, capsys, method, content, message):
    model = workspace / "bad.bin"
    model.write_bytes(content)
    assert run(
        "predict", "--method", method, "--segments", workspace / "segs.jsonl",
        "--scorer", f"linear:{model}", "--out", workspace / "pred.jsonl",
    ) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]


def test_pipeline_heads_of_different_dimensions_predict(workspace):
    rng = np.random.default_rng(4)
    # the level head is the narrower one: hashing its inputs to the merge
    # head's width would index past its weights
    merge = LinearModel.create(dim=1 << 12, classes=2)
    level = LinearModel.create(dim=1 << 8, classes=9)
    for head in (merge, level):
        head.weights[:] = rng.normal(size=head.weights.shape)
    model = workspace / "mixed.bin"
    with open(model, "wb") as handle:
        write_container(handle, merge, b"CTXC")
        write_container(handle, level, b"CTXL")
    pred = workspace / "pred.jsonl"
    assert run(
        "predict", "--method", "pipeline", "--segments", workspace / "segs.jsonl",
        "--scorer", f"linear:{model}", "--out", pred,
    ) == 0
    streams = read_streams(workspace / "segs.jsonl")
    docs = read_corpus(pred)
    assert len(docs) == len(streams) == 12
    for stream, doc in zip(streams, docs):
        validate_tree(doc.tree, stream.segments)
        assert doc.tree == pipeline_predict(stream.segments, merge, level)
