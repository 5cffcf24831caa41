import functools
import json
import math
import os
import signal
import struct
import sys

import numpy as np
import pytest

from catparse.baselines import pipeline_predict, tagging_predict
from catparse import cli
from catparse.bridge import ScorerBridge
from catparse.cli import main
from catparse.engine import decode, oracle_actions, replay_actions
from catparse.jsonio import read_corpus, read_streams
from catparse.methods import load_heads
from catparse.scoring import LinearModel, save_model, write_container
from catparse.tree import MAX_DEPTH, NodeKind, flatten, iter_nodes, tree_depth, validate_tree

from .dense_heads import full_head

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


def test_unconstrained_predictions_evaluate(workspace, capsys):
    # a head that prefers sub_text everywhere nests texts under texts
    model = LinearModel.create(dim=128)
    model.bias[:] = [0.0, 3.0, 1.0, 2.0]
    save_model(model, workspace / "m.bin")
    pred = workspace / "pred.jsonl"
    assert run(
        "predict", "--segments", workspace / "segs.jsonl",
        "--scorer", f"linear:{workspace / 'm.bin'}", "--out", pred, "--unconstrained",
    ) == 0
    nested = [
        node for doc in read_corpus(pred) for node, _ in iter_nodes(doc.tree)
        if node.kind is NodeKind.TEXT and node.children
    ]
    assert nested
    for stream, doc in zip(read_streams(workspace / "segs.jsonl"), read_corpus(pred)):
        validate_tree(doc.tree, stream.segments)
    assert run("evaluate", "--gold", workspace / "gold.jsonl", "--pred", pred) == 0
    assert run("stats", "--corpus", pred) == 0
    assert "error" not in capsys.readouterr().err


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
        parallel = workspace / f"{method}-parallel.jsonl"
        for out, jobs in ((pred, "1"), (parallel, "2")):
            assert run(
                "predict", "--method", method,
                "--segments", workspace / "segs.jsonl",
                "--scorer", f"linear:{model}", "--out", out, "--jobs", jobs,
            ) == 0
        assert len(read_corpus(pred)) == 12
        # the heads are pickled into the workers
        assert pred.read_bytes() == parallel.read_bytes()


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


def test_bridge_that_cannot_start_with_jobs_exits_1(workspace, capsys):
    """Each share of the documents starts its own bridge child in its
    worker, so the failure comes back as that share's error, not as a
    broken pool."""
    pred = workspace / "bridge-pred.jsonl"
    assert run(
        "predict", "--segments", workspace / "segs.jsonl", "--scorer", "bridge:/nonexistent/cmd",
        "--out", pred, "--jobs", "2",
    ) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "scorer bridge failed" in err
    assert "Traceback" not in err and not pred.exists()


def test_failed_documents_close_their_workers_bridge_children(tmp_path, capsys, monkeypatch):
    """A share closes its bridge child when one of its documents fails;
    end-of-input at the worker's exit would not stop a child that ignores
    its stdin."""
    pids = tmp_path / "pids"
    pids.mkdir()
    stalled = tmp_path / "stalled.py"
    stalled.write_text(
        "import os, time\n"
        f"open(os.path.join({str(pids)!r}, str(os.getpid())), 'w').close()\n"
        "time.sleep(60)\n"
    )
    # the workers fork, so they inherit the short timeout
    monkeypatch.setattr(cli, "ScorerBridge", functools.partial(ScorerBridge, timeout=0.5))
    segs = tmp_path / "segs.jsonl"
    segs.write_text("".join(
        json.dumps({"id": f"d{i}", "segments": ["1. Scope", "Body."]}) + "\n" for i in range(3)
    ))
    try:
        assert run(
            "predict", "--segments", segs, "--scorer", f"bridge:{sys.executable} {stalled}",
            "--out", tmp_path / "pred.jsonl", "--jobs", "2",
        ) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "scorer bridge failed" in err
        started = [int(path.name) for path in pids.iterdir()]
        assert started
        for pid in started:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
    finally:
        for path in pids.iterdir():
            try:
                os.kill(int(path.name), signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_finished_shares_close_their_bridge_children(tmp_path):
    """Each share closes its bridge child when it ends, as --jobs 1 does,
    so a child that ignores end-of-input does not outlive a run that
    succeeded."""
    pids = tmp_path / "pids"
    pids.mkdir()
    lingering = tmp_path / "lingering.py"
    lingering.write_text(
        "import json, os, sys, time\n"
        f"open(os.path.join({str(pids)!r}, str(os.getpid())), 'w').close()\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    print(json.dumps({'id': req['id'], 'logits': [0.0, 1.0, 0.0, 0.0]}), flush=True)\n"
        "time.sleep(60)\n"
    )
    segs = tmp_path / "segs.jsonl"
    segs.write_text("".join(
        json.dumps({"id": f"d{i}", "segments": ["1. Scope", "Body."]}) + "\n" for i in range(3)
    ))
    try:
        assert run(
            "predict", "--segments", segs, "--scorer", f"bridge:{sys.executable} -u {lingering}",
            "--out", tmp_path / "pred.jsonl", "--jobs", "2",
        ) == 0
        started = [int(path.name) for path in pids.iterdir()]
        assert len(started) == 2
        for pid in started:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
    finally:
        for path in pids.iterdir():
            try:
                os.kill(int(path.name), signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_bridge_predictions_do_not_depend_on_jobs(workspace):
    """Documents dealt into shares come back in input order, scored by
    logits that depend on both texts of every step."""
    scorer_py = workspace / "text_scorer.py"
    scorer_py.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    s, q = len(req['s']), len(req['q'])\n"
        "    logits = [s % 7 / 3, q % 5 / 2, (s + q) % 3, (s * q) % 4 / 2]\n"
        "    print(json.dumps({'id': req['id'], 'logits': logits}), flush=True)\n"
    )
    outputs = []
    for jobs in ("1", "2", "3"):
        out = workspace / f"pred-{jobs}.jsonl"
        assert run(
            "predict", "--segments", workspace / "segs.jsonl",
            "--scorer", f"bridge:{sys.executable} -u {scorer_py}", "--out", out, "--jobs", jobs,
        ) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_jobs_past_the_document_count_ask_for_one_worker_per_document(workspace, monkeypatch):
    asked = []

    class InlinePool:
        """Records the workers asked for and maps in-process: no process starts."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    model = workspace / "m.bin"
    save_model(LinearModel.create(dim=128), model)
    single, dealt = workspace / "single.jsonl", workspace / "dealt.jsonl"
    for out, jobs in ((single, "1"), (dealt, "1000")):
        assert run(
            "predict", "--segments", workspace / "segs.jsonl", "--scorer", f"linear:{model}",
            "--out", out, "--jobs", jobs,
        ) == 0
    assert asked == [len(read_streams(workspace / "segs.jsonl"))]
    assert single.read_bytes() == dealt.read_bytes()


@pytest.mark.parametrize("method", ["transition", "pipeline", "tagging"])
def test_diverged_training_exits_3(workspace, capsys, method):
    """A learning rate that overflows the weights stops training: no model
    file is written that predict would refuse."""
    gold, segs, model = workspace / "gold.jsonl", workspace / "segs.jsonl", workspace / "m.bin"
    assert run(
        "train", "--method", method, "--train", gold, "--train-segments", segs,
        "--dev", gold, "--dev-segments", segs, "--model-out", model,
        "--lr", "1e100", "--epochs", "1",
    ) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "training failed" in err[0] and "--lr" in err[0]
    assert "Traceback" not in err[0] and not model.exists()


def owning(content: str, segments: list[int], *children: dict, kind: str = "heading") -> dict:
    return {"kind": kind, "content": content, "segments": segments, "children": list(children)}


# Gold trees no transition sequence rebuilds: the root's children, the
# root's own segments, and the number of segments the other nodes own.
UNUSABLE_TREES = {
    "backward": ([owning("b", [1]), owning("a", [0])], [], 2),
    "gap": ([owning("a", [0]), owning("b", [1]), owning("c", [5])], [], 3),
    "unowned-node": ([owning("a", [0], owning("", [], kind="text")), owning("b", [1])], [], 2),
    "root-owns": ([owning("a", [1])], [0], 1),
    "double-owner": ([owning("a", [0]), owning("b", [0])], [], 2),
    "text-with-children": ([owning("a", [0], owning("b", [1]), kind="text")], [], 2),
}


@pytest.mark.parametrize("shape", sorted(UNUSABLE_TREES))
def test_oracle_check_passes_and_fails(workspace, tmp_path, capsys, caplog, shape):
    gold, gold_segs = workspace / "gold.jsonl", workspace / "segs.jsonl"
    assert run("oracle-check", "--corpus", gold, "--segments", gold_segs) == 0
    children, root_segments, owned = UNUSABLE_TREES[shape]
    root = {"kind": "root", "content": "", "segments": root_segments, "children": children}
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"id": "broken", "source": "x", "root": root}) + "\n")
    segs = tmp_path / "bad-segs.jsonl"
    stream = {"id": "broken", "segments": [f"s{i}" for i in range(owned)]}
    segs.write_text(json.dumps(stream) + "\n")
    assert run("oracle-check", "--corpus", bad, "--segments", segs) == 1
    # every method trains from the same segment-owner table
    capsys.readouterr()
    for method in ("transition", "pipeline", "tagging"):
        assert run(
            "train", "--method", method, "--train", bad, "--train-segments", segs,
            "--dev", gold, "--dev-segments", gold_segs, "--model-out", tmp_path / "m.bin",
            "--epochs", "1",
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "no transition sequence" in err[0]
    # a dev tree is checked before any epoch runs, and named
    assert run(
        "train", "--train", gold, "--train-segments", gold_segs, "--dev", bad,
        "--dev-segments", segs, "--model-out", tmp_path / "m.bin", "--epochs", "1",
    ) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "no transition sequence" in err[0] and "'broken'" in err[0]
    assert not any("epoch" in record.getMessage() for record in caplog.records)
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize(
    "command,flags,message",
    [
        ("train", ["--lr", "nan"], "learning rate"),
        ("train", ["--lr", "inf"], "learning rate"),
        ("train", ["--weight-decay", "nan"], "weight decay"),
        ("train", ["--subsample", "0"], "--subsample"),
        ("train", ["--subsample", "-1"], "--subsample"),
        ("predict", ["--jobs", "-2"], "--jobs"),
        ("predict", ["--method", "pipeline", "--unconstrained"], "--unconstrained"),
        ("predict", ["--method", "tagging", "--unconstrained"], "--unconstrained"),
        # checked before any --jobs worker starts
        ("predict", ["--method", "tagging", "--jobs", "2", "--scorer", "bridge:cat"], "linear:"),
        ("train", ["--max-depth", "8"], "--max-depth needs a baseline method"),
        ("generate", ["--children", "3", "2"], "children range"),
        ("generate", ["--children", "-1", "2"], "children range"),
        ("generate", ["--text-len", "5", "2"], "text length range"),
        ("generate", ["--text-len", "0", "2"], "text length range"),
        ("train", ["--method", "pipeline", "--max-depth", "0"], "must lie in"),
        ("train", ["--method", "tagging", "--max-depth", str(MAX_DEPTH)], "must lie in"),
    ],
    ids=["lr-nan", "lr-inf", "decay-nan", "subsample-0", "subsample-neg", "predict-jobs",
         "pipeline-unconstrained", "tagging-unconstrained", "tagging-bridge",
         "transition-max-depth", "children-reversed", "children-neg", "text-len-reversed",
         "text-len-0", "pipeline-max-depth-0", "tagging-max-depth-past-bound"],
)
def test_option_out_of_range_exits_1(workspace, capsys, command, flags, message):
    gold, segs, model = workspace / "gold.jsonl", workspace / "segs.jsonl", workspace / "m.bin"
    save_model(LinearModel.create(dim=128), model)
    rest = {
        "train": ["--train", gold, "--train-segments", segs, "--dev", gold,
                  "--dev-segments", segs, "--model-out", workspace / "out.bin", "--epochs", "1"],
        "predict": ["--segments", segs, "--scorer", f"linear:{model}",
                    "--out", workspace / "pred.jsonl"],
        "generate": ["--out", workspace / "out.bin"],
    }[command]
    assert run(command, *rest, *flags) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]
    assert not (workspace / "out.bin").exists() and not (workspace / "pred.jsonl").exists()


def test_oracle_check_without_streams_uses_trivial_segments(workspace):
    assert run("oracle-check", "--corpus", workspace / "docs.jsonl") == 0


def test_manifest_sits_next_to_the_first_output(workspace):
    gold, segs, model = workspace / "gold.jsonl", workspace / "segs.jsonl", workspace / "m.bin"
    pred, report, stats = (workspace / name for name in ("pred.jsonl", "report.json", "stats.json"))
    save_model(LinearModel.create(dim=128), model)
    runs = {
        "predict": (["--segments", segs, "--scorer", f"linear:{model}", "--out", pred],
                    [segs], [pred]),
        "evaluate": (["--gold", gold, "--pred", pred, "--out", report], [gold, pred], [report]),
        "stats": (["--corpus", gold, "--out", stats], [gold], [stats]),
    }
    for command, (argv, inputs, outputs) in runs.items():
        assert run(command, *argv) == 0
        manifest = json.loads((workspace / f"{outputs[0].name}.manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["inputs"] == [str(p) for p in inputs]
        assert manifest["outputs"] == [str(p) for p in outputs]

    # commands that write no file write no manifest
    before = sorted(workspace.glob("*.manifest.json"))
    assert run("oracle-check", "--corpus", gold, "--segments", segs) == 0
    assert run("evaluate", "--gold", gold, "--pred", pred) == 0
    assert run("stats", "--corpus", gold) == 0
    assert sorted(workspace.glob("*.manifest.json")) == before


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


def small_container(
    magic: bytes, dim: int, classes: int, columns=None, weight=0.0, bias=0.0
) -> bytes:
    """A model container whose weights over ``columns`` (by default the
    indicator block, or as much of it as ``dim`` holds) are all
    ``weight`` and whose bias is all ``bias``, written field by field so
    that any header, columns and values can be stored."""
    if columns is None:
        columns = range(min(dim, 64))
    header = struct.pack("<4sIQqIQ", magic, 2, dim, 0, classes, len(columns))
    values = [weight] * (classes * len(columns)) + [bias] * classes
    return header + struct.pack(f"<{len(columns)}Q{len(values)}d", *columns, *values)


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
        (
            "pipeline",
            small_container(b"CTXC", 128, 3) + small_container(b"CTXL", 128, 9),
            "pipeline heads need",
        ),
        (
            "pipeline",
            small_container(b"CTXC", 128, 2) + small_container(b"CTXL", 128, 1),
            "pipeline heads need",
        ),
        (
            "pipeline",
            small_container(b"CTXC", 128, 2) + small_container(b"CTXL", 128, MAX_DEPTH + 1),
            "pipeline heads need",
        ),
        ("tagging", small_container(b"CTXB", 128, 9), "tagging head needs"),
        ("tagging", small_container(b"CTXB", 128, 2), "tagging head needs"),
        ("tagging", small_container(b"CTXB", 128, 2 * MAX_DEPTH + 2), "tagging head needs"),
        # 100 bytes whose header claims 2**50 columns
        (
            "transition",
            struct.pack("<4sIQqIQ", b"CTXM", 2, 1 << 18, 0, 4, 2**50) + bytes(64),
            "claims",
        ),
        ("transition", small_container(b"CTXM", 128, 4)[:-8], "claims"),
        ("transition", small_container(b"CTXM", 128, 4, [*range(64), 90, 80]), "not sorted"),
        ("transition", small_container(b"CTXM", 128, 4, [*range(64), 80, 80]), "duplicate"),
        ("transition", small_container(b"CTXM", 128, 4, [*range(64), 128]), "outside"),
        (
            "pipeline",
            small_container(b"CTXC", 128, 2) + small_container(b"CTXL", 128, 9, [*range(63), 80]),
            "miss part of the indicator block",
        ),
        ("transition", small_container(b"CTXM", 2**40, 4), "exceeds the bound"),
        (
            "transition",
            struct.pack("<4sIQqI", b"CTXM", 1, 128, 0, 4) + bytes(8 * (4 * 128 + 4)),
            "version 1",
        ),
        ("transition", small_container(b"CTXM", 128, 4, weight=math.nan), "not all finite"),
        ("transition", small_container(b"CTXM", 128, 4, bias=math.inf), "not all finite"),
    ],
    ids=[
        "three-classes", "dim-64", "pipeline-dim-64", "merge-3", "level-1",
        "level-past-bound", "tagging-odd", "tagging-2", "tagging-past-bound", "lying-header",
        "short-payload", "unsorted-columns", "duplicate-column", "column-past-dim",
        "missing-indicator", "dim-past-bound", "version-1", "nan-weight", "inf-bias",
    ],
)
def test_invalid_model_file_exits_1(workspace, capsys, method, content, message):
    model = workspace / "bad.bin"
    model.write_bytes(content)
    assert run(
        "predict", "--method", method, "--segments", workspace / "segs.jsonl",
        "--scorer", f"linear:{model}", "--out", workspace / "pred.jsonl",
    ) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0] and "Traceback" not in err[0]


@pytest.mark.parametrize(
    "content,message",
    [
        (None, "file not found"),
        (small_container(b"XXXX", 128, 4), "expected magic"),
        # a pipeline model file read by the (default) transition method
        (small_container(b"CTXC", 128, 2) + small_container(b"CTXL", 128, 9), "expected magic"),
    ],
    ids=["missing", "wrong-magic", "wrong-method"],
)
def test_bad_model_file_with_jobs_exits_1(workspace, capsys, content, message):
    """The parent reads the model file before the worker pool starts, so a
    bad one ends in one line, as with --jobs 1, not a broken pool."""
    model, pred = workspace / "bad.bin", workspace / "pred.jsonl"
    if content is not None:
        model.write_bytes(content)
    assert run(
        "predict", "--segments", workspace / "segs.jsonl", "--scorer", f"linear:{model}",
        "--out", pred, "--jobs", "2",
    ) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err and "Traceback" not in err
    assert not pred.exists()


def test_pipeline_heads_of_different_dimensions_predict(workspace):
    rng = np.random.default_rng(4)
    # the level head is the narrower one: hashing its inputs to the merge
    # head's width would index past its weights
    merge = full_head(dim=1 << 12, classes=2)
    level = full_head(dim=1 << 8, classes=9)
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


def chain_root(depth: int) -> dict:
    """A corpus root holding a chain of ``depth`` nested headings."""
    node = {"kind": "heading", "content": "h", "segments": [depth - 1], "children": []}
    for i in range(depth - 2, -1, -1):
        node = {"kind": "heading", "content": "h", "segments": [i], "children": [node]}
    return {"kind": "root", "content": "", "segments": [], "children": [node]}


def test_label_budget_comes_from_the_model_file(workspace, capsys):
    segs = workspace / "segs.jsonl"
    for method in ("pipeline", "tagging"):
        model = workspace / f"{method}.bin"
        assert run(
            "train", "--method", method, "--max-depth", "3",
            "--train", workspace / "gold.jsonl", "--train-segments", segs,
            "--dev", workspace / "gold.jsonl", "--dev-segments", segs,
            "--model-out", model, *FAST_TRAIN,
        ) == 0
        heads = load_heads(model, method)
        assert heads[-1].classes == (4 if method == "pipeline" else 8)
        pred = workspace / f"{method}-pred.jsonl"
        assert run(
            "predict", "--method", method, "--segments", segs,
            "--scorer", f"linear:{model}", "--out", pred,
        ) == 0
        predict = pipeline_predict if method == "pipeline" else tagging_predict
        docs = read_corpus(pred)
        for stream, doc in zip(read_streams(segs), docs):
            assert doc.tree == predict(stream.segments, *heads)
            assert tree_depth(doc.tree) <= 5  # heading levels 1..3, text under them
        # read with a budget of 8, the text label would become heading level 4
        assert any(kind is NodeKind.TEXT for doc in docs for _, kind, _ in flatten(doc.tree))
    with pytest.raises(SystemExit) as exc:
        run("predict", "--segments", segs, "--scorer", "linear:m", "--out", "p",
            "--max-depth", "4")
    assert exc.value.code == 2
    capsys.readouterr()
    for depth in (0, MAX_DEPTH):
        assert run(
            "train", "--max-depth", depth, "--train", workspace / "gold.jsonl",
            "--train-segments", segs, "--dev", workspace / "gold.jsonl",
            "--dev-segments", segs, "--model-out", workspace / "m.bin",
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--max-depth" in err[0]
    assert run("generate", "--out", workspace / "deep.jsonl", "--depth", 2, MAX_DEPTH + 2) == 1
    assert "depth range" in capsys.readouterr().err


@pytest.mark.parametrize("change", [-2, 1], ids=["two-short", "one-long"])
def test_stream_length_must_match_the_gold_tree(workspace, capsys, change):
    streams = [json.loads(line) for line in (workspace / "segs.jsonl").read_text().splitlines()]
    victim = streams[3]
    if change < 0:
        victim["segments"] = victim["segments"][:change]
    else:
        victim["segments"].append("one more piece")
    bad = workspace / "bad-segs.jsonl"
    bad.write_text("".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in streams))
    gold = workspace / "gold.jsonl"
    for method in ("transition", "pipeline", "tagging"):
        assert run(
            "train", "--method", method, "--train", gold, "--train-segments", bad,
            "--dev", gold, "--dev-segments", workspace / "segs.jsonl",
            "--model-out", workspace / "m.bin", "--epochs", "1",
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "schema error" in err[0] and repr(victim["id"]) in err[0]
    assert run("oracle-check", "--corpus", gold, "--segments", bad) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and repr(victim["id"]) in err[0]


@pytest.mark.parametrize("constrained", [True, False])
def test_decoding_stops_descending_at_the_depth_bound(tmp_path, constrained):
    # a scorer that always prefers sub_heading, then sub_text, reduce, concat
    model = LinearModel.create(dim=1 << 10, classes=4)
    model.bias[:] = [3.0, 2.0, 0.0, 1.0]
    save_model(model, tmp_path / "m.bin")
    segments = [f"s{i}" for i in range(3000)]
    segs = tmp_path / "segs.jsonl"
    segs.write_text(json.dumps({"id": "deep", "segments": segments}) + "\n")
    pred = tmp_path / "pred.jsonl"
    flags = [] if constrained else ["--unconstrained"]
    assert run(
        "predict", "--segments", segs, "--scorer", f"linear:{tmp_path / 'm.bin'}",
        "--out", pred, *flags,
    ) == 0
    (stream,) = read_streams(segs)
    (doc,) = read_corpus(pred)
    validate_tree(doc.tree, stream.segments)
    assert tree_depth(doc.tree) == MAX_DEPTH + 1
    assert doc.tree == decode(stream.segments, model, constrained)[0]
    assert replay_actions(oracle_actions(doc.tree), stream.segments) == doc.tree


def test_nesting_past_the_bounds_is_schema_error(tmp_path, capsys):
    deep = tmp_path / "deep.jsonl"
    at_bound = {"id": "ok", "source": "x", "root": chain_root(MAX_DEPTH)}
    deep.write_text(json.dumps(at_bound) + "\n")
    assert run("stats", "--corpus", deep) == 0
    past = {"id": "deep", "source": "x", "root": chain_root(MAX_DEPTH + 1)}
    deep.write_text(json.dumps(past) + "\n")
    capsys.readouterr()
    for argv in (["stats", "--corpus", deep], ["oracle-check", "--corpus", deep]):
        assert run(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"deeper than {MAX_DEPTH}" in err[0]

    brackets = tmp_path / "brackets.jsonl"
    brackets.write_text("[" * 100_000 + "\n")
    model = tmp_path / "m.bin"
    save_model(LinearModel.create(dim=128), model)
    for argv in (
        ["stats", "--corpus", brackets],
        ["predict", "--segments", brackets, "--scorer", f"linear:{model}",
         "--out", tmp_path / "pred.jsonl"],
    ):
        assert run(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "nested too deeply" in err[0]
