"""Tests of the benchmark's own code (not collected by the repository's suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import io
import json
import subprocess
import sys
import types
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from catparse.bridge import ScorerBridge  # noqa: E402
from catparse.tree import CatalogNode, CatalogTree, NodeKind  # noqa: E402

import checks  # noqa: E402
import rule_scorer  # noqa: E402
import workload  # noqa: E402
from tracer import Tracer, covered, summarize  # noqa: E402


def heading(content, *children):
    return CatalogNode(kind=NodeKind.HEADING, content=content, children=list(children))


def text(content):
    return CatalogNode(kind=NodeKind.TEXT, content=content)


def tree(*children):
    return CatalogTree(root=CatalogNode(kind=NodeKind.ROOT, children=list(children)))


# --- the independent F1 matcher -------------------------------------------


def test_match_counts_treats_tuples_as_multisets():
    # a twice and b once in gold; a, b, b, c predicted: one a and one b match.
    assert checks.match_counts(["a", "a", "b"], ["a", "b", "b", "c"]) == (2, 3, 4)
    assert checks.match_counts([], ["a"]) == (0, 0, 1)


def test_f1_of_hand_counted_cases():
    # P = 2/4, R = 2/3, F1 = 2PR / (P + R) = 4/7.
    assert checks.f1_of(2, 3, 4) == pytest.approx(4 / 7, abs=1e-15)
    assert checks.f1_of(3, 3, 3) == 1.0
    assert checks.f1_of(0, 0, 0) == 0.0
    assert checks.f1_of(0, 5, 2) == 0.0


def test_score_problems_counts_scopes_by_hand():
    gold = tree(heading("1. A", text("x")), heading("2. B"))
    # "2. B" predicted as text: overall 2 of 3 match on each side.
    pred = tree(heading("1. A", text("x")), text("2. B"))
    f1, problems = checks.score_problems([gold, gold], [pred, gold])
    assert problems == []
    # Summed over both documents: matched 5, gold 6, predicted 6.
    assert f1 == pytest.approx(5 / 6)


def test_scopes_split_by_kind_and_level():
    found = checks.scopes(tree(heading("1. A", text("x")), heading("2. B")))
    assert found["heading"] == [(1, "heading", "1. A"), (1, "heading", "2. B")]
    assert found["text"] == [(2, "text", "x")]
    assert found["level 2"] == [(2, "text", "x")]


def test_tree_problems_flags_a_node_whose_content_is_not_its_segments():
    from catparse.tree import Segment

    segments = [Segment("1. A", 0), Segment("x", 1)]
    good = tree(heading("1. A", text("x")))
    good.root.children[0].source_segments = [0]
    good.root.children[0].children[0].source_segments = [1]
    assert checks.tree_problems(good, segments) == []
    good.root.children[0].children[0].content = "y"
    assert checks.tree_problems(good, segments)


# --- self time on nested spans ---------------------------------------------


def test_covered_merges_overlapping_children_and_clips_to_the_parent():
    assert covered([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == 5.0
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert covered([], 0.0, 10.0) == 0.0


def test_summarize_self_and_total_on_nested_spans():
    # A[0,10] holds B[1,4] (holding C[2,3]) and D[5,9] (holding a second A at [6,7]).
    names = ["A", "B", "C", "D"]
    name = array("i", [0, 1, 2, 3, 0])
    parent = array("i", [-1, 0, 1, 0, 3])
    start = array("d", [0.0, 1.0, 2.0, 5.0, 6.0])
    end = array("d", [10.0, 4.0, 3.0, 9.0, 7.0])
    out = summarize(names, name, parent, start, end)
    # A's own self is 10 - 3 - 4 = 3, the nested A adds 1; its total counts
    # only the outer call.
    assert out["A"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0, "durations": [10.0]}
    assert out["B"]["self_s"] == 2.0 and out["B"]["total_s"] == 3.0
    assert out["C"]["self_s"] == 1.0
    assert out["D"]["self_s"] == 3.0


def test_tracer_records_parents_and_restores_originals():
    box = types.SimpleNamespace()
    box.outer = lambda x: box.inner(x) + 1
    box.inner = lambda x: x * 2
    plain = box.outer

    tracer = Tracer()
    tracer.patch(box, "outer", "outer")
    tracer.patch(box, "inner", "inner", lambda counts, args, kwargs, result: counts.update(inner=result))
    try:
        assert box.outer(3) == 7
    finally:
        tracer.restore()
    assert [tracer.names[i] for i in tracer.name] == ["outer", "inner"]
    assert list(tracer.parent) == [-1, 0]
    assert tracer.counts["inner"] == 6
    assert box.outer is plain
    summary = tracer.summary()
    assert summary["outer"]["self_s"] <= summary["outer"]["total_s"]


def test_round_digest_ignores_manifests(tmp_path):
    (tmp_path / "pred_transition.jsonl").write_text("{}\n")
    (tmp_path / "report_transition.json").write_text("{}\n")
    manifest = tmp_path / "report_transition.json.manifest.json"
    manifest.write_text('{"wall_time_s": 1.0}\n')
    before = workload.digest(tmp_path)
    manifest.write_text('{"wall_time_s": 2.0}\n')
    assert workload.digest(tmp_path) == before
    (tmp_path / "report_transition.json").write_text('{"f1": 1}\n')
    assert workload.digest(tmp_path) != before


# --- the rule-based child's protocol ----------------------------------------


def test_serve_answers_each_request_with_its_id_and_four_logits():
    requests = [
        {"id": 0, "s_kind": "root", "s": "", "q": "1. 总则"},
        {"id": 1, "s_kind": "text", "s": "公司本期", "q": "资金余额"},
    ]
    stdin = io.StringIO("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in requests))
    stdout = io.StringIO()
    rule_scorer.serve(stdin, stdout)
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert [r["id"] for r in responses] == [0, 1]
    assert responses[0]["logits"] == rule_scorer.logits("root", "", "1. 总则")
    assert all(len(r["logits"]) == 4 for r in responses)


def test_child_speaks_the_catparse_bridge_protocol():
    command = [sys.executable, str(BENCH / "rule_scorer.py")]
    with ScorerBridge(command, timeout=10.0) as bridge:
        for kind, focus, segment in [
            ("root", "", "第一章 总则"),
            ("heading", "1. 概述", "1.1 市场"),
            ("text", "公司本期资金余额保持稳定", "持续提升。"),
            ("heading", "1. 概述", "公司本期资金余额保持稳定，持续提升，显著增长。"),
        ]:
            assert bridge.score_raw(kind, focus, segment) == rule_scorer.logits(kind, focus, segment)
        proc = bridge._proc
    assert proc.returncode == 0


def test_rule_prefers_sensible_actions():
    best = lambda *args: max(range(4), key=rule_scorer.logits(*args).__getitem__)  # noqa: E731
    assert best("root", "", "1. 总则") == rule_scorer.SUB_HEADING
    assert best("heading", "1. 总则", "1.1 概述") == rule_scorer.SUB_HEADING
    assert best("heading", "1.1 概述", "2. 市场") == rule_scorer.REDUCE
    assert best("text", "公司本期资金", "余额保持稳定。") == rule_scorer.CONCAT
    assert best("text", "公司本期资金余额保持稳定。", "1.2 风险") == rule_scorer.REDUCE


# --- BENCHMARK.json and the code agree --------------------------------------


def test_declared_per_layer_metrics_are_the_ones_measured():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    measured = workload.layer_metrics({}, {})
    measured["trace.overhead_s"] = measured["train_examples_per_s"] = 0.0
    assert sorted(m["name"] for m in declared["per_layer"]) == sorted(measured)


def test_run_refuses_a_tree_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((BENCH.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "predict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
