"""Correctness checks on a workload's outputs.

None of them compares against stored outputs. They check properties every
correct run has: each predicted tree is a well-formed parse of its segment
stream, the oracle and decoder invert each other on it, ``metrics`` counts
tuples the way an independent matcher does, the paper's headline ordering
holds on ``pilot``, and a bridge decode equals the same rule run in-process.
Each check returns a list of problems; an empty list means it passed.
"""
from __future__ import annotations

import json
from pathlib import Path

from catparse import engine, jsonio, metrics
from catparse.scoring import ActionScorer, ActionScores
from catparse.tree import NodeKind, validate_tree

import rule_scorer

# Test F1 floors. ``pilot``'s are the thresholds of the acceptance suite's
# pilot snapshot; ``longdoc``'s sits below every seed measured (see README).
PILOT_MIN_F1 = 0.90
LONGDOC_MIN_F1 = 0.95


def preorder(tree) -> list[tuple[object, int]]:
    """(node, level) in document order, the root's children at level 1."""
    out, stack = [], [(tree.root, 0)]
    while stack:
        node, level = stack.pop()
        out.append((node, level))
        stack.extend((child, level + 1) for child in reversed(node.children))
    return out[1:]


def tree_problems(tree, segments, joiner: str = "") -> list[str]:
    """Structure of one predicted tree against its segment stream."""
    try:
        validate_tree(tree, segments, joiner)
    except Exception as exc:  # noqa: BLE001 - any invariant error is a finding
        return [f"validate_tree: {exc}"]
    problems, seen = [], []
    for node, _ in preorder(tree):
        if node.kind is NodeKind.TEXT and node.children:
            problems.append("a text node has children")
        if any(not 0 <= i < len(segments) for i in node.source_segments):
            problems.append(f"segment index out of range in {node.source_segments}")
            continue
        joined = joiner.join(segments[i].text for i in node.source_segments)
        if not node.source_segments or joined != node.content:
            problems.append(f"content is not its segments joined: {node.content[:30]!r}")
        seen.extend(node.source_segments)
    if seen != list(range(len(segments))):
        problems.append("pre-order segment indices are not 0..n-1")
    if not problems:
        rebuilt = engine.replay_actions(engine.oracle_actions(tree), segments, joiner)
        if rebuilt != tree:
            problems.append("replay(oracle(tree)) does not rebuild the tree")
    return problems


def match_counts(gold: list, pred: list) -> tuple[int, int, int]:
    """(matched, gold, pred) for two multisets of tuples."""
    remaining: dict = {}
    for item in gold:
        remaining[item] = remaining.get(item, 0) + 1
    matched = 0
    for item in pred:
        if remaining.get(item, 0) > 0:
            remaining[item] -= 1
            matched += 1
    return matched, len(gold), len(pred)


def f1_of(matched: int, gold: int, pred: int) -> float:
    precision = matched / pred if pred else 0.0
    recall = matched / gold if gold else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def scopes(tree) -> dict[str, list]:
    """Evaluation tuples of a tree: overall, per kind and per level."""
    tuples = [(level, node.kind.value, node.content) for node, level in preorder(tree)]
    out = {"overall": tuples}
    for kind in ("heading", "text"):
        out[kind] = [t for t in tuples if t[1] == kind]
    for level in {t[0] for t in tuples}:
        out[f"level {level}"] = [t for t in tuples if t[0] == level]
    return out


def score_problems(golds, preds) -> tuple[float, list[str]]:
    """Recount every tuple score independently and compare with ``metrics``.

    Returns the overall micro F1 and the disagreements found.
    """
    problems, reports = [], []
    total = [0, 0, 0]
    for gold, pred in zip(golds, preds):
        report = metrics.evaluate(gold, pred)
        reports.append(report)
        theirs = {"overall": report.overall}
        theirs.update({kind.value: prf for kind, prf in report.by_type.items()})
        theirs.update({f"level {level}": prf for level, prf in report.by_level.items()})
        gold_scopes, pred_scopes = scopes(gold), scopes(pred)
        for scope in set(gold_scopes) | set(pred_scopes):
            mine = match_counts(gold_scopes.get(scope, []), pred_scopes.get(scope, []))
            prf = theirs.get(scope)
            if prf is None or (prf.matched, prf.gold_count, prf.pred_count) != mine:
                problems.append(f"metrics.evaluate disagrees on {scope}: {prf} vs {mine}")
        total = [a + b for a, b in zip(total, match_counts(gold_scopes["overall"], pred_scopes["overall"]))]
    f1 = f1_of(*total)
    overall = metrics.aggregate(reports).overall
    if (overall.matched, overall.gold_count, overall.pred_count) != tuple(total) or abs(overall.f1 - f1) > 1e-12:
        problems.append(f"metrics.aggregate disagrees: {overall} vs {total}")
    return f1, problems


class RuleScorer(ActionScorer):
    """The bridge child's rule, evaluated in-process."""

    def score_input(self, inp):
        return ActionScores.from_logits(
            rule_scorer.logits(inp.focus_kind.value, inp.focus_text, inp.segment_text)
        )


def prediction_problems(out: Path, fold: str, method: str) -> tuple[float, list[str]]:
    """Check one prediction file against its inputs; returns (F1, problems)."""
    golds = jsonio.read_corpus(out / f"gold_{fold}.jsonl")
    streams = jsonio.read_streams(out / f"segs_{fold}.jsonl")
    preds = jsonio.read_corpus(out / f"pred_{method}.jsonl")
    if [p.doc_id for p in preds] != [s.doc_id for s in streams]:
        return 0.0, [f"{method}: predicted documents do not match the input streams"]
    problems = []
    for pred, stream in zip(preds, streams):
        problems += [f"{method} {pred.doc_id}: {p}" for p in tree_problems(pred.tree, stream.segments)]
    f1, score = score_problems([g.tree for g in golds], [p.tree for p in preds])
    return f1, problems + [f"{method}: {p}" for p in score]


def workload_problems(workload: str, out: Path, digests: list[str]) -> tuple[dict, list[str]]:
    """All checks of one workload's last round; returns (test F1 by method, problems)."""
    problems = []
    if len(set(digests)) != 1:
        problems.append("rounds of the same commands wrote different outputs")
    if workload == "pilot":
        f1 = {}
        for method in ("transition", "pipeline", "tagging"):
            f1[method], found = prediction_problems(out, "test", method)
            problems += found
            report = json.loads((out / f"report_{method}.json").read_text())["overall"]
            if abs(report["f1"] - f1[method]) > 1e-12:
                problems.append(f"{method}: evaluate reported F1 {report['f1']}, recount {f1[method]}")
        if f1["transition"] < PILOT_MIN_F1:
            problems.append(f"transition test F1 {f1['transition']:.4f} < {PILOT_MIN_F1}")
        for baseline in ("pipeline", "tagging"):
            if f1["transition"] <= f1[baseline]:
                problems.append(f"transition F1 does not beat {baseline}: {f1}")
        return f1, problems
    f1, found = prediction_problems(out, "eval", "transition")
    problems += found
    if workload == "longdoc" and f1 < LONGDOC_MIN_F1:
        problems.append(f"longdoc test F1 {f1:.4f} < {LONGDOC_MIN_F1}")
    if workload == "bridge":
        scorer = RuleScorer()
        preds = jsonio.read_corpus(out / "pred_transition.jsonl")
        for pred, stream in zip(preds, jsonio.read_streams(out / "segs_eval.jsonl")):
            if engine.decode(stream.segments, scorer)[0] != pred.tree:
                problems.append(f"bridge decode of {pred.doc_id} differs from the in-process rule")
    return {"transition": f1}, problems
