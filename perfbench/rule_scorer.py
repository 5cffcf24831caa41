"""A cheap, deterministic, rule-based action scorer for the bridge workload.

It speaks catparse's bridge protocol on its standard streams and stands in
for an external encoder. It is plain Python and does not import catparse,
so the parent process that decodes through it does no featurization.

Request:  {"id": int, "s_kind": "root"|"heading"|"text", "s": str, "q": str}
Response: {"id": int, "logits": [sub_heading, sub_text, concat, reduce]}

Run it as ``python3 perfbench/rule_scorer.py``. ``logits`` is importable so
that the benchmark can evaluate the same rule in-process.
"""
from __future__ import annotations

import json
import re
import sys

SUB_HEADING, SUB_TEXT, CONCAT, REDUCE = range(4)

_ARABIC = re.compile(r"^(\d+(?:\.\d+)*)\.?\s")
_CJK = re.compile(r"^第[零一二三四五六七八九十]+([章节条])\s")
_PAREN = re.compile(r"^[(（][零一二三四五六七八九十\d]+[)）]\s")
_CJK_DEPTH = {"章": 1, "节": 2, "条": 3}
_TERMINAL = "。！？.!?;；"


def numbering_depth(text: str) -> int:
    """Depth a leading section number suggests; 0 when there is none."""
    match = _ARABIC.match(text)
    if match:
        return match.group(1).count(".") + 1
    match = _CJK.match(text)
    if match:
        return _CJK_DEPTH[match.group(1)]
    if _PAREN.match(text):
        return 4
    return 0


def _prefer(*order: int) -> list[float]:
    """Logits that rank the actions in ``order``, best first."""
    logits = [0.0, 0.0, 0.0, 0.0]
    for rank, action in enumerate(order):
        logits[action] = float(len(order) - rank)
    return logits


def logits(kind: str, focus: str, segment: str) -> list[float]:
    """Score the four actions for one (focus, segment) pair."""
    q_depth = numbering_depth(segment)
    if kind == "root":
        if q_depth or len(segment) <= 20:
            return _prefer(SUB_HEADING, SUB_TEXT)
        return _prefer(SUB_TEXT, SUB_HEADING)
    open_ended = not focus.endswith(tuple(_TERMINAL))
    if kind == "text":
        if open_ended and not q_depth:
            return _prefer(CONCAT, REDUCE)
        return _prefer(REDUCE, CONCAT)
    s_depth = numbering_depth(focus)
    if q_depth:
        if s_depth and q_depth == s_depth + 1:
            return _prefer(SUB_HEADING, REDUCE)
        return _prefer(REDUCE, SUB_HEADING)
    if len(segment) <= 20 and len(focus) <= 20:
        return _prefer(CONCAT, SUB_TEXT, REDUCE)
    return _prefer(SUB_TEXT, REDUCE)


def serve(stdin, stdout) -> None:
    """Answer requests line by line until the input stream closes."""
    for line in stdin:
        request = json.loads(line)
        response = {
            "id": request["id"],
            "logits": logits(request["s_kind"], request["s"], request["q"]),
        }
        stdout.write(json.dumps(response) + "\n")
        stdout.flush()


if __name__ == "__main__":
    sys.stdin.reconfigure(encoding="utf-8")
    serve(sys.stdin, sys.stdout)
