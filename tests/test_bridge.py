import importlib
import json
import sys
import time
from pathlib import Path

import pytest

from catparse.bridge import BridgeIO, BridgeProtocol, ScorerBridge
from catparse.corpus import ChunkConfig, GenConfig, chunk_corpus, generate_corpus
from catparse.engine import decode
from catparse.scoring import ScoringInput
from catparse.tree import Action, NodeKind

# perfbench/rule_scorer.py speaks the bridge protocol; perfbench/checks.py
# holds the same rule as an in-process scorer.
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def bridge_program(body: str) -> list[str]:
    return [sys.executable, "-u", "-c", body]

ECHO_FIXED = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "logits": [1.0, 0.0, 0.0, 0.0]}), flush=True)
"""

THREE_LOGITS = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "logits": [1.0, 0.0, 0.0]}), flush=True)
"""

WRONG_ID = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"] + 1000, "logits": [0.0, 0.0, 0.0, 0.0]}), flush=True)
"""

# Answers request 1 with the id true, which equals 1.
TRUE_ID = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    answer = True if req["id"] == 1 else req["id"]
    print(json.dumps({"id": answer, "logits": [0.0, 0.0, 0.0, 0.0]}), flush=True)
"""

NOT_JSON = """
import sys
for line in sys.stdin:
    print("gibberish", flush=True)
"""

NAN_LOGITS = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print('{"id": %d, "logits": [NaN, 0.0, 0.0, 0.0]}' % req["id"], flush=True)
"""

SLEEPER = """
import sys, time
sys.stdin.readline()
time.sleep(60)
"""

NEVER_READS = """
import time
time.sleep(60)
"""

ECHO_SCALED = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    logits = [float(len(req["s"])), float(len(req["q"])), 0.0, 0.0]
    print(json.dumps({"id": req["id"], "logits": logits}), flush=True)
"""


def sample_input():
    return ScoringInput(
        focus_kind=NodeKind.HEADING, focus_text="h", segment_text="seg"
    )


def test_fixed_logits_argmax_is_first_action():
    with ScorerBridge(bridge_program(ECHO_FIXED)) as bridge:
        scores = bridge.score_input(sample_input())
        assert Action(scores.best) is Action.SUB_HEADING
        assert scores.logits == (1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("constrained", [True, False])
def test_decode_through_a_child_equals_the_rule_in_process(monkeypatch, constrained):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    in_process = importlib.import_module("checks").RuleScorer()
    docs = generate_corpus(GenConfig(doc_count=3, seed=7))
    streams, _ = chunk_corpus(docs, ChunkConfig(seed=7), " ")
    with ScorerBridge([sys.executable, str(PERFBENCH / "rule_scorer.py")]) as bridge:
        for stream in streams:
            expected = decode(stream.segments, in_process, constrained, " ")
            assert decode(stream.segments, bridge, constrained, " ") == expected


def test_multiple_requests_increment_ids():
    with ScorerBridge(bridge_program(ECHO_FIXED)) as bridge:
        for _ in range(3):
            assert bridge.score_raw("root", "", "q") == [1.0, 0.0, 0.0, 0.0]


def test_request_carries_kind_and_texts():
    with ScorerBridge(bridge_program(ECHO_SCALED)) as bridge:
        logits = bridge.score_raw("heading", "abcd", "xy")
        assert logits == [4.0, 2.0, 0.0, 0.0]


def test_three_logits_is_protocol_error():
    with ScorerBridge(bridge_program(THREE_LOGITS)) as bridge:
        with pytest.raises(BridgeProtocol):
            bridge.score_raw("root", "", "q")


def test_id_mismatch_is_protocol_error():
    with ScorerBridge(bridge_program(WRONG_ID)) as bridge:
        with pytest.raises(BridgeProtocol):
            bridge.score_raw("root", "", "q")


def test_boolean_id_is_protocol_error():
    with ScorerBridge(bridge_program(TRUE_ID)) as bridge:
        bridge.score_raw("root", "", "q")
        with pytest.raises(BridgeProtocol):
            bridge.score_raw("root", "", "q")


def test_non_json_is_protocol_error():
    with ScorerBridge(bridge_program(NOT_JSON)) as bridge:
        with pytest.raises(BridgeProtocol):
            bridge.score_raw("root", "", "q")


def test_nan_logits_rejected():
    with ScorerBridge(bridge_program(NAN_LOGITS)) as bridge:
        with pytest.raises(BridgeProtocol):
            bridge.score_raw("root", "", "q")


def test_dead_process_is_io_error():
    with ScorerBridge(bridge_program("pass")) as bridge:
        with pytest.raises(BridgeIO):
            bridge.score_raw("root", "", "q")


def test_timeout_is_io_error():
    with ScorerBridge(bridge_program(SLEEPER), timeout=0.4) as bridge:
        with pytest.raises(BridgeIO):
            bridge.score_raw("root", "", "q")


def test_child_that_never_reads_times_out_the_write():
    # 300 KB is several pipe buffers: the write itself must give up.
    with ScorerBridge(bridge_program(NEVER_READS), timeout=1.0) as bridge:
        started = time.monotonic()
        with pytest.raises(BridgeIO):
            bridge.score_raw("text", "x" * 300_000, "q")
        assert time.monotonic() - started < 4.0


class RecordingStdin:
    """A bridge child's stdin that keeps the bytes each write sends."""

    def __init__(self, raw):
        self._raw = raw
        self.sent = bytearray()

    def write(self, data):
        written = self._raw.write(data)
        self.sent += bytes(data[: written or 0])
        return written

    def __getattr__(self, attr):
        return getattr(self._raw, attr)


def test_requests_go_through_the_stdin_object():
    # The 300 KB request fills the pipe, so its write is retried.
    requests = [("root", "", "q"), ("heading", "第一章", "x" * 300_000), ("text", "a\"b", "c")]
    with ScorerBridge(bridge_program(ECHO_FIXED)) as bridge:
        stdin = bridge._proc.stdin = RecordingStdin(bridge._proc.stdin)
        for kind, focus, segment in requests:
            bridge.score_raw(kind, focus, segment)
    expected = b"".join(
        json.dumps({"id": i, "s_kind": kind, "s": focus, "q": segment}, ensure_ascii=False)
        .encode("utf-8") + b"\n"
        for i, (kind, focus, segment) in enumerate(requests)
    )
    assert bytes(stdin.sent) == expected


def test_unlaunchable_command_is_io_error():
    with pytest.raises(BridgeIO):
        ScorerBridge(["/no/such/binary"])


@pytest.mark.parametrize("child", ["live", "exited"])
def test_close_closes_both_pipes(child):
    bridge = ScorerBridge(bridge_program(ECHO_FIXED if child == "live" else "pass"))
    if child == "exited":
        bridge._proc.wait()
    bridge.close()
    assert bridge._proc.stdin.closed and bridge._proc.stdout.closed
    assert bridge._proc.returncode is not None
