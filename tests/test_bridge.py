import sys
import time

import pytest

from catparse.bridge import BridgeIO, BridgeProtocol, BridgeScorer, ScorerBridge
from catparse.scoring import ScoringInput
from catparse.tree import Action, NodeKind


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
        scores = BridgeScorer(bridge).score_input(sample_input())
        assert Action(scores.best) is Action.SUB_HEADING
        assert scores.logits == (1.0, 0.0, 0.0, 0.0)


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
