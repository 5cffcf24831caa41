"""Wire bridge to an external action scorer running as a child process.

The protocol is line-delimited JSON over the child's standard streams.
Request:  ``{"id": int, "s_kind": "root"|"heading"|"text", "s": str, "q": str}``
Response: ``{"id": int, "logits": [4 floats]}``

One bridge handle serves one in-flight request at a time; open several
handles for parallel scoring. Responses must echo the request id and
carry exactly four finite logits.
"""
from __future__ import annotations

import json
import math
import os
import select
import shlex
import subprocess
import time

from .scoring import ActionScorer, ActionScores, ScoringInput

DEFAULT_TIMEOUT = 10.0


class BridgeIO(Exception):
    """The child process died, closed its pipe, or timed out."""


class BridgeProtocol(Exception):
    """The child produced a malformed response."""


class ScorerBridge:
    """Owns the child process and the request/response cycle."""

    def __init__(self, command: str | list[str], timeout: float = DEFAULT_TIMEOUT):
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                bufsize=0,
            )
        except OSError as exc:
            raise BridgeIO(f"cannot start scorer process {argv!r}: {exc}") from exc
        # Writes must not block past a request's deadline when the child
        # stops reading and the pipe fills up.
        os.set_blocking(self._proc.stdin.fileno(), False)
        self.timeout = timeout
        self._next_id = 0
        self._buffer = b""

    def close(self) -> None:
        """Close both pipes, then wait for the child (killing it after 2 s);
        the pipes are closed even when the child has already exited."""
        proc = self._proc
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def __enter__(self) -> "ScorerBridge":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _read_line(self, deadline: float) -> bytes:
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BridgeIO(f"scorer timed out after {self.timeout}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                raise BridgeIO(f"scorer timed out after {self.timeout}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise BridgeIO("scorer closed its output stream")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def _write(self, payload: bytes, deadline: float) -> None:
        fd = self._proc.stdin.fileno()
        view = memoryview(payload)
        while True:
            try:
                view = view[os.write(fd, view):]
            except BlockingIOError:
                pass
            except OSError as exc:
                raise BridgeIO(f"scorer pipe closed: {exc}") from exc
            if not view:
                return
            # The pipe is full: wait until the child reads or the deadline passes.
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([], [fd], [], remaining)[1]:
                raise BridgeIO(f"scorer stopped reading; timed out after {self.timeout}s")

    def score_raw(self, kind: str, focus_text: str, segment_text: str) -> list[float]:
        request_id = self._next_id
        self._next_id += 1
        request = {"id": request_id, "s_kind": kind, "s": focus_text, "q": segment_text}
        payload = (json.dumps(request, ensure_ascii=False) + "\n").encode("utf-8")
        deadline = time.monotonic() + self.timeout
        self._write(payload, deadline)
        line = self._read_line(deadline)
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BridgeProtocol(f"response is not JSON: {exc}") from None
        if not isinstance(response, dict):
            raise BridgeProtocol("response must be a JSON object")
        if response.get("id") != request_id:
            raise BridgeProtocol(
                f"response id {response.get('id')!r} does not match request {request_id}"
            )
        logits = response.get("logits")
        if (
            not isinstance(logits, list)
            or len(logits) != 4
            or any(not isinstance(x, (int, float)) or isinstance(x, bool) for x in logits)
        ):
            raise BridgeProtocol("response must carry exactly 4 numeric logits")
        values = [float(x) for x in logits]
        if any(not math.isfinite(x) for x in values):
            raise BridgeProtocol("logits must be finite")
        return values


class BridgeScorer(ActionScorer):
    """Adapter that lets the decoder score through a bridge handle."""

    def __init__(self, bridge: ScorerBridge):
        self.bridge = bridge

    def score_input(self, inp: ScoringInput) -> ActionScores:
        logits = self.bridge.score_raw(
            inp.focus_kind.value, inp.focus_text, inp.segment_text
        )
        return ActionScores.from_logits(logits)
