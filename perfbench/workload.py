"""One workload in a fresh process: set up, run rounds of catparse commands.

    python3 perfbench/workload.py SPEC_JSON LAUNCHED

``run.py`` starts this with ``LAUNCHED`` set to ``time.monotonic()`` just
before the launch, so ``setup_s`` covers interpreter start, imports and, for
``pilot``, making the corpus. Commands go through ``catparse.cli.main``
in-process, one after another (a closed loop with one client). Whole rounds
run until ``seconds`` of command time have passed. With tracing on, one more
round runs with every layer wrapped; its spans go to ``spans.json``.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def invoke(cli, argv: list[str]) -> int:
    """Run one catparse command; a traceback counts as a failed command."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - the run goes on and reports the failure
        traceback.print_exc()
        return -1


def run_round(cli, ops, tracer=None) -> list[list]:
    """Time each command of one round: [[label, seconds, exit code], ...]."""
    record = []
    for label, argv in ops:
        call = invoke
        if tracer is not None:
            call = tracer.wrap("cli." + label.split(":")[0], invoke)
        started = time.perf_counter()
        code = call(cli, argv)
        record.append([label, time.perf_counter() - started, code])
    return record


def digest(out: Path) -> str:
    """Hash of the round's predictions and reports, to check rounds agree.

    Manifests are left out: their timing fields differ on every run.
    """
    h = hashlib.sha256()
    for path in sorted(out.glob("pred_*.jsonl")) + sorted(out.glob("report_*.json")):
        if not path.name.endswith(".manifest.json"):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def instrument(tracer) -> None:
    """Wrap each layer at every name its callers look it up by."""
    from catparse import baselines, bridge, cli, corpus, engine, jsonio, manifest
    from catparse import metrics, scoring, tree
    from catparse.tree import Action

    def file_bytes(counts, args, kwargs, result):
        counts["jsonio.bytes"] += os.path.getsize(args[0])

    def chars(counts, args, kwargs, result):
        counts["scoring.featurize.chars"] += len(args[0].focus_text) + len(args[0].segment_text)

    def steps(counts, args, kwargs, result):
        trace = result[1].steps
        counts["engine.decode.steps"] += len(trace)
        counts["engine.decode.forced_steps"] += sum(step.forced for step in trace)
        counts["engine.decode.concat_steps"] += sum(
            step.action is Action.CONCAT for step in trace
        )

    def spawned(counts, args, kwargs, result):
        proc = args[0]._proc
        proc.stdin = CountingWriter(proc.stdin, counts)

    def read_back(counts, args, kwargs, result):
        counts["bridge.score_raw.bytes_in"] += len(result) + 1

    patch = tracer.patch
    patch(corpus, "generate_corpus", "corpus.generate_corpus")
    patch(corpus, "chunk_corpus", "corpus.chunk_corpus")
    for name in ("read_corpus", "read_streams"):
        patch(jsonio, name, "jsonio.read", file_bytes)
    for name in ("write_corpus", "write_streams", "write_action_dump"):
        patch(jsonio, name, "jsonio.write", file_bytes)
    for module in (scoring, baselines):
        patch(module, "featurize", "scoring.featurize", chars)
    patch(scoring.LinearModel, "logits_for", "scoring.logits_for")
    patch(scoring, "train", "scoring.train")
    for name in ("load_model", "read_container"):
        patch(scoring, name, "scoring.load_model")
    for name in ("save_model", "write_container"):
        patch(scoring, name, "scoring.save_model")
    patch(engine, "oracle_examples", "engine.oracle_examples")
    patch(engine, "decode", "engine.decode", steps)
    for module in (tree, engine):
        patch(module, "apply_action", "tree.apply_action")
        patch(module, "legal_actions", "tree.legal_actions")
    patch(metrics, "evaluate", "metrics.evaluate")
    patch(baselines, "pipeline_predict", "baselines.pipeline_predict")
    patch(baselines, "tagging_predict", "baselines.tagging_predict")
    patch(bridge.ScorerBridge, "__init__", "bridge.spawn", spawned)
    patch(bridge.ScorerBridge, "score_raw", "bridge.score_raw")
    patch(bridge.ScorerBridge, "_read_line", None, read_back)
    for module in (manifest, cli):
        patch(module, "write_manifest", "manifest.write_manifest")


class CountingWriter:
    """A bridge child's stdin that counts the bytes written to it."""

    def __init__(self, raw, counts):
        self._raw = raw
        self._counts = counts

    def write(self, data):
        self._counts["bridge.score_raw.bytes_out"] += len(data)
        return self._raw.write(data)

    def __getattr__(self, attr):
        return getattr(self._raw, attr)


def reap_children(timeout: float) -> None:
    """Wait for child processes the program left behind (bridge scorers)."""
    gc.collect()
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                return
            time.sleep(0.005)


def traced_round(spec: dict, ops, out: Path, untraced_walls: list[float]) -> dict:
    import inputs
    from catparse import cli
    from tracer import Tracer

    tracer = Tracer()
    instrument(tracer)
    started = time.perf_counter()
    try:
        if spec["workload"] == "pilot":
            inputs.write_pilot_corpus(spec["seed"], out)
        record = run_round(cli, ops, tracer)
    finally:
        tracer.restore()
    traced_s = time.perf_counter() - started
    tracer.dump(out / "spans.json")
    layers = tracer.summary()
    metrics = layer_metrics(layers, tracer.counts)
    wall = sum(seconds for _, seconds, _ in record)
    metrics["trace.overhead_s"] = wall - statistics.median(untraced_walls)
    return {
        "record": record,
        "metrics": metrics,
        "self_share": {name: entry["self_s"] / traced_s for name, entry in layers.items()},
    }


# Layers whose total seconds are reported, then those that also report
# calls, self time and call-duration percentiles.
TIMED = (
    "cli.train", "cli.predict", "cli.evaluate",
    "corpus.generate_corpus", "corpus.chunk_corpus",
    "jsonio.read", "jsonio.write",
    "scoring.featurize", "scoring.logits_for", "scoring.train",
    "scoring.load_model", "scoring.save_model",
    "engine.oracle_examples", "engine.decode",
    "tree.apply_action", "tree.legal_actions", "metrics.evaluate",
    "baselines.pipeline_predict", "baselines.tagging_predict",
    "bridge.spawn", "bridge.score_raw", "manifest.write_manifest",
)
CALLED = (
    "scoring.featurize", "scoring.logits_for", "engine.decode",
    "tree.apply_action", "tree.legal_actions", "metrics.evaluate", "bridge.score_raw",
)
SELF = ("scoring.train", "engine.decode")
PERCENTILES = ("engine.decode", "bridge.score_raw")
COUNTS = (
    "jsonio.bytes", "scoring.featurize.chars",
    "engine.decode.steps", "engine.decode.forced_steps", "engine.decode.concat_steps",
    "bridge.score_raw.bytes_out", "bridge.score_raw.bytes_in",
)
# A tail percentile needs at least this many calls; below it p95 reads 0.
MIN_CALLS_FOR_P95 = 200


def layer_metrics(layers: dict[str, dict], counts) -> dict[str, float]:
    """Per-layer metrics from span summaries; a layer never called reads 0."""
    from tracer import percentile_ms

    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
    metrics = {}
    for name in TIMED:
        metrics[name + ".s"] = layers.get(name, empty)["total_s"]
    for name in CALLED:
        metrics[name + ".calls"] = layers.get(name, empty)["calls"]
    for name in SELF:
        metrics[name + ".self_s"] = layers.get(name, empty)["self_s"]
    for name in PERCENTILES:
        durations = layers.get(name, empty)["durations"]
        metrics[name + ".p50_ms"] = percentile_ms(durations, 50)
        enough = len(durations) >= MIN_CALLS_FOR_P95
        metrics[name + ".p95_ms"] = percentile_ms(durations, 95) if enough else 0.0
    for key in COUNTS:
        metrics[key] = counts.get(key, 0)
    return metrics


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    launched = float(sys.argv[2])
    out = Path(spec["dir"])

    import inputs
    from catparse import cli

    if spec["workload"] == "pilot":
        inputs.write_pilot_corpus(spec["seed"], out)
    ops = inputs.commands(spec["workload"], spec["seed"], out)
    result = {"setup_s": time.monotonic() - launched}
    if not spec["setup_only"]:
        rounds, digests, timed = [], [], 0.0
        while not rounds or timed < spec["seconds"]:
            record = run_round(cli, ops)
            timed += sum(seconds for _, seconds, _ in record)
            rounds.append(record)
            digests.append(digest(out))
        result["rounds"] = rounds
        result["digests"] = digests
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if spec["trace"]:
            walls = [sum(seconds for _, seconds, _ in record) for record in rounds]
            result["trace"] = traced_round(spec, ops, out, walls)
            digests.append(digest(out))
    reap_children(timeout=5.0)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
