"""Command-line surface.

Subcommands: generate, chunk, train, predict, evaluate, oracle-check,
stats. All of them read and write the JSON-lines formats described in
``jsonio`` and drop a run manifest next to their outputs. Exit codes:
0 success, 1 I/O, scorer bridge or check failure, 2 schema violation, a
training tree no transition sequence rebuilds, or an empty dev or gold
corpus, 3 training failure.
"""
from __future__ import annotations

import argparse
import logging
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack

from . import baselines, corpus, engine, jsonio, methods, metrics, scoring
from .bridge import BridgeIO, BridgeProtocol, BridgeScorer, ScorerBridge
from .manifest import manifest_path_for, write_manifest
from .scoring import EmptyTrainingSet
from .tree import Segment

log = logging.getLogger("catparse")

JOINERS = {"none": "", "space": " "}


class TrainingFailure(Exception):
    pass


def _add_joiner(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--joiner",
        choices=sorted(JOINERS),
        default="none",
        help="how segment pieces are glued back together",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catparse",
        description="Parse ordered text segments into catalog trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--depth", type=int, nargs=2, default=[2, 5], metavar=("LO", "HI"))
    p.add_argument("--children", type=int, nargs=2, default=[2, 4], metavar=("LO", "HI"))
    p.add_argument("--numbered-frac", type=float, default=0.85)
    p.add_argument("--text-len", type=int, nargs=2, default=[60, 200], metavar=("LO", "HI"))
    p.add_argument("--source", default="synthetic")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("chunk", help="simulate OCR over-segmentation")
    p.add_argument("--corpus", required=True)
    p.add_argument("--segments-out", required=True)
    p.add_argument("--gold-out", required=True)
    p.add_argument("--chunk-p", type=float, default=0.5)
    p.add_argument("--heading-range", type=int, nargs=2, default=[7, 20], metavar=("LO", "HI"))
    p.add_argument("--text-range", type=int, nargs=2, default=[70, 100], metavar=("LO", "HI"))
    p.add_argument("--seed", type=int, default=0)
    _add_joiner(p)
    p.set_defaults(func=cmd_chunk)

    p = sub.add_parser("train", help="train a scorer from gold trees")
    p.add_argument("--train", required=True, help="gold corpus (JSON lines)")
    p.add_argument("--train-segments", help="segment stream for the train corpus")
    p.add_argument("--dev", required=True, help="gold corpus used for epoch selection")
    p.add_argument("--dev-segments", help="segment stream for the dev corpus")
    p.add_argument("--model-out", required=True)
    p.add_argument("--method", choices=methods.METHODS, default="transition")
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=20)
    p.add_argument("--weight-decay", type=float, default=0.01)
    p.add_argument("--subsample", type=int, help="train on N documents only")
    p.add_argument("--max-depth", type=int, default=baselines.DEFAULT_MAX_DEPTH)
    p.add_argument("--class-weights", action="store_true")
    p.add_argument("--dump-actions", help="write gold action records here")
    p.add_argument("--seed", type=int, default=0)
    _add_joiner(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="parse segment streams into trees")
    p.add_argument("--segments", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--scorer",
        required=True,
        help="linear:MODEL_PATH or bridge:COMMAND",
    )
    p.add_argument("--method", choices=methods.METHODS, default="transition")
    p.add_argument("--unconstrained", action="store_true")
    p.add_argument("--max-depth", type=int, default=baselines.DEFAULT_MAX_DEPTH)
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    _add_joiner(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold trees")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("oracle-check", help="verify gold action round-trips")
    p.add_argument("--corpus", required=True)
    p.add_argument("--segments", help="segment stream (needed for chunked corpora)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    _add_joiner(p)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("stats", help="corpus statistics per source")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="write JSON rows here")
    p.set_defaults(func=cmd_stats)

    return parser


def _config_snapshot(args: argparse.Namespace) -> dict:
    skip = {"func", "command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def cmd_generate(args) -> int:
    started = time.time()
    cfg = corpus.GenConfig(
        doc_count=args.count,
        depth_range=tuple(args.depth),
        children_range=tuple(args.children),
        numbered_fraction=args.numbered_frac,
        text_length_range=tuple(args.text_len),
        seed=args.seed,
    )
    docs = corpus.generate_corpus(cfg, source=args.source)
    jsonio.write_corpus(args.out, docs)
    log.info("generated %d documents -> %s", len(docs), args.out)
    write_manifest(
        manifest_path_for(args.out),
        "generate",
        _config_snapshot(args),
        inputs=[],
        outputs=[args.out],
        started=started,
    )
    return 0


def cmd_chunk(args) -> int:
    started = time.time()
    joiner = JOINERS[args.joiner]
    docs = jsonio.read_corpus(args.corpus)
    cfg = corpus.ChunkConfig(
        chunk_probability=args.chunk_p,
        heading_piece_range=tuple(args.heading_range),
        text_piece_range=tuple(args.text_range),
        seed=args.seed,
    )
    streams, gold_docs = corpus.chunk_corpus(docs, cfg, joiner)
    jsonio.write_streams(args.segments_out, streams)
    jsonio.write_corpus(args.gold_out, gold_docs)
    total = sum(len(s.segments) for s in streams)
    log.info(
        "chunked %d documents into %d segments -> %s, %s",
        len(docs), total, args.segments_out, args.gold_out,
    )
    write_manifest(
        manifest_path_for(args.segments_out),
        "chunk",
        _config_snapshot(args),
        inputs=[args.corpus],
        outputs=[args.segments_out, args.gold_out],
        started=started,
    )
    return 0


def _load_gold_with_segments(
    corpus_path: str, segments_path: str | None, joiner: str
) -> list[tuple[jsonio.Document, list[Segment]]]:
    """Pair gold documents with their segment streams.

    Without a stream file every node must carry a trivial one-segment
    assignment; chunked corpora need the stream written at chunk time.
    """
    docs = jsonio.read_corpus(corpus_path)
    if segments_path is None:
        return [(doc, corpus.segments_of(doc.tree)) for doc in docs]
    streams = {s.doc_id: s for s in jsonio.read_streams(segments_path, joiner)}
    paired = []
    for doc in docs:
        stream = streams.get(doc.doc_id)
        if stream is None:
            raise jsonio.SchemaError(
                segments_path, f"no segment stream for document {doc.doc_id!r}"
            )
        paired.append((doc, stream.segments))
    return paired


def _subsample(items: list, count: int | None, seed: int) -> list:
    if count is None or count >= len(items):
        return items
    import numpy as np

    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order[:count]]


def cmd_train(args) -> int:
    started = time.time()
    joiner = JOINERS[args.joiner]
    train_pairs = _load_gold_with_segments(args.train, args.train_segments, joiner)
    dev_pairs = _load_gold_with_segments(args.dev, args.dev_segments, joiner)
    train_pairs = _subsample(train_pairs, args.subsample, args.seed)
    if not train_pairs:
        raise EmptyTrainingSet("the training corpus is empty")
    if not dev_pairs:
        raise metrics.EmptyEvaluation(f"the dev corpus {args.dev} is empty")

    config = scoring.TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        weight_decay=args.weight_decay,
        seed=args.seed,
        class_weighting=args.class_weights,
    )
    if args.dump_actions:
        _write_action_dump(args.dump_actions, train_pairs, joiner)
    try:
        heads, history = methods.train_heads(
            args.method,
            [(doc.tree, segments) for doc, segments in train_pairs],
            [(doc.tree, segments) for doc, segments in dev_pairs],
            config,
            joiner,
            args.max_depth,
        )
    except EmptyTrainingSet:
        raise
    except (ValueError, ArithmeticError) as exc:
        raise TrainingFailure(str(exc)) from exc

    methods.save_heads(args.model_out, args.method, heads)
    best_epoch = history.index(max(history)) + 1
    log.info("kept epoch %d (dev F1 %.4f) -> %s", best_epoch, max(history), args.model_out)

    outputs = [args.model_out]
    if args.dump_actions:
        outputs.append(args.dump_actions)
    write_manifest(
        manifest_path_for(args.model_out),
        "train",
        _config_snapshot(args),
        inputs=[p for p in (args.train, args.train_segments, args.dev, args.dev_segments) if p],
        outputs=outputs,
        started=started,
        extra={"dev_f1_per_epoch": history, "best_epoch": best_epoch},
    )
    return 0


def _write_action_dump(path: str, train_pairs, joiner: str) -> None:
    """Write the gold transition actions of the training corpus, whatever
    the method being trained."""
    rows = []
    for doc, segments in train_pairs:
        for step, (inp, action) in enumerate(engine.oracle_examples(doc.tree, segments, joiner)):
            rows.append(
                {
                    "doc_id": doc.doc_id,
                    "step": step,
                    "s_kind": inp.focus_kind.value,
                    "s_content": inp.focus_text,
                    "q_content": inp.segment_text,
                    "gold_action": action.wire_name,
                }
            )
    jsonio.write_action_dump(path, rows)


# Worker state for --jobs parallelism. Each worker process builds its own
# parser once; document order is preserved by the executor. A worker's
# bridge child is never closed explicitly: it gets end-of-input when the
# worker exits.
_worker: dict = {}


def _init_worker(scorer_spec: str, method: str, constrained: bool, joiner: str, max_depth: int) -> None:
    _worker["parse"] = _build_predictor(
        scorer_spec, method, constrained, joiner, max_depth, ExitStack()
    )


def _parse_scorer_spec(spec: str) -> tuple[str, str]:
    kind, _, rest = spec.partition(":")
    if kind not in ("linear", "bridge") or not rest:
        raise ValueError(
            f"scorer must look like linear:MODEL_PATH or bridge:COMMAND, got {spec!r}"
        )
    return kind, rest


def _build_predictor(scorer_spec, method, constrained, joiner, max_depth, resources: ExitStack):
    """Load the heads ``scorer_spec`` names and return their parser; a bridge
    child is registered with ``resources``, which closes it."""
    kind, rest = _parse_scorer_spec(scorer_spec)
    if kind == "bridge":
        if method != "transition":
            raise ValueError(f"method {method} requires a linear: scorer")
        heads = (BridgeScorer(resources.enter_context(ScorerBridge(rest))),)
    else:
        heads = methods.load_heads(rest, method)
    return methods.parser_for(method, heads, constrained, joiner, max_depth)


def _parse_one(segments: list[Segment]):
    return _worker["parse"](segments)


def cmd_predict(args) -> int:
    started = time.time()
    joiner = JOINERS[args.joiner]
    streams = jsonio.read_streams(args.segments, joiner)
    constrained = not args.unconstrained
    if args.jobs > 1:
        with ProcessPoolExecutor(
            max_workers=args.jobs,
            initializer=_init_worker,
            initargs=(args.scorer, args.method, constrained, joiner, args.max_depth),
        ) as pool:
            trees = list(pool.map(_parse_one, [s.segments for s in streams]))
    else:
        with ExitStack() as resources:
            parse = _build_predictor(
                args.scorer, args.method, constrained, joiner, args.max_depth, resources
            )
            trees = [parse(s.segments) for s in streams]
    docs = [
        jsonio.Document(doc_id=stream.doc_id, source="", tree=tree)
        for stream, tree in zip(streams, trees)
    ]
    jsonio.write_corpus(args.out, docs)
    log.info("predicted %d documents -> %s", len(docs), args.out)
    write_manifest(
        manifest_path_for(args.out),
        "predict",
        _config_snapshot(args),
        inputs=[args.segments],
        outputs=[args.out],
        started=started,
    )
    return 0


def cmd_evaluate(args) -> int:
    started = time.time()
    gold_docs = jsonio.read_corpus(args.gold)
    pred_docs = {doc.doc_id: doc for doc in jsonio.read_corpus(args.pred)}
    reports = []
    for doc in gold_docs:
        pred = pred_docs.get(doc.doc_id)
        if pred is None:
            raise jsonio.SchemaError(args.pred, f"no prediction for document {doc.doc_id!r}")
        reports.append(metrics.evaluate(doc.tree, pred.tree))
    total = metrics.aggregate(reports)
    print(metrics.format_report(total))
    if args.out:
        import json

        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(total.to_dict(), handle, ensure_ascii=False, indent=2)
            handle.write("\n")
        write_manifest(
            manifest_path_for(args.out),
            "evaluate",
            _config_snapshot(args),
            inputs=[args.gold, args.pred],
            outputs=[args.out],
            started=started,
        )
    return 0


def _check_one(payload) -> tuple[str, str | None]:
    doc, segments, joiner = payload
    try:
        actions = engine.oracle_actions(doc.tree)
        rebuilt = engine.replay_actions(actions, segments, joiner)
    except engine.OracleError as exc:
        return doc.doc_id, f"oracle failed: {exc}"
    except Exception as exc:  # noqa: BLE001 - reported as a counterexample
        return doc.doc_id, f"replay failed: {exc}"
    if rebuilt != doc.tree:
        return doc.doc_id, "replayed tree differs from gold"
    return doc.doc_id, None


def cmd_oracle_check(args) -> int:
    joiner = JOINERS[args.joiner]
    pairs = _load_gold_with_segments(args.corpus, args.segments, joiner)
    payloads = [(doc, segments, joiner) for doc, segments in pairs]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_check_one, payloads))
    else:
        results = [_check_one(p) for p in payloads]
    for doc_id, problem in results:
        if problem is not None:
            print(f"round-trip failed for {doc_id}: {problem}", file=sys.stderr)
            return 1
    print(f"oracle round-trip holds for all {len(results)} documents")
    return 0


def cmd_stats(args) -> int:
    started = time.time()
    docs = jsonio.read_corpus(args.corpus)
    rows = corpus.corpus_stats(docs)
    print(corpus.format_stats(rows))
    if args.out:
        import json

        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump([r.to_dict() for r in rows], handle, ensure_ascii=False, indent=2)
            handle.write("\n")
        write_manifest(
            manifest_path_for(args.out),
            "stats",
            _config_snapshot(args),
            inputs=[args.corpus],
            outputs=[args.out],
            started=started,
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except jsonio.SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except (EmptyTrainingSet, TrainingFailure) as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 3
    except metrics.EmptyEvaluation as exc:
        print(f"nothing to evaluate: {exc}", file=sys.stderr)
        return 2
    except engine.OracleError as exc:
        print(f"no transition sequence rebuilds a training tree: {exc}", file=sys.stderr)
        return 2
    except (BridgeIO, BridgeProtocol) as exc:
        print(f"scorer bridge failed: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename or exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
