"""Command-line surface.

Subcommands: generate, chunk, train, predict, evaluate, oracle-check,
stats. They read and write the JSON-lines formats described in
``jsonio``. Each ``cmd_*`` returns the paths it read and wrote, as
``(inputs, outputs)``, ``train`` also its ``extra`` record; ``main``
times the command and writes its manifest next to the first output, so
a run that wrote no file gets none. Exit codes:
0 success, 1 I/O, scorer bridge, model file, option or check failure, 2
schema violation (a stream that does not match its gold tree, too deep
a tree), a training or dev tree no transition sequence rebuilds
(whatever the method: all three train from ``engine.gold_owners``), or
an empty dev or gold corpus, 3 training failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack

from . import baselines, corpus, engine, jsonio, methods, metrics, scoring
from .bridge import BridgeIO, BridgeProtocol, ScorerBridge
from .manifest import write_manifest
from .scoring import EmptyTrainingSet
from .tree import MAX_DEPTH, Segment, iter_nodes

log = logging.getLogger("catparse")

JOINERS = {"none": "", "space": " "}


class TrainingFailure(Exception):
    pass


class RoundTripFailure(Exception):
    """``oracle-check`` found a document whose gold actions do not
    rebuild its tree."""


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
    p.add_argument("--max-depth", type=int, help="baseline label budget (pipeline, tagging)")
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


def cmd_generate(args):
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
    return [], [args.out]


def cmd_chunk(args):
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
    return [args.corpus], [args.segments_out, args.gold_out]


def _load_gold_with_segments(
    corpus_path: str, segments_path: str | None, joiner: str
) -> list[tuple[jsonio.Document, list[Segment]]]:
    """Pair gold documents with their segment streams.

    Without a stream file every node must carry a trivial one-segment
    assignment; chunked corpora need the stream written at chunk time,
    as long as the number of segments its tree owns.
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
        owned = sum(len(node.source_segments) for node, _ in iter_nodes(doc.tree))
        if len(stream.segments) != owned:
            raise jsonio.SchemaError(
                segments_path,
                f"document {doc.doc_id!r} has {len(stream.segments)} segments, "
                f"its gold tree owns {owned}",
            )
        paired.append((doc, stream.segments))
    return paired


def _require_positive(option: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise ValueError(f"{option} must be at least 1, got {value}")


def _subsample(items: list, count: int | None, seed: int) -> list:
    if count is None or count >= len(items):
        return items
    import numpy as np

    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order[:count]]


def cmd_train(args):
    if args.max_depth is None:
        args.max_depth = baselines.DEFAULT_MAX_DEPTH
    elif args.method == "transition":
        raise ValueError("--max-depth needs a baseline method, not transition")
    if not 1 <= args.max_depth < MAX_DEPTH:
        # a text leaf sits one level under the deepest heading label
        raise ValueError(f"--max-depth must lie in 1..{MAX_DEPTH - 1}, got {args.max_depth}")
    _require_positive("--subsample", args.subsample)
    joiner = JOINERS[args.joiner]
    train_pairs = _load_gold_with_segments(args.train, args.train_segments, joiner)
    dev_pairs = _load_gold_with_segments(args.dev, args.dev_segments, joiner)
    train_pairs = _subsample(train_pairs, args.subsample, args.seed)
    if not train_pairs:
        raise EmptyTrainingSet("the training corpus is empty")
    if not dev_pairs:
        raise metrics.EmptyEvaluation(f"the dev corpus {args.dev} is empty")
    for doc, _ in dev_pairs:
        try:
            engine.gold_owners(doc.tree)
        except engine.OracleError as exc:
            raise engine.OracleError(f"dev document {doc.doc_id!r}: {exc}") from exc

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

    inputs = [p for p in (args.train, args.train_segments, args.dev, args.dev_segments) if p]
    outputs = [p for p in (args.model_out, args.dump_actions) if p]
    return inputs, outputs, {"dev_f1_per_epoch": history, "best_epoch": best_epoch}


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


# Worker state for --jobs parallelism. Each worker process builds its
# parser on its first document, from the heads the parent loaded or, with
# a bridge scorer, from a bridge child of its own; a child that cannot
# start then fails that document, and the error comes back through its
# future. Document order is preserved by the executor. When a document
# fails, the run fails: the worker closes its bridge child at once, since
# end-of-input at the worker's exit does not stop a child that ignores its
# stdin, and fails its later documents with the same error.
_worker: dict = {}


def _init_worker(heads, scorer_spec: str, method: str, constrained: bool, joiner: str) -> None:
    _worker["setup"] = (heads, scorer_spec, method, constrained, joiner)
    _worker["resources"] = ExitStack()


def _parse_scorer_spec(spec: str) -> tuple[str, str]:
    kind, _, rest = spec.partition(":")
    if kind not in ("linear", "bridge") or not rest:
        raise ValueError(
            f"scorer must look like linear:MODEL_PATH or bridge:COMMAND, got {spec!r}"
        )
    return kind, rest


def _load_heads(scorer_spec, method, resources: ExitStack) -> tuple:
    """Load the heads ``scorer_spec`` names; a bridge child is registered
    with ``resources``, which closes it."""
    kind, rest = _parse_scorer_spec(scorer_spec)
    if kind == "bridge":
        return (resources.enter_context(ScorerBridge(rest)),)
    return methods.load_heads(rest, method)


def _parse_one(segments: list[Segment]):
    if "error" in _worker:
        raise _worker["error"]
    try:
        if "parse" not in _worker:
            heads, scorer_spec, method, constrained, joiner = _worker["setup"]
            if not heads:
                heads = _load_heads(scorer_spec, method, _worker["resources"])
            _worker["parse"] = methods.parser_for(method, heads, constrained, joiner)
        return _worker["parse"](segments)
    except Exception as exc:
        _worker["error"] = exc
        _worker["resources"].close()
        raise


def cmd_predict(args):
    _require_positive("--jobs", args.jobs)
    # checked here, not in a --jobs worker, where an error breaks the pool
    bridge = _parse_scorer_spec(args.scorer)[0] == "bridge"
    if args.method != "transition" and bridge:
        raise ValueError(f"method {args.method} requires a linear: scorer")
    if args.method != "transition" and args.unconstrained:
        raise ValueError(f"--unconstrained needs the transition method, not {args.method}")
    joiner = JOINERS[args.joiner]
    streams = jsonio.read_streams(args.segments, joiner)
    constrained = not args.unconstrained
    with ExitStack() as resources:
        # model files too are read and checked before any worker starts
        heads = ()
        if not (bridge and args.jobs > 1):
            heads = _load_heads(args.scorer, args.method, resources)
        if args.jobs > 1:
            with ProcessPoolExecutor(
                max_workers=args.jobs,
                initializer=_init_worker,
                initargs=(heads, args.scorer, args.method, constrained, joiner),
            ) as pool:
                trees = list(pool.map(_parse_one, [s.segments for s in streams]))
        else:
            parse = methods.parser_for(args.method, heads, constrained, joiner)
            trees = [parse(s.segments) for s in streams]
    docs = [
        jsonio.Document(doc_id=stream.doc_id, source="", tree=tree)
        for stream, tree in zip(streams, trees)
    ]
    jsonio.write_corpus(args.out, docs)
    log.info("predicted %d documents -> %s", len(docs), args.out)
    return [args.segments], [args.out]


def cmd_evaluate(args):
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
        jsonio.write_json(args.out, total.to_dict())
    return [args.gold, args.pred], [args.out] if args.out else []


def _check_one(doc: jsonio.Document, segments: list[Segment], joiner: str) -> str | None:
    try:
        actions = engine.oracle_actions(doc.tree)
        rebuilt = engine.replay_actions(actions, segments, joiner)
    except engine.OracleError as exc:
        return f"oracle failed: {exc}"
    except Exception as exc:  # noqa: BLE001 - reported as a counterexample
        return f"replay failed: {exc}"
    if rebuilt != doc.tree:
        return "replayed tree differs from gold"
    return None


def cmd_oracle_check(args):
    joiner = JOINERS[args.joiner]
    pairs = _load_gold_with_segments(args.corpus, args.segments, joiner)
    for doc, segments in pairs:
        problem = _check_one(doc, segments, joiner)
        if problem is not None:
            raise RoundTripFailure(f"{doc.doc_id}: {problem}")
    print(f"oracle round-trip holds for all {len(pairs)} documents")
    return [p for p in (args.corpus, args.segments) if p], []


def cmd_stats(args):
    docs = jsonio.read_corpus(args.corpus)
    rows = corpus.corpus_stats(docs)
    print(corpus.format_stats(rows))
    if args.out:
        jsonio.write_json(args.out, [dataclasses.asdict(r) for r in rows])
    return [args.corpus], [args.out] if args.out else []


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        inputs, outputs, *extra = args.func(args)
        if outputs:
            write_manifest(args.command, _config_snapshot(args), inputs, outputs, started, *extra)
        return 0
    except RoundTripFailure as exc:
        print(f"round-trip failed for {exc}", file=sys.stderr)
        return 1
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
        print(f"no transition sequence rebuilds a gold tree: {exc}", file=sys.stderr)
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
