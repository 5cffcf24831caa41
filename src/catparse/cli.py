"""Command-line surface.

Subcommands: generate, chunk, train, predict, evaluate, oracle-check,
stats. They read and write the JSON-lines formats described in
``jsonio``. Each ``cmd_*`` returns the paths it read and wrote, as
``(inputs, outputs)``, ``train`` also its ``extra`` record; ``main``
times the command and writes its manifest next to the first output, so
a run that wrote no file gets none. A gold document is usable when its
gold actions rebuild it from its stream, ``_check_one``.

``predict`` cuts the documents into one contiguous share per worker
(``--jobs``, by default the CPUs the process may run on), balanced by
segment count. The parent forks a worker for every share but the first
before it opens a scorer, so the workers inherit the heads and no
other share's bridge pipes. It parses the first share itself, writing
its lines to a temporary file beside ``--out``; each worker sends back
its share's JSON lines, which the parent copies in input order before
it renames the file. The first failure in any share stops the others
and is raised in the parent (POSIX only, as the bridge is).

Exit codes: 0 success, 1 I/O, scorer bridge, model file, option or
check failure (``oracle-check``), or a ``predict`` worker that died, 2
schema violation (a stream that does not match its gold tree, too deep
a tree), a training or dev document that fails ``_check_one`` (named
with its fold, whatever the method), or an empty dev or gold corpus, 3
training failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import logging
import os
import pickle
import select
import shutil
import signal
import sys
import time
from contextlib import ExitStack, closing, contextmanager

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
    # each default has one home: the config dataclass the command fills
    gen, chunk, train = corpus.GenConfig(), corpus.ChunkConfig(), scoring.TrainConfig()

    p = sub.add_parser("generate", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=gen.doc_count)
    p.add_argument("--depth", type=int, nargs=2, default=gen.depth_range, metavar=("LO", "HI"))
    p.add_argument(
        "--children", type=int, nargs=2, default=gen.children_range, metavar=("LO", "HI")
    )
    p.add_argument("--numbered-frac", type=float, default=gen.numbered_fraction)
    p.add_argument(
        "--text-len", type=int, nargs=2, default=gen.text_length_range, metavar=("LO", "HI")
    )
    p.add_argument("--source", default="synthetic")
    p.add_argument("--seed", type=int, default=gen.seed)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("chunk", help="simulate OCR over-segmentation")
    p.add_argument("--corpus", required=True)
    p.add_argument("--segments-out", required=True)
    p.add_argument("--gold-out", required=True)
    p.add_argument("--chunk-p", type=float, default=chunk.chunk_probability)
    p.add_argument(
        "--heading-range", type=int, nargs=2, default=chunk.heading_piece_range,
        metavar=("LO", "HI"),
    )
    p.add_argument(
        "--text-range", type=int, nargs=2, default=chunk.text_piece_range, metavar=("LO", "HI")
    )
    p.add_argument("--seed", type=int, default=chunk.seed)
    _add_joiner(p)
    p.set_defaults(func=cmd_chunk)

    p = sub.add_parser("train", help="train a scorer from gold trees")
    p.add_argument("--train", required=True, help="gold corpus (JSON lines)")
    p.add_argument("--train-segments", help="segment stream for the train corpus")
    p.add_argument("--dev", required=True, help="gold corpus used for epoch selection")
    p.add_argument("--dev-segments", help="segment stream for the dev corpus")
    p.add_argument("--model-out", required=True)
    p.add_argument("--method", choices=methods.METHODS, default="transition")
    p.add_argument("--lr", type=float, default=train.learning_rate)
    p.add_argument("--epochs", type=int, default=train.epochs)
    p.add_argument("--batch-size", type=int, default=train.batch_size)
    p.add_argument("--weight-decay", type=float, default=train.weight_decay)
    p.add_argument("--subsample", type=int, help="train on N documents only")
    p.add_argument("--max-depth", type=int, help="baseline label budget (pipeline, tagging)")
    p.add_argument("--class-weights", action="store_true")
    p.add_argument("--dump-actions", help="write gold action records here")
    p.add_argument("--seed", type=int, default=train.seed)
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
    p.add_argument(
        "--jobs", type=int, help="parallel workers (default: the CPUs this process may use)"
    )
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
    cfg = corpus.ChunkConfig(
        chunk_probability=args.chunk_p,
        heading_piece_range=tuple(args.heading_range),
        text_piece_range=tuple(args.text_range),
        seed=args.seed,
    )
    docs = jsonio.read_corpus(args.corpus)
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

    Without a stream file each tree's own contents give its stream
    (``corpus.segments_of``); chunked corpora need the stream written at
    chunk time, as long as the number of segments its tree owns.
    """
    docs = jsonio.read_corpus(corpus_path)
    if segments_path is None:
        return [(doc, corpus.segments_of(doc.tree, joiner)) for doc in docs]
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
    config = scoring.TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        weight_decay=args.weight_decay,
        seed=args.seed,
        class_weighting=args.class_weights,
    )
    joiner = JOINERS[args.joiner]
    train_pairs = _load_gold_with_segments(args.train, args.train_segments, joiner)
    dev_pairs = _load_gold_with_segments(args.dev, args.dev_segments, joiner)
    train_pairs = _subsample(train_pairs, args.subsample, args.seed)
    if not train_pairs:
        raise EmptyTrainingSet("the training corpus is empty")
    if not dev_pairs:
        raise metrics.EmptyEvaluation(f"the dev corpus {args.dev} is empty")
    for fold, pairs in (("training", train_pairs), ("dev", dev_pairs)):
        for doc, segments in pairs:
            problem = _check_one(doc, segments, joiner)
            if problem is not None:
                raise engine.OracleError(f"{fold} document {doc.doc_id!r}: {problem}")

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
    except FloatingPointError as exc:
        raise TrainingFailure(f"{exc}: --lr {args.lr:g} makes training diverge") from exc
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


def _parse_scorer_spec(spec: str) -> tuple[str, str]:
    kind, _, rest = spec.partition(":")
    if kind not in ("linear", "bridge") or not rest:
        raise ValueError(
            f"scorer must look like linear:MODEL_PATH or bridge:COMMAND, got {spec!r}"
        )
    return kind, rest


def _parse_share(heads, command, method, constrained, joiner, streams):
    """Parse a share of the documents and yield their trees in order.

    With no ``heads`` the share scores through a bridge child of its own,
    started on ``command`` at the first tree and closed, killed if it
    lingers, when the share ends, fails or is closed.
    """
    with ExitStack() as resources:
        if not heads:
            heads = (resources.enter_context(ScorerBridge(command)),)
        parse = methods.parser_for(method, heads, constrained, joiner)
        for stream in streams:
            yield parse(stream.segments)


class WorkerDied(Exception):
    """A ``predict`` worker ended without sending its share."""


class _Stopped(BaseException):
    """Raised in a worker the parent stops, so its share closes its bridge
    child on the way out."""


def _raise_stopped(signum, frame):
    """A worker's SIGTERM handler: unwind the share, unless it is already
    closing its bridge child (its ``ExitStack`` exiting), which a raise
    could cut short and leave running."""
    while frame is not None:
        if frame.f_code is ExitStack.__exit__.__code__:
            return
        frame = frame.f_back
    raise _Stopped


# A worker's message: one tag byte, then its share's JSON lines or its
# pickled exception, up to end-of-file.
_DONE, _FAILED = b"D", b"F"
_BLOCK = 1 << 16


@dataclasses.dataclass
class _Worker:
    pid: int | None
    fd: int | None
    reported: bool = False


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without the call
        return os.cpu_count() or 1


def _shares(streams: list, jobs: int) -> list[list]:
    """Cut ``streams`` into ``jobs`` contiguous shares balanced by segment
    count: share k ends at the first document where the running total
    reaches k/jobs of the whole, holding at least one document and
    leaving one for each later share."""
    sizes = [len(stream.segments) for stream in streams]
    total, running, ends = sum(sizes), 0, [0]
    for i, size in enumerate(sizes[:-1]):
        running += size
        k = len(ends)
        if k < jobs and (running * jobs >= k * total or len(sizes) - i - 1 == jobs - k):
            ends.append(i + 1)
    ends.append(len(streams))
    return [streams[a:b] for a, b in zip(ends, ends[1:])]


def _write_share(handle, parse, share, workers) -> None:
    """Parse ``share`` and write its documents' lines to ``handle``,
    polling ``workers`` after each document."""
    with closing(parse(share)) as trees:
        for stream, tree in zip(share, trees):
            doc = jsonio.Document(doc_id=stream.doc_id, source="", tree=tree)
            jsonio.write_lines(handle, [jsonio.document_to_obj(doc)])
            _poll(workers, 0)


def _work(parse, share, write_fd: int) -> None:
    """Run in a forked worker: parse ``share`` and send the parent its
    JSON lines, or the exception that ended it, then exit through
    ``os._exit``: a worker never returns into its caller, flushes no
    inherited buffer and prints nothing."""
    signal.signal(signal.SIGTERM, _raise_stopped)
    try:
        text = io.StringIO()
        _write_share(text, parse, share, ())
        message, code = _DONE + text.getvalue().encode("utf-8"), 0
    except BaseException as exc:  # noqa: BLE001 - sent to the parent, which raises it
        message, code = _FAILED + pickle.dumps(exc), 1
    with open(write_fd, "wb") as pipe:
        pipe.write(message)
    os._exit(code)


def _fork(parse, share, workers: list[_Worker]) -> _Worker:
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            for worker in workers:
                os.close(worker.fd)
            _work(parse, share, write_fd)
        finally:  # an exception _work could not send, the parent's SIGTERM included
            os._exit(1)
    os.close(write_fd)
    return _Worker(pid, read_fd)


def _reap(worker: _Worker) -> str | None:
    """Wait for ``worker``; None when it exited 0, else how it ended."""
    pid, worker.pid = worker.pid, None
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        return f"worker {pid} was killed by signal {signal.Signals(-code).name}"
    return f"worker {pid} exited with code {code} without sending its share" if code else None


def _poll(workers, timeout: float | None) -> None:
    """Wait up to ``timeout`` seconds (None: until one reports) for the
    workers that have not reported; mark those done, raise the first
    failure."""
    waiting = {worker.fd: worker for worker in workers if not worker.reported}
    if not waiting:
        return
    ready, _, _ = select.select(list(waiting), [], [], timeout)
    for fd in ready:
        worker = waiting[fd]
        tag = os.read(fd, 1)
        if tag == _DONE:
            worker.reported = True
        elif tag == _FAILED:
            with open(fd, "rb", closefd=False) as pipe:
                raise pickle.loads(pipe.read())
        else:
            raise WorkerDied(_reap(worker) or "a worker closed its pipe without sending its share")


def _copy(worker: _Worker, out) -> None:
    """Copy a done worker's lines into the binary ``out`` in blocks."""
    with open(worker.fd, "rb") as pipe:
        shutil.copyfileobj(pipe, out, _BLOCK)
    worker.fd = None
    problem = _reap(worker)
    if problem:
        raise WorkerDied(problem)


def _stop(workers: list[_Worker]) -> None:
    """Stop the workers still running, close their pipes and reap them;
    each closes its share's bridge child as it unwinds."""
    for worker in workers:
        if worker.pid is not None:
            os.kill(worker.pid, signal.SIGTERM)
    for worker in workers:
        if worker.fd is not None:
            os.close(worker.fd)
        if worker.pid is not None:
            _reap(worker)


@contextmanager
def _replacing(path: str):
    """A text file that takes ``path``'s place when the block succeeds
    and is removed when it fails, so a failed run leaves no output."""
    partial = f"{path}.{os.getpid()}.tmp"
    handle = open(partial, "x", encoding="utf-8")
    try:
        with handle:
            yield handle
        os.replace(partial, path)
    except BaseException:
        os.unlink(partial)
        raise


def cmd_predict(args):
    if args.jobs is None:
        args.jobs = _cpus()
    _require_positive("--jobs", args.jobs)
    # options are checked before any worker starts
    kind, rest = _parse_scorer_spec(args.scorer)
    if args.method != "transition" and kind == "bridge":
        raise ValueError(f"method {args.method} requires a linear: scorer")
    if args.method != "transition" and args.unconstrained:
        raise ValueError(f"--unconstrained needs the transition method, not {args.method}")
    joiner = JOINERS[args.joiner]
    streams = jsonio.read_streams(args.segments, joiner)
    # model files too are read and checked before any worker starts
    heads = methods.load_heads(rest, args.method) if kind == "linear" else ()
    parse = functools.partial(
        _parse_share, heads, rest, args.method, not args.unconstrained, joiner
    )
    own, *others = _shares(streams, max(1, min(args.jobs, len(streams))))
    with _replacing(args.out) as handle:
        workers: list[_Worker] = []
        try:
            # every worker forks before the parent opens a scorer, so none
            # inherits another share's bridge pipes
            for share in others:
                workers.append(_fork(parse, share, workers))
            _write_share(handle, parse, own, workers)
            handle.flush()
            for worker in workers:
                while not worker.reported:
                    _poll(workers, None)
                _copy(worker, handle.buffer)
        except BaseException:
            _stop(workers)
            raise
    log.info("predicted %d documents -> %s", len(streams), args.out)
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
    # the replay follows the tree's kinds, nesting and segments: only contents can differ
    for (node, level), (built, _) in zip(iter_nodes(doc.tree), iter_nodes(rebuilt)):
        if built.content != node.content:
            where = f"a {node.kind.value} node at level {level}"
            return f"{where} holds {node.content!r}, its segments joined {built.content!r}"
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    started = time.time()
    try:
        inputs, outputs, *extra = args.func(args)
        if outputs:
            write_manifest(
                args.command, _config_snapshot(args), inputs, outputs, started, argv, *extra
            )
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
    except WorkerDied as exc:
        print(f"predict failed: {exc}", file=sys.stderr)
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
