"""Workload inputs, made from a seed with the code under test.

Every workload draws its documents from ``corpus.generate_corpus`` and
``corpus.chunk_corpus``. Document sizes vary a lot (a few to several hundred
segments each), so each set of documents is filled to a segment budget
instead of a document count: that keeps the amount of work nearly the same
from seed to seed, which is what makes run-to-run figures comparable.

Run as a script, this module prepares the inputs of the ``predict``,
``longdoc`` and ``bridge`` workloads in a process of its own, so that the
workload process measures only the workload:

    python3 perfbench/inputs.py --workload predict --seed 1 --out DIR

``pilot`` makes its corpus inside the workload process instead, as part of
its set-up.
"""
from __future__ import annotations

import argparse
import shlex
import sys
from pathlib import Path

from catparse import baselines, cli, corpus, engine, jsonio

# ``pilot``: generate a pool, chunk it (p 0.5), split it 8:1:1 and fill
# each fold to its segment budget. The F1 ordering check needs a test fold
# of about a thousand segments, so the pool is larger than training needs.
#
# Each round trains once, then predicts and evaluates the test fold with
# every method ``passes`` times: the three predict commands of one pass take
# about 2.5 s, too short a window on a shared machine for a steady
# ``segments_per_s``. Every pass rewrites the same outputs.
PILOT = {"pool": 400, "train": 2600, "dev": 260, "test": 1200, "epochs": 4, "passes": 3}

# Documents and budgets of the workloads whose inputs are prepared ahead.
# Each fold is (documents generated, segment budget), and the folds come from
# disjoint slices of one pool. ``train``/``dev`` feed the ``catparse train``
# run that builds the model; ``eval`` is what the timed ``catparse predict``
# commands parse. ``bridge`` needs no model (its scorer is a rule) and adds
# long-chain documents to its ``eval`` fold.
#
# How fast ``longdoc`` decodes depends on how long the model lets chains
# grow. When a paragraph may be followed by another paragraph, a piece that
# happens to end at a sentence end looks the same whether the paragraph goes
# on or not, and small models resolve that differently from seed to seed
# (decode cost from 0.8x to 2x the gold chains). In ``LONG_DOCS`` every
# paragraph is followed by a numbered heading, so the models rebuild the
# gold chains and the work depends on the documents alone.
STANDARD_DOCS = {
    "depth": (2, 5), "numbered": 0.85, "texts": (1, 3), "text_len": (60, 200), "chunk_p": 0.5,
}
LONG_DOCS = {
    "depth": (3, 3), "numbered": 1.0, "texts": (1, 1), "text_len": (1800, 2800), "chunk_p": 1.0,
}

WORKLOADS = {
    "predict": {
        "docs": STANDARD_DOCS,
        "eval": (130, 4500),
        "train": (45, 1200),
        "dev": (15, 150),
        "epochs": 2,
        "train_flags": [],
    },
    "longdoc": {
        "docs": LONG_DOCS,
        "eval": (30, 1500),
        "train": (12, 700),
        "dev": (8, 200),
        "epochs": 2,
        "train_flags": ["--class-weights", "--lr", "0.02"],
    },
    "bridge": {
        "docs": STANDARD_DOCS,
        "eval": (180, 6000),
        "long_eval": (30, 2000),
    },
}
BRIDGE_CHILD = Path(__file__).resolve().parent / "rule_scorer.py"


def fill(pairs: list, budget: int) -> list:
    """Keep (gold, stream) pairs in order while their segments fit the budget."""
    chosen, total = [], 0
    for gold, stream in pairs:
        size = len(stream.segments)
        if total + size <= budget:
            chosen.append((gold, stream))
            total += size
    return chosen


def make_pairs(seed: int, count: int, docs: dict, source: str = "synthetic") -> list:
    """Generate ``count`` documents and chunk them; returns (gold, stream) pairs."""
    generated = corpus.generate_corpus(
        corpus.GenConfig(
            doc_count=count,
            seed=seed,
            depth_range=docs["depth"],
            numbered_fraction=docs["numbered"],
            texts_per_heading=docs["texts"],
            text_length_range=docs["text_len"],
        ),
        source=source,
    )
    streams, gold = corpus.chunk_corpus(
        generated, corpus.ChunkConfig(chunk_probability=docs["chunk_p"], seed=seed)
    )
    return list(zip(gold, streams))


def write_fold(out: Path, name: str, pairs: list) -> None:
    jsonio.write_corpus(out / f"gold_{name}.jsonl", [gold for gold, _ in pairs])
    jsonio.write_streams(out / f"segs_{name}.jsonl", [stream for _, stream in pairs])


def write_pilot_corpus(seed: int, out: Path) -> None:
    """generate -> chunk (p 0.5) -> split 8:1:1 -> fill each fold -> write."""
    pairs = make_pairs(seed, PILOT["pool"], STANDARD_DOCS)
    by_id = {gold.doc_id: (gold, stream) for gold, stream in pairs}
    folds = corpus.split_corpus([gold for gold, _ in pairs], (8, 1, 1), seed)
    for name, fold in zip(("train", "dev", "test"), folds):
        write_fold(out, name, fill([by_id[doc.doc_id] for doc in fold], PILOT[name]))


def train_argv(out: Path, method: str, epochs: int, seed: int, extra=()) -> list[str]:
    return [
        "train",
        "--train", str(out / "gold_train.jsonl"),
        "--train-segments", str(out / "segs_train.jsonl"),
        "--dev", str(out / "gold_dev.jsonl"),
        "--dev-segments", str(out / "segs_dev.jsonl"),
        "--model-out", str(out / f"model_{method}.bin"),
        "--method", method,
        "--epochs", str(epochs),
        "--seed", str(seed),
        *extra,
    ]


def predict_argv(out: Path, method: str, scorer: str, fold: str) -> list[str]:
    return [
        "predict",
        "--segments", str(out / f"segs_{fold}.jsonl"),
        "--scorer", scorer,
        "--method", method,
        "--out", str(out / f"pred_{method}.jsonl"),
    ]


def commands(workload: str, seed: int, out: Path) -> list[tuple[str, list[str]]]:
    """The timed commands of one round, as ("operation:method", catparse argv)."""
    if workload == "pilot":
        methods = ("transition", "pipeline", "tagging")
        ops = [(f"train:{m}", train_argv(out, m, PILOT["epochs"], seed)) for m in methods]
        test = []
        for m in methods:
            scorer = f"linear:{out / f'model_{m}.bin'}"
            test.append((f"predict:{m}", predict_argv(out, m, scorer, "test")))
        for m in methods:
            test.append(
                (
                    f"evaluate:{m}",
                    [
                        "evaluate",
                        "--gold", str(out / "gold_test.jsonl"),
                        "--pred", str(out / f"pred_{m}.jsonl"),
                        "--out", str(out / f"report_{m}.json"),
                    ],
                )
            )
        return ops + test * PILOT["passes"]
    if workload == "bridge":
        scorer = f"bridge:{shlex.join([sys.executable, str(BRIDGE_CHILD)])}"
    else:
        scorer = f"linear:{out / 'model_transition.bin'}"
    return [("predict:transition", predict_argv(out, "transition", scorer, "eval"))]


def prepare(workload: str, seed: int, out: Path) -> None:
    """Write the inputs of a prepared workload and train its linear model."""
    spec = WORKLOADS[workload]
    folds = [fold for fold in ("eval", "train", "dev") if fold in spec]
    pairs = make_pairs(seed, sum(spec[f][0] for f in folds), spec["docs"])
    start = 0
    for fold in folds:
        count, budget = spec[fold]
        chosen = fill(pairs[start : start + count], budget)
        start += count
        if fold == "eval" and "long_eval" in spec:
            long_count, long_budget = spec["long_eval"]
            chosen += fill(make_pairs(seed, long_count, LONG_DOCS, source="long"), long_budget)
        write_fold(out, fold, chosen)
    if "train" in spec:
        code = cli.main(train_argv(out, "transition", spec["epochs"], seed, spec["train_flags"]))
        if code != 0:
            raise SystemExit(f"catparse train exited with {code} while preparing {workload}")


def training_examples(method: str, out: Path) -> int:
    """Examples one epoch of ``catparse train --method`` fits, counted independently."""
    golds = jsonio.read_corpus(out / "gold_train.jsonl")
    streams = {s.doc_id: s.segments for s in jsonio.read_streams(out / "segs_train.jsonl")}
    total = 0
    for doc in golds:
        segments = streams[doc.doc_id]
        if method == "transition":
            total += len(engine.oracle_examples(doc.tree, segments))
        elif method == "pipeline":
            pairs, levels = baselines.pipeline_examples(
                doc.tree, segments, baselines.DEFAULT_MAX_DEPTH
            )
            total += len(pairs) + len(levels)
        else:
            total += len(
                baselines.tagging_examples(doc.tree, segments, baselines.DEFAULT_MAX_DEPTH)
            )
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    prepare(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
