"""Benchmark catparse on one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload predict --seed 1 --seconds 10 --trace 0

Run it from the repository root: it measures the catparse package under
``src/`` there. Workloads: ``pilot``, ``predict``, ``longdoc``, ``bridge``
(see README.md). Each run

1. prepares the workload's inputs from ``--seed`` in a process of its own
   (``pilot`` makes its corpus during set-up instead);
2. with ``--trace 0``, launches the workload process twice only up to its
   first timed command, to take the median set-up time of three launches;
3. launches it once more to run whole rounds of commands for ``--seconds``
   seconds, and with ``--trace 1`` one more round with every layer traced;
4. checks the outputs (``checks.py``) and prints
   ``{"correct", "attempted", "failed", "metrics"}`` as the last line: the
   end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
   per-layer metrics with ``--trace 1``.

Files of the last run of each workload stay under ``perfbench/runs/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("pilot", "predict", "longdoc", "bridge")
SETUP_LAUNCHES = 3
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread: numpy's OpenBLAS otherwise starts one per core.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def end_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_child(argv: list[str], env: dict, log: Path, deadline: float, stamp: bool = False) -> None:
    """Run one child process to its end within the run's deadline.

    With ``stamp``, the child receives its launch time as its last argument.
    """
    with open(log, "ab") as sink:
        if stamp:
            argv = argv + [repr(time.monotonic())]
        proc = subprocess.Popen(
            argv, env=env, cwd=Path.cwd(), stdout=sink, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            end_group(proc.pid)
    if code != 0:
        raise BenchError(f"{Path(argv[1]).name} ended with {code}; see {log}")


def launch_workload(args, out: Path, env: dict, deadline: float, setup_only: bool, tag: str) -> dict:
    result = out / f"result-{tag}.json"
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace) and not setup_only,
        "setup_only": setup_only,
        "dir": str(out),
        "result": str(result),
    }
    spec_path = out / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec))
    argv = [sys.executable, str(BENCH / "workload.py"), str(spec_path)]
    run_child(argv, env, out / "workload.log", deadline, stamp=True)
    return json.loads(result.read_text())


def fold_segments(argv: list[str]) -> int:
    from catparse import jsonio

    path = argv[argv.index("--segments") + 1]
    return sum(len(stream.segments) for stream in jsonio.read_streams(path))


def round_figures(args, out: Path, rounds: list[list]) -> dict[str, float]:
    """Medians over the untraced rounds of one run."""
    import inputs

    ops = dict(inputs.commands(args.workload, args.seed, out))  # one entry per label
    segments = {label: fold_segments(argv) for label, argv in ops.items() if label.startswith("predict")}
    examples = {
        label: inputs.training_examples(label.split(":")[1], out) * inputs.PILOT["epochs"]
        for label in ops if label.startswith("train")
    }
    walls, predict_rates, train_rates = [], [], []
    for record in rounds:
        walls.append(sum(seconds for _, seconds, _ in record))
        done = [(label, seconds) for label, seconds, code in record if code == 0]
        predicted = [(segments[label], seconds) for label, seconds in done if label in segments]
        trained = [(examples[label], seconds) for label, seconds in done if label in examples]
        for rates, work in ((predict_rates, predicted), (train_rates, trained)):
            if work:
                rates.append(sum(n for n, _ in work) / sum(t for _, t in work))
    return {
        "wall_s": statistics.median(walls),
        "segments_per_s": statistics.median(predict_rates) if predict_rates else 0.0,
        # Only pilot trains; elsewhere this per-layer figure reads 0.
        "train_examples_per_s": statistics.median(train_rates) if train_rates else 0.0,
    }


def print_shares(shares: dict[str, float]) -> None:
    print("self time as a share of the traced part of the run:", file=sys.stderr)
    for name, share in sorted(shares.items(), key=lambda item: -item[1]):
        if share >= 0.001:
            print(f"  {name:28s} {share:7.1%}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "catparse" / "__init__.py").is_file():
        raise BenchError(f"no catparse package under {src}; run from the repository root")
    declared = json.loads((root / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(src), str(BENCH)]
    env = child_env(src)
    # The checks below import numpy in this process too.
    os.environ.update({var: env[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})

    out = BENCH / "runs" / (args.workload + ("-trace" if args.trace else ""))
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    if args.workload != "pilot":
        argv = [sys.executable, str(BENCH / "inputs.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--out", str(out)]
        run_child(argv, env, out / "prepare.log", deadline)
    # setup_s is an end-to-end metric, so only untraced runs repeat set-up.
    setups = [
        launch_workload(args, out, env, deadline, True, f"setup{i}")["setup_s"]
        for i in range(0 if args.trace else SETUP_LAUNCHES - 1)
    ]
    main_run = launch_workload(args, out, env, deadline, False, "main")
    setups.append(main_run["setup_s"])

    import checks

    records = list(main_run["rounds"])
    if args.trace:
        records.append(main_run["trace"]["record"])
    attempted = sum(len(record) for record in records)
    failed = sum(code != 0 for record in records for _, _, code in record)
    f1, problems = checks.workload_problems(args.workload, out, main_run["digests"])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"test F1: {json.dumps(f1)}", file=sys.stderr)

    figures = round_figures(args, out, main_run["rounds"])
    if args.trace:
        section = "per_layer"
        measured = dict(main_run["trace"]["metrics"])
        measured["train_examples_per_s"] = figures["train_examples_per_s"]
        print_shares(main_run["trace"]["self_share"])
    else:
        section = "end_to_end"
        measured = {
            "setup_s": statistics.median(setups),
            "wall_s": figures["wall_s"],
            "segments_per_s": figures["segments_per_s"],
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
    missing = [m["name"] for m in declared[section] if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    # Models take 8-38 MB each; the run's other files stay for inspection.
    for path in out.glob("model_*.bin"):
        path.unlink()
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared[section]
        },
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
