#!/usr/bin/env bash
# Check that the working tree's src/ writes the same bytes as revision REV.
#
#   tools/same_bytes.sh REV [SEED...]        (seeds default to 101 102 103)
#
# REV is exported with `git archive`. For each seed, each side's src/
# generates and chunks a train, a dev and a test corpus, and a corpus of
# long documents (depth 3, texts of 1800-2800 characters, every node
# chunked), and chunks the train corpus once more with the space joiner;
# trains the three methods for 2 epochs, and transition once more with
# class weights and --lr 0.02, as the benchmark's longdoc inputs are
# trained; predicts the test fold with each model under --jobs 1
# (transition also with --unconstrained), and once more with the default
# --jobs and with --jobs 3; and evaluates the --jobs 1 predictions of the
# three methods and of the class-weighted transition model. Each side's
# default and --jobs 3 predictions are compared with `cmp` against its own
# --jobs 1 ones, so `tools/same_bytes.sh HEAD` checks that much of a change
# that alters outputs on purpose, and the cross-side comparison below pits
# the working tree's default against REV's. A table of each method's
# test-fold overall F1, REV's next to the working tree's, is printed per
# seed; a change that alters outputs on purpose reports its F1 with it. Every output but the
# manifests is then compared with its twin from REV with `cmp`, and each
# train manifest's "extra" record (dev F1 per epoch, best epoch) with its
# twin. Exits 0 when all agree, 1 naming the first difference, 2 when a
# command fails.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: tools/same_bytes.sh REV [SEED...]" >&2
    exit 2
fi
rev=$1
shift
[ $# -gt 0 ] || set -- 101 102 103

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive "$rev" src | tar -x -C "$work/base"

catparse() {  # run with $src, appending its output to $log
    if ! PYTHONPATH="$src" python3 -m catparse "$@" >>"$log" 2>&1; then
        echo "same_bytes: catparse $1 failed under $src:" >&2
        tail -n 3 "$log" >&2
        exit 2
    fi
}

run_side() {  # run_side SRC OUT SEED
    local src=$1 out=$2 seed=$3 log=$2.log
    mkdir -p "$out"
    local k=0 fold count method
    for fold in train:40 dev:10 test:10; do
        count=${fold#*:} fold=${fold%:*} k=$((k + 1))
        catparse generate --out "$out/docs_$fold.jsonl" --count "$count" --source "$fold" \
            --seed $((seed * 10 + k))
        catparse chunk --corpus "$out/docs_$fold.jsonl" --segments-out "$out/segs_$fold.jsonl" \
            --gold-out "$out/gold_$fold.jsonl" --seed "$seed"
    done
    catparse generate --out "$out/docs_long.jsonl" --count 6 --source long --seed "$seed" \
        --depth 3 3 --text-len 1800 2800
    catparse chunk --corpus "$out/docs_long.jsonl" --segments-out "$out/segs_long.jsonl" \
        --gold-out "$out/gold_long.jsonl" --chunk-p 1.0 --seed "$seed"
    catparse chunk --corpus "$out/docs_train.jsonl" --joiner space --seed "$seed" \
        --segments-out "$out/segs_train_space.jsonl" --gold-out "$out/gold_train_space.jsonl"
    for method in transition pipeline tagging; do
        catparse train --method "$method" --epochs 2 --seed "$seed" \
            --train "$out/gold_train.jsonl" --train-segments "$out/segs_train.jsonl" \
            --dev "$out/gold_dev.jsonl" --dev-segments "$out/segs_dev.jsonl" \
            --model-out "$out/model_$method.bin"
        catparse predict --method "$method" --segments "$out/segs_test.jsonl" --jobs 1 \
            --scorer "linear:$out/model_$method.bin" --out "$out/pred_$method.jsonl"
        catparse evaluate --gold "$out/gold_test.jsonl" --pred "$out/pred_$method.jsonl" \
            --out "$out/report_$method.json"
        for jobs in default 3; do
            catparse predict --method "$method" --segments "$out/segs_test.jsonl" \
                --scorer "linear:$out/model_$method.bin" --out "$out/pred_${method}_$jobs.jsonl" \
                $([ "$jobs" = default ] || echo --jobs "$jobs")
            if ! cmp -s "$out/pred_${method}_$jobs.jsonl" "$out/pred_$method.jsonl"; then
                echo "same_bytes: $method under --jobs $jobs predicts other bytes than" \
                    "--jobs 1 under $src at seed $seed" >&2
                exit 1
            fi
        done
    done
    catparse predict --unconstrained --segments "$out/segs_test.jsonl" --jobs 1 \
        --scorer "linear:$out/model_transition.bin" --out "$out/pred_unconstrained.jsonl"
    catparse train --method transition --epochs 2 --seed "$seed" --class-weights --lr 0.02 \
        --train "$out/gold_train.jsonl" --train-segments "$out/segs_train.jsonl" \
        --dev "$out/gold_dev.jsonl" --dev-segments "$out/segs_dev.jsonl" \
        --model-out "$out/model_weighted.bin"
    catparse predict --segments "$out/segs_test.jsonl" --jobs 1 \
        --scorer "linear:$out/model_weighted.bin" --out "$out/pred_weighted.jsonl"
    catparse evaluate --gold "$out/gold_test.jsonl" --pred "$out/pred_weighted.jsonl" \
        --out "$out/report_weighted.json"
}

differ() {
    echo "same_bytes: $1 differs from $rev at seed $seed" >&2
    exit 1
}

for seed in "$@"; do
    run_side "$work/base/src" "$work/base-$seed" "$seed"
    run_side "$root/src" "$work/head-$seed" "$seed"
    echo "seed $seed: test-fold overall F1, $rev → working tree"
    python3 -c 'import json, sys
for method in ("transition", "pipeline", "tagging", "weighted"):
    a, b = (json.load(open(f"{d}/report_{method}.json"))["overall"]["f1"] for d in sys.argv[1:])
    print(f"  {method}: {a:.4f} → {b:.4f}")' "$work/base-$seed" "$work/head-$seed"
    diff -q <(ls "$work/base-$seed") <(ls "$work/head-$seed") >/dev/null || differ "the file list"
    for file in "$work/base-$seed"/*; do
        name=${file##*/}
        case $name in
        model_*.bin.manifest.json)
            python3 -c 'import json, sys
a, b = (json.load(open(p))["extra"] for p in sys.argv[1:])
sys.exit(a != b)' "$file" "$work/head-$seed/$name" || differ "the \"extra\" record of $name"
            ;;
        *.manifest.json) ;;
        *) cmp -s "$file" "$work/head-$seed/$name" || differ "$name" ;;
        esac
    done
    echo "seed $seed: $(ls "$work/head-$seed" | grep -vc manifest) outputs the same bytes"
done
