#!/usr/bin/env sh
# Performance gate: benchmark this tree against its parent commit.
#
#   ./perf_gate.sh
#
# The parent is `git merge-base HEAD main`; on main it is HEAD~1, or HEAD
# itself while the working tree holds uncommitted edits.
# Its tree is extracted with `git archive` into target/perf-base and its
# benchmark built there. Only the workloads whose layers the diff touches
# run:
#
#   crates/sim, crates/workloads          -> sim-flat-1m, sim-dag-faults
#   src/serve, src/cli.rs, src/lib.rs     -> serve-closed-loop, serve-predict-burst
#   crates/core, crates/metrics, compat   -> all four
#
# src/cli.rs and src/lib.rs are compiled into the serve path: the tenant
# layer parses its algorithm names with `cli::parse_algorithm`.
#
# Each runs 5 interleaved parent/change pairs at `--seconds 0` (3
# repetitions a side), and `tora-benchmark compare` judges them by the
# bounds in BENCHMARK.json. A workload with a `regressed` verdict runs 5
# more pairs of the same two binaries, and the gate fails only when
# compare reads `regressed` on those again: one sample of a busy host can
# read a regression on a metric the diff cannot have moved, and a rerun
# reverses it. The gate is skipped when the diff touches no benchmarked
# layer. Budget: 6 minutes for the two simulator workloads on a 2-vCPU
# host (the runs take about 5, the parent's build under 1); a diff that
# reaches all four workloads takes about 10, plus about half the
# workload's share again for each confirmation.

set -eu

if [ "$(git rev-parse --abbrev-ref HEAD)" != main ]; then
    base=$(git merge-base HEAD main)
elif git diff --quiet HEAD --; then
    base=$(git rev-parse HEAD~1)
else
    # Uncommitted edits on main are the change under test; HEAD is their parent.
    base=$(git rev-parse HEAD)
fi

sim=0
serve=0
for f in $(git diff --name-only "$base" --); do
    case "$f" in
    crates/core/* | crates/metrics/* | compat/*) sim=1 serve=1 ;;
    crates/sim/* | crates/workloads/*) sim=1 ;;
    src/serve/* | src/cli.rs | src/lib.rs) serve=1 ;;
    esac
done
workloads=""
[ "$sim" -eq 1 ] && workloads="sim-flat-1m sim-dag-faults"
[ "$serve" -eq 1 ] && workloads="$workloads serve-closed-loop serve-predict-burst"
if [ -z "$workloads" ]; then
    echo "perf gate skipped: the diff against $base touches no benchmarked layer"
    exit 0
fi
echo "perf gate: $(git rev-parse --short "$base") vs this tree on:$workloads"

rm -rf target/perf-base target/perf-gate
mkdir -p target/perf-base target/perf-gate
git archive "$base" | tar -x -C target/perf-base
cargo build --release --offline -q --manifest-path target/perf-base/benchmark/Cargo.toml \
    --target-dir target/perf-base-build
cargo build --release --offline -q --manifest-path benchmark/Cargo.toml \
    --target-dir benchmark/target
parent_bin=target/perf-base-build/release/tora-benchmark
change_bin=benchmark/target/release/tora-benchmark

# One `run` of `workload` on `side`, its run file kept as <side>-<workload>-<k>.json.
run_side() {
    side=$1 workload=$2 k=$3
    if [ "$side" = parent ]; then bin=$parent_bin; else bin=$change_bin; fi
    CARGO_TARGET_DIR="target/perf-gate/$side" "$bin" run --workload "$workload" --seconds 0 \
        > "target/perf-gate/$side-$workload-$k.txt"
    cp "target/perf-gate/$side/benchmark/run-42.json" "target/perf-gate/$side-$workload-$k.json"
}

# Pair `k` of `workload`; each side goes first in alternate pairs.
run_pair() {
    if [ $(($2 % 2)) -eq 1 ]; then
        run_side parent "$1" "$2"
        run_side change "$1" "$2"
    else
        run_side change "$1" "$2"
        run_side parent "$1" "$2"
    fi
}

# `compare` over pairs `$2`..`$2 + 4` of workload `$1`: exit 1 on a
# `regressed` verdict, 2 on an unreadable run file.
compare_pairs() {
    pairs=""
    for k in $(seq "$2" $(($2 + 4))); do
        pairs="$pairs target/perf-gate/parent-$1-$k.json target/perf-gate/change-$1-$k.json"
    done
    # shellcheck disable=SC2086 # the run files are word-split on purpose
    "$change_bin" compare $pairs
}

for k in 1 2 3 4 5; do
    for w in $workloads; do
        run_pair "$w" "$k"
    done
done

status=0
for w in $workloads; do
    verdict=0
    compare_pairs "$w" 1 || verdict=$?
    if [ "$verdict" -eq 1 ]; then
        echo "perf gate: $w read regressed; confirming with 5 more pairs"
        for k in 6 7 8 9 10; do
            run_pair "$w" "$k"
        done
        verdict=0
        compare_pairs "$w" 6 || verdict=$?
    fi
    [ "$verdict" -eq 0 ] || status=1
done
if [ "$status" -ne 0 ]; then
    echo "perf gate FAILED: a metric regressed beyond its BENCHMARK.json bound, twice" >&2
    exit 1
fi
echo "perf gate OK: no regressed verdict"
