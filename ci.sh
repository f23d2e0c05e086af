#!/usr/bin/env sh
# Repository CI gate. Run from the workspace root:
#
#   ./ci.sh          # format check, lints, tier-1 build + full test suite
#
# Everything is offline-safe: dependencies resolve to the in-tree `compat/`
# crates, so no registry access is needed.

set -eu

echo "== module size guard (no .rs file under crates/ over 900 lines) =="
oversized=$(find crates -name '*.rs' -exec wc -l {} \; | awk '$1 > 900 { print }')
if [ -n "$oversized" ]; then
    echo "modules over the 900-line ceiling (split them, see DESIGN.md §5f):" >&2
    echo "$oversized" >&2
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

echo "== tier-1 again with TORA_THREADS=4 (parallel paths, same results) =="
# Thread count is a pure wall-clock knob (DESIGN.md §5h): the whole suite
# must pass identically when the workspace-wide detection is overridden.
TORA_THREADS=4 cargo test -q

echo "== trace byte parity across thread counts =="
# Backfill scheduling batches predictions through the sharded allocator;
# the JSONL event stream must not change with the worker count.
TORA_THREADS=1 cargo run --release --bin tora -- \
    trace colmena-xtb --policy fifo-backfill --out target/trace-t1.jsonl
TORA_THREADS=4 cargo run --release --bin tora -- \
    trace colmena-xtb --policy fifo-backfill --out target/trace-t4.jsonl
cmp target/trace-t1.jsonl target/trace-t4.jsonl

echo "== engine event-stream byte parity across thread counts =="
# The engine's lifecycle events ride the same sink: the `--log` JSONL must
# not change with the worker count either.
TORA_THREADS=1 cargo run --release --bin tora -- \
    simulate colmena-xtb --policy fifo-backfill --log target/events-t1.jsonl > /dev/null
TORA_THREADS=4 cargo run --release --bin tora -- \
    simulate colmena-xtb --policy fifo-backfill --log target/events-t4.jsonl > /dev/null
cmp target/events-t1.jsonl target/events-t4.jsonl

echo "== benchmark package builds and passes its own tests =="
# benchmark/ compiles against the engine's public surface (EventSink,
# AllocEvent, Simulation::with_sink, SimStats); a break there shows up here.
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "== tora experiments all reproduces the committed results/ =="
# Every figure/table artifact is regenerated at seed 42; each deterministic
# file must match its committed copy byte for byte (Table I is wall-clock
# timing, so its log is excluded), and results/ must hold nothing else.
rm -rf target/experiments
cargo run --release --bin tora -- experiments all --out target/experiments > /dev/null
for f in target/experiments/*; do
    name=$(basename "$f")
    [ "$name" = results_table1.log ] && continue
    cmp "results/$name" "$f"
done
[ "$(ls results | wc -l)" -eq "$(ls target/experiments | wc -l)" ] || {
    echo "results/ and a fresh \`tora experiments all\` differ in file count" >&2
    exit 1
}

echo "== tora bench --quick (hot-path smoke) =="
cargo run --release --bin tora -- bench --quick --out target/bench-smoke.json

echo "== scaling smoke: 100k streamed tasks above the throughput floor =="
# The quick bench streams 10k and 100k tasks through the engine
# (crates/bench/src/perf.rs::scaling_curve). A superlinear regression in the
# event queue or the arena shows up here as a collapsed tasks/sec figure long
# before the million-task run would. Floor is ~10× below the measured
# release-mode rate to absorb machine noise.
python3 - <<'EOF'
import json
report = json.load(open("target/bench-smoke.json"))
rows = {r["tasks"]: r["tasks_per_sec"] for r in report["scaling"]}
assert 100_000 in rows, f"scaling curve missing the 100k point: {sorted(rows)}"
floor = 20_000.0
if rows[100_000] < floor:
    raise SystemExit(
        f"100k-task streaming throughput {rows[100_000]:.0f} tasks/sec "
        f"is under the {floor:.0f} floor -- engine scaling regressed"
    )
assert report["threads_detected"] >= 1
assert report["threads_used"] >= 1
assert report["matrix"]["identical"], "sequential vs parallel matrix runs differ"
rp = report["rebucket_parallel"]
assert rp, "rebucket_parallel section missing from the bench report"
for row in rp:
    assert row["identical"], f"serial vs sharded rebucket differ at {row['records']}"
sl = report["serve_latency"]
assert sl, "serve_latency section missing from the bench report"
for row in sl:
    assert row["records"] == 10_000, f"serve latency must be measured at 10k records: {row}"
    if row["p99_us"] >= 1000.0:
        raise SystemExit(
            f"serve prediction p99 {row['p99_us']:.1f} us at batch {row['batch']} "
            f"breaks the sub-millisecond budget -- the serve hot path regressed"
        )
fig = report["fig_dag"]
assert fig, "fig_dag section missing from the bench report"
for row in fig:
    assert row["longest_path_s"] > 0.0, f"empty critical path: {row}"
by_algo = {}
for row in fig:
    by_algo.setdefault(row["algorithm"], {})[row["scenario"]] = row
for algo, rows_ in by_algo.items():
    on = rows_["on-path"]["makespan_vs_baseline"]
    off = rows_["off-path"]["makespan_vs_baseline"]
    if not on > off:
        raise SystemExit(
            f"fig_dag: {algo} on-path slowdown {on:.3f} must exceed off-path "
            f"{off:.3f} -- critical-path sensitivity inverted"
        )
learned = report["fig_learned"]
assert learned, "fig_learned section missing from the bench report"
awe = {row["algorithm"]: row["memory_awe"] for row in learned}
assert "greedy-bucketing" in awe and "feature-binned" in awe, sorted(awe)
if not awe["feature-binned"] > awe["greedy-bucketing"]:
    raise SystemExit(
        f"fig_learned: feature-binned memory AWE {awe['feature-binned']:.4f} must "
        f"strictly exceed greedy-bucketing {awe['greedy-bucketing']:.4f} -- "
        f"feature conditioning stopped paying for itself"
    )
print(f"scaling ok: 100k tasks at {rows[100_000]:.0f} tasks/sec "
      f"({report['threads_detected']} detected / {report['threads_used']} used); "
      f"serve p99 " + ", ".join(f"{r['p99_us']:.0f}us@batch{r['batch']}" for r in sl) + "; "
      f"fig_dag on>off-path holds for {len(by_algo)} algorithms; "
      f"fig_learned feature-binned {awe['feature-binned']:.4f} > "
      f"greedy {awe['greedy-bucketing']:.4f}")
EOF

echo "== tora serve smoke (protocol + snapshot/restore byte parity) =="
# A fixed conversation is answered twice (must be byte-identical), then
# replayed across a kill: head of the conversation + Snapshot in one daemon
# life, --restore + tail in a second. The second life's responses must be
# byte-identical to the corresponding tail of the uninterrupted transcript.
mkdir -p target/serve-smoke
head_req=target/serve-smoke/head.jsonl
tail_req=target/serve-smoke/tail.jsonl
cat > "$head_req" <<'EOF'
{"Open":{"tenant":"wf","algorithm":"greedy-bucketing","seed":7}}
{"Workload":{"tenant":"wf","workflow":"bimodal","tasks":12,"seed":3}}
{"Complete":{"tenant":"wf","task":0,"cores":0.9,"memory_mb":480.0,"disk_mb":120.0,"duration_s":6.0}}
{"Complete":{"tenant":"wf","task":1,"cores":1.1,"memory_mb":512.0,"disk_mb":140.0,"duration_s":8.0}}
EOF
cat > "$tail_req" <<'EOF'
{"Fault":{"tenant":"wf","task":2,"kind":"exhaustion","exhausted":["memory"]}}
{"Predict":{"tenant":"wf","categories":[0,1]}}
{"Stats":{}}
{"Shutdown":{}}
EOF
cat "$head_req" "$tail_req" > target/serve-smoke/all.jsonl
serve="cargo run --release --bin tora -- serve --workers 20 --threads 1"
$serve < target/serve-smoke/all.jsonl > target/serve-smoke/ref-a.jsonl
$serve < target/serve-smoke/all.jsonl > target/serve-smoke/ref-b.jsonl
cmp target/serve-smoke/ref-a.jsonl target/serve-smoke/ref-b.jsonl
snap=target/serve-smoke/daemon.json
{ cat "$head_req"; printf '{"Snapshot":{"path":"%s"}}\n' "$snap"; } | $serve > /dev/null
cargo run --release --bin tora -- serve --workers 20 --threads 1 --restore "$snap" \
    < "$tail_req" > target/serve-smoke/resumed.jsonl
tail -n "$(wc -l < "$tail_req")" target/serve-smoke/ref-a.jsonl \
    > target/serve-smoke/ref-tail.jsonl
cmp target/serve-smoke/ref-tail.jsonl target/serve-smoke/resumed.jsonl
echo "serve smoke OK: byte-identical transcripts, kill/restore resumed exactly"

echo "== serve protocol suite (golden transcripts, isolation, restore) =="
cargo test -q --test serve_protocol

echo "== tora chaos --quick (fault-injection smoke) =="
cargo run --release --bin tora -- chaos --quick

echo "== tora chaos --quick --salvage 0.5 (checkpoint/restart smoke) =="
cargo run --release --bin tora -- chaos --quick --salvage 0.5 > target/chaos-salvage.txt
grep -q "salvaged work" target/chaos-salvage.txt

echo "== chaos smoke for the feature-conditioned comparators =="
# The new algorithms must survive heavy faults with the feedback channel
# (per-category windows + rack crash scores) armed, reproducibly — the
# --quick mode runs everything twice and fails on any byte difference.
cargo run --release --bin tora -- chaos --quick --algorithm feature-binned --feedback
cargo run --release --bin tora -- chaos --quick --algorithm semi-bandit --feedback

echo "== chaos DAG smoke (depth-dominated pipeline, critical-path rows) =="
# A generated 40-deep pipeline is pure critical path: the report must carry
# the submit-time and realized critical-path rows with non-zero figures.
cargo run --release --bin tora -- \
    chaos bimodal --shape pipeline --depth 40 --seed 7 --plan light \
    --out target/chaos-dag.json > target/chaos-dag.txt
grep -q "critical path (submit)" target/chaos-dag.txt
grep -q "critical path (realized)" target/chaos-dag.txt
grep -q "waste on / off path" target/chaos-dag.txt
python3 - <<'EOF'
import json
report = json.load(open("target/chaos-dag.json"))
cp = report["critical_path"]
assert cp, "critical_path section missing from the DAG chaos report"
assert cp["longest_path_s"] > 0.0, cp
assert cp["longest_path_tasks"] == 40, cp
assert cp["realized_s"] >= cp["longest_path_s"], cp
assert cp["inflation"] >= 1.0, cp
print(f"chaos DAG ok: 40-task path, submit {cp['longest_path_s']:.0f}s, "
      f"realized {cp['realized_s']:.0f}s ({cp['inflation']:.2f}x)")
EOF

echo "== differential: engine vs analytic replay (byte parity) =="
cargo test -q --test differential

echo "== golden chaos reports (byte-stable across runs) =="
cargo test -q --test golden_chaos

echo "== proptest regression seeds are checked in =="
# A failing property test writes its seed to *.proptest-regressions; that
# seed must be committed so the failure replays everywhere, not just here.
dirty=$(git status --porcelain -- '*.proptest-regressions')
if [ -n "$dirty" ]; then
    echo "uncommitted proptest regression seeds:" >&2
    echo "$dirty" >&2
    exit 1
fi

echo "CI green."
