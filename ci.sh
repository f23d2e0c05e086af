#!/usr/bin/env sh
# Repository CI gate. Run from the workspace root:
#
#   ./ci.sh          # format check, lints, release build + every workspace test
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

echo "== doc references resolve (README, DESIGN, EXPERIMENTS) =="
# Every backticked `path.rs` or `path.rs:N` must name an existing file (a
# path suffix, so `engine/queue.rs` finds crates/sim/src/engine/queue.rs)
# with at least N lines, and every `tora-<crate>::<module>` (or
# `tora-<crate>::{a,b}`) must name <crate dir>/src/<module>.rs or
# <module>/mod.rs. ROADMAP.md is left out: its history names deleted files.
python3 - <<'EOF'
import os, re, sys
files = []
for dp, dn, fn in os.walk("."):
    dn[:] = [d for d in dn if d not in ("target", ".git")]
    files += [os.path.join(dp, f)[2:] for f in fn if f.endswith(".rs")]
crates = {}
for d in os.listdir("crates"):
    m = re.search(r'^name = "([^"]+)"', open(f"crates/{d}/Cargo.toml").read(), re.M)
    crates[m.group(1)] = f"crates/{d}/src"
bad = []
for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"]:
    for ref in re.findall(r"`([^`\s]+)`", open(doc).read()):
        m = re.fullmatch(r"([\w./-]+\.rs)(?::(\d+))?", ref)
        if m:
            path, lines = m.group(1), int(m.group(2) or 0)
            hits = [f for f in files if f == path or f.endswith("/" + path)]
            if not any(sum(1 for _ in open(f)) >= lines for f in hits):
                bad.append(f"{doc}: `{ref}` names no such file")
        m = re.match(r"(tora-[a-z]+)::(?:\{([\w, ]+)\}|([a-z_][a-z0-9_]*))", ref)
        if m and m.group(1) in crates:
            src = crates[m.group(1)]
            for module in (m.group(2) or m.group(3)).split(","):
                module = module.strip()
                if not any(os.path.isfile(f"{src}/{p}") for p in (f"{module}.rs", f"{module}/mod.rs")):
                    bad.append(f"{doc}: `{ref}` names no module {src}/{module}.rs")
if bad:
    sys.exit("unresolved doc references:\n" + "\n".join(bad))
print("doc references ok")
EOF

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, -D warnings: every intra-doc link resolves) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo build --release && cargo test --workspace -q =="
# --workspace: a bare `cargo test` at the root runs only the `tora` package,
# not the allocator, engine, fault or experiment unit tests in crates/. This
# one run covers every integration test too (serve_protocol, differential,
# golden_chaos, cli), and the experiments pool's 1- and 4-worker identity
# tests run in-process.
cargo build --release
cargo test --workspace -q

echo "== bit-identity checks on release code =="
# The greedy break scan's chunked cost loop is vectorized only in optimized
# builds, so its bit-for-bit comparisons with the scalar scan (greedy.rs unit
# tests) and the fast-vs-faithful properties run again on release code.
cargo test --release -q -p tora-alloc
cargo test --release -q --test property_based

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

echo "== tora-benchmark: every workload, output checks, two performance floors, one memory ceiling =="
# Three repetitions per workload (--seconds 0). The run exits non-zero on any
# failed output check: conservation, zero Error responses, snapshot/restore
# identity and the seed-42 digests pinned in benchmark/baseline.json. The
# floors sit well below the medians measured on a 2-vCPU container
# (sim-flat-1m ~175k tasks/s, serve-predict-burst p99 ~95 us), to absorb
# machine noise. The sim-flat-1m peak-RSS ceiling sits between the ~96 MB
# the run peaks at with completed tasks' rows retired (what remains is
# mostly the estimators' record bank) and the ~301 MB it peaked at while
# the engine kept a row for every task it ever pulled; repetitions spread
# by under 0.5 MB, so crossing it means per-task state grew back.
cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
    run --seconds 0 > target/benchmark-smoke.txt
python3 - <<'EOF'
import json
lines = open("target/benchmark-smoke.txt").read().splitlines()
result = json.loads(lines[-1])
assert result["correct"] is True, "a benchmark output check failed"
assert result["failed"] == 0, f"{result['failed']} benchmark operations failed"
metrics = result["metrics"]
rate = metrics["sim-flat-1m/throughput_per_s"]["value"]
floor = 20_000.0
if rate < floor:
    raise SystemExit(
        f"1M-task streaming throughput {rate:.0f} tasks/s is under the "
        f"{floor:.0f} floor -- engine scaling regressed"
    )
p99 = metrics["serve-predict-burst/latency_p99_us"]["value"]
if p99 >= 1000.0:
    raise SystemExit(
        f"serve Predict p99 {p99:.0f} us through the wire path breaks the "
        f"sub-millisecond budget -- the serve hot path regressed"
    )
rss = metrics["sim-flat-1m/peak_rss_mb"]["value"]
ceiling = 150.0
if rss > ceiling:
    raise SystemExit(
        f"1M-task streaming peak RSS {rss:.0f} MB is over the {ceiling:.0f} MB "
        f"ceiling -- per-task state grew back"
    )
print(f"benchmark ok: sim-flat-1m {rate:.0f} tasks/s, {rss:.0f} MB peak RSS, "
      f"serve-predict-burst p99 {p99:.0f} us")
EOF

echo "== perf gate: interleaved benchmark pairs against the parent commit =="
# The floors above only catch order-of-magnitude regressions; this gate
# fails on any metric worse than the parent by more than its BENCHMARK.json
# bound, on the workloads whose layers the diff touches (see perf_gate.sh).
./perf_gate.sh

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
serve="cargo run --release --bin tora -- serve --workers 20"
$serve < target/serve-smoke/all.jsonl > target/serve-smoke/ref-a.jsonl
$serve < target/serve-smoke/all.jsonl > target/serve-smoke/ref-b.jsonl
cmp target/serve-smoke/ref-a.jsonl target/serve-smoke/ref-b.jsonl
snap=target/serve-smoke/daemon.json
{ cat "$head_req"; printf '{"Snapshot":{"path":"%s"}}\n' "$snap"; } | $serve > /dev/null
cargo run --release --bin tora -- serve --workers 20 --restore "$snap" \
    < "$tail_req" > target/serve-smoke/resumed.jsonl
tail -n "$(wc -l < "$tail_req")" target/serve-smoke/ref-a.jsonl \
    > target/serve-smoke/ref-tail.jsonl
cmp target/serve-smoke/ref-tail.jsonl target/serve-smoke/resumed.jsonl
echo "serve smoke OK: byte-identical transcripts, kill/restore resumed exactly"
# A Workload asking for 10^12 tasks must be refused before anything is built:
# exactly one bad-request answer, then a StatsReport to the next line. A
# daemon that tried to allocate the trace would abort and fail this step.
oversized=target/serve-smoke/oversized.jsonl
printf '%s\n' '{"Open":{"tenant":"big","seed":1}}' \
    '{"Workload":{"tenant":"big","workflow":"bimodal","tasks":1000000000000,"seed":1}}' \
    '{"Stats":{}}' '{"Shutdown":{}}' | $serve > "$oversized"
[ "$(grep -c '"code":"bad-request"' "$oversized")" -eq 1 ] || {
    echo "oversized Workload was not answered with exactly one bad-request" >&2
    exit 1
}
sed -n 3p "$oversized" | grep -q '^{"StatsReport"' || {
    echo "the daemon did not answer Stats after the oversized Workload" >&2
    exit 1
}
echo "serve smoke OK: oversized Workload refused, daemon kept serving"
# A line of 200,000 `[` is under the line cap but nests past the parser's
# 128-level bound: exactly one bad-request, then a StatsReport to the next
# line. This checks the release binary's stdin line path end to end.
deep=target/serve-smoke/deep.jsonl
{
    head -c 200000 /dev/zero | tr '\0' '['
    printf '\n%s\n%s\n' '{"Stats":{}}' '{"Shutdown":{}}'
} | $serve > "$deep"
[ "$(grep -c '"code":"bad-request"' "$deep")" -eq 1 ] || {
    echo "the 200,000-deep line was not answered with exactly one bad-request" >&2
    exit 1
}
sed -n 2p "$deep" | grep -q '^{"StatsReport"' || {
    echo "the daemon did not answer Stats after the 200,000-deep line" >&2
    exit 1
}
echo "serve smoke OK: 200,000-deep line refused, daemon kept serving"

echo "== chaos DAG smoke (depth-dominated pipeline, critical-path rows) =="
# A generated 40-deep pipeline is pure critical path: the report must carry
# the submit-time and realized critical-path rows with non-zero figures.
cargo run --release --bin tora -- \
    simulate bimodal --shape pipeline --depth 40 --seed 7 --plan light \
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
