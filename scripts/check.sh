#!/usr/bin/env sh
# Pre-merge gate for the power-bounded workspace. Everything here must
# pass offline: no network, no registry crates, just the Rust toolchain.
#
#   sh scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

# The bench history stamp: the commit, plus a short hash of the
# uncommitted diff when there is one, so a run on a work in progress is
# never filed under its parent. The outputs this script writes itself
# are left out of the diff. Taken before anything below runs.
run_commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
run_diff=$(git diff HEAD -- . ':(exclude)BENCH_sweep.json' ':(exclude)BENCH_serve.json' \
    ':(exclude)results' 2>/dev/null || true)
if [ -n "$run_diff" ]; then
    run_commit="${run_commit}+$(printf '%s\n' "$run_diff" | git hash-object --stdin | cut -c1-7)"
fi

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests (every crate, including the pbc-lint suite)"
# The root facade crate already ran in the tier-1 step above; exclude it
# so its suite is not paid twice.
cargo test -q --workspace --exclude power-bounded-computing

echo "==> pbc-lint gate (lint-baseline.toml ratchet; <10s budget)"
# Build untimed, then time only the scan itself. A full-workspace scan
# that creeps past 10 seconds means the AST/dataflow passes regressed.
cargo build -q --release -p pbc-lint
lint_start=$(date +%s)
cargo run -q --release -p pbc-lint -- --format json > target/pbc-lint-report.json
lint_secs=$(( $(date +%s) - lint_start ))
echo "    report: target/pbc-lint-report.json (${lint_secs}s)"
if [ "$lint_secs" -ge 10 ]; then
    echo "error: pbc-lint took ${lint_secs}s; the full-workspace budget is <10s" >&2
    exit 1
fi

echo "==> dependency audit: workspace must be self-contained"
# `cargo tree` prints one line per dependency edge; every crate in this
# workspace is named pbc-* (plus the root facade crate), so any other
# crate name is a foreign dep.
if cargo tree --workspace --edges normal,build --prefix none \
    | awk 'NF {print $1}' | sort -u \
    | grep -v -e '^pbc-' -e '^power-bounded-computing$'; then
    echo "error: non-workspace crates in the dependency graph (above)" >&2
    exit 1
fi

echo "==> lines of code (information only, no gate)"
sh scripts/loc.sh

echo "==> bench smoke (no timing claims, just 'still runs')"
# Without `--bench` every bench binary runs each benchmark once; only
# the `cargo bench` steps below time anything.
cargo test -q -p pbc-bench --benches

echo "==> trace round-trip (sweep accounting law, via a real trace file)"
cargo test -q -p pbc-core --test trace_roundtrip
cargo test -q -p pbc-cli --test trace_flag

echo "==> chaos smoke (fault-plan survival + counter laws, via a real trace file)"
cargo test -q -p pbc-cli --test chaos_smoke
cargo test -q --test chaos_properties

echo "==> cluster smoke (fleet coordination beats uniform split; dropout chaos, via a real trace file)"
cargo test -q -p pbc-cli --test cluster_smoke

echo "==> cluster-chaos smoke (fleet fault tolerance: seed sweep + trace invariants)"
cargo test -q -p pbc-cli --test cluster_chaos_smoke
cargo test -q -p pbc-cluster --test fault_tolerance
# Drive the shipped binary through the worst plan once and hold the two
# survival laws from the emitted trace file, under a wall-clock timeout
# where the host provides one (a wedged retry loop must fail the gate,
# not hang it). `cargo build --release` at the root builds only the
# facade crate, so build the shipped binary explicitly.
cargo build -q --release -p pbc-cli
chaos_spec=target/cluster-chaos-spec.txt
chaos_trace=target/cluster-chaos-trace.jsonl
printf '4 ivybridge stream\n2 haswell dgemm\n2 titan-xp sgemm\n' > "$chaos_spec"
rm -f "$chaos_trace"
chaos_runner=""
if command -v timeout >/dev/null 2>&1; then chaos_runner="timeout 120"; fi
$chaos_runner ./target/release/pbc cluster-chaos -p "$chaos_spec" -b 1050 \
    --plan everything --seed 42 --trace "$chaos_trace" > /dev/null \
    || { echo "error: pbc cluster-chaos failed or timed out" >&2; exit 1; }
grep -q '{"type":"counter","name":"cluster.budget_violations","value":0}' "$chaos_trace" \
    || { echo "error: cluster.budget_violations != 0 in $chaos_trace" >&2; exit 1; }
grep -q '{"type":"counter","name":"health.quarantine_leaks","value":0}' "$chaos_trace" \
    || { echo "error: health.quarantine_leaks != 0 in $chaos_trace" >&2; exit 1; }
echo "    trace laws held: cluster.budget_violations == 0, health.quarantine_leaks == 0"

echo "==> counter determinism (the chaos run's counters repeat at 1 and 2 threads)"
# Every counter but the pool's own is a property of the run, not of the
# thread count: fleet profiling runs on the calling thread, and the
# shared-grid oracle resolves its cache hits before any solve fans out.
# A counter that moves with PBC_THREADS makes trace diffs across
# commits meaningless.
for threads in 1 2; do
    counter_trace=target/cluster-chaos-counters-t${threads}.jsonl
    rm -f "$counter_trace"
    PBC_THREADS=$threads $chaos_runner ./target/release/pbc cluster-chaos -p "$chaos_spec" \
        -b 1050 --plan everything --seed 42 --trace "$counter_trace" > /dev/null \
        || { echo "error: pbc cluster-chaos at PBC_THREADS=$threads failed" >&2; exit 1; }
    grep '"type":"counter"' "$counter_trace" | grep -v '"name":"pool\.' \
        > "target/cluster-chaos-counters-t${threads}.txt"
done
grep -q '"name":"solve.cache_hits"' target/cluster-chaos-counters-t1.txt \
    || { echo "error: no solve.cache_hits counter in the chaos trace" >&2; exit 1; }
diff target/cluster-chaos-counters-t1.txt target/cluster-chaos-counters-t2.txt >&2 \
    || { echo "error: chaos counters differ between PBC_THREADS=1 and 2 (above)" >&2; exit 1; }
echo "    $(wc -l < target/cluster-chaos-counters-t1.txt) counters identical at 1 and 2 threads"

echo "==> fairness gate (max-min tenants under a noisy neighbor: no overdraw, no starved floor, calm-state Jain)"
# Same fleet, worst multi-tenant plan: a noisy neighbor inflating one
# tenant's demand mid-epoch must never overdraw the global budget or
# starve a weighted tenant below its floor, and once the plan goes
# quiet the weight-normalized split must settle back to fair. The
# cluster.tenant_jain gauge in the exported trace is the final
# (calm-state) epoch's value.
fair_trace=target/cluster-fairness-trace.jsonl
rm -f "$fair_trace"
$chaos_runner ./target/release/pbc cluster-chaos -p "$chaos_spec" -b 1050 \
    --plan noisy-neighbor --seed 42 --objective max-min \
    --tenants web:3:gold,etl:2:silver,batch:1 --trace "$fair_trace" > /dev/null \
    || { echo "error: pbc cluster-chaos (fairness) failed or timed out" >&2; exit 1; }
grep -q '{"type":"counter","name":"cluster.budget_violations","value":0}' "$fair_trace" \
    || { echo "error: cluster.budget_violations != 0 in $fair_trace" >&2; exit 1; }
grep -q '{"type":"counter","name":"cluster.tenant_floor_violations","value":0}' "$fair_trace" \
    || { echo "error: cluster.tenant_floor_violations != 0 in $fair_trace" >&2; exit 1; }
jain=$(grep '"name":"cluster.tenant_jain"' "$fair_trace" \
    | tail -n 1 | sed 's/.*"value"://; s/[^0-9.].*//')
test -n "$jain" || { echo "error: no cluster.tenant_jain gauge in $fair_trace" >&2; exit 1; }
awk -v j="$jain" 'BEGIN { exit (j >= 0.95 ? 0 : 1) }' \
    || { echo "error: calm-state Jain index ${jain} is below the 0.95 bar" >&2; exit 1; }
echo "    trace laws held: no overdraw, no floor violations, calm-state Jain ${jain} >= 0.95"

echo "==> serve smoke (daemon round trips, drain laws, replay equivalence, via real sockets)"
cargo test -q -p pbc-serve --test replay_equivalence
cargo test -q -p pbc-serve --test drain
cargo test -q -p pbc-cli --test serve_smoke

echo "==> timed benches (append machine-readable records to BENCH_sweep.json)"
# BENCH_sweep.json is the *fresh-file* gate input: it must contain only
# this run's records, so the ratio greps below can never match a stale
# line. The history of every run is kept separately under results/.
rm -f BENCH_sweep.json
PBC_BENCH_JSON="$PWD/BENCH_sweep.json" cargo bench -q -p pbc-bench --bench sweep
PBC_BENCH_JSON="$PWD/BENCH_sweep.json" cargo bench -q -p pbc-bench --bench fastpath
test -s BENCH_sweep.json || { echo "error: benches wrote no records" >&2; exit 1; }
echo "    records: BENCH_sweep.json"

echo "==> bench history (run-stamped append under results/)"
# Every gated run's records are preserved, stamped with the UTC time and
# the commit, so timing trajectories survive the per-run rm -f above.
mkdir -p results
run_stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)
sed "s/^{/{\"run\":\"${run_stamp}\",\"commit\":\"${run_commit}\",/" \
    BENCH_sweep.json >> results/bench_history.jsonl
echo "    history: results/bench_history.jsonl (${run_stamp} @ ${run_commit})"

echo "==> shared-grid oracle speedup gate (curve >= 2x over per-budget sweeps)"
# The sweep bench records the curve-vs-independent median ratio as a
# "type":"bench-ratio" line; the optimization must hold its 2x bar.
ratio=$(grep '"type":"bench-ratio"' BENCH_sweep.json \
    | grep '"name":"sweep/curve-vs-budgets-speedup"' \
    | sed 's/.*"ratio"://; s/[^0-9.].*//')
test -n "$ratio" || { echo "error: no bench-ratio record in BENCH_sweep.json" >&2; exit 1; }
awk -v r="$ratio" 'BEGIN { exit (r >= 2.0 ? 0 : 1) }' \
    || { echo "error: curve speedup ${ratio}x is below the 2x bar" >&2; exit 1; }
echo "    curve speedup: ${ratio}x"

echo "==> steady-state fast path gate (table-served set_budget >= 10x over a cold solve)"
# The fastpath bench records the set_budget-vs-direct-solve median ratio;
# the sub-microsecond serving claim must hold its 10x bar.
fp_ratio=$(grep '"type":"bench-ratio"' BENCH_sweep.json \
    | grep '"name":"fastpath/set-budget-vs-cold-solve"' \
    | sed 's/.*"ratio"://; s/[^0-9.].*//')
test -n "$fp_ratio" || { echo "error: no fastpath bench-ratio record in BENCH_sweep.json" >&2; exit 1; }
awk -v r="$fp_ratio" 'BEGIN { exit (r >= 10.0 ? 0 : 1) }' \
    || { echo "error: fast-path speedup ${fp_ratio}x is below the 10x bar" >&2; exit 1; }
echo "    fast-path speedup: ${fp_ratio}x"

echo "==> water-fill scaling gate (fill at 4096 nodes <= 12x fill at 512)"
# The sweep bench records the 4096-over-512-node water-fill median ratio
# on the calm fleet mix. Eight times the nodes: the indexed O(grants ·
# log n) fill measures ~8-10x; the per-grant scan it replaced, ~53x.
wf_ratio=$(grep '"type":"bench-ratio"' BENCH_sweep.json \
    | grep '"name":"cluster/water-fill-4096-vs-512"' \
    | sed 's/.*"ratio"://; s/[^0-9.].*//')
test -n "$wf_ratio" \
    || { echo "error: no water-fill bench-ratio record in BENCH_sweep.json" >&2; exit 1; }
awk -v r="$wf_ratio" 'BEGIN { exit (r <= 12.0 ? 0 : 1) }' \
    || { echo "error: water-fill scaling ${wf_ratio}x breaks the 12x ceiling" >&2; exit 1; }
echo "    water-fill scaling: ${wf_ratio}x"

echo "==> fleet epoch scaling gate (epoch at 4096 nodes <= 12x epoch at 512)"
# The sweep bench records the 4096-over-512-node median ratio of one
# whole calm epoch (budget change, then step) on the calm fleet mix.
# Fifteen runs on a 2-vCPU VM measured 7.3-10.8x (median ~8.1x): the
# host shifts speed between the two timings, which moved the water-fill
# ratio over 5.6-11.2x in the same runs. The bound sits ~10% above the
# worst run. A fill that scans every node per grant grows with n^2 and
# measured ~53x.
ep_ratio=$(grep '"type":"bench-ratio"' BENCH_sweep.json \
    | grep '"name":"cluster/epoch-4096-vs-512"' \
    | sed 's/.*"ratio"://; s/[^0-9.].*//')
test -n "$ep_ratio" \
    || { echo "error: no fleet epoch bench-ratio record in BENCH_sweep.json" >&2; exit 1; }
awk -v r="$ep_ratio" 'BEGIN { exit (r <= 12.0 ? 0 : 1) }' \
    || { echo "error: fleet epoch scaling ${ep_ratio}x breaks the 12x ceiling" >&2; exit 1; }
echo "    fleet epoch scaling: ${ep_ratio}x"

echo "==> serve provision gate (provision 512 <= 20x one Session::open)"
# The fastpath bench records a 512-session provision over one session
# opened by the full recipe, same class, table warm. A provision that
# resolves the class once measures ~5-10x; resolving it per session,
# ~300x.
pv_ratio=$(grep '"type":"bench-ratio"' BENCH_sweep.json \
    | grep '"name":"serve/provision-512-vs-open"' \
    | sed 's/.*"ratio"://; s/[^0-9.].*//')
test -n "$pv_ratio" \
    || { echo "error: no provision bench-ratio record in BENCH_sweep.json" >&2; exit 1; }
awk -v r="$pv_ratio" 'BEGIN { exit (r <= 20.0 ? 0 : 1) }' \
    || { echo "error: provision 512 costs ${pv_ratio}x one open, above the 20x ceiling" >&2; exit 1; }
echo "    provision cost: ${pv_ratio}x one open"

echo "==> serve-bench gate (>= 100k queries/sec sustained, p99 dispatch < 50 us)"
# Load-test the shipped daemon binary: thousands of concurrent simulated
# nodes over live pipelined TCP, dispatch latency over the identical
# in-process path (docs/SERVING.md). Fresh-file rule as for BENCH_sweep.
rm -f BENCH_serve.json
serve_runner=""
if command -v timeout >/dev/null 2>&1; then serve_runner="timeout 120"; fi
$serve_runner ./target/release/pbc serve-bench --nodes 1024 --workers 2 \
    --pipeline 64 --duration-ms 1500 --save BENCH_serve.json > /dev/null \
    || { echo "error: pbc serve-bench failed or timed out" >&2; exit 1; }
test -s BENCH_serve.json || { echo "error: serve-bench wrote no record" >&2; exit 1; }
qps=$(grep '"type":"serve-bench"' BENCH_serve.json \
    | sed 's/.*"qps"://; s/[^0-9.].*//')
p99_us=$(grep '"type":"serve-bench"' BENCH_serve.json \
    | sed 's/.*"p99_us"://; s/[^0-9.].*//')
test -n "$qps" && test -n "$p99_us" \
    || { echo "error: BENCH_serve.json is missing qps/p99_us" >&2; exit 1; }
awk -v q="$qps" 'BEGIN { exit (q >= 100000 ? 0 : 1) }' \
    || { echo "error: serve-bench qps ${qps} is below the 100k floor" >&2; exit 1; }
awk -v p="$p99_us" 'BEGIN { exit (p < 50 ? 0 : 1) }' \
    || { echo "error: serve-bench p99 ${p99_us}us breaks the 50us ceiling" >&2; exit 1; }
sed "s/^{/{\"run\":\"${run_stamp}\",\"commit\":\"${run_commit}\",/" \
    BENCH_serve.json >> results/bench_history.jsonl
echo "    serve: ${qps} queries/sec, p99 ${p99_us}us (BENCH_serve.json; history appended)"

echo "all checks passed"
