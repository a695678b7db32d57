#!/bin/sh
# bench.sh runs the hot-path benchmarks (observation layer, health
# diagnosis, pattern executors, resilience policies, crash recovery,
# RNG, and the top-level ablation and chaos suites) and records the
# results as JSON so CI can archive them and successive runs can be
# diffed.
#
# Four files come out of one benchmark run: the resilience-policy
# results (the internal/resilience primitives, the autonomic
# controller's reconciliation tick from internal/control, plus the root
# BenchmarkChaosCampaign* throughput pair, with/without the bulkhead)
# land in BENCH_resilience.json; the crash-recovery results (WAL
# append/replay and the BenchmarkCrashRecovery reopen-with-replay
# suite from internal/checkpoint) land in BENCH_recovery.json; the
# distributed-transport results (RPC round trip plus the hedged vs
# unhedged tail-latency pair, whose p99_ns metric is the paper trail
# that hedging beats the unhedged control) land in BENCH_net.json;
# everything else stays in BENCH_obs.json as before.
#
# Usage: scripts/bench.sh [obs.json [resilience.json [recovery.json [net.json]]]]
# Environment: BENCHTIME overrides -benchtime (e.g. BENCHTIME=100x).
set -eu
cd "$(dirname "$0")/.."

out_obs="${1:-BENCH_obs.json}"
out_res="${2:-BENCH_resilience.json}"
out_rec="${3:-BENCH_recovery.json}"
out_net="${4:-BENCH_net.json}"
benchtime="${BENCHTIME:-1s}"
pkgs=". ./internal/obs/... ./internal/pattern ./internal/resilience ./internal/control ./internal/checkpoint ./internal/dist ./internal/xrand"

# shellcheck disable=SC2086  # pkgs is a deliberate word list
raw="$(go test -bench=. -benchmem -run='^$' -benchtime="$benchtime" $pkgs)"
printf '%s\n' "$raw"

# Stamp the tree that was measured, not HEAD: the working tree is often
# not committed yet when this runs. The tree is hashed through a
# throwaway copy of the index, so the real one is not touched.
commit="$(
    tmp="$(mktemp -d)" && trap 'rm -rf "$tmp"' EXIT &&
        { cp "$(git rev-parse --git-path index)" "$tmp/index" 2>/dev/null || true; } &&
        GIT_INDEX_FILE="$tmp/index" git add -A 2>/dev/null &&
        GIT_INDEX_FILE="$tmp/index" git write-tree 2>/dev/null | cut -c1-7
)"
[ -n "$commit" ] || commit=unknown

# tojson converts `go test -bench` output to a JSON array in the
# normalized schema the campaign tooling reads: one row per
# (benchmark, metric), each {benchmark, metric, value, unit, commit,
# seed}; commit is the measured tree's hash (`git cat-file -p` shows
# it). Benchmarks are single-process microbenchmarks, so seed is 0.
# $1 selects which results to keep: "resilience" takes the resilience
# package and the chaos-campaign throughput benchmarks, "recovery"
# takes the checkpoint/WAL package, "net" takes the distributed
# transport package, "obs" takes the rest.
tojson() {
    printf '%s\n' "$raw" | awk -v mode="$1" -v commit="$commit" '
function row(bench, metric, value, unit) {
    if (n++) printf ",\n"
    printf "  {\"benchmark\":\"%s\",\"metric\":\"%s\",\"value\":%s,\"unit\":\"%s\",\"commit\":\"%s\",\"seed\":0}", \
        bench, metric, value, unit, commit
}
BEGIN { print "[" }
/^pkg:/ { pkg = $2; sub(/^.*\//, "", pkg) }
/^Benchmark/ {
    res = (pkg == "resilience" || pkg == "control" || $1 ~ /^BenchmarkChaosCampaign/)
    rec = (pkg == "checkpoint")
    net = (pkg == "dist")
    if (mode == "resilience") keep = res
    else if (mode == "recovery") keep = rec
    else if (mode == "net") keep = net
    else keep = !res && !rec && !net
    if (!keep) next
    # go test appends -GOMAXPROCS to the name unless it is 1; drop it so
    # results from machines with different CPU counts join in bench-diff.
    name = $1
    sub(/-[0-9]+$/, "", name)
    bench = (pkg != "") ? pkg "/" name : name
    row(bench, "ns_per_op", $3, "ns/op")
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op") row(bench, "bytes_per_op", $(i - 1), "B/op")
        if ($i == "allocs/op") row(bench, "allocs_per_op", $(i - 1), "allocs/op")
        if ($i == "req/s") row(bench, "req_per_s", $(i - 1), "req/s")
        if ($i == "p99_ns") row(bench, "p99_ns", $(i - 1), "ns")
    }
}
END { if (n) printf "\n"; print "]" }
'
}

tojson obs >"$out_obs"
tojson resilience >"$out_res"
tojson recovery >"$out_rec"
tojson net >"$out_net"

echo "wrote $(grep -c '"benchmark"' "$out_obs") benchmark results to $out_obs"
echo "wrote $(grep -c '"benchmark"' "$out_res") benchmark results to $out_res"
echo "wrote $(grep -c '"benchmark"' "$out_rec") benchmark results to $out_rec"
echo "wrote $(grep -c '"benchmark"' "$out_net") benchmark results to $out_net"
