#!/usr/bin/env bash
# bench-json.sh — machine-readable benchmark snapshot + allocation gate.
#
# Runs the end-to-end serve benchmarks (BenchmarkServeQuery: searchpath,
# tgen-e2e, app-e2e, greedy-e2e, hot-cached), the live-update benchmarks
# (BenchmarkLiveUpdate: insert/reweight/delete updates-per-second over
# the sharded store, serve-after-updates for the memtable-empty query
# path) with -benchmem, writes the results as JSON (ns/op, B/op,
# allocs/op per benchmark) to the output file, and fails when any
# benchmark's allocs/op exceeds the committed baseline in
# scripts/bench-baseline.json — the zero-alloc serve-path guarantee
# (including cache hits) and the bounded-allocation update path,
# enforced numerically.
#
# It then runs the hot-query score cache gate: on a disk-backed sharded
# store, a warm cache must answer a replayed hot query set at least
# HOTCACHE_MIN_RATIO x (default 3.0) faster than the uncached cold path,
# with 0 allocs/op on the cached leg (BenchmarkHotQueryCache).
#
# Usage: scripts/bench-json.sh [output.json]   (default bench-snapshot.json)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-bench-snapshot.json}"
baseline="scripts/bench-baseline.json"

raw="$(go test -run=NONE -bench='^(BenchmarkServeQuery|BenchmarkLiveUpdate)$' -benchmem -benchtime=50x -count=1 .)"
echo "$raw"

# Each result line is "BenchmarkName  N  <value> <unit> ..."; pick the
# values by their unit so extra metrics (queries/s) don't shift columns.
echo "$raw" | awk '
  $1 ~ /^Benchmark/ && $NF == "allocs/op" {
    ns = ""; b = ""; allocs = "";
    for (i = 2; i < NF; i++) {
      if ($(i+1) == "ns/op")     ns = $i;
      if ($(i+1) == "B/op")      b = $i;
      if ($(i+1) == "allocs/op") allocs = $i;
    }
    printf("{\"name\":\"%s\",\"ns_per_op\":%s,\"b_per_op\":%s,\"allocs_per_op\":%s}\n", $1, ns, b, allocs);
  }' | jq -s '{benchmarks: .}' >"$out"

echo "wrote $out:"
jq . "$out"

# Gate: every baseline entry must exist in the snapshot (modulo the -N
# GOMAXPROCS suffix go test appends) and stay within its alloc budget.
jq -n --slurpfile cur "$out" --slurpfile base "$baseline" '
  ($cur[0].benchmarks
   | map({key: (.name | sub("-[0-9]+$"; "")), value: .}) | from_entries) as $c
  | $base[0].benchmarks[]
  | . as $b
  | ($c[$b.name] // error("benchmark \($b.name) missing from snapshot"))
  | if .allocs_per_op > $b.max_allocs_per_op
    then error("allocs/op regression in \($b.name): \(.allocs_per_op) > baseline \($b.max_allocs_per_op)")
    else "\($b.name): \(.allocs_per_op) allocs/op (baseline \($b.max_allocs_per_op)) OK"
    end
'

# Hot-query score cache gate: cached replay must beat the cold path by
# HOTCACHE_MIN_RATIO x and stay allocation-free on hits.
minhot="${HOTCACHE_MIN_RATIO:-3.0}"
hotraw="$(go test -run=NONE -bench='^BenchmarkHotQueryCache$' -benchmem -benchtime=100x -count=1 ./internal/grid/)"
echo "$hotraw"

# metric_of NAME UNIT — the named benchmark's value for that unit
# (go test appends "-<GOMAXPROCS>" to names when GOMAXPROCS != 1).
metric_of() {
  echo "$hotraw" | awk -v n="$1" -v u="$2" \
    '$1 ~ ("^" n "(-[0-9]+)?$") { for (i = 2; i < NF; i++) if ($(i+1) == u) print $i }'
}

cold_ns="$(metric_of 'BenchmarkHotQueryCache/cold' 'ns/op')"
cached_ns="$(metric_of 'BenchmarkHotQueryCache/cached' 'ns/op')"
cached_allocs="$(metric_of 'BenchmarkHotQueryCache/cached' 'allocs/op')"
if [ -z "$cold_ns" ] || [ -z "$cached_ns" ] || [ -z "$cached_allocs" ]; then
  echo "FAIL: hot-cache gate: missing benchmark output (cold='$cold_ns' cached='$cached_ns' allocs='$cached_allocs')"
  exit 1
fi
if [ "$cached_allocs" != "0" ]; then
  echo "FAIL: hot-cache gate: cached leg allocates ($cached_allocs allocs/op, want 0)"
  exit 1
fi
ratio="$(awk -v a="$cold_ns" -v b="$cached_ns" 'BEGIN { printf "%.2f", a / b }')"
echo "hot-query cache: $cold_ns ns/op cold vs $cached_ns ns/op cached → ${ratio}x speedup (need >= ${minhot}x), 0 allocs/op on hits"
if ! awk -v r="$ratio" -v m="$minhot" 'BEGIN { exit !(r >= m) }'; then
  echo "FAIL: hot-query cache speedup ${ratio}x < ${minhot}x"
  exit 1
fi
