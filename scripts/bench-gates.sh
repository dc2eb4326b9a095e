#!/usr/bin/env bash
# bench-gates.sh — the benchmark ratio gates.
#
# Hot-query cache (always): on a disk-backed sharded store, a warm score
# cache must answer a replayed hot query set at least HOTCACHE_MIN_RATIO x
# (default 3.0) faster than the uncached cold path, with 0 allocs/op on
# the cached leg (BenchmarkHotQueryCache).
#
# Multi-core scaling (hosts with >= 4 CPUs): the end-to-end engine
# throughput benchmark and the sharded-store cold-read benchmark must run
# at least SCALING_MIN_RATIO x (default 2.0) faster at -cpu=4 than at
# -cpu=1, and a coordinator over two in-process nodes splitting the cell
# space must answer a cold-read set at least CLUSTER_MIN_RATIO x (default
# 1.05) faster than over one node owning every cell
# (BenchmarkClusterColdRead). A host with fewer CPUs cannot show the
# speedup, so these checks skip there and the multi-core CI runner proves
# them.
#
# The allocation budgets of the served path and the live-update path are
# plain AllocsPerRun tests (alloc_norace_test.go), run by `go test`.
#
# Usage: scripts/bench-gates.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# metric_of FILE NAME UNIT — the value for that unit of the exactly-named
# benchmark (go test appends "-<GOMAXPROCS>" to names when GOMAXPROCS != 1;
# NAME carries that suffix where it matters).
metric_of() {
  awk -v n="$2" -v u="$3" '$1 == n { for (i = 2; i < NF; i++) if ($(i+1) == u) print $i }' "$1"
}

fail=0
check() { # LABEL SLOW FAST MIN UNIT_SLOW UNIT_FAST
  if [ -z "$2" ] || [ -z "$3" ]; then
    echo "FAIL: $1: missing benchmark output (got '$5=$2' '$6=$3')"
    fail=1
    return
  fi
  local ratio
  ratio="$(awk -v a="$2" -v b="$3" 'BEGIN { printf "%.2f", a / b }')"
  echo "$1: $2 ns/op $5 vs $3 ns/op $6 → ${ratio}x (need >= ${4}x)"
  if ! awk -v r="$ratio" -v m="$4" 'BEGIN { exit !(r >= m) }'; then
    echo "FAIL: $1: ${ratio}x < ${4}x"
    fail=1
  fi
}

# Hot-query cache gate.
go test -run=NONE -bench='^BenchmarkHotQueryCache$' -benchmem -benchtime=100x -count=1 ./internal/grid/ | tee "$tmp/hot.txt"
# hot_name LEG — the leg's full benchmark name, whatever the GOMAXPROCS suffix.
hot_name() { awk -v n="BenchmarkHotQueryCache/$1" '$1 ~ ("^" n "(-[0-9]+)?$") { print $1 }' "$tmp/hot.txt"; }
cached_allocs="$(metric_of "$tmp/hot.txt" "$(hot_name cached)" allocs/op)"
if [ "$cached_allocs" != "0" ]; then
  echo "FAIL: hot-query cache: cached leg allocates ('$cached_allocs' allocs/op, want 0)"
  fail=1
fi
check "hot-query cache" \
  "$(metric_of "$tmp/hot.txt" "$(hot_name cold)" ns/op)" \
  "$(metric_of "$tmp/hot.txt" "$(hot_name cached)" ns/op)" \
  "${HOTCACHE_MIN_RATIO:-3.0}" cold cached

cpus="$(nproc)"
if [ "$cpus" -lt 4 ]; then
  echo "bench-gates: host has $cpus CPU(s), the scaling and cluster checks need 4 — skipping them (CI runs them)"
  exit "$fail"
fi

min="${SCALING_MIN_RATIO:-2.0}"
go test -run=NONE -bench='^BenchmarkQueryThroughput$' -cpu=1,4 -benchtime=1s -count=1 . | tee "$tmp/engine.txt"
go test -run=NONE -bench='^BenchmarkColdRead$/^sharded$' -cpu=1,4 -benchtime=1s -count=1 ./internal/grid/ | tee "$tmp/cold.txt"
go test -run=NONE -bench='^BenchmarkClusterColdRead$' -cpu=4 -benchtime=1s -count=1 . | tee "$tmp/cluster.txt"

check "engine throughput (64-query TGEN workload)" \
  "$(metric_of "$tmp/engine.txt" 'BenchmarkQueryThroughput/workers=1' ns/op)" \
  "$(metric_of "$tmp/engine.txt" 'BenchmarkQueryThroughput/workers=4-4' ns/op)" \
  "$min" @1cpu @4cpu
check "sharded cold-read search" \
  "$(metric_of "$tmp/cold.txt" 'BenchmarkColdRead/sharded' ns/op)" \
  "$(metric_of "$tmp/cold.txt" 'BenchmarkColdRead/sharded-4' ns/op)" \
  "$min" @1cpu @4cpu
check "cluster cold-read (96-query set)" \
  "$(metric_of "$tmp/cluster.txt" 'BenchmarkClusterColdRead/nodes=1-4' ns/op)" \
  "$(metric_of "$tmp/cluster.txt" 'BenchmarkClusterColdRead/nodes=2-4' ns/op)" \
  "${CLUSTER_MIN_RATIO:-1.05}" @1node @2nodes

exit "$fail"
