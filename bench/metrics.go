package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's vocabulary: BENCHMARK.json lists exactly these names
// and units (TestBenchmarkJSONMatchesTables holds the two together).
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a client of the system sees, measured with
// tracing off. Every workload reports every one of them, and none is ever
// zero, so each can carry a worsening bound in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"region_weight_mean", "weight"},
	{"heap_live_mb", "MB"},
}

// perLayer are the single-layer metrics of a traced run. A metric that
// does not apply to a workload (no updates, no cluster, another solver)
// reads 0 there. failed_share and update_p50_ms/update_p95_ms are
// end-to-end quantities in the issue's sense, but they are 0 or undefined
// on most workloads, which BENCHMARK.json's end-to-end list does not allow;
// they are reported here and failures also in the result line's
// attempted/failed counts.
var perLayer = []metricDef{
	{"failed_share", "ratio"},
	{"update_p50_ms", "ms"},
	{"update_p95_ms", "ms"},
	{"core.tgen_us", "us"},
	{"core.tgen_share", "ratio"},
	{"core.app_us", "us"},
	{"core.app_share", "ratio"},
	{"core.greedy_us", "us"},
	{"core.greedy_share", "ratio"},
	{"kmst.garg_tree_us", "us"},
	{"kmst.lam_cache_reuse_ratio", "ratio"},
	{"pcst.solve_us", "us"},
	{"textindex.prepare_us", "us"},
	{"grid.search_us", "us"},
	{"grid.search_share", "ratio"},
	{"grid.cells_scanned", "count"},
	{"grid.cells_skipped", "count"},
	{"grid.lists", "count"},
	{"grid.postings", "count"},
	{"grid.postings_filtered", "count"},
	{"grid.objects", "count"},
	{"grid.scorecache_hit_ratio", "ratio"},
	{"grid.estimate_us", "us"},
	{"btree.cache_hit_ratio", "ratio"},
	{"btree.page_misses_per_query", "count"},
	{"btree.evictions_per_query", "count"},
	{"roadnet.extract_us", "us"},
	{"roadnet.nodes_per_query", "count"},
	{"dataset.instantiate_us", "us"},
	{"dataset.build_us", "us"},
	{"plan.choose_us", "us"},
	{"plan.greedy_share", "ratio"},
	{"plan.tgen_share", "ratio"},
	{"plan.app_share", "ratio"},
	{"plan.log2_err_p50", "log2"},
	{"queryengine.dispatch_us", "us"},
	{"queryengine.allocs_per_query", "count"},
	{"queryengine.wait_p95_us", "us"},
	{"queryengine.shed", "count"},
	{"httpapi.codec_us", "us"},
	{"httpapi.resp_bytes", "bytes"},
	{"repro.materialize_us", "us"},
	{"cluster.search_us", "us"},
	{"cluster.node_search_us", "us"},
	{"cluster.wire_us", "us"},
	{"cluster.wire_share", "ratio"},
	{"cluster.groups_contacted", "count"},
	{"cluster.groups_skipped", "count"},
	{"grid.update_us", "us"},
	{"grid.compact_ms", "ms"},
	{"grid.compactions", "count"},
	{"grid.wal_bytes_per_update", "bytes"},
	{"grid.store_bytes_per_object", "bytes"},
	{"grid.tombstones_end", "count"},
	{"loadgen.late_p95_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// minTailSamples is how many samples must lie beyond a reported
// percentile: p95 therefore needs at least 200 samples.
const minTailSamples = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailOK reports whether n samples leave minTailSamples beyond quantile p.
func tailOK(n int, p float64) bool {
	return float64(n)*(1-p) >= minTailSamples
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n := len(xs); n%2 == 1 {
		return xs[n/2]
	} else {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, 0 when b is 0 (a metric that does not apply reads 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkFinite rejects a metric set that misses a name or holds a
// non-finite value: an absent metric must never read as "unchanged".
func checkFinite(defs []metricDef, vals map[string]float64) error {
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
	}
	return nil
}
