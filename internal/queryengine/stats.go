package queryengine

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// ServerStats is a point-in-time summary of a Server's traffic. Counters
// cover the server's whole lifetime; the latency percentiles cover the
// retained window (the most recent LatencyWindow samples per worker).
type ServerStats struct {
	// Served counts requests a worker processed, including errored ones;
	// shed requests are not served and are counted separately.
	Served int64
	// Matched counts requests that produced a region. The engine sees only
	// its default solve path; package repro's Server counts its own.
	Matched int64
	// Errors counts requests answered with an error: admission rejections
	// (context already done), per-query validation or solver failures, and
	// mid-solve cancellations. Shed requests are not errors.
	Errors int64
	// Shed counts requests rejected with ErrOverloaded because they
	// out-waited MaxQueueAge in the queue.
	Shed int64
	// Panics counts requests whose solve panicked; each failed only its own
	// client (ErrQueryPanic) and is also included in Served and Errors.
	Panics int64
	// Window is the number of latency samples the percentiles summarize.
	Window int
	// P50, P95, P99 and Max are request latencies (submission to answer,
	// queueing included) at the 50th/95th/99th percentile and the window
	// maximum. Zero when no request has completed yet.
	P50, P95, P99, Max time.Duration
}

// String formats the stats as one readable line.
func (st ServerStats) String() string {
	return fmt.Sprintf("served=%d matched=%d errors=%d shed=%d panics=%d p50=%v p95=%v p99=%v max=%v (window %d)",
		st.Served, st.Matched, st.Errors, st.Shed, st.Panics, st.P50, st.P95, st.P99, st.Max, st.Window)
}

// Stats snapshots the server's counters and latency percentiles. It may be
// called concurrently with traffic; it briefly locks each worker's sample
// ring in turn, so the snapshot is per-worker consistent.
func (s *Server) Stats() ServerStats {
	var st ServerStats
	st.Errors = s.rejected.Load()
	var all []time.Duration
	for _, ws := range s.workers {
		ws.mu.Lock()
		st.Served += ws.served
		st.Matched += ws.matched
		st.Errors += ws.errors
		st.Shed += ws.shed
		st.Panics += ws.panics
		all = append(all, ws.lat...)
		ws.mu.Unlock()
	}
	st.Window = len(all)
	if len(all) == 0 {
		return st
	}
	slices.Sort(all)
	st.P50 = Percentile(all, 50)
	st.P95 = Percentile(all, 95)
	st.P99 = Percentile(all, 99)
	st.Max = all[len(all)-1]
	return st
}

// Percentile returns the nearest-rank p-th percentile (p in percent) of a
// sorted sample: the smallest sample with at least p% of the sample at or
// below it, so p95 of 13 samples is the 13th. Zero for an empty sample.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
