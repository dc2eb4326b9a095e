package repro

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// BatchStats summarizes a RunBatch execution.
type BatchStats struct {
	// Elapsed is the wall-clock time of the whole batch.
	Elapsed time.Duration
	// Workers is the resolved worker-pool size.
	Workers int
	// Matched counts queries that produced a region.
	Matched int
}

// QueriesPerSecond returns the batch throughput.
func (s BatchStats) QueriesPerSecond(n int) float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(n) / s.Elapsed.Seconds()
}

// RunBatch answers a whole query workload through a short-lived Server
// with `workers` workers (<= 0 selects GOMAXPROCS) and as many concurrent
// clients calling Do, so it accepts exactly what Do accepts, MethodAuto
// included. The returned slice has one entry per query — nil when no
// object matched — and is identical to calling Database.Do on each query
// in order, for any worker count. The first failing query stops the
// batch and its error is returned. ctx bounds the whole batch: once it
// fires, in-flight solves return through their checkpoints, the server
// rejects the queries not yet started, and RunBatch returns ctx.Err().
func (db *Database) RunBatch(ctx context.Context, qs []Query, opts SearchOptions, workers int) ([]*Result, BatchStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(qs))) // no idle workers, so stats are honest
	stats := BatchStats{Workers: workers}
	srv, err := db.Serve(ServeOptions{Workers: workers, Search: opts})
	if err != nil {
		return nil, stats, err
	}
	defer srv.Close()
	batchCtx, stop := context.WithCancel(ctx)
	defer stop()
	results := make([]*Result, len(qs))
	var (
		next    atomic.Int64
		errOnce sync.Once
		firstE  error
		wg      sync.WaitGroup
	)
	start := time.Now()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(qs); i = int(next.Add(1)) - 1 {
				resp := srv.Do(batchCtx, Request{Query: qs[i]})
				if resp.Err != nil {
					errOnce.Do(func() { firstE = fmt.Errorf("repro: query %d: %w", i, resp.Err) })
					stop()
					return
				}
				results[i] = resp.Best()
			}
		}()
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	if firstE != nil {
		if err := ctx.Err(); err != nil {
			return nil, stats, err // the caller's cancellation, not a query's own failure
		}
		return nil, stats, firstE
	}
	for _, r := range results {
		if r != nil {
			stats.Matched++
		}
	}
	return results, stats, nil
}
