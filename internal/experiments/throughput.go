package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/queryengine"
)

// Throughput measures end-to-end workload throughput of the streaming
// query server on the NY-like dataset (not a paper figure — it
// characterizes the engine added on top of the paper's algorithms). One
// fixed TGEN workload is served with increasing worker counts, by as many
// concurrent clients as workers; every run is checked for
// bit-identical results against the serial baseline, so the table doubles
// as a determinism audit.
func (e *Env) Throughput() (Table, error) {
	d, err := e.NY()
	if err != nil {
		return Table{}, err
	}
	ps := e.params(d)
	n := 8 * e.cfg.Queries
	if n < 16 {
		n = 16
	}
	qs, err := e.queries(d, ps.Keywords, ps.LambdaM2, ps.DeltaM)
	if err != nil {
		return Table{}, err
	}
	// Repeat the generated queries up to n so the workload is long enough
	// to time meaningfully at any Config.Queries setting.
	for orig := len(qs); len(qs) < n; {
		qs = append(qs, qs[len(qs)%orig])
	}
	workerCounts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		workerCounts = append(workerCounts, p)
	}
	t := Table{
		Title:  "Workload throughput (streaming query server, TGEN, NY)",
		Header: []string{"workers", "elapsed_ms", "queries_per_s", "speedup", "identical"},
	}
	var (
		baseline []queryengine.Result
		baseDur  time.Duration
	)
	for _, w := range workerCounts {
		start := time.Now()
		res, err := serveAll(d, qs, w)
		if err != nil {
			return Table{}, err
		}
		dur := time.Since(start)
		identical := "yes"
		if baseline == nil {
			baseline = res
			baseDur = dur
		} else if !sameResults(baseline, res) {
			identical = "NO"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w),
			fmtDur(dur),
			fmt.Sprintf("%.1f", float64(len(qs))/dur.Seconds()),
			fmt.Sprintf("%.2fx", baseDur.Seconds()/dur.Seconds()),
			identical,
		})
	}
	return t, nil
}

// serveAll answers qs through a queryengine.Server with w workers, fed by
// w clients that each replay their share through one reused Task.
func serveAll(d *dataset.Dataset, qs []dataset.Query, w int) ([]queryengine.Result, error) {
	srv := queryengine.NewServer(d, queryengine.ServerOptions{Workers: w})
	defer srv.Close()
	res := make([]queryengine.Result, len(qs))
	errs := make([]error, w)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for c := 0; c < w; c++ {
		go func(c int) {
			defer wg.Done()
			var t queryengine.Task
			for i := int(next.Add(1)) - 1; i < len(qs); i = int(next.Add(1)) - 1 {
				t.Query = qs[i]
				if errs[c] = srv.Do(&t); errs[c] != nil {
					return
				}
				res[i] = t.Result
				res[i].Nodes = slices.Clone(t.Result.Nodes) // the Task reuses its Nodes array
			}
		}(c)
	}
	wg.Wait()
	return res, errors.Join(errs...)
}

// sameResults compares two workload outputs for bit equality.
func sameResults(a, b []queryengine.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Matched != b[i].Matched || a[i].Score != b[i].Score || a[i].Length != b[i].Length {
			return false
		}
		if len(a[i].Nodes) != len(b[i].Nodes) {
			return false
		}
		for j := range a[i].Nodes {
			if a[i].Nodes[j] != b[i].Nodes[j] {
				return false
			}
		}
	}
	return true
}
