package repro

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/queryengine"
)

// Mid-solve cancellation acceptance tests. Each test cancels a context
// while a solver is running on the bench instance (benchWorkload, where
// APP runs for hundreds of milliseconds) and asserts the contract end to
// end:
//
//   - the solve returns within 50ms of the cancel with context.Canceled;
//   - no goroutine leaks;
//   - the same worker scratch answers the next (uncancelled) query with
//     results bit-identical to a never-cancelled worker.

var (
	cancelOnce sync.Once
	cancelDS   *dataset.Dataset
	cancelQ    dataset.Query
)

// benchWorkload builds the bench dataset (NY scale 0.2, query seed 5)
// once for every cancellation test, stretching the generated query to the
// network's full extent with a generous budget: on this instance APP
// solves for hundreds of milliseconds and TGEN for over a hundred, so a
// cancel ~15ms in is unambiguously mid-solve.
func benchWorkload(t *testing.T) (*dataset.Dataset, dataset.Query) {
	t.Helper()
	cancelOnce.Do(func() {
		d, err := dataset.NYLike(dataset.Config{Seed: 3, Scale: 0.2})
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(5))
		qs, err := d.GenQueries(rng, 1, 3, 25e6, 5000)
		if err != nil {
			panic(err)
		}
		q := qs[0]
		q.Lambda = d.Graph.BBox()
		q.Delta = 50_000
		cancelDS, cancelQ = d, q
	})
	return cancelDS, cancelQ
}

// regionCopy is a detached copy of a solver region (which aliases pooled
// scratch storage).
type regionCopy struct {
	score, length float64
	nodes, edges  []int32
}

func copyRegion(r *core.Region) *regionCopy {
	if r == nil {
		return nil
	}
	return &regionCopy{
		score:  r.Score,
		length: r.Length,
		nodes:  append([]int32(nil), r.Nodes...),
		edges:  append([]int32(nil), r.Edges...),
	}
}

func sameRegion(a, b *regionCopy) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.score != b.score || a.length != b.length ||
		len(a.nodes) != len(b.nodes) || len(a.edges) != len(b.edges) {
		return false
	}
	for i := range a.nodes {
		if a.nodes[i] != b.nodes[i] {
			return false
		}
	}
	for i := range a.edges {
		if a.edges[i] != b.edges[i] {
			return false
		}
	}
	return true
}

// countGoroutines samples the goroutine count after a short settle, so
// runtime bookkeeping goroutines don't flake the leak check.
func countGoroutines() int {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// viewportWorkload is the other end of the size range: the benchmark's
// solve_tgen shape (NY scale 2, a 16 km² viewport of ~290 nodes, ∆ = 4 km),
// where a whole TGEN solve is milliseconds and crosses only ~10³ edges, so
// per-edge checkpoints alone would probe the context a handful of times;
// the per-row checkpoint of the combine kernel is what observes a cancel
// here. Of a few generated queries the one TGEN solves slowest is used, so
// the solve is long enough to cancel into.
func viewportWorkload(t *testing.T) (*dataset.Dataset, dataset.Query) {
	t.Helper()
	d, err := dataset.NYLike(dataset.Config{Seed: 1, Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := d.GenQueries(rand.New(rand.NewSource(7)), 8, 3, 16e6, 4000)
	if err != nil {
		t.Fatal(err)
	}
	p := d.NewPlanner()
	slowest, slowestDur := 0, time.Duration(-1)
	for i, q := range qs {
		qi, err := p.Instantiate(q)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := queryengine.Solve(context.Background(), qi, q.Delta, queryengine.Options{Method: queryengine.MethodTGEN}); err != nil {
			t.Fatal(err)
		}
		if dur := time.Since(start); dur > slowestDur {
			slowest, slowestDur = i, dur
		}
	}
	return d, qs[slowest]
}

// testCancelMidSolve runs the full contract for one engine method on one
// query — the single best region, or the top k when k > 1: reference solve,
// mid-solve cancel, bounded return, scratch reuse. A zero cancelAfter
// cancels an eighth of the reference solve time in.
func testCancelMidSolve(t *testing.T, d *dataset.Dataset, q dataset.Query, method queryengine.Method, k int, cancelAfter time.Duration) {
	opts := queryengine.Options{Method: method}
	// solve answers qi and copies the regions out of the pooled scratch.
	solve := func(ctx context.Context, qi *dataset.QueryInstance) ([]*regionCopy, error) {
		if k <= 1 {
			region, err := queryengine.Solve(ctx, qi, q.Delta, opts)
			return []*regionCopy{copyRegion(region)}, err
		}
		regions, err := queryengine.SolveTopK(ctx, qi, q.Delta, k, opts)
		out := make([]*regionCopy, len(regions))
		for i, r := range regions {
			out[i] = copyRegion(r)
		}
		return out, err
	}
	baseline := countGoroutines()

	// Reference answer from a fresh planner/scratch.
	ref := d.NewPlanner()
	qi, err := ref.Instantiate(q)
	if err != nil {
		t.Fatal(err)
	}
	refStart := time.Now()
	want, err := solve(context.Background(), qi)
	if err != nil {
		t.Fatal(err)
	}
	refDur := time.Since(refStart)
	if len(want) != max(k, 1) || want[0] == nil {
		t.Fatalf("bench query matched %d regions; the test would be vacuous", len(want))
	}
	if cancelAfter == 0 {
		cancelAfter = refDur / 8
	}
	if refDur < 4*cancelAfter {
		t.Fatalf("solve took %v; cancelling after %v would not be mid-solve", refDur, cancelAfter)
	}
	t.Logf("%d-node instance, reference solve %v, cancel after %v", qi.In.NumNodes, refDur, cancelAfter)

	// Cancel mid-solve on the worker planner. A solve that finished before
	// the cancel landed (an overslept timer on a millisecond-scale solve)
	// proves nothing either way: try again, a few times.
	worker := d.NewPlanner()
	type outcome struct {
		err error
		at  time.Time
	}
	var out outcome
	var cancelledAt time.Time
	for attempt := 0; attempt < 5; attempt++ {
		qi, err = worker.Instantiate(q)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan outcome, 1)
		go func() {
			_, err := solve(ctx, qi)
			done <- outcome{err: err, at: time.Now()}
		}()
		time.Sleep(cancelAfter)
		cancelledAt = time.Now()
		cancel()
		out = <-done
		if out.err != nil {
			break
		}
	}
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("cancelled solve returned err = %v, want context.Canceled", out.err)
	}
	if lag := out.at.Sub(cancelledAt); lag > 50*time.Millisecond {
		t.Fatalf("solve returned %v after cancel, want <= 50ms", lag)
	}

	// The abandoned scratch must answer the next query bit-identically.
	qi, err = worker.Instantiate(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := solve(context.Background(), qi)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got, want, sameRegion) {
		t.Fatal("scratch reused after a cancelled solve produced a different answer")
	}

	if after := countGoroutines(); after > baseline {
		t.Fatalf("goroutines leaked: %d before, %d after", baseline, after)
	}
}

// TestCancelMidSolveAPP is the acceptance gate: cancel a context mid-APP-
// solve on the bench instance (APP runs for hundreds of milliseconds
// there) and observe return within 50ms with context.Canceled, no
// goroutine leaks, and bit-identical results from the reused scratch.
func TestCancelMidSolveAPP(t *testing.T) {
	d, q := benchWorkload(t)
	testCancelMidSolve(t, d, q, queryengine.MethodAPP, 1, 15*time.Millisecond)
}

func TestCancelMidSolveTGEN(t *testing.T) {
	d, q := benchWorkload(t)
	testCancelMidSolve(t, d, q, queryengine.MethodTGEN, 1, 0)
}

// TestCancelMidSolveTopK cancels a K = 3 TGEN request inside its first
// rank (the solve TestCancelMidSolveTGEN cancels): top-k runs on the same
// scratch solvers, so the cancel must surface within the same bound instead
// of after the rank completes.
func TestCancelMidSolveTopK(t *testing.T) {
	d, q := benchWorkload(t)
	testCancelMidSolve(t, d, q, queryengine.MethodTGEN, 3, 0)
}

// TestCancelMidSolveTGENViewport cancels inside a viewport-sized TGEN solve:
// the cancel lands between two per-edge checkpoints' probes, inside the
// combine kernel's pair loop, and the scratch abandoned there (marks set,
// tuples collected but not installed) must answer the next query
// bit-identically.
func TestCancelMidSolveTGENViewport(t *testing.T) {
	d, q := viewportWorkload(t)
	testCancelMidSolve(t, d, q, queryengine.MethodTGEN, 1, 0)
}

// TestCancelMidSolveGreedy uses a synthetic long-path instance: the bench
// query answers Greedy in microseconds, far too fast to cancel mid-solve,
// while greedy expansion over an n-node path costs Θ(n²) frontier scans.
func TestCancelMidSolveGreedy(t *testing.T) {
	const n = 4096
	edges := make([]core.Edge, n-1)
	weights := make([]float64, n)
	for i := range edges {
		edges[i] = core.Edge{U: int32(i), V: int32(i + 1), Length: 1}
	}
	for i := range weights {
		weights[i] = float64(i%7) + 1
	}
	in, err := core.NewInstance(n, edges, weights)
	if err != nil {
		t.Fatal(err)
	}
	delta := float64(n) // the whole path fits: greedy runs to exhaustion
	baseline := countGoroutines()

	fresh := core.NewSolveScratch()
	refStart := time.Now()
	region, err := core.SolveGreedy(context.Background(), fresh, in, delta, core.GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refDur := time.Since(refStart)
	want := copyRegion(region)
	cancelAfter := refDur / 8
	if cancelAfter < time.Millisecond {
		cancelAfter = time.Millisecond
	}
	if refDur < 4*cancelAfter {
		t.Skipf("greedy reference solve too fast to cancel mid-solve (%v)", refDur)
	}

	worker := core.NewSolveScratch()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		err error
		at  time.Time
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := core.SolveGreedy(ctx, worker, in, delta, core.GreedyOptions{})
		done <- outcome{err: err, at: time.Now()}
	}()
	time.Sleep(cancelAfter)
	cancelledAt := time.Now()
	cancel()
	out := <-done
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("cancelled greedy returned err = %v, want context.Canceled", out.err)
	}
	if lag := out.at.Sub(cancelledAt); lag > 50*time.Millisecond {
		t.Fatalf("greedy returned %v after cancel, want <= 50ms", lag)
	}
	region, err = core.SolveGreedy(context.Background(), worker, in, delta, core.GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRegion(copyRegion(region), want) {
		t.Fatal("scratch reused after a cancelled greedy produced a different region")
	}
	if after := countGoroutines(); after > baseline {
		t.Fatalf("goroutines leaked: %d before, %d after", baseline, after)
	}
}

// TestServerCancelMidSolve drives the same contract through the streaming
// server: a deadline that fires mid-solve surfaces context.DeadlineExceeded
// from Do, the worker survives, and the very next submission on the
// same server (same worker, same scratch) answers bit-identically to an
// undisturbed server.
func TestServerCancelMidSolve(t *testing.T) {
	d, q := benchWorkload(t)
	opts := queryengine.Options{Method: queryengine.MethodAPP}

	undisturbed := queryengine.NewServer(d, queryengine.ServerOptions{Workers: 1, Options: opts})
	wantTask := queryengine.Task{Query: q}
	err := undisturbed.Do(&wantTask)
	undisturbed.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := wantTask.Result
	if !want.Matched {
		t.Fatal("bench query matched nothing; the test would be vacuous")
	}

	srv := queryengine.NewServer(d, queryengine.ServerOptions{Workers: 1, Options: opts})
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	start := time.Now()
	task := queryengine.Task{Ctx: ctx, Query: q}
	if err := srv.Do(&task); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-bounded Do returned err = %v, want context.DeadlineExceeded", err)
	}
	if lag := time.Since(start); lag > 15*time.Millisecond+50*time.Millisecond {
		t.Fatalf("Do returned %v after submission, want deadline+50ms", lag)
	}
	task.Ctx = nil
	if err := srv.Do(&task); err != nil {
		t.Fatal(err)
	}
	got := task.Result
	if got.Score != want.Score || got.Length != want.Length || len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("post-cancel answer differs: got %v/%v/%d nodes, want %v/%v/%d",
			got.Score, got.Length, len(got.Nodes), want.Score, want.Length, len(want.Nodes))
	}
	for i := range got.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			t.Fatal("post-cancel answer differs in node set")
		}
	}
	st := srv.Stats()
	if st.Errors != 1 {
		t.Fatalf("Stats().Errors = %d, want 1 (the cancelled request)", st.Errors)
	}
}
