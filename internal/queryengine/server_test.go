package queryengine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestServerMatchesRun is the streaming golden guarantee: serving a
// workload query by query through one reused Task must return exactly
// what the serial Instantiate + Solve loop returns, for every method.
func TestServerMatchesRun(t *testing.T) {
	d, qs := testWorkload(t, 0.12, 12)
	for _, method := range []Method{MethodTGEN, MethodGreedy, MethodAPP} {
		want := serial(t, d, qs, Options{Method: method})
		srv := NewServer(d, ServerOptions{Workers: 2, Options: Options{Method: method}})
		var task Task
		for i, q := range qs {
			task.Query = q
			if err := srv.Do(&task); err != nil {
				t.Fatalf("%v query %d: %v", method, i, err)
			}
			if !reflect.DeepEqual(task.Result, want[i]) {
				t.Fatalf("%v query %d: served result differs from the serial one", method, i)
			}
		}
		srv.Close()
	}
}

// TestServerConcurrentSubmits hammers one server from many goroutines (the
// -race CI step exercises the locking) and checks every answer.
func TestServerConcurrentSubmits(t *testing.T) {
	d, qs := testWorkload(t, 0.1, 8)
	want := serial(t, d, qs, Options{})
	srv := NewServer(d, ServerOptions{Workers: 3, Queue: 2})
	defer srv.Close()
	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*len(qs))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range qs {
				r, err := submit(context.Background(), srv, q)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(r, want[i]) {
					errs <- errors.New("served result differs from the serial result")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Served != int64(clients*len(qs)) {
		t.Fatalf("Served = %d, want %d", st.Served, clients*len(qs))
	}
}

// TestServerVisit exercises the zero-copy path: the callback runs on the
// worker with the pooled instance and can solve in place.
func TestServerVisit(t *testing.T) {
	d, qs := testWorkload(t, 0.1, 4)
	want := serial(t, d, qs, Options{})
	srv := NewServer(d, ServerOptions{Workers: 1})
	defer srv.Close()
	for i, q := range qs {
		var score float64
		task := Task{Query: q, Visit: func(qi *dataset.QueryInstance) error {
			region, err := Solve(context.Background(), qi, q.Delta, Options{})
			if err != nil {
				return err
			}
			if region != nil {
				score = region.Score
			}
			return nil
		}}
		if err := srv.Do(&task); err != nil {
			t.Fatalf("visit %d: %v", i, err)
		}
		if task.Result.Matched {
			t.Fatal("visit path must not fill the default Result")
		}
		if score != want[i].Score {
			t.Fatalf("visit %d: score %v, want %v", i, score, want[i].Score)
		}
	}
	boom := errors.New("boom")
	task := Task{Query: qs[0], Visit: func(*dataset.QueryInstance) error { return boom }}
	if err := srv.Do(&task); !errors.Is(err, boom) {
		t.Fatalf("visit error = %v, want boom", err)
	}
}

// TestTaskReuseClearsResult guards the reusable-Task contract: a stale
// answer must never survive into a later submission that matches nothing,
// errors, or takes the Visit path.
func TestTaskReuseClearsResult(t *testing.T) {
	d, qs := testWorkload(t, 0.1, 4)
	srv := NewServer(d, ServerOptions{Workers: 1})
	defer srv.Close()
	var task Task
	var matchedQuery *dataset.Query
	for i := range qs {
		task.Query = qs[i]
		if err := srv.Do(&task); err != nil {
			t.Fatal(err)
		}
		if task.Result.Matched {
			matchedQuery = &qs[i]
			break
		}
	}
	if matchedQuery == nil {
		t.Fatal("no query matched; test is vacuous")
	}
	task.Visit = func(*dataset.QueryInstance) error { return nil }
	if err := srv.Do(&task); err != nil {
		t.Fatal(err)
	}
	if task.Result.Matched || task.Result.Nodes != nil {
		t.Fatalf("visit-path reuse kept a stale Result: %+v", task.Result)
	}
	task.Visit = nil
	bad := NewServer(d, ServerOptions{Workers: 1, Options: Options{Method: Method(99)}})
	defer bad.Close()
	if err := srv.Do(&task); err != nil || !task.Result.Matched {
		t.Fatalf("re-matching on the good server failed: err=%v result=%+v", err, task.Result)
	}
	if err := bad.Do(&task); err == nil {
		t.Fatal("unknown method accepted")
	}
	if task.Result.Matched {
		t.Fatalf("errored submission kept a stale Result: %+v", task.Result)
	}
}

// TestServerClose checks graceful shutdown: queued work completes, later
// submits fail with ErrServerClosed, and Close is idempotent.
func TestServerClose(t *testing.T) {
	d, qs := testWorkload(t, 0.1, 6)
	srv := NewServer(d, ServerOptions{Workers: 2})
	var wg sync.WaitGroup
	for _, q := range qs {
		wg.Add(1)
		go func(q dataset.Query) {
			defer wg.Done()
			if _, err := submit(context.Background(), srv, q); err != nil {
				t.Errorf("submit before close: %v", err)
			}
		}(q)
	}
	wg.Wait()
	srv.Close()
	if _, err := submit(context.Background(), srv, qs[0]); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit after close: %v, want ErrServerClosed", err)
	}
	srv.Close() // must not panic or deadlock
	if st := srv.Stats(); st.Served != int64(len(qs)) {
		t.Fatalf("Served = %d, want %d", st.Served, len(qs))
	}
}

// TestServerStats sanity-checks the latency report shape.
func TestServerStats(t *testing.T) {
	d, qs := testWorkload(t, 0.1, 8)
	srv := NewServer(d, ServerOptions{Workers: 2, LatencyWindow: 4})
	for _, q := range qs {
		if _, err := submit(context.Background(), srv, q); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	st := srv.Stats()
	if st.Served != int64(len(qs)) {
		t.Fatalf("Served = %d, want %d", st.Served, len(qs))
	}
	// Each worker retains at most 4 samples; with 8 requests over 2 workers
	// the merged window is between 4 (one worker served all) and 8.
	if st.Window < 4 || st.Window > 8 {
		t.Fatalf("Window = %d, want 4..8", st.Window)
	}
	if st.P50 <= 0 || st.P50 > st.P95 || st.P95 > st.P99 || st.P99 > st.Max {
		t.Fatalf("percentiles out of order: %v", st)
	}
	if st.Matched == 0 {
		t.Fatal("workload matched nothing; test is vacuous")
	}
}

func TestPercentile(t *testing.T) {
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i + 1)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0, 1}}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); got != c.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]time.Duration{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
}

// TestServerConcurrentClose hammers Close from many goroutines: it must
// be idempotent, race-free, and leave the server cleanly closed.
func TestServerConcurrentClose(t *testing.T) {
	d, qs := testWorkload(t, 0.1, 4)
	srv := NewServer(d, ServerOptions{Workers: 2})
	for _, q := range qs {
		if _, err := submit(context.Background(), srv, q); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Close()
		}()
	}
	wg.Wait()
	if _, err := submit(context.Background(), srv, qs[0]); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit after concurrent close = %v, want ErrServerClosed", err)
	}
}

// TestServerRejectsDoneContext checks deadline-aware admission: a request
// whose context is already done is rejected without dispatch — no worker
// sees it, Served stays put, and it is counted as an error.
func TestServerRejectsDoneContext(t *testing.T) {
	d, qs := testWorkload(t, 0.1, 2)
	srv := NewServer(d, ServerOptions{Workers: 1})
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := submit(ctx, srv, qs[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("submit with done context = %v, want context.Canceled", err)
	}
	st := srv.Stats()
	if st.Served != 0 {
		t.Fatalf("Served = %d after a rejected request, want 0", st.Served)
	}
	if st.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", st.Errors)
	}
	// The server is still healthy for live contexts.
	if _, err := submit(context.Background(), srv, qs[0]); err != nil {
		t.Fatalf("submit after rejection: %v", err)
	}
}

// TestServerShedsByQueueAge checks the load-shedding policy: requests
// queued past MaxQueueAge are answered with ErrOverloaded, counted in
// Stats().Shed, and never reach a planner.
func TestServerShedsByQueueAge(t *testing.T) {
	d, qs := testWorkload(t, 0.1, 4)
	srv := NewServer(d, ServerOptions{Workers: 1, Queue: 8, MaxQueueAge: time.Millisecond})
	defer srv.Close()

	// Occupy the single worker, then pile requests up behind it so they
	// age out in the queue. On a loaded machine the worker can pick the
	// occupier up later than MaxQueueAge and shed it too: submit it again
	// until it runs, and count sheds from then on.
	started := make(chan struct{})
	release := make(chan struct{})
	slowErr := make(chan error, 1)
	for occupied := false; !occupied; {
		slow := &Task{Query: qs[0], Visit: func(*dataset.QueryInstance) error {
			close(started)
			<-release
			return nil
		}}
		go func() { slowErr <- srv.Do(slow) }()
		select {
		case <-started:
			occupied = true
		case err := <-slowErr:
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("slow request: %v", err)
			}
		}
	}
	shedBefore := srv.Stats().Shed

	const queued = 3
	errs := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func(q dataset.Query) {
			_, err := submit(context.Background(), srv, q)
			errs <- err
		}(qs[1+i%(len(qs)-1)])
	}
	time.Sleep(20 * time.Millisecond) // age the queued requests past the threshold
	close(release)
	if err := <-slowErr; err != nil {
		t.Fatalf("slow request: %v", err)
	}
	for i := 0; i < queued; i++ {
		if err := <-errs; !errors.Is(err, ErrOverloaded) {
			t.Fatalf("queued request err = %v, want ErrOverloaded", err)
		}
	}
	st := srv.Stats()
	if st.Shed-shedBefore != queued {
		t.Fatalf("Shed = %d, want %d", st.Shed-shedBefore, queued)
	}
	if st.Served != 1 {
		t.Fatalf("Served = %d, want 1 (only the slow request was solved)", st.Served)
	}
	if !strings.Contains(st.String(), fmt.Sprintf("shed=%d", st.Shed)) {
		t.Fatalf("ServerStats.String() omits the shed counter: %q", st.String())
	}
}

// TestServerErrorCounter checks that errored requests show up in stats
// (they used to be invisible).
func TestServerErrorCounter(t *testing.T) {
	d, qs := testWorkload(t, 0.1, 2)
	srv := NewServer(d, ServerOptions{Workers: 1, Options: Options{Method: Method(99)}})
	defer srv.Close()
	if _, err := submit(context.Background(), srv, qs[0]); err == nil {
		t.Fatal("unknown method accepted")
	}
	st := srv.Stats()
	if st.Errors != 1 || st.Served != 1 {
		t.Fatalf("Errors = %d Served = %d, want 1 and 1", st.Errors, st.Served)
	}
	if !strings.Contains(st.String(), "errors=1") {
		t.Fatalf("ServerStats.String() omits the error counter: %q", st.String())
	}
}
