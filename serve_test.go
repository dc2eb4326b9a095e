package repro

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/golden"
	"repro/internal/grid"
	"repro/internal/queryengine"
	"repro/internal/textindex"
)

func serveWorkload(t *testing.T) (*Database, []Query) {
	t.Helper()
	db, err := NYLike(4, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	qs, err := db.GenQueries(rng, 10, 3, 25e6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	return db, qs
}

// serveAll answers qs through a fresh Server with `workers` workers and as
// many concurrent clients calling Do, returning each query's best region
// (nil when nothing matched) and the closed server's stats.
func serveAll(t testing.TB, db *Database, qs []Query, opts SearchOptions, workers int) ([]*Result, ServeStats) {
	t.Helper()
	srv, err := db.Serve(ServeOptions{Workers: workers, Search: opts})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Result, len(qs))
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(qs); i += workers {
				resp := srv.Do(context.Background(), Request{Query: qs[i]})
				if resp.Err != nil {
					t.Errorf("%v query %d: %v", opts.Method, i, resp.Err)
					return
				}
				got[i] = resp.Best()
			}
		}(c)
	}
	wg.Wait()
	srv.Close()
	return got, srv.Stats()
}

// TestServeMatchesDo is the acceptance guarantee for the streaming
// service: for every method — MethodAuto with an explicit Budget included
// — a workload sent through a server from concurrent clients returns
// exactly what serial Database.Do calls return, query by query, for any
// worker count, and the server counts every request it answered.
func TestServeMatchesDo(t *testing.T) {
	db, qs := serveWorkload(t)
	for _, opts := range []SearchOptions{
		{Method: MethodTGEN}, {Method: MethodAPP}, {Method: MethodGreedy},
		{Method: MethodAuto, Budget: 20 * time.Millisecond},
	} {
		want := make([]*Result, len(qs))
		wantMatched := 0
		for i, q := range qs {
			if want[i] = best(t, db, q, opts); want[i] != nil {
				wantMatched++
			}
		}
		for _, workers := range []int{1, 2, 4} {
			got, st := serveAll(t, db, qs, opts, workers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: served results with %d workers differ from the serial Do loop", opts.Method, workers)
			}
			if st.Served != int64(len(qs)) || st.Matched != int64(wantMatched) {
				t.Fatalf("%v workers=%d: Stats() served=%d matched=%d, want %d and %d",
					opts.Method, workers, st.Served, st.Matched, len(qs), wantMatched)
			}
		}
	}
}

func TestServeValidationAndClose(t *testing.T) {
	db, qs := serveWorkload(t)
	srv, err := db.Serve(ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	do := func(q Query) error { return srv.Do(context.Background(), Request{Query: q}).Err }
	if err := do(Query{Delta: 10}); err == nil {
		t.Error("query without keywords accepted")
	}
	if err := do(Query{Keywords: []string{"a"}, Delta: -1}); err == nil {
		t.Error("non-positive ∆ accepted")
	}
	if err := do(qs[0]); err != nil {
		t.Fatalf("valid Do: %v", err)
	}
	srv.Close()
	if err := do(qs[0]); !errors.Is(err, queryengine.ErrServerClosed) {
		t.Fatalf("Do after close = %v, want ErrServerClosed", err)
	}
	if _, err := db.Serve(ServeOptions{Search: SearchOptions{Method: Method(99)}}); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestParseMethod checks the round trip with Method.String and the error
// path.
func TestParseMethod(t *testing.T) {
	for _, m := range []Method{MethodTGEN, MethodAPP, MethodGreedy} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMethod(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
		got, err = ParseMethod(strings.ToLower(m.String()))
		if err != nil || got != m {
			t.Fatalf("ParseMethod(lower %q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := ParseMethod("dijkstra"); err == nil {
		t.Fatal("unknown method name accepted")
	}
	if _, err := ParseMethod(""); err == nil {
		t.Fatal("empty method name accepted")
	}
}

// TestDatabaseDo checks the one-shot surface: K = 0 and K = 1 both ask
// for the single best region, answered identically when the request is
// repeated on a pooled planner, and Do rejects invalid requests.
func TestDatabaseDo(t *testing.T) {
	db, qs := serveWorkload(t)
	ctx := context.Background()
	for _, method := range []Method{MethodTGEN, MethodAPP, MethodGreedy} {
		for _, q := range qs[:4] {
			req := Request{Query: q, Search: SearchOptions{Method: method}}
			first := db.Do(ctx, req)
			if first.Err != nil || len(first.Results) > 1 {
				t.Fatalf("%v: Do = (%d regions, %v), want at most one", method, len(first.Results), first.Err)
			}
			req.K = 1
			if again := db.Do(ctx, req); !reflect.DeepEqual(again, first) {
				t.Fatalf("%v: Do K=1 = %+v, K=0 gave %+v", method, again, first)
			}
		}
	}
	if resp := db.Do(ctx, Request{Query: Query{Delta: 5}}); resp.Err == nil {
		t.Fatal("keyword-less request accepted")
	}
	if resp := db.Do(ctx, Request{Query: qs[0], Search: SearchOptions{Method: Method(99)}}); resp.Err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestDoCarriesDeadlineToSearch pins the deadline through Database.Do on a
// database whose search is routed elsewhere (as OpenCluster routes it to
// the coordinator's scatter): the search must see the caller's deadline,
// not a background context.
func TestDoCarriesDeadlineToSearch(t *testing.T) {
	db, qs := serveWorkload(t)
	var seen time.Time
	db.ds.SetSearchFunc(func(ctx context.Context, q textindex.Query, r geo.Rect, s *grid.SearchScratch) ([]grid.ObjScore, error) {
		seen, _ = ctx.Deadline()
		return db.ds.Index.SearchInto(q, r, s)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	want, _ := ctx.Deadline()
	if resp := db.Do(ctx, Request{Query: qs[0], Search: SearchOptions{Method: MethodGreedy}}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if !seen.Equal(want) {
		t.Fatalf("search saw deadline %v, want the request's %v", seen, want)
	}
}

// TestServerDoPerRequestOptions checks the zero-Search convention: a zero
// Request.Search uses the server's defaults, any other value overrides
// them for that request only.
func TestServerDoPerRequestOptions(t *testing.T) {
	db, qs := serveWorkload(t)
	ctx := context.Background()
	srv, err := db.Serve(ServeOptions{Workers: 1, Search: SearchOptions{Method: MethodTGEN}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, q := range qs[:4] {
		wantTGEN := best(t, db, q, SearchOptions{Method: MethodTGEN})
		wantGreedy := best(t, db, q, SearchOptions{Method: MethodGreedy})
		if resp := srv.Do(ctx, Request{Query: q}); resp.Err != nil || !reflect.DeepEqual(resp.Best(), wantTGEN) {
			t.Fatalf("default-path Do = (%v, %v), want TGEN answer", resp.Best(), resp.Err)
		}
		resp := srv.Do(ctx, Request{Query: q, Search: SearchOptions{Method: MethodGreedy}})
		if resp.Err != nil || !reflect.DeepEqual(resp.Best(), wantGreedy) {
			t.Fatalf("override Do = (%v, %v), want Greedy answer", resp.Best(), resp.Err)
		}
		// K rides through the server too.
		wantK := db.Do(ctx, Request{Query: q, K: 2, Search: SearchOptions{Method: MethodTGEN}})
		if resp := srv.Do(ctx, Request{Query: q, K: 2}); resp.Err != nil || !reflect.DeepEqual(resp.Results, wantK.Results) {
			t.Fatalf("server top-k = (%v, %v), want %v", resp.Results, resp.Err, wantK.Results)
		}
	}
}

// TestGoldenTopK pins the top-k request path end to end: for every method,
// K = 2 and K = 3 through Database.Do and through a Server must agree with
// each other and with the answers recorded in testdata/topk.golden (from the
// original allocating top-k, before it was deleted).
func TestGoldenTopK(t *testing.T) {
	db, qs := serveWorkload(t)
	ctx := context.Background()
	srv, err := db.Serve(ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var lines []string
	for _, method := range []Method{MethodTGEN, MethodAPP, MethodGreedy} {
		for qi, q := range qs[:4] {
			for _, k := range []int{2, 3} {
				req := Request{Query: q, K: k, Search: SearchOptions{Method: method}}
				resp := db.Do(ctx, req)
				if resp.Err != nil {
					t.Fatal(resp.Err)
				}
				served := srv.Do(ctx, req)
				if served.Err != nil || !reflect.DeepEqual(served.Results, resp.Results) {
					t.Fatalf("%v query %d K=%d: Server.Do = (%v, %v), Database.Do = %v", method, qi, k, served.Results, served.Err, resp.Results)
				}
				key := fmt.Sprintf("method=%v query=%d k=%d", method, qi, k)
				lines = append(lines, fmt.Sprintf("%s: ranks=%d", key, len(resp.Results)))
				for rank, r := range resp.Results {
					line := fmt.Sprintf("%s rank=%d: score=%s len=%s nodes=%v edges=[", key, rank, golden.Float(r.Score), golden.Float(r.Length), r.Nodes)
					for _, e := range r.Edges {
						line += fmt.Sprintf(" %d-%d", e.U, e.V)
					}
					line += " ] objects=["
					for _, o := range r.Objects {
						line += fmt.Sprintf(" %d:%s", o.ID, golden.Float(o.Score))
					}
					lines = append(lines, line+" ]")
				}
			}
		}
	}
	golden.Check(t, "topk.golden", lines)
}

// TestServeSheddingAndStats drives the public shedding surface: with one
// worker held by a second-long APP solve and a 10ms queue-age budget,
// queued requests come back as ErrOverloaded, appear in ServeStats.Shed,
// and the stats line prints the new counters. (The first request is
// picked up within microseconds on an idle server, so only the requests
// stuck behind the stress solve age out.)
func TestServeSheddingAndStats(t *testing.T) {
	db, err := NYLike(3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := db.GenQueries(rand.New(rand.NewSource(5)), 1, 3, 25e6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	stress := qs[0]
	stress.Region = db.Bounds()
	stress.Delta = 50_000

	srv, err := db.Serve(ServeOptions{
		Workers:     1,
		Search:      SearchOptions{Method: MethodAPP},
		MaxQueueAge: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	first := make(chan error, 1)
	go func() {
		first <- srv.Do(context.Background(), Request{Query: stress}).Err
	}()
	time.Sleep(50 * time.Millisecond) // the worker is now mid-APP-solve

	const queued = 3
	shedErrs := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func() {
			shedErrs <- srv.Do(context.Background(), Request{Query: stress}).Err
		}()
	}
	for i := 0; i < queued; i++ {
		if err := <-shedErrs; !errors.Is(err, ErrOverloaded) {
			t.Fatalf("queued Do err = %v, want ErrOverloaded", err)
		}
	}
	if err := <-first; err != nil {
		t.Fatalf("stress Do: %v", err)
	}
	st := srv.Stats()
	if st.Shed != queued {
		t.Fatalf("Shed = %d, want %d", st.Shed, queued)
	}
	if st.Served != 1 {
		t.Fatalf("Served = %d, want 1", st.Served)
	}
	line := st.String()
	if !strings.Contains(line, "errors=0") || !strings.Contains(line, "shed=3") {
		t.Fatalf("ServeStats.String() missing counters: %q", line)
	}
}
