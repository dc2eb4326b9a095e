package repro

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/queryengine"
)

// TestParseMethodAuto covers the Auto round trip through the string
// surface used by the HTTP front end and the CLI.
func TestParseMethodAuto(t *testing.T) {
	m, err := ParseMethod("auto")
	if err != nil || m != MethodAuto {
		t.Fatalf("ParseMethod(auto) = %v, %v; want MethodAuto", m, err)
	}
	if got := MethodAuto.String(); got != "Auto" {
		t.Fatalf("MethodAuto.String() = %q, want Auto", got)
	}
	if _, err := ParseMethod(MethodAuto.String()); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

// autoBudgetFor derives an explicit budget that makes the planner pick
// exactly `method`, using the per-method estimates an EXPLAIN probe
// reported for the same query. The estimate ladder is strictly
// increasing (Greedy < TGEN < APP), so:
//
//	huge budget        → APP  (2×estAPP ≤ budget)
//	2×estAPP − 1ns     → TGEN (APP no longer affordable, TGEN still is)
//	1ns                → Greedy (nothing else fits)
func autoBudgetFor(t *testing.T, pl *Plan, method Method) time.Duration {
	t.Helper()
	if pl == nil {
		t.Fatal("probe returned no plan")
	}
	if !(pl.EstGreedy < pl.EstTGEN && pl.EstTGEN < pl.EstAPP) {
		t.Fatalf("estimate ladder not strict: greedy=%v tgen=%v app=%v",
			pl.EstGreedy, pl.EstTGEN, pl.EstAPP)
	}
	switch method {
	case MethodAPP:
		return time.Hour
	case MethodTGEN:
		return 2*pl.EstAPP - time.Nanosecond
	case MethodGreedy:
		return time.Nanosecond
	}
	t.Fatalf("no auto budget for %v", method)
	return 0
}

// TestAutoGoldenSingleProcess is the planner's correctness guarantee on
// the one-shot path: for every method, MethodAuto steered onto that
// method by an explicit budget answers bit-identically to requesting the
// method directly — the planner only picks the solver, never changes the
// answer. It also pins down the EXPLAIN fields every answered plan must
// carry.
func TestAutoGoldenSingleProcess(t *testing.T) {
	db, qs := serveWorkload(t)
	ctx := context.Background()
	for _, q := range qs[:4] {
		probe := db.Do(ctx, Request{Query: q, Explain: true})
		if probe.Err != nil {
			t.Fatal(probe.Err)
		}
		for _, method := range []Method{MethodGreedy, MethodTGEN, MethodAPP} {
			want := db.Do(ctx, Request{Query: q, Search: SearchOptions{Method: method}})
			if want.Err != nil {
				t.Fatalf("%v direct: %v", method, want.Err)
			}
			budget := autoBudgetFor(t, probe.Plan, method)
			got := db.Do(ctx, Request{
				Query:   q,
				Search:  SearchOptions{Method: MethodAuto, Budget: budget},
				Explain: true,
			})
			if got.Err != nil {
				t.Fatalf("auto(%v): %v", method, got.Err)
			}
			pl := got.Plan
			if pl == nil {
				t.Fatalf("auto(%v): no plan on an explained request", method)
			}
			if pl.Method != method || !pl.Auto {
				t.Fatalf("auto budget %v resolved to %v (auto=%v), want %v",
					budget, pl.Method, pl.Auto, method)
			}
			if pl.Degraded {
				t.Fatalf("auto(%v): degraded at pressure 0", method)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("auto(%v): results differ from the direct method", method)
			}
			if pl.Reason == "" || pl.Budget != budget || pl.EstimatedCost <= 0 {
				t.Fatalf("auto(%v): incomplete plan: reason=%q budget=%v est=%v",
					method, pl.Reason, pl.Budget, pl.EstimatedCost)
			}
			if pl.CellsInRect <= 0 ||
				pl.CellsInRect != pl.CellsScanned+pl.CellsSkipped() {
				t.Fatalf("auto(%v): cell accounting broken: in-rect=%d scanned=%d skipped=%d",
					method, pl.CellsInRect, pl.CellsScanned, pl.CellsSkipped())
			}
			if pl.Cluster != nil {
				t.Fatalf("auto(%v): cluster fragment on a single-process request", method)
			}
		}
		// A client-requested method still explains, without the auto bit.
		direct := db.Do(ctx, Request{Query: q, Search: SearchOptions{Method: MethodGreedy}, Explain: true})
		if direct.Err != nil || direct.Plan == nil {
			t.Fatalf("direct explain: (%v, %v)", direct.Plan, direct.Err)
		}
		if direct.Plan.Auto || direct.Plan.Method != MethodGreedy ||
			!strings.Contains(direct.Plan.Reason, "client") {
			t.Fatalf("direct explain plan wrong: %+v", direct.Plan)
		}
	}
}

// TestAutoGoldenServed runs the same guarantee through the streaming
// server under -race: concurrent Auto requests resolve on the workers
// and stay bit-identical to the direct method.
func TestAutoGoldenServed(t *testing.T) {
	db, qs := serveWorkload(t)
	ctx := context.Background()
	srv, err := db.Serve(ServeOptions{Workers: 2, Search: SearchOptions{Method: MethodAuto}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, q := range qs[:4] {
		probe := db.Do(ctx, Request{Query: q, Explain: true})
		if probe.Err != nil {
			t.Fatal(probe.Err)
		}
		for _, method := range []Method{MethodGreedy, MethodTGEN, MethodAPP} {
			want := db.Do(ctx, Request{Query: q, Search: SearchOptions{Method: method}})
			if want.Err != nil {
				t.Fatalf("%v direct: %v", method, want.Err)
			}
			budget := autoBudgetFor(t, probe.Plan, method)
			got := srv.Do(ctx, Request{
				Query:   q,
				Search:  SearchOptions{Method: MethodAuto, Budget: budget},
				Explain: true,
			})
			if got.Err != nil {
				t.Fatalf("served auto(%v): %v", method, got.Err)
			}
			if got.Plan == nil || got.Plan.Method != method {
				t.Fatalf("served auto(%v): plan %+v", method, got.Plan)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("served auto(%v): results differ from the direct method", method)
			}
		}
	}
	// A server configured with MethodAuto serves zero-Search requests by
	// resolving per request (the configured default is Auto itself).
	if resp := srv.Do(ctx, Request{Query: qs[0], Explain: true}); resp.Err != nil ||
		resp.Plan == nil || !resp.Plan.Auto || resp.Plan.Method == MethodAuto {
		t.Fatalf("auto-configured server: plan %+v err %v", resp.Plan, resp.Err)
	}
}

// TestAutoGoldenCluster extends the golden guarantee across the
// cluster: the coordinator plans with its local routing index, nodes
// fill trace fragments, and the answers match the single-process direct
// method bit for bit. The explained plans must also carry the merged
// cluster routing fragment.
func TestAutoGoldenCluster(t *testing.T) {
	ref, qs := serveWorkload(t)
	coordDB, err := NYLike(4, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	nodeDB, err := NYLike(4, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startClusterNodes(t, 1, nodeDB, nodeDB)
	cl, err := coordDB.OpenCluster(ClusterOptions{Nodes: addrs, Serve: ServeOptions{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	for _, q := range qs[:3] {
		probe := cl.Do(ctx, Request{Query: q, Explain: true})
		if probe.Err != nil {
			t.Fatal(probe.Err)
		}
		if probe.Plan == nil || probe.Plan.Cluster == nil {
			t.Fatalf("cluster explain lost its routing fragment: %+v", probe.Plan)
		}
		if probe.Plan.Cluster.GroupsContacted <= 0 {
			t.Fatalf("cluster plan contacted no groups: %+v", probe.Plan.Cluster)
		}
		for _, method := range []Method{MethodGreedy, MethodTGEN, MethodAPP} {
			want := best(t, ref, q, SearchOptions{Method: method})
			budget := autoBudgetFor(t, probe.Plan, method)
			got := cl.Do(ctx, Request{
				Query:   q,
				Search:  SearchOptions{Method: MethodAuto, Budget: budget},
				Explain: true,
			})
			if got.Err != nil {
				t.Fatalf("cluster auto(%v): %v", method, got.Err)
			}
			if got.Plan == nil || got.Plan.Method != method {
				t.Fatalf("cluster auto(%v): plan %+v", method, got.Plan)
			}
			if !reflect.DeepEqual(got.Best(), want) {
				t.Fatalf("cluster auto(%v): answer differs from single-process", method)
			}
		}
	}
}

// TestAutoDegradesBeforeShed drives the load-degradation policy end to
// end: requests queued past half the shedding threshold are served one
// rung cheaper (APP→TGEN here) and still succeed, while requests queued
// past the full threshold are shed with ErrOverloaded — degradation
// structurally precedes shedding.
//
// The single worker is held deterministically by an engine task whose
// Visit blocks on a channel the test releases, so the queued requests'
// waits (and with them the pressure the planner sees) are controlled by
// the test, not by solver speed. The default queue (2×Workers) holds
// phase 1's two waiting requests.
func TestAutoDegradesBeforeShed(t *testing.T) {
	db, qs := serveWorkload(t)
	const maxAge = time.Second
	srv, err := db.Serve(ServeOptions{
		Workers:     1,
		Search:      SearchOptions{Method: MethodAuto},
		MaxQueueAge: maxAge,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dq, err := toDatasetQuery(qs[0])
	if err != nil {
		t.Fatal(err)
	}

	// holdWorker occupies the worker for exactly d: the engine task's
	// Visit blocks until a timer releases it.
	holdWorker := func(d time.Duration) chan error {
		release := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			tk := queryengine.Task{Ctx: context.Background(), Query: dq}
			tk.Visit = func(*dataset.QueryInstance) error { <-release; return nil }
			done <- srv.inner.Do(&tk)
		}()
		time.AfterFunc(d, func() { close(release) })
		time.Sleep(50 * time.Millisecond) // the worker is now inside Visit
		return done
	}

	autoReq := Request{
		Query:   qs[1],
		Search:  SearchOptions{Method: MethodAuto, Budget: time.Hour}, // undegraded choice: APP
		Explain: true,
	}

	// Phase 1: queued for ~600ms of a 1s threshold → pressure ≈ 0.6,
	// inside the degradation band [0.5, 1.0]. Both queued requests must
	// succeed, degraded one rung below APP.
	hold := holdWorker(600 * time.Millisecond)
	resps := make(chan Response, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resps <- srv.Do(context.Background(), autoReq)
		}()
	}
	degraded := 0
	for i := 0; i < 2; i++ {
		resp := <-resps
		if resp.Err != nil {
			t.Fatalf("phase 1 request failed: %v", resp.Err)
		}
		pl := resp.Plan
		if pl == nil {
			t.Fatal("phase 1: no plan")
		}
		if pl.Degraded {
			degraded++
			if pl.Method != MethodTGEN {
				t.Fatalf("degraded from APP to %v, want TGEN", pl.Method)
			}
			if pl.Pressure < 0.5 || pl.Pressure > 1.0 {
				t.Fatalf("degraded at pressure %.2f, want [0.5, 1.0]", pl.Pressure)
			}
			if !strings.Contains(pl.Reason, "degraded") {
				t.Fatalf("degraded plan reason does not say so: %q", pl.Reason)
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no phase-1 request was degraded (expected pressure ≈ 0.6)")
	}
	if err := <-hold; err != nil {
		t.Fatalf("hold task: %v", err)
	}

	// Phase 2: queued past the full threshold → shed, never answered.
	hold = holdWorker(1300 * time.Millisecond)
	shed := make(chan Response, 1)
	go func() {
		shed <- srv.Do(context.Background(), autoReq)
	}()
	if resp := <-shed; !errors.Is(resp.Err, ErrOverloaded) {
		t.Fatalf("phase 2 err = %v, want ErrOverloaded", resp.Err)
	}
	if err := <-hold; err != nil {
		t.Fatalf("hold task: %v", err)
	}
	if st := srv.Stats(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
}

// TestExplainScoreCacheHits checks that the plan's skip accounting sees
// the score cache: a cold query scans cells, an identical repeat replays
// them from the cache, and both answers are bit-identical.
func TestExplainScoreCacheHits(t *testing.T) {
	db, qs := serveWorkload(t)
	db.SetScoreCache(1 << 12)
	ctx := context.Background()
	q := qs[0]

	cold := db.Do(ctx, Request{Query: q, Explain: true})
	if cold.Err != nil || cold.Plan == nil {
		t.Fatalf("cold: (%+v, %v)", cold.Plan, cold.Err)
	}
	if cold.Plan.CellsSkippedCache != 0 {
		t.Fatalf("cold query hit the cache: %d", cold.Plan.CellsSkippedCache)
	}
	if cold.Plan.CellsScanned == 0 || cold.Plan.PostingLists == 0 || cold.Plan.Postings == 0 {
		t.Fatalf("cold plan counted no scan work: %+v", cold.Plan)
	}

	warm := db.Do(ctx, Request{Query: q, Explain: true})
	if warm.Err != nil || warm.Plan == nil {
		t.Fatalf("warm: (%+v, %v)", warm.Plan, warm.Err)
	}
	if warm.Plan.CellsSkippedCache == 0 {
		t.Fatal("repeat query skipped no cells via the score cache")
	}
	if warm.Plan.CellsScanned >= cold.Plan.CellsScanned {
		t.Fatalf("warm scan did not shrink: cold=%d warm=%d",
			cold.Plan.CellsScanned, warm.Plan.CellsScanned)
	}
	// Every non-empty in-rect cell lands in exactly one of scanned /
	// no-term / cache-hit; the cache only moves cells between buckets
	// (interior no-term cells are cached too), never changes the total.
	coldTotal := cold.Plan.CellsScanned + cold.Plan.CellsSkippedNoTerm + cold.Plan.CellsSkippedCache
	warmTotal := warm.Plan.CellsScanned + warm.Plan.CellsSkippedNoTerm + warm.Plan.CellsSkippedCache
	if coldTotal != warmTotal || warm.Plan.CellsInRect != cold.Plan.CellsInRect {
		t.Fatalf("cell accounting drifted: cold total %d (in-rect %d), warm total %d (in-rect %d)",
			coldTotal, cold.Plan.CellsInRect, warmTotal, warm.Plan.CellsInRect)
	}
	if !reflect.DeepEqual(warm.Results, cold.Results) {
		t.Fatal("cache replay changed the answer")
	}
}
