package repro

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// tinyDB builds a hand-made database: a 3x3 street grid, 100 m blocks,
// with cafes clustered in the north-west corner and one museum far away.
func tinyDB(t *testing.T) *Database {
	t.Helper()
	var nodes []NodeSpec
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			nodes = append(nodes, NodeSpec{X: float64(x) * 100, Y: float64(y) * 100})
		}
	}
	var edges []EdgeSpec
	id := func(x, y int) int { return y*3 + x }
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			if x+1 < 3 {
				edges = append(edges, EdgeSpec{U: id(x, y), V: id(x+1, y)})
			}
			if y+1 < 3 {
				edges = append(edges, EdgeSpec{U: id(x, y), V: id(x, y+1)})
			}
		}
	}
	objects := []ObjectSpec{
		{X: 5, Y: 5, Text: "cafe espresso"},
		{X: 95, Y: 5, Text: "cafe bakery"},
		{X: 5, Y: 95, Text: "cafe"},
		{X: 205, Y: 205, Text: "museum"},
	}
	db, err := New(nodes, edges, objects)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// best answers q with opts through Database.Do, failing the test on an
// error, and returns the best region (nil when nothing matched).
func best(t *testing.T, db *Database, q Query, opts SearchOptions) *Result {
	t.Helper()
	resp := db.Do(context.Background(), Request{Query: q, Search: opts})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	return resp.Best()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, []ObjectSpec{{Text: "x"}}); err == nil {
		t.Error("no nodes accepted")
	}
	if _, err := New([]NodeSpec{{}}, nil, nil); err == nil {
		t.Error("no objects accepted")
	}
	if _, err := New([]NodeSpec{{}, {X: 1}},
		[]EdgeSpec{{U: 0, V: 9}}, []ObjectSpec{{Text: "x"}}); err == nil {
		t.Error("bad edge accepted")
	}
}

func TestTinyEndToEnd(t *testing.T) {
	db := tinyDB(t)
	if db.NumNodes() != 9 || db.NumObjects() != 4 {
		t.Fatalf("db size: %d nodes %d objects", db.NumNodes(), db.NumObjects())
	}
	q := Query{
		Keywords: []string{"cafe"},
		Delta:    250,
		Region:   db.Bounds(),
	}
	for _, m := range []Method{MethodTGEN, MethodAPP, MethodGreedy} {
		res := best(t, db, q, SearchOptions{Method: m})
		if res == nil {
			t.Fatalf("%v: nil result", m)
		}
		if res.Length > q.Delta {
			t.Errorf("%v: length %v exceeds ∆", m, res.Length)
		}
		if len(res.Objects) == 0 {
			t.Errorf("%v: no objects in region", m)
		}
		for _, o := range res.Objects {
			if o.Score <= 0 {
				t.Errorf("%v: object %d has score %v", m, o.ID, o.Score)
			}
		}
		// The museum (object 3) matches nothing and must never show up.
		for _, o := range res.Objects {
			if o.ID == 3 {
				t.Errorf("%v: irrelevant museum included", m)
			}
		}
	}
	// TGEN with budget 250 should capture all three cafes: they sit at
	// corners (0,0), (100,0), (0,100) — 200 m of road connects them.
	if res := best(t, db, q, SearchOptions{Method: MethodTGEN}); len(res.Objects) != 3 {
		t.Errorf("TGEN found %d cafes, want 3 (score %v, len %v)", len(res.Objects), res.Score, res.Length)
	}
}

func TestRunNoMatch(t *testing.T) {
	db := tinyDB(t)
	resp := db.Do(context.Background(), Request{Query: Query{Keywords: []string{"zzz"}, Delta: 100, Region: db.Bounds()}})
	if resp.Err != nil || resp.Results != nil {
		t.Errorf("unknown keyword produced (%+v, %v), want an empty answer", resp.Results, resp.Err)
	}
}

func TestRunValidation(t *testing.T) {
	db := tinyDB(t)
	for name, req := range map[string]Request{
		"empty keywords":  {Query: Query{Delta: 10, Region: db.Bounds()}},
		"zero ∆":          {Query: Query{Keywords: []string{"cafe"}, Delta: 0, Region: db.Bounds()}},
		"unknown method":  {Query: Query{Keywords: []string{"cafe"}, Delta: 1, Region: db.Bounds()}, Search: SearchOptions{Method: Method(99)}},
		"negative method": {Query: Query{Keywords: []string{"cafe"}, Delta: 1, Region: db.Bounds()}, Search: SearchOptions{Method: -1}},
	} {
		if resp := db.Do(context.Background(), req); resp.Err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRunTopK(t *testing.T) {
	db := tinyDB(t)
	q := Query{Keywords: []string{"cafe"}, Delta: 120, Region: db.Bounds()}
	for _, m := range []Method{MethodTGEN, MethodAPP, MethodGreedy} {
		resp := db.Do(context.Background(), Request{Query: q, K: 2, Search: SearchOptions{Method: m}})
		if resp.Err != nil {
			t.Fatalf("%v: %v", m, resp.Err)
		}
		rs := resp.Results
		if len(rs) == 0 || len(rs) > 2 {
			t.Fatalf("%v: %d results", m, len(rs))
		}
		// Disjointness over parent node IDs.
		if len(rs) == 2 {
			seen := map[int]bool{}
			for _, n := range rs[0].Nodes {
				seen[n] = true
			}
			for _, n := range rs[1].Nodes {
				if seen[n] {
					t.Errorf("%v: top-2 regions overlap on node %d", m, n)
				}
			}
		}
	}
}

func TestRegionRestriction(t *testing.T) {
	db := tinyDB(t)
	// Λ covering only the north-west quadrant: the east cafe at (95,5)
	// is inside, the rest of the region must stay within Λ.
	q := Query{
		Keywords: []string{"cafe"},
		Delta:    250,
		Region:   Rect{MinX: -10, MinY: -10, MaxX: 110, MaxY: 110},
	}
	res := best(t, db, q, SearchOptions{Method: MethodTGEN})
	if res == nil {
		t.Fatal("nil result")
	}
	for _, n := range res.Nodes {
		// Grid nodes 0,1,3,4 are inside the quadrant (x,y ≤ 100).
		if n != 0 && n != 1 && n != 3 && n != 4 {
			t.Errorf("node %d outside Q.Λ", n)
		}
	}
}

func TestNYLikeFacade(t *testing.T) {
	db, err := NYLike(5, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	qs, err := db.GenQueries(rng, 3, 2, 4e6, 3000)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if res := best(t, db, q, SearchOptions{}); res == nil || res.Score <= 0 {
			t.Fatalf("query %d: empty result %+v", i, res)
		}
	}
}

func TestMethodString(t *testing.T) {
	if MethodTGEN.String() != "TGEN" || MethodAPP.String() != "APP" ||
		MethodGreedy.String() != "Greedy" || Method(9).String() == "" {
		t.Error("Method.String broken")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := tinyDB(t)
	path := t.TempDir() + "/tiny.ds"
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if db2.NumNodes() != db.NumNodes() || db2.NumObjects() != db.NumObjects() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
			db2.NumNodes(), db2.NumObjects(), db.NumNodes(), db.NumObjects())
	}
	q := Query{Keywords: []string{"cafe"}, Delta: 250, Region: db.Bounds()}
	a, b := best(t, db, q, SearchOptions{}), best(t, db2, q, SearchOptions{})
	if len(a.Objects) != len(b.Objects) {
		t.Errorf("loaded db answers differently: %d vs %d objects", len(a.Objects), len(b.Objects))
	}
	if _, err := Load("/nonexistent/path.ds"); err == nil {
		t.Error("loading a missing file succeeded")
	}
}

func TestWeightingModes(t *testing.T) {
	db := tinyDB(t)
	base := Query{Keywords: []string{"cafe"}, Delta: 250, Region: db.Bounds()}
	var scores []float64
	for _, w := range []Weighting{WeightingRelevance, WeightingRating, WeightingLanguageModel} {
		q := base
		q.Weighting = w
		res := best(t, db, q, SearchOptions{})
		if res == nil || res.Score <= 0 {
			t.Fatalf("weighting %d: empty result", w)
		}
		// All modes must find the same 3 cafes (matching is mode-independent).
		if len(res.Objects) != 3 {
			t.Errorf("weighting %d: %d objects, want 3", w, len(res.Objects))
		}
		scores = append(scores, res.Score)
	}
	// Modes produce different score magnitudes.
	if scores[0] == scores[1] && scores[1] == scores[2] {
		t.Error("all weightings produced identical scores; modes not wired")
	}
}

// A Database must serve concurrent Do calls: each borrows its own pooled
// planner, so goroutines mixing methods, K = 2 and Explain must each get
// exactly the answer a serial Do gives — a planner shared between two
// requests would corrupt one of them.
func TestConcurrentQueries(t *testing.T) {
	db, err := NYLike(9, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	qs, err := db.GenQueries(rng, 4, 2, 4e6, 3000)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for _, q := range qs {
		for _, m := range []Method{MethodTGEN, MethodAPP, MethodGreedy} {
			search := SearchOptions{Method: m}
			reqs = append(reqs, Request{Query: q, Search: search}, Request{Query: q, Search: search, K: 2, Explain: true})
		}
	}
	want := make([][]*Result, len(reqs))
	for i, req := range reqs {
		resp := db.Do(context.Background(), req)
		if resp.Err != nil || len(resp.Results) == 0 {
			t.Fatalf("request %d: serial Do = (%v, %v), want a region", i, resp.Results, resp.Err)
		}
		want[i] = resp.Results
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range reqs {
				i := (k + w*len(reqs)/workers) % len(reqs) // every goroutine starts elsewhere
				resp := db.Do(context.Background(), reqs[i])
				if resp.Err != nil || !reflect.DeepEqual(resp.Results, want[i]) || (resp.Plan == nil) == reqs[i].Explain {
					errs <- fmt.Errorf("request %d: concurrent Do = (%v, plan %v, %v), want %v", i, resp.Results, resp.Plan != nil, resp.Err, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
