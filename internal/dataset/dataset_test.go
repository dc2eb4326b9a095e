package dataset

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/roadnet"
)

// smallNY builds a fast, reduced NY-like dataset shared by tests.
func smallNY(t *testing.T) *Dataset {
	t.Helper()
	d, err := NYLike(Config{Seed: 7, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNYLikeBuilds(t *testing.T) {
	d := smallNY(t)
	if d.Name != "NY" {
		t.Errorf("name = %q", d.Name)
	}
	if d.Graph.NumNodes() < 300 {
		t.Errorf("nodes = %d, want a few hundred at scale 0.1", d.Graph.NumNodes())
	}
	if len(d.Objects) < d.Graph.NumNodes() {
		t.Errorf("objects = %d, want ≥ nodes", len(d.Objects))
	}
	if len(d.ObjNode) != len(d.Objects) {
		t.Error("ObjNode misaligned")
	}
	if comps := d.Graph.Components(); len(comps) != 1 {
		t.Errorf("NY graph has %d components", len(comps))
	}
}

func TestUSANWLikeBuilds(t *testing.T) {
	d, err := USANWLike(Config{Seed: 7, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Graph.NumNodes() < 400 {
		t.Errorf("nodes = %d", d.Graph.NumNodes())
	}
	if len(d.Objects) != d.Graph.NumNodes() {
		t.Errorf("USANW should have one object per node, got %d for %d nodes",
			len(d.Objects), d.Graph.NumNodes())
	}
	if comps := d.Graph.Components(); len(comps) != 1 {
		t.Errorf("USANW graph has %d components", len(comps))
	}
}

func TestDeterminism(t *testing.T) {
	a, err := NYLike(Config{Seed: 3, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NYLike(Config{Seed: 3, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumNodes() != b.Graph.NumNodes() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Error("same seed produced different graphs")
	}
	if len(a.Objects) != len(b.Objects) {
		t.Error("same seed produced different object counts")
	}
	for i := range a.Objects {
		if a.Objects[i].Point != b.Objects[i].Point {
			t.Fatal("same seed produced different object placements")
		}
	}
}

func TestGenQueriesShape(t *testing.T) {
	d := smallNY(t)
	rng := rand.New(rand.NewSource(11))
	const area = 4e6 // 4 km²  (scaled-down dataset)
	qs, err := d.GenQueries(rng, 10, 3, area, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 10 {
		t.Fatalf("got %d queries", len(qs))
	}
	bbox := d.Graph.BBox()
	for i, q := range qs {
		if len(q.Keywords) != 3 {
			t.Errorf("query %d has %d keywords", i, len(q.Keywords))
		}
		if q.Delta != 3000 {
			t.Errorf("query %d ∆ = %v", i, q.Delta)
		}
		if q.Lambda.Area() > area*1.01 {
			t.Errorf("query %d area = %v, want ≤ %v", i, q.Lambda.Area(), area)
		}
		if q.Lambda.MinX < bbox.MinX-1 || q.Lambda.MaxX > bbox.MaxX+1 {
			t.Errorf("query %d Λ leaves the data bounds", i)
		}
		// Keywords must be distinct.
		seen := map[string]bool{}
		for _, kw := range q.Keywords {
			if seen[kw] {
				t.Errorf("query %d repeats keyword %q", i, kw)
			}
			seen[kw] = true
		}
	}
}

func TestGenQueriesValidation(t *testing.T) {
	d := smallNY(t)
	rng := rand.New(rand.NewSource(1))
	if _, err := d.GenQueries(rng, 0, 3, 1e6, 1000); err == nil {
		t.Error("count 0 accepted")
	}
	if _, err := d.GenQueries(rng, 1, 0, 1e6, 1000); err == nil {
		t.Error("0 keywords accepted")
	}
	if _, err := d.GenQueries(rng, 1, 3, -1, 1000); err == nil {
		t.Error("negative area accepted")
	}
	if _, err := d.GenQueries(rng, 1, 3, 1e6, 0); err == nil {
		t.Error("zero ∆ accepted")
	}
}

func TestInstantiateEndToEnd(t *testing.T) {
	d := smallNY(t)
	rng := rand.New(rand.NewSource(21))
	qs, err := d.GenQueries(rng, 5, 2, 4e6, 3000)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		qi, err := d.NewPlanner().Instantiate(q)
		if err != nil {
			t.Fatal(err)
		}
		if qi.In.NumNodes == 0 {
			t.Fatalf("query %d: empty instance", i)
		}
		// Some node must be relevant (keywords were sampled in-region).
		maxW, _ := qi.In.MaxWeight()
		if maxW <= 0 {
			t.Fatalf("query %d: no relevant node despite in-region keyword sampling", i)
		}
		// Node weights must equal the summed scores of their objects.
		for v := 0; v < qi.In.NumNodes; v++ {
			var sum float64
			for _, obj := range qi.NodeObjects[v] {
				o := d.Objects[obj]
				sum += qi.Prepared.Score(&o.Doc)
			}
			if diff := sum - qi.In.Weights[v]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("query %d node %d: weight %v but object scores sum to %v",
					i, v, qi.In.Weights[v], sum)
			}
		}
		// Run the three algorithms end to end.
		alpha := 0.5
		app, err := core.SolveAPP(context.Background(), core.NewSolveScratch(), qi.In, q.Delta, core.APPOptions{Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		tg, err := core.SolveTGEN(context.Background(), core.NewSolveScratch(), qi.In, q.Delta, core.TGENOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := core.SolveGreedy(context.Background(), core.NewSolveScratch(), qi.In, q.Delta, core.GreedyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if app == nil || tg == nil || gr == nil {
			t.Fatalf("query %d: nil region (app=%v tgen=%v greedy=%v)", i, app, tg, gr)
		}
		if objs := qi.RegionObjects(tg); len(objs) == 0 {
			t.Errorf("query %d: TGEN region contains no relevant objects", i)
		}
	}
}

func TestRegionObjectsNil(t *testing.T) {
	qi := &QueryInstance{}
	if qi.RegionObjects(nil) != nil {
		t.Error("nil region should give nil objects")
	}
}

func TestClampRect(t *testing.T) {
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	r := clampRect(geo.Rect{MinX: -10, MinY: 50, MaxX: 10, MaxY: 70}, bounds)
	if r.MinX != 0 || r.MaxX != 20 {
		t.Errorf("clamp left: %v", r)
	}
	r = clampRect(geo.Rect{MinX: 95, MinY: 95, MaxX: 115, MaxY: 115}, bounds)
	if r.MaxX != 100 || r.MaxY != 100 || r.MinX != 80 {
		t.Errorf("clamp corner: %v", r)
	}
	// Oversized rect collapses to the bounds.
	r = clampRect(geo.Rect{MinX: -50, MinY: -50, MaxX: 500, MaxY: 500}, bounds)
	if r != bounds {
		t.Errorf("oversize clamp: %v", r)
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	d, err := NYLike(Config{Seed: 13, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Name != d.Name {
		t.Errorf("name %q != %q", d2.Name, d.Name)
	}
	if d2.Graph.NumNodes() != d.Graph.NumNodes() || d2.Graph.NumEdges() != d.Graph.NumEdges() {
		t.Fatal("graph size changed in round trip")
	}
	if len(d2.Objects) != len(d.Objects) {
		t.Fatalf("objects %d != %d", len(d2.Objects), len(d.Objects))
	}
	// Same query must yield comparable results on both copies.
	rng := rand.New(rand.NewSource(77))
	qs, err := d.GenQueries(rng, 3, 2, 4e6, 3000)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		a, err := d.NewPlanner().Instantiate(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d2.NewPlanner().Instantiate(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.In.NumNodes != b.In.NumNodes {
			t.Fatalf("query %d: instance sizes differ", i)
		}
		ra, err := core.SolveTGEN(context.Background(), core.NewSolveScratch(), a.In, q.Delta, core.TGENOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := core.SolveTGEN(context.Background(), core.NewSolveScratch(), b.In, q.Delta, core.TGENOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Scores may differ in the last bits (tf multiplicities are not
		// preserved exactly), but the answers must be close.
		if ra == nil || rb == nil {
			t.Fatalf("query %d: nil region after round trip", i)
		}
		if rb.Score < 0.5*ra.Score || rb.Score > 2*ra.Score {
			t.Errorf("query %d: scores diverged: %v vs %v", i, ra.Score, rb.Score)
		}
	}
}

func TestDatasetReadRejectsMalformed(t *testing.T) {
	bad := []string{
		"d\n",                                 // short name record
		"o 1 2\n",                             // object with no tokens
		"o x y cafe\n",                        // bad coordinates
		"g 1 0\nv 0 0 0\no 0 0 cafe\nq foo\n", // unknown record type
	}
	for _, in := range bad {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestFromObjectsValidation(t *testing.T) {
	g := roadnet.NewBuilder().Build()
	if _, err := FromObjects("x", g, []ObjectInput{{Text: "a"}}); err == nil {
		t.Error("empty graph accepted")
	}
	b := roadnet.NewBuilder()
	b.AddNode(geo.Point{})
	if _, err := FromObjects("x", b.Build(), nil); err == nil {
		t.Error("no objects accepted")
	}
}

func TestWeightRatingMode(t *testing.T) {
	d := smallNY(t)
	rng := rand.New(rand.NewSource(31))
	qs, err := d.GenQueries(rng, 2, 2, 4e6, 3000)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		rel, err := d.NewPlanner().Instantiate(q)
		if err != nil {
			t.Fatal(err)
		}
		q.Mode = WeightRating
		rat, err := d.NewPlanner().Instantiate(q)
		if err != nil {
			t.Fatal(err)
		}
		// Same relevant node set, different weights: node weights under
		// rating mode equal the summed ratings of matching objects.
		for v := 0; v < rat.In.NumNodes; v++ {
			var want float64
			for _, obj := range rat.NodeObjects[v] {
				want += d.Ratings[obj]
			}
			if diff := want - rat.In.Weights[v]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("query %d node %d: rating weight %v, want %v",
					i, v, rat.In.Weights[v], want)
			}
			if (rel.In.Weights[v] > 0) != (rat.In.Weights[v] > 0) {
				t.Fatalf("query %d node %d: relevance/rating disagree on relevance", i, v)
			}
		}
		// Rating-weighted queries run end to end.
		r, err := core.SolveGreedy(context.Background(), core.NewSolveScratch(), rat.In, q.Delta, core.GreedyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r == nil || r.Score <= 0 {
			t.Fatalf("query %d: no rating-mode region", i)
		}
	}
}
