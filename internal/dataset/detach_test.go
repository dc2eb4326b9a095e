package dataset

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
)

// TestDetachOutlivesPlanner is the contract behind Detach: a detached
// instance equals a fresh instantiation of its query, stays equal after
// the owning planner's buffers have been clobbered by other queries, and
// solves through its own scratch to the same region.
func TestDetachOutlivesPlanner(t *testing.T) {
	d, err := NYLike(Config{Seed: 9, Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	queries, err := d.GenQueries(rng, 6, 3, 25e6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	p := d.NewPlanner()
	detached := make([]*QueryInstance, len(queries))
	for i, q := range queries {
		qi, err := p.Instantiate(q)
		if err != nil {
			t.Fatal(err)
		}
		if detached[i], err = qi.Detach(); err != nil {
			t.Fatal(err)
		}
	}
	// Every planner buffer now holds the last query; each detached copy
	// must still match a fresh instantiation of its own query.
	for i, q := range queries {
		fresh, err := d.NewPlanner().Instantiate(q)
		if err != nil {
			t.Fatal(err)
		}
		got := detached[i]
		if got.In.NumNodes != fresh.In.NumNodes || len(got.In.Edges) != len(fresh.In.Edges) {
			t.Fatalf("query %d: detached graph is %d nodes / %d edges, want %d / %d",
				i, got.In.NumNodes, len(got.In.Edges), fresh.In.NumNodes, len(fresh.In.Edges))
		}
		for v := range fresh.In.Weights {
			if got.In.Weights[v] != fresh.In.Weights[v] {
				t.Fatalf("query %d: weight[%d] = %v, want %v", i, v, got.In.Weights[v], fresh.In.Weights[v])
			}
		}
		for v := range fresh.Sub.ToParent {
			if got.Sub.ToParent[v] != fresh.Sub.ToParent[v] {
				t.Fatalf("query %d: ToParent[%d] differs", i, v)
			}
			if got.Sub.Local(fresh.Sub.ToParent[v]) != roadnet.NodeID(v) {
				t.Fatalf("query %d: Local(%d) broken on the detached subgraph", i, fresh.Sub.ToParent[v])
			}
		}
		for v := range fresh.NodeObjects {
			if len(got.NodeObjects[v]) != len(fresh.NodeObjects[v]) {
				t.Fatalf("query %d: node %d object count differs", i, v)
			}
		}
		if got.Scratch == fresh.Scratch || got.Scratch == nil {
			t.Fatalf("query %d: detached scratch must be its own", i)
		}
		// Solving the detached instance must reproduce the fresh answer.
		ctx := context.Background()
		wantR, err := core.SolveTGEN(ctx, fresh.Scratch, fresh.In, queries[i].Delta, core.TGENOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gotR, err := core.SolveTGEN(ctx, got.Scratch, got.In, queries[i].Delta, core.TGENOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if (wantR == nil) != (gotR == nil) {
			t.Fatalf("query %d: matched mismatch", i)
		}
		if wantR != nil && (wantR.Score != gotR.Score || wantR.Length != gotR.Length) {
			t.Fatalf("query %d: detached solve = (%v, %v), want (%v, %v)",
				i, gotR.Score, gotR.Length, wantR.Score, wantR.Length)
		}
	}
}
