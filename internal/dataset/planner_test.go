package dataset

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestPlannerMatchesInstantiate runs a workload twice — once through a
// single pooled Planner and once through a fresh Planner per query — and
// demands identical working graphs. It also pins the pooled instance to one
// built independently, by core.NewInstance over the allocating oracle
// extraction: same edges, same adjacency order, same parent ids.
func TestPlannerMatchesInstantiate(t *testing.T) {
	d, err := NYLike(Config{Seed: 9, Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	queries, err := d.GenQueries(rng, 6, 3, 25e6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	queries[1].Mode = WeightRating
	queries[2].Mode = WeightLanguageModel
	p := d.NewPlanner()
	for qi, q := range queries {
		pooled, err := p.Instantiate(q)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := d.NewPlanner().Instantiate(q)
		if err != nil {
			t.Fatal(err)
		}
		if pooled.In.NumNodes != fresh.In.NumNodes {
			t.Fatalf("query %d: %d nodes, want %d", qi, pooled.In.NumNodes, fresh.In.NumNodes)
		}
		if len(pooled.In.Edges) != len(fresh.In.Edges) {
			t.Fatalf("query %d: %d edges, want %d", qi, len(pooled.In.Edges), len(fresh.In.Edges))
		}
		for i := range fresh.In.Edges {
			if pooled.In.Edges[i] != fresh.In.Edges[i] {
				t.Fatalf("query %d: edge %d = %+v, want %+v", qi, i, pooled.In.Edges[i], fresh.In.Edges[i])
			}
		}
		for v := range fresh.In.Weights {
			if pooled.In.Weights[v] != fresh.In.Weights[v] {
				t.Fatalf("query %d: weight[%d] = %v, want %v", qi, v, pooled.In.Weights[v], fresh.In.Weights[v])
			}
		}
		for v := range fresh.Sub.ToParent {
			if pooled.Sub.ToParent[v] != fresh.Sub.ToParent[v] {
				t.Fatalf("query %d: ToParent[%d] differs", qi, v)
			}
		}
		oracle := d.Graph.ExtractRect(q.Lambda)
		edges := make([]core.Edge, len(oracle.Edges))
		for i, e := range oracle.Edges {
			edges[i] = core.Edge{U: int32(e.U), V: int32(e.V), Length: e.Length}
		}
		ref, err := core.NewInstance(len(oracle.ToParent), edges, make([]float64, len(oracle.ToParent)))
		if err != nil {
			t.Fatal(err)
		}
		if pooled.In.NumNodes != ref.NumNodes || !slices.Equal(pooled.In.Edges, ref.Edges) {
			t.Fatalf("query %d: pooled working graph differs from the oracle's", qi)
		}
		for v := core.NodeID(0); int(v) < ref.NumNodes; v++ {
			if !slices.Equal(pooled.In.Neighbors(v), ref.Neighbors(v)) {
				t.Fatalf("query %d: Neighbors(%d) = %v, oracle %v", qi, v, pooled.In.Neighbors(v), ref.Neighbors(v))
			}
		}
		if !slices.Equal(pooled.Sub.ToParent, oracle.ToParent) {
			t.Fatalf("query %d: ToParent differs from the oracle's", qi)
		}
		for v := range fresh.NodeObjects {
			if len(pooled.NodeObjects[v]) != len(fresh.NodeObjects[v]) {
				t.Fatalf("query %d: node %d has %d objects, want %d",
					qi, v, len(pooled.NodeObjects[v]), len(fresh.NodeObjects[v]))
			}
			for i := range fresh.NodeObjects[v] {
				if pooled.NodeObjects[v][i] != fresh.NodeObjects[v][i] {
					t.Fatalf("query %d: NodeObjects[%d][%d] differs", qi, v, i)
				}
			}
		}
	}
}

// TestInstantiateDeterministic guards the deterministic accumulation order:
// two independent instantiations of the same query must agree bit-for-bit
// on node weights (grid.Index.Search sorts its results for this).
func TestInstantiateDeterministic(t *testing.T) {
	d, err := USANWLike(Config{Seed: 5, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	queries, err := d.GenQueries(rng, 3, 3, 50e6, 8000)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		a, err := d.NewPlanner().Instantiate(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.NewPlanner().Instantiate(q)
		if err != nil {
			t.Fatal(err)
		}
		for v := range a.In.Weights {
			if a.In.Weights[v] != b.In.Weights[v] {
				t.Fatalf("query %d: weight[%d] differs between runs: %v vs %v",
					qi, v, a.In.Weights[v], b.In.Weights[v])
			}
		}
	}
}

// TestVisitPlannerPool pins the pool's lifecycle: sequential Visits borrow
// the same planner, a planner a panicking fn unwound through is dropped so
// the next Visit gets a new one, and concurrent Visits each get their own
// planner and answer what a fresh planner answers. An instance points into
// its planner, so equal instance pointers mean the same *Planner.
func TestVisitPlannerPool(t *testing.T) {
	d, err := NYLike(Config{Seed: 9, Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := d.GenQueries(rand.New(rand.NewSource(21)), 6, 3, 25e6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	borrowed := func() *QueryInstance {
		var got *QueryInstance
		if err := d.Visit(ctx, queries[0], func(qi *QueryInstance) error { got = qi; return nil }); err != nil {
			t.Fatal(err)
		}
		return got
	}
	first := borrowed()
	if borrowed() != first {
		t.Fatal("two sequential Visits borrowed different planners")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panic in fn did not reach the caller")
			}
		}()
		_ = d.Visit(ctx, queries[0], func(*QueryInstance) error { panic("deliberate") })
	}()
	if borrowed() == first {
		t.Fatal("the planner a panic unwound through went back to the pool")
	}

	want := make([]float64, len(queries))
	for i, q := range queries {
		qi, err := d.NewPlanner().Instantiate(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range qi.In.Weights {
			want[i] += w
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				err := d.Visit(ctx, q, func(qi *QueryInstance) error {
					sum := 0.0
					for _, w := range qi.In.Weights {
						sum += w
					}
					if sum != want[i] {
						t.Errorf("query %d: concurrent Visit weight sum %v, want %v", i, sum, want[i])
					}
					return nil
				})
				if err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}
