package pcst

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomPCSTGraph builds a connected-ish random graph with a mix of zero
// and positive prizes, the regimes GW moat growing distinguishes.
func randomPCSTGraph(rng *rand.Rand, n int) *Graph {
	var edges []Edge
	for i := 1; i < n; i++ {
		if rng.Float64() < 0.15 {
			continue // leave some nodes isolated / split components
		}
		edges = append(edges, Edge{U: int32(rng.Intn(i)), V: int32(i), Cost: 0.25 + 2*rng.Float64()})
	}
	for k := rng.Intn(n); k > 0; k-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, Edge{U: int32(u), V: int32(v), Cost: 0.25 + 2*rng.Float64()})
		}
	}
	prizes := make([]float64, n)
	for i := range prizes {
		if rng.Float64() < 0.6 {
			prizes[i] = 3 * rng.Float64()
		}
	}
	return &Graph{N: n, Edges: edges, Prizes: prizes}
}

// TestSolverTreesSurviveLaterSolves pins the ownership contract: trees
// returned by one Solve stay valid (bit-identical content) while later
// Solve calls run on the same Solver, until Reset.
func TestSolverTreesSurviveLaterSolves(t *testing.T) {
	s := NewSolver()
	rng := rand.New(rand.NewSource(7))
	g0 := randomPCSTGraph(rng, 40)
	first, err := s.Solve(g0)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([]Tree, len(first))
	for i, tr := range first {
		snapshot[i] = Tree{
			Nodes: append([]int32(nil), tr.Nodes...),
			Edges: append([]int(nil), tr.Edges...),
			Cost:  tr.Cost,
			Prize: tr.Prize,
		}
	}
	for k := 0; k < 10; k++ {
		if _, err := s.Solve(randomPCSTGraph(rng, 30+k)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range snapshot {
		if !reflect.DeepEqual(first[i], snapshot[i]) {
			t.Fatalf("tree %d mutated by later solves:\n got %+v\nwant %+v", i, first[i], snapshot[i])
		}
	}
}

// TestSolverManyResetCycles exercises reuse across Reset cycles: repeated
// Solve+Reset rounds on one graph must keep returning the first round's
// trees.
func TestSolverManyResetCycles(t *testing.T) {
	s := NewSolver()
	rng := rand.New(rand.NewSource(11))
	g := randomPCSTGraph(rng, 50)
	var want []Tree
	for cycle := 0; cycle < 50; cycle++ {
		got, err := s.Solve(g)
		if err != nil {
			t.Fatal(err)
		}
		if cycle == 0 {
			for _, tr := range got { // copy out: Reset recycles the storage
				want = append(want, Tree{
					Nodes: append([]int32(nil), tr.Nodes...),
					Edges: append([]int(nil), tr.Edges...),
					Cost:  tr.Cost,
					Prize: tr.Prize,
				})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("cycle %d: %d trees, want %d", cycle, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("cycle %d: tree %d differs", cycle, i)
			}
		}
		s.Reset()
	}
}
