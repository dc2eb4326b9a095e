//go:build !race

package pcst

// The race detector instruments allocations, so this runs only in non-race
// builds.

import "testing"

// TestSolverZeroAlloc pins the Solver's steady state: once warm, a Solve
// that alternates between two graphs — the dormancy entry lists, union–find,
// event queue and pruning scratch all resized per graph — allocates
// nothing. Prizes are a small λ times sparse weights, the regime of Garg's
// λ-search, where most moats die early and most edges go dormant.
func TestSolverZeroAlloc(t *testing.T) {
	var gs [2]*Graph
	for i := range gs {
		gs[i] = gridGraph(24+6*i, int64(5+i))
		for v := range gs[i].Prizes {
			gs[i].Prizes[v] *= 0.05
		}
	}
	s := NewSolver()
	k := 0
	run := func() {
		s.Reset()
		if _, err := s.Solve(gs[k%2]); err != nil {
			t.Fatal(err)
		}
		k++
	}
	run() // warm on both graphs
	run()
	if s.episodes < uint32(len(gs[1].Edges)/4) {
		t.Fatalf("%d dormancy episodes on %d edges: the graph no longer exercises the dormancy index", s.episodes, len(gs[1].Edges))
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("warm Solve allocated %.1f times per run, want 0", allocs)
	}
}
