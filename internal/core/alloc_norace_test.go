//go:build !race

package core

// The race detector instruments allocations, so this runs only in non-race
// builds.

import (
	"context"
	"testing"
)

// TestSolveTopKZeroAlloc puts K > 1 on the 0-alloc baseline: on a warm
// scratch, a k = 3 solve of every method — sub-instances, rank copies and
// the returned slice included — allocates nothing.
func TestSolveTopKZeroAlloc(t *testing.T) {
	in, delta := viewportInstance(t, 1)
	ctx := context.Background()
	s := NewSolveScratch()
	for name, solve := range map[string]func() ([]*Region, error){
		"APP":    func() ([]*Region, error) { return SolveTopK(ctx, s, in, delta, 3, APPOptions{}) },
		"TGEN":   func() ([]*Region, error) { return SolveTopK(ctx, s, in, delta, 3, TGENOptions{Alpha: goldenAlpha(in)}) },
		"Greedy": func() ([]*Region, error) { return SolveTopK(ctx, s, in, delta, 3, GreedyOptions{}) },
	} {
		run := func() {
			if rs, err := solve(); err != nil || len(rs) != 3 {
				t.Fatalf("%s: %d regions, err %v", name, len(rs), err)
			}
		}
		run() // warm
		run()
		if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
			t.Errorf("%s: top-3 on a warm scratch allocated %.1f times, want 0", name, allocs)
		}
	}
}
