package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// regionEq reports whether two regions are bit-identical answers: same
// length, score, scaled weight, and the same node and edge lists (nil and
// empty compare equal — the scratch reuses zero-length buffers).
func regionEq(a, b *Region) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Length != b.Length || a.Score != b.Score || a.Scaled != b.Scaled {
		return false
	}
	if len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}

// TestSolveScratchMethodInterleaving reuses one scratch across all three
// methods query after query, the way a serving worker alternating request
// types would, and checks every answer against a fresh scratch's; then it
// does the same after a solve abandoned mid-way.
func TestSolveScratchMethodInterleaving(t *testing.T) {
	s := NewSolveScratch()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 30; round++ {
		in := randomInstance(t, rng, 3+rng.Intn(40))
		delta := rng.Float64() * 8
		var got, want *Region
		var err error
		switch round % 3 {
		case 0:
			want, _ = SolveTGEN(ctx, NewSolveScratch(), in, delta, TGENOptions{})
			got, err = SolveTGEN(ctx, s, in, delta, TGENOptions{})
		case 1:
			want, _ = SolveAPP(ctx, NewSolveScratch(), in, delta, APPOptions{})
			got, err = SolveAPP(ctx, s, in, delta, APPOptions{})
		default:
			want, _ = SolveGreedy(ctx, NewSolveScratch(), in, delta, GreedyOptions{})
			got, err = SolveGreedy(ctx, s, in, delta, GreedyOptions{})
		}
		if err != nil || !regionEq(got, want) {
			t.Fatalf("round %d: reused scratch %v (%v), fresh scratch %v", round, got, err, want)
		}
	}

	// A TGEN solve cancelled mid-way on wide keys (σ̂max ≈ 72) leaves its
	// tuple arrays wide and full, and the pool mid-flight. A narrow-key TGEN
	// solve of the same instance, then APP, must not see any of it.
	in, delta := viewportInstance(t, 3)
	s = NewSolveScratch()
	for wait := time.Millisecond; ; wait *= 2 {
		cctx, stop := context.WithCancel(ctx)
		timer := time.AfterFunc(wait, stop)
		r, err := SolveTGEN(cctx, s, in, delta, TGENOptions{Alpha: float64(in.NumNodes) / 72})
		timer.Stop()
		stop()
		if r != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("wide solve cancelled after %v returned %v, %v", wait, r, err)
		}
		if slices.ContainsFunc(s.arrays, func(ta []tupleSlot) bool { return len(ta) > 0 }) {
			break // cancelled mid-way, not at the entry check
		}
		if wait > time.Second {
			t.Fatal("no cancel landed mid-solve")
		}
	}
	want, _ := SolveTGEN(ctx, NewSolveScratch(), in, delta, TGENOptions{})
	if got, err := SolveTGEN(ctx, s, in, delta, TGENOptions{}); err != nil || !regionEq(got, want) {
		t.Fatalf("TGEN after a cancelled wide solve: %v (%v), fresh scratch %v", got, err, want)
	}
	want, _ = SolveAPP(ctx, NewSolveScratch(), in, delta, APPOptions{})
	if got, err := SolveAPP(ctx, s, in, delta, APPOptions{}); err != nil || !regionEq(got, want) {
		t.Fatalf("APP after a cancelled wide solve: %v (%v), fresh scratch %v", got, err, want)
	}
}

// TestSolveValidation pins the error contract.
func TestSolveValidation(t *testing.T) {
	s := NewSolveScratch()
	in := pathInstance(t, []float64{1, 2}, []float64{1})
	if _, err := SolveTGEN(context.Background(), s, in, -1, TGENOptions{}); err == nil {
		t.Error("SolveTGEN accepted negative δ")
	}
	if _, err := SolveAPP(context.Background(), s, in, -1, APPOptions{}); err == nil {
		t.Error("SolveAPP accepted negative δ")
	}
	if _, err := SolveGreedy(context.Background(), s, in, -1, GreedyOptions{}); err == nil {
		t.Error("SolveGreedy accepted negative δ")
	}
	if _, err := SolveGreedy(context.Background(), s, in, 1, GreedyOptions{Mu: 2}); err == nil {
		t.Error("SolveGreedy accepted µ > 1")
	}
	// No relevant node: nil region, nil error.
	zero := pathInstance(t, []float64{0, 0}, []float64{1})
	for name, got := range map[string]func() (*Region, error){
		"TGEN":   func() (*Region, error) { return SolveTGEN(context.Background(), s, zero, 1, TGENOptions{}) },
		"APP":    func() (*Region, error) { return SolveAPP(context.Background(), s, zero, 1, APPOptions{}) },
		"Greedy": func() (*Region, error) { return SolveGreedy(context.Background(), s, zero, 1, GreedyOptions{}) },
	} {
		r, err := got()
		if r != nil || err != nil {
			t.Errorf("%s on irrelevant instance: region %v err %v, want nil/nil", name, r, err)
		}
	}
}
