package core

import (
	"context"
	"math/rand"
	"testing"
)

// regionEq reports whether two regions are bit-identical answers: same
// length, score, scaled weight, and the same node and edge lists (nil and
// empty compare equal — the pooled path reuses zero-length buffers).
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

// goldenInstances builds the shared golden workload: random instances of
// varying size across several RNG seeds, with a spread of length budgets.
// One pooled scratch is reused across every solve, so reuse contamination
// (stale stamps, leaked arena state) would surface as a mismatch.
func goldenInstances(t *testing.T, seed int64) []*Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{2, 5, 12, 30, 60}
	out := make([]*Instance, 0, len(sizes))
	for _, n := range sizes {
		out = append(out, randomInstance(t, rng, n))
	}
	return out
}

var goldenSeeds = []int64{1, 2, 3, 4}
var goldenDeltas = []float64{0, 1.5, 4, 10, 1e9}

// TestSolveTGENMatchesTGEN: the pooled tuple-generation path must return
// bit-identical regions to the allocating TGEN across seeds, budgets, and
// both edge-processing orders, with the scratch reused throughout.
func TestSolveTGENMatchesTGEN(t *testing.T) {
	s := NewSolveScratch()
	for _, seed := range goldenSeeds {
		for _, in := range goldenInstances(t, seed) {
			for _, delta := range goldenDeltas {
				for _, order := range []EdgeOrder{OrderBFS, OrderAscLength} {
					opts := TGENOptions{Alpha: float64(in.NumNodes) / 9, Order: order}
					if opts.Alpha < 1 {
						opts.Alpha = 1
					}
					want, err := TGEN(in, delta, opts)
					if err != nil {
						t.Fatalf("seed %d n %d δ %v: TGEN: %v", seed, in.NumNodes, delta, err)
					}
					got, err := SolveTGEN(context.Background(), s, in, delta, opts)
					if err != nil {
						t.Fatalf("seed %d n %d δ %v: SolveTGEN: %v", seed, in.NumNodes, delta, err)
					}
					if !regionEq(got, want) {
						t.Fatalf("seed %d n %d δ %v order %d: pooled %v != %v", seed, in.NumNodes, delta, order, got, want)
					}
					if want != nil {
						checkRegion(t, in, got, delta)
					}
				}
			}
		}
	}
}

// TestSolveAPPMatchesAPP: the pooled approximation path — including the
// pooled kmst and pcst solvers underneath — must match the allocating APP
// bit-identically under both quota-tree solvers (Garg and SPT).
func TestSolveAPPMatchesAPP(t *testing.T) {
	s := NewSolveScratch()
	for _, seed := range goldenSeeds {
		for _, in := range goldenInstances(t, seed) {
			for _, delta := range goldenDeltas {
				for _, kind := range []SolverKind{SolverGarg, SolverSPT} {
					opts := APPOptions{Solver: kind}
					want, err := APP(in, delta, opts)
					if err != nil {
						t.Fatalf("seed %d n %d δ %v: APP: %v", seed, in.NumNodes, delta, err)
					}
					got, err := SolveAPP(context.Background(), s, in, delta, opts)
					if err != nil {
						t.Fatalf("seed %d n %d δ %v: SolveAPP: %v", seed, in.NumNodes, delta, err)
					}
					if !regionEq(got, want) {
						t.Fatalf("seed %d n %d δ %v solver %d: pooled %v != %v", seed, in.NumNodes, delta, kind, got, want)
					}
				}
			}
		}
	}
}

// TestSolveGreedyMatchesGreedy: the pooled greedy path (epoch-stamped
// membership, reused region buffers) must match the allocating Greedy.
func TestSolveGreedyMatchesGreedy(t *testing.T) {
	s := NewSolveScratch()
	for _, seed := range goldenSeeds {
		for _, in := range goldenInstances(t, seed) {
			for _, delta := range goldenDeltas {
				for _, mu := range []float64{0, 0.2, 0.7, 1} {
					opts := GreedyOptions{Mu: mu, MuSet: true}
					want, err := Greedy(in, delta, opts)
					if err != nil {
						t.Fatalf("seed %d n %d δ %v: Greedy: %v", seed, in.NumNodes, delta, err)
					}
					got, err := SolveGreedy(context.Background(), s, in, delta, opts)
					if err != nil {
						t.Fatalf("seed %d n %d δ %v: SolveGreedy: %v", seed, in.NumNodes, delta, err)
					}
					if !regionEq(got, want) {
						t.Fatalf("seed %d n %d δ %v µ %v: pooled %v != %v", seed, in.NumNodes, delta, mu, got, want)
					}
				}
			}
		}
	}
}

// TestSolveViewportGolden runs the golden comparison on the instance shape
// the served TGEN workload solves (viewportInstance: ~290 nodes, a budget
// that rejects most tuple pairs on length alone), under both edge orders and
// then APP and Greedy, all on one reused scratch: the kernel's node marks
// and the dropped-array stamps must not leak between orders, methods or
// queries. Besides bit-equality with the allocating twin it asserts the
// invariant Region documents and the pooled solvers re-establish only at the
// answer boundary — Nodes sorted ascending — and that Edges keep the twin's
// order.
func TestSolveViewportGolden(t *testing.T) {
	s := NewSolveScratch()
	ctx := context.Background()
	check := func(name string, in *Instance, delta float64, got, want *Region, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !regionEq(got, want) {
			t.Fatalf("%s: pooled %v != %v", name, got, want)
		}
		checkRegion(t, in, got, delta) // includes: Nodes strictly ascending
	}
	for _, seed := range []int64{1, 2} {
		in, delta := viewportInstance(t, seed)
		for _, order := range []EdgeOrder{OrderBFS, OrderAscLength} {
			opts := TGENOptions{Alpha: float64(in.NumNodes) / 9, Order: order}
			want, err := TGEN(in, delta, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Nodes) < 8 {
				t.Fatalf("seed %d order %d: answer %v; the test wants a multi-node region near the budget", seed, order, want)
			}
			got, err := SolveTGEN(ctx, s, in, delta, opts)
			check("TGEN", in, delta, got, want, err)
		}
		wantAPP, err := APP(in, delta, APPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gotAPP, err := SolveAPP(ctx, s, in, delta, APPOptions{})
		check("APP", in, delta, gotAPP, wantAPP, err)
		wantGreedy, err := Greedy(in, delta, GreedyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gotGreedy, err := SolveGreedy(ctx, s, in, delta, GreedyOptions{})
		check("Greedy", in, delta, gotGreedy, wantGreedy, err)
	}
}

// TestSolveScratchMethodInterleaving reuses one scratch across all three
// methods query after query, the way a serving worker alternating request
// types would, and checks every answer against the allocating baselines.
func TestSolveScratchMethodInterleaving(t *testing.T) {
	s := NewSolveScratch()
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 30; round++ {
		in := randomInstance(t, rng, 3+rng.Intn(40))
		delta := rng.Float64() * 8
		switch round % 3 {
		case 0:
			want, _ := TGEN(in, delta, TGENOptions{})
			got, err := SolveTGEN(context.Background(), s, in, delta, TGENOptions{})
			if err != nil || !regionEq(got, want) {
				t.Fatalf("round %d TGEN: got %v (%v), want %v", round, got, err, want)
			}
		case 1:
			want, _ := APP(in, delta, APPOptions{})
			got, err := SolveAPP(context.Background(), s, in, delta, APPOptions{})
			if err != nil || !regionEq(got, want) {
				t.Fatalf("round %d APP: got %v (%v), want %v", round, got, err, want)
			}
		default:
			want, _ := Greedy(in, delta, GreedyOptions{})
			got, err := SolveGreedy(context.Background(), s, in, delta, GreedyOptions{})
			if err != nil || !regionEq(got, want) {
				t.Fatalf("round %d Greedy: got %v (%v), want %v", round, got, err, want)
			}
		}
	}
}

// TestSolveValidation mirrors the baseline error contract.
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
	// No relevant node: nil region, nil error, like the baselines.
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
