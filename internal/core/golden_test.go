package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/golden"
)

// The golden tests pin every solver to answers recorded in testdata/ from
// the original allocating implementations (core.TGEN/APP/Greedy/TopK*)
// before they were deleted: the scratch solvers must reproduce them
// bit-for-bit across seeds, budgets, edge orders, quota solvers and µ, on
// one scratch reused throughout — so reuse contamination (stale stamps,
// leaked arena state) also surfaces as a mismatch.

// goldenInstances builds the shared golden workload: random instances of
// varying size for one RNG seed.
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

// goldenAlpha is the α the serving layer passes TGEN by default (σ̂max ≈ 9).
func goldenAlpha(in *Instance) float64 {
	if a := float64(in.NumNodes) / 9; a > 1 {
		return a
	}
	return 1
}

// fmtRegion renders a region as one golden-file field list.
func fmtRegion(r *Region) string {
	if r == nil {
		return "nil"
	}
	return fmt.Sprintf("len=%s score=%s scaled=%d nodes=%v edges=%v",
		golden.Float(r.Length), golden.Float(r.Score), r.Scaled, r.Nodes, r.Edges)
}

// forGoldenCases visits every seed × instance × budget of the sweep.
func forGoldenCases(t *testing.T, fn func(key string, in *Instance, delta float64)) {
	for _, seed := range goldenSeeds {
		for _, in := range goldenInstances(t, seed) {
			for _, delta := range goldenDeltas {
				fn(fmt.Sprintf("seed=%d n=%d delta=%g", seed, in.NumNodes, delta), in, delta)
			}
		}
	}
}

func TestGoldenSolveTGEN(t *testing.T) {
	s := NewSolveScratch()
	var lines []string
	forGoldenCases(t, func(key string, in *Instance, delta float64) {
		for _, order := range []EdgeOrder{OrderBFS, OrderAscLength} {
			got, err := SolveTGEN(context.Background(), s, in, delta, TGENOptions{Alpha: goldenAlpha(in), Order: order})
			if err != nil {
				t.Fatalf("%s order=%d: %v", key, order, err)
			}
			if got != nil {
				checkRegion(t, in, got, delta)
			}
			lines = append(lines, fmt.Sprintf("%s order=%d: %s", key, order, fmtRegion(got)))
		}
	})
	golden.Check(t, "tgen.golden", lines)
}

// TestGoldenSolveAPP also pins the kmst and pcst solvers underneath, under
// both quota-tree solvers (Garg and SPT).
func TestGoldenSolveAPP(t *testing.T) {
	s := NewSolveScratch()
	var lines []string
	forGoldenCases(t, func(key string, in *Instance, delta float64) {
		for _, kind := range []SolverKind{SolverGarg, SolverSPT} {
			got, err := SolveAPP(context.Background(), s, in, delta, APPOptions{Solver: kind})
			if err != nil {
				t.Fatalf("%s solver=%d: %v", key, kind, err)
			}
			lines = append(lines, fmt.Sprintf("%s solver=%d: %s", key, kind, fmtRegion(got)))
		}
	})
	golden.Check(t, "app.golden", lines)
}

func TestGoldenSolveGreedy(t *testing.T) {
	s := NewSolveScratch()
	var lines []string
	forGoldenCases(t, func(key string, in *Instance, delta float64) {
		for _, mu := range []float64{0, 0.2, 0.7, 1} {
			got, err := SolveGreedy(context.Background(), s, in, delta, GreedyOptions{Mu: mu, MuSet: true})
			if err != nil {
				t.Fatalf("%s mu=%g: %v", key, mu, err)
			}
			lines = append(lines, fmt.Sprintf("%s mu=%g: %s", key, mu, fmtRegion(got)))
		}
	})
	golden.Check(t, "greedy.golden", lines)
}

// TestGoldenSolveViewport runs the golden comparison on the instance shape
// the served TGEN workload solves (viewportInstance: ~290 nodes, a budget
// that rejects most tuple pairs on length alone), under both edge orders and
// then APP and Greedy, all on one reused scratch: the kernel's node marks
// and the dropped-array stamps must not leak between orders, methods or
// queries. Besides bit-equality with the recording it asserts the invariant
// Region documents and the solvers re-establish only at the answer
// boundary — Nodes sorted ascending (checkRegion).
func TestGoldenSolveViewport(t *testing.T) {
	s := NewSolveScratch()
	ctx := context.Background()
	var lines []string
	record := func(name string, in *Instance, delta float64, got *Region, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRegion(t, in, got, delta)
		lines = append(lines, name+": "+fmtRegion(got))
	}
	for _, seed := range []int64{1, 2} {
		in, delta := viewportInstance(t, seed)
		for _, order := range []EdgeOrder{OrderBFS, OrderAscLength} {
			got, err := SolveTGEN(ctx, s, in, delta, TGENOptions{Alpha: goldenAlpha(in), Order: order})
			record(fmt.Sprintf("seed=%d tgen order=%d", seed, order), in, delta, got, err)
			if len(got.Nodes) < 8 {
				t.Fatalf("seed %d order %d: answer %v; the test wants a multi-node region near the budget", seed, order, got)
			}
		}
		got, err := SolveAPP(ctx, s, in, delta, APPOptions{})
		record(fmt.Sprintf("seed=%d app", seed), in, delta, got, err)
		got, err = SolveGreedy(ctx, s, in, delta, GreedyOptions{})
		record(fmt.Sprintf("seed=%d greedy", seed), in, delta, got, err)
	}
	golden.Check(t, "viewport.golden", lines)
}

// TestGoldenSolveTopK pins the top-k extension (§6.2) at k = 3 for all three
// methods over the same instances, the viewport shape included.
func TestGoldenSolveTopK(t *testing.T) {
	s := NewSolveScratch()
	ctx := context.Background()
	var lines []string
	record := func(key string, in *Instance, delta float64, got []*Region, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		lines = append(lines, fmt.Sprintf("%s: ranks=%d", key, len(got)))
		for i, r := range got {
			checkRegion(t, in, r, delta)
			lines = append(lines, fmt.Sprintf("%s rank=%d: %s", key, i, fmtRegion(r)))
		}
	}
	topK := func(key string, in *Instance, delta float64) {
		got, err := SolveTopK(ctx, s, in, delta, 3, APPOptions{})
		record(key+" app", in, delta, got, err)
		got, err = SolveTopK(ctx, s, in, delta, 3, TGENOptions{Alpha: goldenAlpha(in)})
		record(key+" tgen", in, delta, got, err)
		got, err = SolveTopK(ctx, s, in, delta, 3, GreedyOptions{})
		record(key+" greedy", in, delta, got, err)
	}
	forGoldenCases(t, topK)
	for _, seed := range []int64{1, 2} {
		in, delta := viewportInstance(t, seed)
		topK(fmt.Sprintf("viewport seed=%d", seed), in, delta)
	}
	golden.Check(t, "topk.golden", lines)
}
