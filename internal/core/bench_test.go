package core

import (
	"context"
	"math/rand"
	"testing"
)

// gridInstance builds a side×side street grid whose edge lengths are
// uniform in [lenLo, lenLo+lenSpan) and where a density share of the nodes
// carries a uniform (0,1) relevance weight.
func gridInstance(tb testing.TB, seed int64, side int, lenLo, lenSpan, density float64) *Instance {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := side * side
	var edges []Edge
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			v := int32(y*side + x)
			if x+1 < side {
				edges = append(edges, Edge{U: v, V: v + 1, Length: lenLo + rng.Float64()*lenSpan})
			}
			if y+1 < side {
				edges = append(edges, Edge{U: v, V: v + int32(side), Length: lenLo + rng.Float64()*lenSpan})
			}
		}
	}
	weights := make([]float64, n)
	for i := range weights {
		if rng.Float64() < density {
			weights[i] = rng.Float64()
		}
	}
	in, err := NewInstance(n, edges, weights)
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// benchInstance builds a grid-like weighted instance comparable to a query
// region of the NY dataset (~900 nodes). Relevance density mirrors real
// keyword queries: a few percent of nodes carry weight (dense weights
// invert the TGEN/APP cost order).
func benchInstance(b *testing.B) (*Instance, float64) {
	return gridInstance(b, 12, 30, 250, 100, 0.06), 10000 // ∆ = 10 km
}

// viewportInstance builds the instance shape the served TGEN workload
// solves (bench/README's solve_tgen): a 17×17 street grid (~290 nodes)
// with 200–285 m blocks, about a third of the nodes relevant, and ∆ = 4 km —
// a budget of ~16 edges, so most tuple pairs are too long to combine.
func viewportInstance(tb testing.TB, seed int64) (*Instance, float64) {
	return gridInstance(tb, seed, 17, 200, 85, 0.35), 4000
}

func BenchmarkFindOptTreeDP(b *testing.B) {
	// A 200-node random tree with integer weights, the inner DP of APP.
	rng := rand.New(rand.NewSource(9))
	const n = 200
	var edges []Edge
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{U: int32(rng.Intn(i)), V: int32(i), Length: 100 + rng.Float64()*400})
	}
	weights := make([]float64, n)
	scaled := make([]int64, n)
	for i := range weights {
		scaled[i] = int64(rng.Intn(8))
		weights[i] = float64(scaled[i])
	}
	in, err := NewInstance(n, edges, weights)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSolveScratch()
	s.scaling = Scaling{Alpha: 1, Theta: 1, Scaled: scaled}
	treeNodes := make([]int32, n)
	treeEdges := make([]int32, n-1)
	for i := range treeNodes {
		treeNodes[i] = int32(i)
	}
	for i := range treeEdges {
		treeEdges[i] = int32(i)
	}
	run := func() {
		s.begin(context.Background())
		if r := s.findOptTree(in, treeNodes, treeEdges, 5000); r == nil {
			b.Fatal("nil result")
		}
	}
	run() // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkTopK3TGEN(b *testing.B) {
	in, delta := benchInstance(b)
	opts := TGENOptions{Alpha: float64(in.NumNodes) / 9}
	s := NewSolveScratch()
	if _, err := SolveTopK(context.Background(), s, in, delta, 3, opts); err != nil { // warm
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveTopK(context.Background(), s, in, delta, 3, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveAPP alternates two instances, as served traffic does: on a
// repeated instance the Garg solver keeps its λ-cache and runs no moat
// growing at all, so a one-instance loop would time the cache, not APP.
func BenchmarkSolveAPP(b *testing.B) {
	run := func(b *testing.B, ins [2]*Instance, delta float64) {
		s := NewSolveScratch()
		for _, in := range ins { // warm
			if _, err := SolveAPP(context.Background(), s, in, delta, APPOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := SolveAPP(context.Background(), s, ins[i%2], delta, APPOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("grid900", func(b *testing.B) {
		in, delta := benchInstance(b)
		run(b, [2]*Instance{in, gridInstance(b, 13, 30, 250, 100, 0.06)}, delta)
	})
	// The regime of the served solve_app workload.
	b.Run("viewport", func(b *testing.B) {
		in1, delta := viewportInstance(b, 1)
		in2, _ := viewportInstance(b, 2)
		run(b, [2]*Instance{in1, in2}, delta)
	})
}

func BenchmarkSolveTGEN(b *testing.B) {
	run := func(b *testing.B, in *Instance, delta float64) {
		// α = n/9 (σ̂max ≈ 9) is what the serving layer passes by default.
		opts := TGENOptions{Alpha: float64(in.NumNodes) / 9}
		s := NewSolveScratch()
		if _, err := SolveTGEN(context.Background(), s, in, delta, opts); err != nil { // warm
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := SolveTGEN(context.Background(), s, in, delta, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("grid900", func(b *testing.B) {
		in, delta := benchInstance(b)
		run(b, in, delta)
	})
	// The regime of the served solve_tgen workload: ~7 ms per solve on a
	// 2-vCPU AMD EPYC, 84 % of it in combineAcross (the pair scan 37 %, the
	// keep-check 25 %, Lemma 9's hasAny 15 %, building 8 %) and 15 % in
	// installNew.
	b.Run("viewport", func(b *testing.B) {
		in, delta := viewportInstance(b, 1)
		run(b, in, delta)
	})
}

func BenchmarkSolveGreedy(b *testing.B) {
	in, delta := benchInstance(b)
	s := NewSolveScratch()
	if _, err := SolveGreedy(context.Background(), s, in, delta, GreedyOptions{}); err != nil { // warm
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveGreedy(context.Background(), s, in, delta, GreedyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
