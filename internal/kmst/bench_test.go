package kmst

import (
	"math/rand"
	"testing"

	"repro/internal/pcst"
)

func benchGraph(b *testing.B) *graph {
	b.Helper()
	const side = 25
	rng := rand.New(rand.NewSource(3))
	n := side * side
	var edges []pcst.Edge
	weights := make([]int64, n)
	for i := range weights {
		if rng.Float64() < 0.3 {
			weights[i] = int64(1 + rng.Intn(5))
		}
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			v := int32(y*side + x)
			if x+1 < side {
				edges = append(edges, pcst.Edge{U: v, V: v + 1, Cost: 0.5 + rng.Float64()})
			}
			if y+1 < side {
				edges = append(edges, pcst.Edge{U: v, V: v + int32(side), Cost: 0.5 + rng.Float64()})
			}
		}
	}
	return &graph{N: n, Edges: edges, Weights: weights}
}

func BenchmarkGargQuota(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := g.garg(b) // fresh solver, empty λ-cache: measures a cold quota query
		if _, ok := treeOK(b, s, 60); !ok {
			b.Fatal("quota infeasible")
		}
	}
}

func BenchmarkSPTQuota(b *testing.B) {
	g := benchGraph(b)
	s := g.spt(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := treeOK(b, s, 60); !ok {
			b.Fatal("quota infeasible")
		}
	}
}
