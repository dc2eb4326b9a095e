package pcst

import (
	"math/rand"
	"testing"
)

// gridGraph builds a side x side grid with random prizes, the topology
// class APP's solver sees on road networks.
func gridGraph(side int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := side * side
	g := &Graph{N: n, Prizes: make([]float64, n)}
	for i := range g.Prizes {
		if rng.Float64() < 0.3 {
			g.Prizes[i] = rng.Float64() * 3
		}
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			v := int32(y*side + x)
			if x+1 < side {
				g.Edges = append(g.Edges, Edge{v, v + 1, 0.5 + rng.Float64()})
			}
			if y+1 < side {
				g.Edges = append(g.Edges, Edge{v, v + int32(side), 0.5 + rng.Float64()})
			}
		}
	}
	return g
}

func BenchmarkSolveGrid30(b *testing.B) {
	g := gridGraph(30, 7)
	s := NewSolver()
	if _, err := s.Solve(g); err != nil { // warm
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		if _, err := s.Solve(g); err != nil {
			b.Fatal(err)
		}
	}
}
