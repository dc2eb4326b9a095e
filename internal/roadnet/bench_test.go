package roadnet

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func benchGraphSide(b *testing.B, side int) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	bld := NewBuilder()
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			bld.AddNode(geo.Point{X: float64(x) * 100, Y: float64(y) * 100})
		}
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			v := NodeID(y*side + x)
			if x+1 < side {
				if err := bld.AddEdge(v, v+1, 90+rng.Float64()*20); err != nil {
					b.Fatal(err)
				}
			}
			if y+1 < side {
				if err := bld.AddEdge(v, v+NodeID(side), 90+rng.Float64()*20); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return bld.Build()
}

func benchGraph(b *testing.B) *Graph { return benchGraphSide(b, 80) }

func BenchmarkExtractRect(b *testing.B) {
	g := benchGraph(b)
	r := geo.Rect{MinX: 1000, MinY: 1000, MaxX: 5000, MaxY: 5000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sub := g.ExtractRect(r); len(sub.ToParent) == 0 {
			b.Fatal("empty extraction")
		}
	}
}

// BenchmarkExtractRectSelectivity verifies that extraction cost tracks the
// rectangle, not the graph: on a fixed 200×200 grid (40k nodes, ~80k
// edges), shrinking the rectangle area 100× must shrink ns/op by well over
// 10×. The pooled extractor variant must report 0 allocs/op steady-state.
func BenchmarkExtractRectSelectivity(b *testing.B) {
	g := benchGraphSide(b, 200)
	full := g.BBox()
	cx, cy := full.Center().X, full.Center().Y
	rectFrac := func(frac float64) geo.Rect {
		hw, hh := full.Width()*frac/2, full.Height()*frac/2
		return geo.Rect{MinX: cx - hw, MinY: cy - hh, MaxX: cx + hw, MaxY: cy + hh}
	}
	cases := []struct {
		name string
		rect geo.Rect
	}{
		{"area=100%", rectFrac(1.0)},
		{"area=1%", rectFrac(0.1)},     // linear 10× smaller → area 100×
		{"area=0.01%", rectFrac(0.01)}, // area 10000× smaller
	}
	for _, tc := range cases {
		b.Run("pooled/"+tc.name, func(b *testing.B) {
			ex := NewExtractor(g)
			ex.ExtractRect(tc.rect) // warm the scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sub := ex.ExtractRect(tc.rect)
				if len(sub.ToParent) == 0 {
					b.Fatal("empty extraction")
				}
			}
		})
		b.Run("oneshot/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sub := g.ExtractRect(tc.rect); len(sub.ToParent) == 0 {
					b.Fatal("empty extraction")
				}
			}
		})
	}
}

// BenchmarkNearestNode probes random points on a 40k-node grid. The spiral
// cell walk should make this independent of |V| (a handful of cells per
// probe) — it was a full O(|V|) scan before.
func BenchmarkNearestNode(b *testing.B) {
	g := benchGraphSide(b, 200)
	rng := rand.New(rand.NewSource(7))
	probes := make([]geo.Point, 1024)
	for i := range probes {
		probes[i] = geo.Point{X: rng.Float64() * 20000, Y: rng.Float64() * 20000}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := g.NearestNode(probes[i%len(probes)]); v < 0 {
			b.Fatal("no node")
		}
	}
}

func BenchmarkComponents(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if comps := g.Components(); len(comps) != 1 {
			b.Fatal("unexpected components")
		}
	}
}
