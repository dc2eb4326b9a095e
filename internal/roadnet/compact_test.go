package roadnet

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geo"
)

// TestSubgraphCompactEquivalent checks that a compact copy answers the
// whole Subgraph API exactly like the original — including Local for
// every parent node, in and out of the subgraph — and keeps answering it
// after the extractor that produced the original has moved on to other
// rectangles (the original's buffers are reused; the compact copy must
// not alias them).
func TestSubgraphCompactEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(t, rng, 30+rng.Intn(50), 100)
		ex := NewExtractor(g)
		r := geo.NewRect(
			geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
		)
		sub := ex.ExtractRect(r)
		compact := sub.Compact()
		assertSameSubgraph(t, g, sub, compact)
		if compact.stamp != nil || compact.localOf != nil {
			t.Fatal("compact copy still carries parent-sized stamp/remap arrays")
		}
		if len(compact.lookupParent) != len(compact.ToParent) {
			t.Fatalf("lookup size %d, want %d", len(compact.lookupParent), len(compact.ToParent))
		}
		// Clobber the extractor's scratch with different extractions, then
		// verify the compact copy against a fresh reference.
		for i := 0; i < 3; i++ {
			ex.ExtractRect(geo.NewRect(
				geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
				geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			))
		}
		assertSameSubgraph(t, g, g.ExtractRect(r), compact)
	}
}

// TestSubgraphCompactExtractNodes covers the unsorted mapping path:
// ExtractNodes assigns local IDs in first-occurrence order, so the
// compact lookup must sort its pair view.
func TestSubgraphCompactExtractNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g := randomGraph(t, rng, 40, 120)
	sub := g.ExtractNodes([]NodeID{17, 3, 25, 8, 3, 30})
	compact := sub.Compact()
	assertSameSubgraph(t, g, sub, compact)
	if compact.Local(17) != 0 || compact.Local(3) != 1 || compact.Local(30) != 4 {
		t.Fatalf("first-occurrence locals lost: %d %d %d",
			compact.Local(17), compact.Local(3), compact.Local(30))
	}
}

// TestSubgraphCompactAllocation is the memory claim behind Compact: a
// compact copy of a small subgraph of a large parent must allocate
// memory proportional to the subgraph, never a parent-sized array. The
// threshold is one parent-sized stamp array — the cheapest slice the
// extractor representation pins — so regressing to any parent-sized
// allocation fails.
func TestSubgraphCompactAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const parentNodes = 20000
	g := randomGraph(t, rng, parentNodes, 2*parentNodes)
	ex := NewExtractor(g)
	// A thin rectangle: a handful of nodes out of 20k.
	sub := ex.ExtractRect(geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4})
	if len(sub.ToParent) == 0 || len(sub.ToParent) > parentNodes/20 {
		t.Fatalf("fixture subgraph has %d nodes; want a small non-empty slice of %d", len(sub.ToParent), parentNodes)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	compact := sub.Compact()
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	limit := uint64(parentNodes * 4) // one parent-sized []uint32 stamp array
	if allocated >= limit {
		t.Fatalf("Compact allocated %d bytes for a %d-node subgraph of a %d-node parent (limit %d)",
			allocated, len(sub.ToParent), parentNodes, limit)
	}
	runtime.KeepAlive(compact)
}
