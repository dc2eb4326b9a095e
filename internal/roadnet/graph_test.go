package roadnet

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

// paperGraph builds the 6-node example of Figure 2 of the paper:
// weights are attached by the core package; here we need only topology.
// Edge lengths: (v1,v2)=1, (v1,v3)=5, (v2,v3)=3.1, (v2,v6)=1.5,
// (v3,v4)=4, (v4,v5)=2.8, (v5,v6)=1.6 ... The figure shows lengths
// 1, 3.1, 5, 4, 2.8, 3.4, 1.5, 3.2 — the exact assignment to pairs is
// partly ambiguous in the figure, so tests that need exact optimum use
// explicitly constructed graphs instead.
func lineGraph(t *testing.T, lengths []float64) *Graph {
	t.Helper()
	b := NewBuilder()
	for i := 0; i <= len(lengths); i++ {
		b.AddNode(geo.Point{X: float64(i), Y: 0})
	}
	for i, l := range lengths {
		if err := b.AddEdge(NodeID(i), NodeID(i+1), l); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode(geo.Point{X: 0, Y: 0})
	c := b.AddNode(geo.Point{X: 3, Y: 4})
	if err := b.AddEdgeEuclidean(a, c); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("size = %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Edge(0).Length != 5 {
		t.Errorf("euclidean length = %v, want 5", g.Edge(0).Length)
	}
	if g.Degree(a) != 1 || g.Degree(c) != 1 {
		t.Error("degrees wrong")
	}
	nb := g.Neighbors(a)
	if len(nb) != 1 || nb[0].To != c || nb[0].Length != 5 {
		t.Errorf("Neighbors(a) = %+v", nb)
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder()
	v := b.AddNode(geo.Point{})
	if err := b.AddEdge(v, v, 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := b.AddEdge(v, 5, 1); err == nil {
		t.Error("dangling endpoint accepted")
	}
	if err := b.AddEdge(v, v+100, 1); err == nil {
		t.Error("out of range endpoint accepted")
	}
	w := b.AddNode(geo.Point{X: 1})
	if err := b.AddEdge(v, w, -1); err == nil {
		t.Error("negative length accepted")
	}
	if err := b.AddEdge(v, w, math.NaN()); err == nil {
		t.Error("NaN length accepted")
	}
	if err := b.AddEdge(v, w, math.Inf(1)); err == nil {
		t.Error("infinite length accepted")
	}
	if err := b.AddEdgeEuclidean(v, 99); err == nil {
		t.Error("AddEdgeEuclidean out of range accepted")
	}
}

func TestAdjacencyConsistency(t *testing.T) {
	// Every undirected edge must appear exactly once in each endpoint's list.
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder()
	const n = 50
	for i := 0; i < n; i++ {
		b.AddNode(geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
	}
	for i := 0; i < 120; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if err := b.AddEdge(u, v, rng.Float64()*10); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	counts := make(map[EdgeID]int)
	totalDeg := 0
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		totalDeg += g.Degree(v)
		for _, he := range g.Neighbors(v) {
			counts[he.Edge]++
			e := g.Edge(he.Edge)
			if he.Length != e.Length {
				t.Fatalf("halfedge length mismatch on edge %d", he.Edge)
			}
			if e.U != v && e.V != v {
				t.Fatalf("edge %d in adjacency of non-endpoint %d", he.Edge, v)
			}
		}
	}
	if totalDeg != 2*g.NumEdges() {
		t.Errorf("Σdeg = %d, want %d", totalDeg, 2*g.NumEdges())
	}
	for id, c := range counts {
		if c != 2 {
			t.Errorf("edge %d appears %d times in adjacency, want 2", id, c)
		}
	}
}

func TestLengthStats(t *testing.T) {
	g := lineGraph(t, []float64{2, 0.5, 7})
	if got := g.MinEdgeLength(99); got != 0.5 {
		t.Errorf("MinEdgeLength = %v, want 0.5", got)
	}
	if got := g.MaxEdgeLength(); got != 7 {
		t.Errorf("MaxEdgeLength = %v, want 7", got)
	}
	empty := NewBuilder().Build()
	if got := empty.MinEdgeLength(42); got != 42 {
		t.Errorf("MinEdgeLength fallback = %v, want 42", got)
	}
	if got := empty.MaxEdgeLength(); got != 0 {
		t.Errorf("MaxEdgeLength empty = %v, want 0", got)
	}
}

func TestNodesInRectAndNearest(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 10; i++ {
		b.AddNode(geo.Point{X: float64(i), Y: 0})
	}
	g := b.Build()
	got := g.NodesInRect(geo.Rect{MinX: 2.5, MinY: -1, MaxX: 6.5, MaxY: 1})
	if len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Errorf("NodesInRect = %v", got)
	}
	if v := g.NearestNode(geo.Point{X: 4.4, Y: 10}); v != 4 {
		t.Errorf("NearestNode = %d, want 4", v)
	}
	if v := NewBuilder().Build().NearestNode(geo.Point{}); v != -1 {
		t.Errorf("NearestNode on empty graph = %d, want -1", v)
	}
}

// TestNearestNodeMatchesBruteForce pins the spiral cell walk to the full
// scan it replaced: same node for random probes inside, on the edge of,
// and far outside the bounding box, with the lowest ID winning exact ties.
func TestNearestNodeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := NewBuilder()
	for i := 0; i < 400; i++ {
		b.AddNode(geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 500})
	}
	// Duplicate positions so exact distance ties occur.
	for i := 0; i < 20; i++ {
		b.AddNode(b.pts[rng.Intn(200)])
	}
	g := b.Build()
	brute := func(p geo.Point) NodeID {
		best, bestD := NodeID(-1), math.Inf(1)
		for i, q := range g.pts {
			if d := p.Dist(q); d < bestD {
				best, bestD = NodeID(i), d
			}
		}
		return best
	}
	probes := []geo.Point{
		{X: -500, Y: -500},   // far outside, min corner
		{X: 5000, Y: 250},    // far outside, one axis
		{X: 0, Y: 0},         // bbox corner
		{X: 1000, Y: 500},    // bbox max corner
		{X: 500.001, Y: 250}, // interior
	}
	for i := 0; i < 200; i++ {
		probes = append(probes, geo.Point{X: rng.Float64()*1400 - 200, Y: rng.Float64()*900 - 200})
	}
	// Probe at exact node positions too (guaranteed ties at duplicates).
	for i := 0; i < 50; i++ {
		probes = append(probes, g.pts[rng.Intn(g.NumNodes())])
	}
	for _, p := range probes {
		if got, want := g.NearestNode(p), brute(p); got != want {
			t.Fatalf("NearestNode(%v) = %d, brute force %d", p, got, want)
		}
	}
	// Non-finite probes must terminate and return -1 like the full scan
	// (every distance comparison is false), not spin forever.
	for _, p := range []geo.Point{
		{X: math.NaN(), Y: 10},
		{X: 10, Y: math.NaN()},
		{X: math.Inf(1), Y: 10},
		{X: math.Inf(-1), Y: math.Inf(1)},
	} {
		if got := g.NearestNode(p); got != -1 {
			t.Fatalf("NearestNode(%v) = %d, want -1", p, got)
		}
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 7; i++ {
		b.AddNode(geo.Point{X: float64(i)})
	}
	mustEdge := func(u, v NodeID) {
		if err := b.AddEdge(u, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge(0, 1)
	mustEdge(1, 2)
	mustEdge(3, 4)
	// 5, 6 isolated
	g := b.Build()
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("got %d components, want 4", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 {
		t.Errorf("component sizes = %d,%d want 3,2", len(comps[0]), len(comps[1]))
	}
}

func TestExtractRect(t *testing.T) {
	// 4-node square with one diagonal; cut the rect to keep 3 nodes.
	b := NewBuilder()
	p00 := b.AddNode(geo.Point{X: 0, Y: 0})
	p10 := b.AddNode(geo.Point{X: 10, Y: 0})
	p01 := b.AddNode(geo.Point{X: 0, Y: 10})
	p11 := b.AddNode(geo.Point{X: 10, Y: 10})
	for _, e := range [][2]NodeID{{p00, p10}, {p00, p01}, {p10, p11}, {p01, p11}, {p00, p11}} {
		if err := b.AddEdgeEuclidean(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	sub := g.ExtractRect(geo.Rect{MinX: -1, MinY: -1, MaxX: 11, MaxY: 5})
	if len(sub.ToParent) != 2 {
		t.Fatalf("subgraph nodes = %d, want 2", len(sub.ToParent))
	}
	if len(sub.Edges) != 1 {
		t.Fatalf("subgraph edges = %d, want 1 (edges leaving Λ are dropped)", len(sub.Edges))
	}
	if sub.Local(p00) == -1 || sub.Local(p10) == -1 {
		t.Error("inside nodes missing from subgraph")
	}
	if sub.Local(p01) != -1 {
		t.Error("outside node mapped")
	}
	if got := sub.ToParent[sub.Local(p10)]; got != p10 {
		t.Errorf("round trip parent id = %d, want %d", got, p10)
	}
}

func TestExtractNodesDedup(t *testing.T) {
	g := lineGraph(t, []float64{1, 1, 1})
	sub := g.ExtractNodes([]NodeID{1, 2, 2, 1})
	if len(sub.ToParent) != 2 || len(sub.Edges) != 1 {
		t.Errorf("got %d nodes %d edges, want 2/1", len(sub.ToParent), len(sub.Edges))
	}
}

func TestRoundTripSerialization(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder()
	for i := 0; i < 30; i++ {
		b.AddNode(geo.Point{X: rng.NormFloat64() * 1e5, Y: rng.NormFloat64() * 1e5})
	}
	for i := 0; i < 60; i++ {
		u, v := NodeID(rng.Intn(30)), NodeID(rng.Intn(30))
		if u != v {
			if err := b.AddEdge(u, v, rng.Float64()*5000); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size mismatch")
	}
	for i := 0; i < g.NumNodes(); i++ {
		if g.Point(NodeID(i)) != g2.Point(NodeID(i)) {
			t.Fatalf("node %d coordinates differ", i)
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		if g.Edge(EdgeID(i)) != g2.Edge(EdgeID(i)) {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestReadRejectsMalformedInput(t *testing.T) {
	bad := []string{
		"g 1\n",                               // short header
		"g x y\n",                             // non-numeric header
		"v 0 1\n",                             // short node line
		"v 5 0 0\n",                           // non-dense node id
		"v 0 a b\n",                           // bad coords
		"e 0 1 2\n",                           // edge before nodes exist
		"g 2 1\nv 0 0 0\nv 1 1 1\n",           // count mismatch (edges)
		"g 3 0\nv 0 0 0\n",                    // count mismatch (nodes)
		"q what\n",                            // unknown record
		"g 1 0\nv 0 0 0\ne 0 0 1\n",           // self loop
		"g 2 1\nv 0 0 0\nv 1 1 1\ne 0 1 -5\n", // negative length
	}
	for _, in := range bad {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted, want error", in)
		}
	}
}

func TestReadSkipsCommentsAndBlank(t *testing.T) {
	in := "# hello\n\ng 2 1\nv 0 0 0\nv 1 3 4\ne 0 1 5\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatal("comment handling broke parsing")
	}
}

func TestBBox(t *testing.T) {
	g := lineGraph(t, []float64{1, 1})
	want := geo.Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 0}
	if g.BBox() != want {
		t.Errorf("BBox = %v, want %v", g.BBox(), want)
	}
}

func TestExtractPreservesGeometryProperty(t *testing.T) {
	// Property: every node of a rect-extraction lies inside the rect, and
	// every edge of the parent with both endpoints inside appears.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		const n = 25
		for i := 0; i < n; i++ {
			b.AddNode(geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10})
		}
		edges := 0
		for edges < 40 {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			if err := b.AddEdgeEuclidean(u, v); err != nil {
				return false
			}
			edges++
		}
		g := b.Build()
		r := geo.Rect{MinX: 2, MinY: 2, MaxX: 8, MaxY: 8}
		sub := g.ExtractRect(r)
		for _, v := range sub.ToParent {
			if !r.Contains(g.Point(v)) {
				return false
			}
		}
		wantEdges := 0
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(EdgeID(i))
			if r.Contains(g.Point(e.U)) && r.Contains(g.Point(e.V)) {
				wantEdges++
			}
		}
		return len(sub.Edges) == wantEdges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
